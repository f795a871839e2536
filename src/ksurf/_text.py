"""Lines of text from numpy arrays: integers in decimal, floats as b"%.17g".

CPython formats a float through its correctly rounded dtoa (Gay 1990), one
value at a time.  Here a whole block of float64 values gets the same bytes
from array arithmetic wherever %g spells its fixed form: for 1e-4 <= |x| <
1e17, let X = floor(log10 |x|), which lies in -4 .. 16 (the double 1e-4 lies
above 10^-4).  Then |x| * 10^(16-X) lies in [1e16, 1e17).  Dekker's
two-product (Numer. Math. 18, 1971) forms it exactly as p + e.  10^q is an
exact double for q <= 22, since 5^22 < 2^53.  Where log10 put X one decade
off, the exact product shows it, and X is corrected.  The 17 correctly
rounded digits are then D = p + rint(e).  p > 2^53 is an even integer, so a
tie rounds to even, as dtoa does.  D never rounds up to 10^17: the largest
double below each power of ten in the range is more than half a unit of the
17th digit away from it.  D is spelt through a table of 4-digit groups.  Its
digits are laid out in the fixed form in a fixed-width byte matrix, and one
boolean mask picks out each line's bytes.  ±0 take the same path.  The rest
go through b"%.17g" %, one template per block: |x| < 1e-4, |x| >= 1e17, inf
and nan.

lines() is the one place that knows this line format.  The writers pass it
at most BLOCK values at a time, which bounds the memory a call holds.
"""

from __future__ import annotations

import numpy as np

BLOCK = 2048  # values per lines() call in the writers: under 1 MB traced

_POW10 = np.concatenate(([1.0], np.cumprod(np.full(22, 10.0))))  # 10^0 .. 10^22, exact
_SPLIT = 134217729.0  # 2^27 + 1, Veltkamp's splitter for float64
_POW10_HI = (_SPLIT * _POW10) - ((_SPLIT * _POW10) - _POW10)
_POW10_LO = _POW10 - _POW10_HI
_INT10 = 10 ** np.arange(19, dtype=np.int64)  # 10^0 .. 10^18


def _digit_tables() -> tuple[np.ndarray, np.ndarray]:
    """Item v < 10^4 of each: the four ASCII digits of v as one 4-byte item,
    and the number of trailing zeros of v (4 for v = 0)."""
    d0, d1, d2, d3 = np.indices((10,) * 4, dtype=np.uint8).reshape(4, -1)
    ascii = np.stack((d0, d1, d2, d3), axis=1) + np.uint8(ord("0"))
    zeros = (d3 == 0) * (1 + (d2 == 0) * (1 + (d1 == 0) * (1 + (d0 == 0).astype(np.uint8))))
    return ascii.view("V4").reshape(-1), zeros


_DIGITS4, _ZEROS4 = _digit_tables()

# The _FLOAT_WIDTH byte slots of a float, the last one its separator:
#   0        "-"
#   1 .. 5   "0.000"     the fixed form with X < 0 shows "0." and -X-1 zeros
#   6 .. 22  digits      those up to the point
#   23       "."
#   24 .. 40 digits      those after the point
# Which slots show depends only on the sign, X and the digit count; _SHOWN
# holds each such mask as one item.  A value taken by b"%.17g" % fills the
# first 24 slots, left-aligned.
_FLOAT_WIDTH = 42
_FLOAT = np.dtype([("prefix", "V6"), ("lead", "u1"), ("digits", "V16"), ("point", "V1"),
                   ("lead2", "u1"), ("digits2", "V16"), ("sep", "u1")])
_FLOAT_TEXT = b"-0.000" + b"0" * 17 + b"." + b"0" * 17
_SLOW = 24  # the longest %.17g text: "-2.2250738585072014e-308"


def _shown_table() -> np.ndarray:
    """Item (neg * 21 + X + 4) * 17 + shown - 1: the slots that a float of
    that sign and X in -4 .. 16 shows, with shown = 1 .. 17 digits (the fixed
    form shows every integer digit)."""
    neg = np.arange(2)[:, None, None]
    X = np.arange(-4, 17)[:, None, None]  # the digit that the "." follows, if X >= 0
    shown = np.arange(1, 18)[:, None]
    k = np.arange(17)
    tab = np.zeros((2, 21, 17, _FLOAT_WIDTH), bool)
    tab[..., 0] = neg == 1
    tab[..., 1:3] = X < 0
    tab[..., 3:6] = k[:3] < -X - 1
    tab[..., 6:23] = (k <= X) & (k < shown)
    tab[..., 23] = ((X >= 0) & (X + 1 < shown))[..., 0]
    tab[..., 24:41] = (k > X) & (k < shown)
    tab[..., 41] = True
    return tab.view(f"V{_FLOAT_WIDTH}").reshape(-1)


_SHOWN = _shown_table()


def _groups(v: np.ndarray, count: int) -> np.ndarray:
    """The count 4-digit groups of the nonnegative integers v < 10^(4 count),
    most significant first, as the columns of one row per value."""
    out = np.empty((v.size, count), np.int64)
    for g in range(count - 1, 0, -1):
        q = v // 10000
        out[:, g] = v - q * 10000
        v = q
    out[:, 0] = v
    return out


def _times_pow10(a: np.ndarray, q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(p, e) with p + e = a * 10^q exactly, by Dekker's two-product."""
    b, bh, bl = _POW10[q], _POW10_HI[q], _POW10_LO[q]
    p = a * b
    c = _SPLIT * a
    ah = c - (c - a)
    al = a - ah
    return p, ((ah * bh - p) + ah * bl + al * bh) + al * bl


def _decimal(ax: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(D, X, fast): ax = D * 10^(X-16) to 17 correctly rounded digits, with
    D in [1e16, 1e17) where fast, and D = X = 0 elsewhere."""
    fast = (ax >= 1e-4) & (ax < 1e17)  # nan is neither
    a = np.where(fast, ax, 1.0)
    X = np.clip(np.floor(np.log10(a)), -4, 16).astype(np.intp)
    p, e = _times_pow10(a, 16 - X)
    up = (p > 1e17) | ((p == 1e17) & (e >= 0))
    down = (p < 1e16) | ((p == 1e16) & (e < 0))  # 1e16 less a little is below
    if up.any() or down.any():
        X += up
        X -= down
        p, e = _times_pow10(a, 16 - X)
    # p is even, so ties go to even.  D < 10^17: no double of [1e-4, 1e17)
    # lies within half a unit of the 17th digit below a power of ten
    return np.where(fast, p.astype(np.int64) + np.rint(e).astype(np.int64), 0), X, fast


def _float_text(x: np.ndarray, sep: bytes) -> tuple[np.ndarray, np.ndarray]:
    """(text, shown): _FLOAT_WIDTH byte slots per entry of x, in order, each
    ending in sep, and the mask of the slots that spell %.17g."""
    x = np.ascontiguousarray(np.asarray(x).astype(np.float64, casting="same_kind")).reshape(-1)
    ax = np.abs(x)
    D, X, fast = _decimal(ax)
    lead = D // _INT10[16]
    groups = _groups(D - lead * _INT10[16], 4)
    text = np.empty(x.size, f"V{_FLOAT_WIDTH}")
    text[:] = np.void(_FLOAT_TEXT + sep)
    text = text.view(_FLOAT)
    text["lead"] = text["lead2"] = lead + ord("0")
    text["digits"] = text["digits2"] = _DIGITS4[groups].view("V16")[:, 0]
    g0, g1, g2, g3 = groups.T
    zeros = _ZEROS4[g3] + (g3 == 0) * (_ZEROS4[g2] + (g2 == 0) * (
        _ZEROS4[g1] + (g1 == 0) * _ZEROS4[g0]))  # 16 when D is 0 or a power of ten
    digits = np.maximum(17 - zeros, X + 1)  # the fixed form shows every integer digit
    shown = _SHOWN[(np.signbit(x) * 21 + X + 4) * 17 + digits - 1]
    text = text.view(np.uint8).reshape(x.size, _FLOAT_WIDTH)
    shown = shown.view(bool).reshape(x.size, _FLOAT_WIDTH)
    slow = np.flatnonzero(~fast & (ax != 0.0))
    if slow.size:
        rows = (b"%-24.17g" * slow.size) % tuple(x[slow].tolist())
        rows = np.frombuffer(rows, np.uint8).reshape(-1, _SLOW)
        text[slow, :_SLOW] = rows
        shown[slow, :-1] = False
        shown[slow, :_SLOW] = rows != ord(" ")
    return text, shown


def _int_text(v: np.ndarray, sep: bytes) -> tuple[np.ndarray, np.ndarray]:
    """(text, shown): w + 1 byte slots per entry of the nonnegative integers
    v, in order, the digits right-aligned in the first w and sep in the last,
    and the mask of the slots that spell each entry.  w is the least multiple
    of 4 that holds the largest entry."""
    v = np.ascontiguousarray(v, dtype=np.int64).reshape(-1)
    w = 4 * max(1, -(-len(str(int(v.max(initial=0)))) // 4))
    text = np.empty(v.size, [("digits", f"V{w}"), ("sep", "u1")])
    text["digits"] = _DIGITS4[_groups(v, w // 4)].view(f"V{w}")[:, 0]
    text["sep"] = ord(sep)
    digits = 1 + np.searchsorted(_INT10[1:w], v, side="right")
    masks = np.arange(w + 1, 0, -1) <= np.arange(w + 1)[:, None] + 1  # row d: d digits and sep
    shown = masks.view(f"V{w + 1}")[digits, 0]
    return text.view(np.uint8).reshape(v.size, w + 1), shown.view(bool).reshape(v.size, w + 1)


def _paste(dst: np.ndarray, col: int, src: np.ndarray) -> None:
    """dst[:, col : col + w] = src for the (m, w) array src, one item per row."""
    w = src.shape[1]
    dst[:, col : col + w].view(f"V{w}")[:, 0] = src.view(f"V{w}")[:, 0]


def lines(head: bytes, sep: bytes, ints: np.ndarray | None = None,
          floats: np.ndarray | None = None) -> bytes:
    """The text of one line per row of the 2-D arrays ints and floats (either
    may be None): head, then the row's ints and then its floats with the one
    byte sep between them, then a newline.

    ints are spelt in decimal (nonnegative entries only), floats as
    b"%.17g" % float(entry) spells them."""
    m = len(ints if ints is not None else floats)
    if m == 0:
        return b""
    fields = []
    for spell, a in ((_int_text, ints), (_float_text, floats)):
        if a is not None:
            text, shown = spell(a, sep)
            fields.append((text.reshape(m, -1), shown.reshape(m, -1)))
    mat = np.empty((m, len(head) + sum(text.shape[1] for text, _ in fields)), np.uint8)
    mask = np.ones(mat.shape, bool)
    mat[:, : len(head)] = np.frombuffer(head, np.uint8)
    col = len(head)
    for text, shown in fields:
        _paste(mat, col, text)
        _paste(mask, col, shown)
        col += text.shape[1]
    mat[:, -1] = ord("\n")  # in place of the last separator
    return mat[mask].tobytes()
