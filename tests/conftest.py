import re

import pytest

from ksurf import goursat


@pytest.fixture
def planned(monkeypatch):
    """planned(call) is the bytes the memory plan of call() needs, read from
    the refusal it raises when no memory is available."""

    def read(call) -> int:
        with monkeypatch.context() as m:
            m.setattr(goursat, "_available_bytes", lambda: 0)
            with pytest.raises(ValueError, match=r" needs \d+ bytes for ") as exc:
                call()
        return int(re.search(r" needs (\d+) bytes for ", str(exc.value)).group(1))

    return read
