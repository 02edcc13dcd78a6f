import sys

import pytest

from polyrect import build

_built = {}


@pytest.fixture(scope="session")
def automaton():
    """Factory sharing one built automaton per width across the whole run."""

    def get(width: int):
        if width not in _built:
            _built[width] = build(width)
        return _built[width]

    return get


@pytest.fixture(autouse=True)
def int_digit_limit():
    """Restore the int-to-str digit limit after each test: cli.main lifts it for the process."""
    if not hasattr(sys, "get_int_max_str_digits"):  # Python 3.10 has no such limit
        yield
        return
    limit = sys.get_int_max_str_digits()
    yield
    sys.set_int_max_str_digits(limit)
