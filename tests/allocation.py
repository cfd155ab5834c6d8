"""Check that a call fails fast on a hostile size, without allocating for it."""

import tracemalloc

import pytest

SMALL = 1 << 20  # bytes; a hostile header in these tests declares gigabytes


def raises_small(exc, fn, *args, match=None):
    """Assert ``fn(*args)`` raises ``exc`` with a Python-heap peak under SMALL."""
    tracemalloc.start()
    try:
        with pytest.raises(exc, match=match) as info:
            fn(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < SMALL, f"peak of {peak} bytes while raising {exc.__name__}"
    return info.value
