"""Shared fixtures.

cold_caches empties every cache that etakit keeps at module level, so a
test sees the package as a fresh interpreter does; the emptied objects
are put back after the test.  test_package.py checks that MODULE_CACHES
and MEMOIZED name every such cache in src/etakit.
"""

import numpy as np
import pytest

from etakit import halfint, numeric, qseries, spaces


def _no_int64():
    return np.zeros(0, dtype=np.int64)


# (module, name) -> a factory of the empty cache
MODULE_CACHES = {
    (spaces, "_ROW_CACHE"): dict,
    (spaces, "_BASIS_CACHE"): dict,
    (spaces, "_GENERATOR_CACHE"): dict,
    (qseries, "_N"): _no_int64,
    (qseries, "_CHI"): _no_int64,
    (qseries, "_Q"): _no_int64,
    (qseries, "_TERMS_CACHE"): dict,
    (halfint, "_SIGN_CACHE"): dict,
    (halfint, "_PAIR_D"): _no_int64,
    (halfint, "_PAIR_Q"): _no_int64,
    (halfint, "_PAIR_ENDS"): _no_int64,
    (halfint, "_CHAR_CACHE"): dict,
}

# pure functions memoized with functools.lru_cache
MEMOIZED = (qseries.is_prime, numeric.eta_value)


@pytest.fixture
def cold_caches(monkeypatch):
    """Empty etakit's module-level caches for one test."""

    def empty():
        for (module, name), factory in MODULE_CACHES.items():
            monkeypatch.setattr(module, name, factory())
        for function in MEMOIZED:
            function.cache_clear()

    empty()
    return empty
