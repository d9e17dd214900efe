"""Shared fixtures."""

import importlib
import pkgutil

import pytest

import gelfand
from gelfand import charring


def _library_caches():
    """Every module-level lru cache defined in a ``gelfand`` module."""
    for info in pkgutil.iter_modules(gelfand.__path__):
        mod = importlib.import_module(f"gelfand.{info.name}")
        for obj in vars(mod).values():
            if hasattr(obj, "cache_clear") and getattr(obj, "__module__", None) == mod.__name__:
                yield obj


def _clear_library_caches():
    for cache in _library_caches():
        cache.cache_clear()
    charring._SYM_POWERS.clear()


@pytest.fixture
def cold_caches():
    """Start the test with every library cache empty: the module-level lru
    caches and the dict ``charring._SYM_POWERS``.  The fixture's value
    clears them again, for a cold computation mid-test; a monkeypatched
    helper is only seen through a cache that is cold."""
    _clear_library_caches()
    yield _clear_library_caches
    _clear_library_caches()
