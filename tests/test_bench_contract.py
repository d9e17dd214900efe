"""The benchmark's span recorder names library functions by string; a renamed
or closed-form entry point must stay importable under the name it lists."""

import importlib
import importlib.util
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "perfbench_spans", Path(__file__).resolve().parent.parent / "perfbench" / "spans.py")
_MODULE = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(_MODULE)


@pytest.mark.parametrize("qualname", [f"{mod}.{fn}" for mod, fns in
                                      _MODULE.ENTRY_POINTS.items() for fn in fns])
def test_span_entry_point_is_a_library_callable(qualname):
    mod, fn = qualname.split(".")
    assert callable(getattr(importlib.import_module(f"gelfand.{mod}"), fn))


@pytest.mark.parametrize("qualname", [f"{mod}.{fn}" for mod, fns in
                                      _MODULE.CACHES.items() for fn in fns])
def test_span_cache_has_cache_info(qualname):
    mod, fn = qualname.split(".")
    assert callable(getattr(importlib.import_module(f"gelfand.{mod}"), fn).cache_info)
