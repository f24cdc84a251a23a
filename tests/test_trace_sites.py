"""The benchmark's span tracer (perfbench/tracing.py) patches package names
from outside the package.  Each name it patches must exist, or a traced
benchmark run breaks while every other test passes."""

import importlib
import importlib.util
import pathlib

from shiftembed.pipeline import Pipeline

TRACING = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _tracing():
    """perfbench/tracing.py loaded by path; perfbench is not a package."""
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_span_site_exists():
    missing = [(module, attr) for module, attr, _ in _tracing().SPAN_SITES
               if not hasattr(importlib.import_module("shiftembed." + module), attr)]
    assert missing == []


def test_every_count_site_is_a_pipeline_method():
    assert [attr for attr, _ in _tracing().COUNT_SITES if not hasattr(Pipeline, attr)] == []
