"""The traced benchmark wraps library functions by name; every name must exist."""

import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def layer_functions():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans.LAYER_FUNCTIONS


@pytest.mark.parametrize("module, attr", layer_functions())
def test_layer_function_exists(module, attr):
    mod = importlib.import_module(f"freeatoms.{module}")
    assert callable(getattr(mod, attr, None)), f"freeatoms.{module}.{attr} is not a function"
