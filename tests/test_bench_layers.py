"""The traced benchmark wraps library functions by name and reads some of
their arguments by position; every name and position must hold."""

import functools
import importlib
import importlib.util
import inspect
import re
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"

# the parameters each hook reads, in positional order
HOOKED_PARAMETERS = {
    "atoms.ladder_scan": ("model", "b", "y_ladder", "tol"),
    "opval.kernel_profile": ("a", "b", "hints"),
    "measure.integrate_piece": ("f",),
    "measure.quantiles": ("mu", "N"),
    "rmt.haar_unitary": ("N",),
    "rmt.realize_pair": ("spec",),
    "rmt._realize_reduced": ("spec",),
}


@functools.cache
def spans_module():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


def layer_functions():
    return spans_module().LAYER_FUNCTIONS


def hooked_arguments():
    """(layer, position, name) of every library argument a span hook reads."""
    spans = spans_module()
    layers = {f"{module}.{attr}" for module, attr in spans.LAYER_FUNCTIONS}
    found = set()
    for hooks in (spans.BEFORE, spans.AFTER):
        for layer, hook in hooks.items():
            if layer in layers:
                for index, name in re.findall(r'_arg\(args, kwargs, (\d+), "(\w+)"',
                                              inspect.getsource(hook)):
                    found.add((layer, int(index), name))
    return sorted(found)


@pytest.mark.parametrize("module, attr", layer_functions())
def test_layer_function_exists(module, attr):
    mod = importlib.import_module(f"freeatoms.{module}")
    assert callable(getattr(mod, attr, None)), f"freeatoms.{module}.{attr} is not a function"


def test_hooks_read_the_listed_parameters():
    listed = {(layer, i, name) for layer, names in HOOKED_PARAMETERS.items()
              for i, name in enumerate(names)}
    assert set(hooked_arguments()) == listed


@pytest.mark.parametrize("layer, index, name", hooked_arguments())
def test_hooked_parameter_position(layer, index, name):
    module, attr = layer.split(".")
    fn = getattr(importlib.import_module(f"freeatoms.{module}"), attr)
    parameters = list(inspect.signature(fn).parameters)
    assert parameters[index:index + 1] == [name], f"{layer}{tuple(parameters)}"
