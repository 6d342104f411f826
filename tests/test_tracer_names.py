"""The benchmark tracer wraps entry points by name; every name it lists
must still exist, so a rename fails here instead of in a traced run."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracer = _load_tracer()


@pytest.mark.parametrize("module_name, attr", [(m, a) for _, m, a, _ in tracer.FUNCTIONS])
def test_traced_function_exists(module_name, attr):
    assert callable(getattr(importlib.import_module(module_name), attr, None))


@pytest.mark.parametrize(
    "module_name, cls_name, attr",
    [(m, c, a) for _, m, c, attrs, _ in tracer.METHODS for a in attrs],
)
def test_traced_method_exists(module_name, cls_name, attr):
    # the tracer patches the class's own attribute, not an inherited one
    cls = getattr(importlib.import_module(module_name), cls_name)
    assert callable(cls.__dict__.get(attr))
