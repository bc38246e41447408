"""The benchmark tracer times the program by replacing module attributes
named in ``perfbench/tracer.py``'s WRAP_POINTS. It skips an attribute the
program no longer has without a warning, and that layer's metrics then
read 0, so every wrap point must still exist."""

import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _wrap_points():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer.WRAP_POINTS


@pytest.mark.parametrize("owner,attr", [(o, a) for o, a, _, _ in _wrap_points()],
                         ids=lambda x: x if isinstance(x, str) else x.__name__)
def test_wrap_point_exists(owner, attr):
    assert attr in owner.__dict__
