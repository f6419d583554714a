"""Every entry point that the benchmark tracer wraps resolves in mindkit.

`opbench/tracer.py` installs its wrappers by attribute name, so a renamed
function would otherwise surface only as a failed traced benchmark run.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "opbench" / "tracer.py"


def traced_entry_points() -> list[tuple[str, str]]:
    spec = importlib.util.spec_from_file_location("opbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return [(layer, attr) for table in (tracer.SPANS, tracer.COUNTED)
            for layer, attrs in table.items() for attr in attrs]


@pytest.mark.parametrize("layer, attr", traced_entry_points())
def test_traced_entry_point_resolves(layer, attr):
    owner = importlib.import_module(f"mindkit.{layer}")
    for part in attr.split("."):
        owner = getattr(owner, part)
    assert callable(owner)
