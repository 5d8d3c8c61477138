"""The layers that BENCHMARK.json's traced pass measures exist in the package.

The traced pass wraps every public function of chanent's modules and
reports a ``per_layer`` metric per function it names; a metric whose
function is gone is never measured, and the traced run fails.  This
test only reads BENCHMARK.json.
"""

import importlib
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _layer_functions() -> list[tuple[str, str]]:
    """(module, function) of every ``module.function.metric`` name in ``per_layer``."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [metric["name"].split(".") for metric in spec["per_layer"]]
    return sorted({(parts[0], parts[1]) for parts in names if len(parts) == 3})


def test_per_layer_names_functions():
    # module-level metrics (bitspace.self_s, trace.wall_s) name no function
    assert ("channels", "noise_operator") in _layer_functions()


@pytest.mark.parametrize("module,function", _layer_functions())
def test_every_measured_layer_is_a_public_callable(module, function):
    obj = getattr(importlib.import_module(f"chanent.{module}"), function, None)
    assert not function.startswith("_") and callable(obj), f"{module}.{function}"


def test_subset_table_cache_reports_its_builds():
    # the traced pass counts a cached table's builds from cache_info()
    from chanent import entropy_analysis

    assert callable(entropy_analysis.subset_renyi_values.cache_info)
