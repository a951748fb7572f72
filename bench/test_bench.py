"""Tests of the benchmark itself.

    python3 -m pytest -q bench/test_bench.py

Smoke runs use the default seed, so they also exercise the comparison with
the stored reference outputs.
"""

import json
import re
import shutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def bench(workload, trace, seed=workloads.DEFAULT_SEED, seconds=1, cwd=ROOT):
    command = SPEC["command"] + ["--workload", workload, "--seed", str(seed),
                                 "--seconds", str(seconds), "--trace", str(trace)]
    return subprocess.run(command, cwd=cwd, capture_output=True, text=True,
                          timeout=300)


def test_benchmark_json_names_and_units():
    metrics = SPEC["end_to_end"] + SPEC["per_layer"]
    names = [m["name"] for m in metrics] + [w["name"] for w in SPEC["workloads"]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name), name
    for m in metrics:
        assert UNIT.fullmatch(m["unit"]), m
    assert {w["name"] for w in SPEC["workloads"]} == set(workloads.WORKLOADS)
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_smoke_run_prints_every_metric(workload, trace):
    done = bench(workload, trace)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], done.stderr
    assert result["attempted"] >= 1 and result["failed"] == 0
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in expected}
    for m in expected:
        printed = result["metrics"][m["name"]]
        assert printed["unit"] == m["unit"], m["name"]
        assert isinstance(printed["value"], (int, float))


def test_no_source_exits_nonzero_without_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    done = bench("thermo_sweep", 0, cwd=tmp_path)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


def test_reference_comparison_flags_a_changed_output():
    workload = workloads.ThermoSweep(None, None)
    ref = workload.reference()[0]
    item = workloads.Item(ref["kind"], dict(ref["inputs"]))
    values = dict(ref["values"])
    assert workload.compare(item, values, ref) == []
    key = "exit_T_K"
    values[key] = ref["values"][key] * (1.0 + 1e-8)
    assert len(workload.compare(item, values, ref)) == 1
    values[key] = ref["values"][key] * (1.0 + 1e-10)
    assert workload.compare(item, values, ref) == []


def test_engine_tolerances_follow_the_roadmap():
    workload = workloads.EngineRunAll.__new__(workloads.EngineRunAll)
    assert workload.tolerance("equilibrium.top_clearance", 8e-6) == 1e-10
    assert workload.tolerance("equilibrium.top_load", 2.0) == pytest.approx(2e-9)
    assert workload.tolerance("equilibrium.converged", 1.0) == 0.0
    # one unit in the 9th significant digit of a %.9g CSV value, plus 1e-9
    assert workload.tolerance("loadmap.load_N", 1.37e-3) == pytest.approx(1.37e-12 + 1e-11)


def test_scenario_text_overrides_the_right_section():
    text = "[cycle]\nair_mass_flow_kg_s = 1.0\n[combustor]\nair_mass_flow_kg_s = 2.0  # c\n"
    out = workloads.scenario_text(text, {("combustor", "air_mass_flow_kg_s"): 0.5})
    assert out == "[cycle]\nair_mass_flow_kg_s = 1.0\n[combustor]\nair_mass_flow_kg_s = 0.5\n"


def test_same_seed_same_inputs_and_strata_cover_the_range():
    mg = run.import_microgt()
    workload = workloads.BearingGridSweep(mg, None)
    workload.prepare()
    first = [item.inputs for item in workload.study(3, 1)]
    assert first == [item.inputs for item in workload.study(3, 1)]
    assert first != [item.inputs for item in workload.study(3, 2)]
    assert first != [item.inputs for item in workload.study(4, 1)]
    rng = workloads.np.random.default_rng(0)
    draws = workloads.strata(rng, 8)
    assert sorted((draws * 8).astype(int)) == list(range(8))


def test_tracer_restores_wrapped_attributes_and_computes_self_time():
    module = types.ModuleType("layer")

    def inner(x):
        return x + 1

    def outer(x):
        return module.inner(x) * 2

    module.inner, module.outer = inner, outer
    tracer = spans.Tracer()
    tracer.wrap(module, "outer", "layer.outer", "layer")
    tracer.wrap(module, "inner", "layer.inner", "layer")
    span = tracer.begin_item(0)
    assert module.outer(1) == 4
    tracer.end_item(span)
    assert tracer.item_calls[0] == {"layer.outer": 1, "layer.inner": 1}
    name, parent, item, start, end, self_time = tracer.arrays()
    assert list(parent) == [-1, 0, 1] and list(item) == [0, 0, 0]
    assert self_time[1] == pytest.approx((end[1] - start[1]) - (end[2] - start[2]))
    assert tracer.uninstall() == []
    assert module.outer is outer and module.inner is inner
