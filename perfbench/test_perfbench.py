"""Tests of the benchmark itself: inputs, determinism, metric names, checks."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from perfbench import run, tracing, workloads

ROOT = Path(__file__).resolve().parents[1]
KERNELS = ROOT / "kernels"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def tc():
    return workloads.import_tcmc()


def _by_id(items):
    return {item.id: item for item in items}


@pytest.mark.parametrize("name", ["verify_reduce", "fuzz_small"])
def test_workload_generation_is_seed_deterministic(tc, name):
    a = workloads.build(name, 3, tc, KERNELS)
    b = workloads.build(name, 3, tc, KERNELS)
    c = workloads.build(name, 4, tc, KERNELS)
    assert [i.id for i in a] == [i.id for i in b]
    assert sorted(i.id for i in a) == sorted(i.id for i in c)
    for x, y in zip(a, b):
        assert workloads.bits_equal(x.inputs, y.inputs)
    other = _by_id(c)
    assert not any(workloads.bits_equal(x.inputs, other[x.id].inputs) for x in a)


def test_schedule_grid_has_no_invalid_specs(tc):
    items = workloads.build("schedule_grid", 0, tc, KERNELS)
    assert len(items) >= 100
    assert not [i.id for i in items if i.id.startswith("softmax/tile=")
                and "tile=default" not in i.id]


def test_modeled_cycles_repeat_exactly(tc):
    grid = _by_id(workloads.build("schedule_grid", 0, tc, KERNELS))
    fuzz = workloads.build("fuzz_small", 0, tc, KERNELS)
    items = [grid["rmsnorm/tile=16x0/dist=block/math=approx"],
             grid["vecadd2d/tile=default/dist=cyclic:1024/math=exact"],
             grid["bench/memory_fraction"]] + fuzz[:8]
    first, second = {}, {}
    results = workloads.run_pass(items, cycles=first)
    workloads.run_pass(items, cycles=second)
    assert all(r["verdict"] == "ok" for r in results)
    assert all(first[i.id] for i in items)
    assert first == second


def test_perturbed_output_counts_as_failure(tc):
    items = _by_id(workloads.build("verify_reduce", 0, tc, KERNELS))
    item = items["rmsnorm/math=exact"]
    result = item.run()
    assert item.check(result)
    y = result.outputs["y"]
    y[7, 11] = np.nextafter(y[7, 11], np.float32(np.inf)) * np.float32(1.001)
    assert not item.check(result)

    perturbed = workloads.Item(item.id, lambda: result, item.check, item.cycles)
    [record] = workloads.run_pass([perturbed])
    assert record["verdict"] == "wrong"
    summary = run._summary([[record]], {})
    assert (summary["correct"], summary["attempted"], summary["failed"]) == (False, 1, 1)


def test_perturbed_fuzz_stage_counts_as_failure(tc):
    item = workloads.build("fuzz_small", 0, tc, KERNELS)[0]
    outcome = item.run()
    assert item.check(outcome)
    got = next(iter(outcome.stages[-1][0].values()))
    got.view(np.uint32)[0] ^= 1
    assert not item.check(outcome)


def test_failing_item_is_counted_not_raised(tc):
    def boom():
        raise ValueError("miscompile")

    item = workloads.Item("boom", boom, lambda out: True, lambda out: [1.0])
    [record] = workloads.run_pass([item])
    assert record["verdict"] == "error:ValueError"


def test_end_to_end_names_match_benchmark_json():
    passes = [[{"id": "a", "latency_s": 0.5, "probe_s": 2e-3, "verdict": "ok"},
               {"id": "b", "latency_s": 0.25, "probe_s": 2e-3, "verdict": "error:VerifyFailure"}]]
    metrics = run.end_to_end_metrics(passes, [0.1, 0.2, 0.3], {"a": [10.0, 1000.0]}, 50.0)
    assert [m["name"] for m in SPEC["end_to_end"]] == list(metrics)
    assert all(metrics[m["name"]]["unit"] == m["unit"] for m in SPEC["end_to_end"])
    # probes at twice the nominal time: the host ran at half speed
    assert metrics["wall_s"]["value"] == pytest.approx(0.75 * run.PROBE_NOMINAL_S / 2e-3)
    assert metrics["modeled_cycles"]["value"] == pytest.approx(100.0)
    assert metrics["ok_share"]["value"] == 0.5


def test_layer_names_match_benchmark_json_and_account_for_wall(tc):
    assert [m["name"] for m in SPEC["per_layer"]] == list(tracing.LAYER_METRICS)
    assert all(tracing.LAYER_METRICS[m["name"]] == m["unit"] for m in SPEC["per_layer"])

    items = _by_id(workloads.build("verify_reduce", 0, tc, KERNELS))
    tracer = tracing.Tracer(tc)
    tracer.install()
    try:
        results = workloads.run_pass([items["rmsnorm/math=approx"]], tracer)
    finally:
        tracer.uninstall()
    assert tc.pipeline.apply_pass.__module__ == "tcmc.pipeline"
    wall = sum(r["latency_s"] for r in results)
    layer = tracer.layer_metrics(wall)
    assert set(layer) | {"bench.trace_overhead_s"} == set(tracing.LAYER_METRICS)
    accounted = sum(layer[k] for k in tracing.SELF_TIME_OF) + layer["pipeline.self_s"]
    assert accounted == pytest.approx(wall, rel=1e-9)
    assert layer["numerics.fold_calls"] > 0 and layer["passes.math_approx_s"] > 0
    assert layer["interp.calls"] == 8 and layer["ir.ops_final"] > layer["ir.ops_lowered"]


def test_exits_nonzero_without_tcmc_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fuzz_small", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
