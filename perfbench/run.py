"""Run one tcmc benchmark workload and print its metrics as JSON.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. `--workload all` runs every workload, each in
its own process so that no workload's peak memory carries into another's.

--trace 0 times whole passes over the workload's items, repeated while
another pass fits in --seconds, and prints the end-to-end metrics; an item's
latency is its median over the passes. --trace 1 alternates untraced and
traced passes for --seconds and prints the per-layer metrics (medians over
the traced passes). All times are scaled to a nominal host speed measured by
workloads.speed_probe; see README.md. The last line of standard output is
one JSON object: {"correct", "attempted", "failed", "metrics"}.
Per-item records (id, wall time, modeled cycles, verdict) go to
perfbench/out/<workload>-seed<n>-trace<t>.jsonl.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
OUT_DIR = ROOT / "perfbench" / "out"
SETUP_REPEATS = 7

# Times are reported at the host speed at which workloads.speed_probe takes
# this long (about the fastest it ran on the 2-core x86-64 VM the benchmark
# was tuned on). Scaling by the probe cancels the host's speed drift, which
# reached 1.5x between runs minutes apart there.
PROBE_NOMINAL_S = 2e-3
PROBE_WINDOW = 4

END_TO_END_UNITS = {
    "wall_s": "s",
    "item_p50_ms": "ms",
    "item_p90_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "modeled_cycles": "cycles",
    "ok_share": "share",
}


def _geomean(values: list[float]) -> float:
    """Geometric mean of the positive finite values; 0 when there are none."""
    logs = [math.log(v) for v in values if 0 < v < math.inf]
    return math.exp(sum(logs) / len(logs)) if logs else 0.0


def _until(seconds: float, step) -> None:
    """Call step() at least once, and again while another call fits in `seconds`."""
    start = time.perf_counter()
    step()
    calls = 1
    while (time.perf_counter() - start) * (calls + 1) / calls <= seconds:
        step()
        calls += 1


def _summary(passes: list[list[dict]], metrics: dict) -> dict:
    verdicts = [r["verdict"] for p in passes for r in p]
    failed = sum(v != "ok" for v in verdicts)
    return {
        "correct": "wrong" not in verdicts,
        "attempted": len(verdicts),
        "failed": failed,
        "metrics": metrics,
    }


def _write_records(name: str, args, passes: list[list[dict]], cycles: dict) -> None:
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"{name}-seed{args.seed}-trace{args.trace}.jsonl"
    latency = item_latencies(passes)
    verdicts: dict[str, str] = {}
    for p in passes:
        for r in p:
            if verdicts.get(r["id"], "ok") == "ok":
                verdicts[r["id"]] = r["verdict"]
    with path.open("w") as f:
        for item_id in sorted(latency):
            f.write(json.dumps({
                "id": item_id,
                "wall_ms": latency[item_id] * 1e3,
                "modeled_cycles": cycles.get(item_id),
                "verdict": verdicts[item_id],
            }) + "\n")


def speed_factor(probes: list[float]) -> float:
    """Scale from times measured next to `probes` to the nominal speed."""
    return PROBE_NOMINAL_S / statistics.median(probes)


def item_latencies(passes: list[list[dict]]) -> dict[str, float]:
    """Each item's median latency over the run's passes, at the nominal speed.

    Every latency is scaled by the speed factor of the probes taken around
    it: the one before the item and those before its PROBE_WINDOW
    neighbours on each side.
    """
    scaled: dict[str, list[float]] = {}
    for p in passes:
        probes = [r["probe_s"] for r in p]
        for k, r in enumerate(p):
            window = probes[max(0, k - PROBE_WINDOW): k + PROBE_WINDOW + 1]
            scaled.setdefault(r["id"], []).append(r["latency_s"] * speed_factor(window))
    return {item_id: statistics.median(v) for item_id, v in scaled.items()}


def end_to_end_metrics(passes: list[list[dict]], setup_times: list[float], cycles: dict,
                       peak_rss_mb: float) -> dict:
    """The end-to-end metrics of timed passes, as {name: {"value", "unit"}}."""
    latency = item_latencies(passes)
    deciles = statistics.quantiles([v * 1e3 for v in latency.values()], n=10, method="inclusive")
    verdicts = [r["verdict"] for p in passes for r in p]
    values = {
        "wall_s": sum(latency.values()),
        "item_p50_ms": deciles[4],
        "item_p90_ms": deciles[8],
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": peak_rss_mb,
        "modeled_cycles": _geomean([c for cs in cycles.values() if cs for c in cs]),
        "ok_share": verdicts.count("ok") / len(verdicts),
    }
    return {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}


def run_timed(name: str, args, workloads) -> dict:
    setup_times = []
    for _ in range(SETUP_REPEATS):
        factor = speed_factor([workloads.speed_probe() for _ in range(2 * PROBE_WINDOW + 1)])
        t0 = time.perf_counter()
        tc = workloads.reimport_tcmc()
        items = workloads.build(name, args.seed, tc, ROOT / "kernels")
        setup_times.append((time.perf_counter() - t0) * factor)

    passes: list[list[dict]] = []
    cycles: dict = {}
    _until(args.seconds, lambda: passes.append(workloads.run_pass(items, cycles=cycles)))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    summary = _summary(passes, end_to_end_metrics(passes, setup_times, cycles, peak_rss_mb))
    _write_records(name, args, passes, cycles)
    return summary


def run_traced(name: str, args, workloads, tracing) -> dict:
    tc = workloads.import_tcmc()
    items = workloads.build(name, args.seed, tc, ROOT / "kernels")
    tracer = tracing.Tracer(tc)
    passes: list[list[dict]] = []
    untraced_walls, traced_walls, layer = [], [], []

    def pass_wall(results) -> tuple[float, float]:
        raw = sum(r["latency_s"] for r in results)
        return raw, raw * speed_factor([r["probe_s"] for r in results])

    def step():
        results = workloads.run_pass(items)
        untraced_walls.append(pass_wall(results)[1])
        tracer.reset()
        tracer.install()
        try:
            traced = workloads.run_pass(items, tracer)
        finally:
            tracer.uninstall()
        raw, scaled = pass_wall(traced)
        traced_walls.append(scaled)
        factor = scaled / raw
        layer.append({k: v * factor if tracing.LAYER_METRICS[k] in ("s", "ns") else v
                      for k, v in tracer.layer_metrics(raw).items()})
        passes.extend([results, traced])

    _until(args.seconds, step)
    values = {k: statistics.median(m[k] for m in layer) for k in layer[0]}
    values["bench.trace_overhead_s"] = (statistics.median(traced_walls)
                                        - statistics.median(untraced_walls))
    _write_records(name, args, passes, {})
    return _summary(passes, {k: {"value": values[k], "unit": unit}
                             for k, unit in tracing.LAYER_METRICS.items()})


def run_all(args) -> int:
    """Each workload in a child process; one line per workload, then a merged line."""
    from perfbench.workloads import WORKLOADS

    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            return proc.returncode
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        print(json.dumps({"workload": name, **result}))
        merged["correct"] = merged["correct"] and result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for k, v in result["metrics"].items():
            merged["metrics"][f"{name}.{k}"] = v
    print(json.dumps(merged))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "tcmc" / "__init__.py").is_file() or not (ROOT / "kernels").is_dir():
        print(f"perfbench: no tcmc sources (src/tcmc, kernels/) under {ROOT}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(ROOT))
    from perfbench import tracing, workloads

    if args.workload == "all":
        return run_all(args)
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r} "
                     f"(choose from all, {', '.join(workloads.WORKLOADS)})")
    if args.trace:
        result = run_traced(args.workload, args, workloads, tracing)
    else:
        result = run_timed(args.workload, args, workloads)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
