"""Print `mt`'s pass time for each verify kernel, in milliseconds, and the
time each stage of its default pipeline takes to interpret and to verify.

Each kernel is lowered at its verify dims (`conftest.VERIFY_DIMS`, the
sizes perfbench's verify workloads compile) and staged through fuse, tile
and vectorize under the default options; `mt` is then timed on that
program alone, once as the cost model chooses and once under the override
`mt_threshold=1`. One run times `--calls` calls of `mt` per kernel and
mode in a fresh interpreter and keeps the fastest. The same run compiles
each kernel through the default passes and times, per stage (`input` the
lowered program), `interp.interpret` on `conftest.kernel_inputs` and
`ir.verify` against the machine's TCM, keeping the fastest of a tenth of
`--calls` calls (at least one) of each. The script prints four tables:
the model's `mt` and the override's, each giving per kernel the minimum
over `--runs` runs, then `interpret` and `ir.verify`, each giving per
kernel and stage that minimum and, after its stages, the minimum of the
kernel's sum over them (`all`).
Each table has one column per tree, labelled `[1]`, `[2]`, ... in the
order given, and a legend of `[k] <tree>` lines ends the output.

Given several source trees (`--src`, each a directory that holds the
`tcmc` package), the runs alternate between them, one tree after the
other, so a before/after comparison on a busy host sees the same drift on
both sides. Compare the last commit with the working tree:

    git archive HEAD | tar -x -C ../parent
    python tests/mt_pass_times.py --src ../parent/src --src src

The file name keeps pytest from collecting it as a test.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

TESTS = Path(__file__).resolve().parent

# each `mt` table's mode and the `mt_threshold` its `mt` runs under
MODES = {"the cost model": None, "mt_threshold=1": 1}
# the tables of per-stage times, each row a kernel and a stage
STAGE_TABLES = ("interpret", "ir.verify")


def child(calls: int) -> dict[str, dict[str, float]]:
    """Per table title, each row (a verify kernel, or a kernel and stage)
    mapped to the fastest of its calls, in seconds, timed on the `tcmc` the
    interpreter imports: `calls` calls of `mt` per kernel and mode
    (`MODES`), a tenth as many of `interp.interpret` and `ir.verify` per
    stage."""
    sys.path.insert(0, str(TESTS))
    from conftest import DEFAULT_PASSES, VERIFY_DIMS, kernel_inputs, kernel_path
    from tcmc import interp, ir, pipeline

    def fastest(fn, n: int) -> float:
        best = float("inf")
        for _ in range(n):
            start = time.perf_counter()
            fn()
            best = min(best, time.perf_counter() - start)
        return best

    times: dict[str, dict[str, float]] = {f"mt under {mode}": {} for mode in MODES}
    times.update({title: {} for title in STAGE_TABLES})
    for kernel, dims in VERIFY_DIMS.items():
        spec = pipeline.PipelineSpec(("fuse", "tile", "vectorize"), pipeline.PipelineOptions(),
                                     "off")
        program = pipeline.run_pipeline(kernel_path(kernel), spec, dims=dims).final
        for mode, threshold in MODES.items():
            opts = pipeline.PipelineOptions(mt_threshold=threshold)
            times[f"mt under {mode}"][kernel] = fastest(
                lambda: pipeline.apply_pass("mt", program, opts), calls)
        spec = pipeline.PipelineSpec(DEFAULT_PASSES, pipeline.PipelineOptions(), "off")
        stages = pipeline.run_pipeline(kernel_path(kernel), spec, dims=dims).stages
        inputs = kernel_inputs(stages[0].program, kernel)
        tcm = spec.options.machine.tcm_bytes
        for title, fn in (("interpret", lambda p: interp.interpret(p, inputs)),
                          ("ir.verify", lambda p: ir.verify(p, tcm_bytes=tcm))):
            rows = {f"{kernel:<10}{st.name}": fastest(lambda: fn(st.program), max(1, calls // 10))
                    for st in stages}
            times[title].update(rows, **{f"{kernel:<10}all": sum(rows.values())})
    return times


def run_once(src: Path, calls: int) -> dict[str, dict[str, float]]:
    """One run of `child` in a fresh interpreter on the tree `src`."""
    env = {**os.environ, "PYTHONPATH": str(src.resolve())}
    out = subprocess.run([sys.executable, __file__, "--child", "--calls", str(calls)],
                         env=env, check=True, capture_output=True, text=True).stdout
    return json.loads(out)


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", type=Path, action="append",
                        help="a source tree to time (repeat to compare; default: src)")
    parser.add_argument("--runs", type=int, default=3, help="runs per tree (default 3)")
    parser.add_argument("--calls", type=int, default=60,
                        help="calls of mt per kernel in a run (default 60)")
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        print(json.dumps(child(args.calls)))
        return 0
    trees = args.src or [TESTS.parent / "src"]
    best: dict[tuple[Path, str], dict[str, float]] = {}
    for _ in range(args.runs):
        for src in trees:
            for title, times in run_once(src, args.calls).items():
                kept = best.setdefault((src, title), {})
                for row, seconds in times.items():
                    kept[row] = min(kept.get(row, seconds), seconds)
    for title in [f"mt under {mode}" for mode in MODES] + list(STAGE_TABLES):
        print(title)
        print(f"{'':<22}" + "".join(f"{f'[{k}]':>14}" for k in range(1, len(trees) + 1)))
        for row in best[trees[0], title]:
            cells = [best[src, title].get(row) for src in trees]
            print(f"{row:<22}" + "".join(f"{'-':>14}" if c is None else f"{c * 1e3:>11.2f} ms"
                                         for c in cells))
        print()
    for k, src in enumerate(trees, 1):
        print(f"[{k}] {src}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
