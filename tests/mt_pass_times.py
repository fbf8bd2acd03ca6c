"""Print `mt`'s pass time for each verify kernel, in milliseconds.

Each kernel is lowered at its verify dims (`conftest.VERIFY_DIMS`, the
sizes perfbench's verify workloads compile) and staged through fuse, tile
and vectorize under the default options; `mt` is then timed on that
program alone, once as the cost model chooses and once under the override
`mt_threshold=1`. One run times `--calls` calls of `mt` per kernel and
mode in a fresh interpreter and keeps the fastest. The script prints two
tables, the model's and the override's, each giving per kernel the
minimum over `--runs` runs, one column per tree, labelled `[1]`, `[2]`,
... in the order given, and then a legend of `[k] <tree>` lines.

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

# each table's title and the `mt_threshold` its `mt` runs under
MODES = {"the cost model": None, "mt_threshold=1": 1}


def child(calls: int) -> dict[str, dict[str, float]]:
    """Per mode (`MODES`), each verify kernel mapped to the fastest of
    `calls` calls of `mt`, in seconds, timed on the `tcmc` the interpreter
    imports."""
    sys.path.insert(0, str(TESTS))
    from conftest import VERIFY_DIMS, kernel_path
    from tcmc import pipeline

    times: dict[str, dict[str, float]] = {mode: {} for mode in MODES}
    for kernel, dims in VERIFY_DIMS.items():
        spec = pipeline.PipelineSpec(("fuse", "tile", "vectorize"), pipeline.PipelineOptions(),
                                     "off")
        program = pipeline.run_pipeline(kernel_path(kernel), spec, dims=dims).final
        for mode, threshold in MODES.items():
            opts = pipeline.PipelineOptions(mt_threshold=threshold)
            best = float("inf")
            for _ in range(calls):
                start = time.perf_counter()
                pipeline.apply_pass("mt", program, opts)
                best = min(best, time.perf_counter() - start)
            times[mode][kernel] = best
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
    best: dict[tuple[Path, str], dict[str, float]] = {(src, m): {} for src in trees for m in MODES}
    for _ in range(args.runs):
        for src in trees:
            for mode, times in run_once(src, args.calls).items():
                for kernel, seconds in times.items():
                    kept = best[src, mode]
                    kept[kernel] = min(kept.get(kernel, seconds), seconds)
    for mode in MODES:
        print(f"mt under {mode}")
        print("kernel    " + "".join(f"{f'[{k}]':>24}" for k in range(1, len(trees) + 1)))
        for kernel in best[trees[0], mode]:
            print(f"{kernel:<10}"
                  + "".join(f"{best[src, mode][kernel] * 1e3:>21.2f} ms" for src in trees))
        print()
    for k, src in enumerate(trees, 1):
        print(f"[{k}] {src}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
