"""Count the perf golden cases whose `total_cycles` fell, held or rose.

Each line of a `tests/golden/perf_reports.txt` is a case id followed by the
`perf.TimingReport` fields as float hex, `total_cycles` first. Cases are
matched by id. The script prints how many went lower, stayed equal and went
higher from OLD to NEW, and how many exist in only one file. Every case that
went higher is listed with both totals, since the gate rule in ROADMAP.md
asks why any regenerated total rose; `--changed` lists the lower ones too.

Compare the working tree's golden file with the last commit's:

    git show HEAD:tests/golden/perf_reports.txt > old_perf_reports.txt
    python tests/compare_perf_goldens.py old_perf_reports.txt tests/golden/perf_reports.txt

The file name keeps pytest from collecting it as a test.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path


def read_totals(path: Path) -> dict[str, float]:
    """Each case id of a perf golden file mapped to its `total_cycles`."""
    totals = {}
    for line in path.read_text().splitlines():
        if line.strip():
            case, total = line.split()[:2]
            totals[case] = float.fromhex(total)
    return totals


def compare(old: dict[str, float], new: dict[str, float]) -> dict[str, list[str]]:
    """The case ids of each class: lower, equal, higher, removed and added."""
    classes: dict[str, list[str]] = {k: [] for k in ("lower", "equal", "higher", "removed",
                                                     "added")}
    for case, before in old.items():
        if case not in new:
            classes["removed"].append(case)
        elif new[case] < before:
            classes["lower"].append(case)
        elif new[case] > before:
            classes["higher"].append(case)
        else:
            classes["equal"].append(case)
    classes["added"] = [case for case in new if case not in old]
    return classes


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("old", type=Path)
    parser.add_argument("new", type=Path)
    parser.add_argument("--changed", action="store_true",
                        help="also list each case that went lower")
    args = parser.parse_args(argv)
    old, new = read_totals(args.old), read_totals(args.new)
    classes = compare(old, new)
    print(" ".join(f"{k}={len(v)}" for k, v in classes.items()))
    for kind in ("higher", "lower") if args.changed else ("higher",):
        for case in classes[kind]:
            print(f"{kind} {case} {old[case]:.10g} -> {new[case]:.10g}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
