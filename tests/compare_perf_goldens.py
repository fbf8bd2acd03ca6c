"""Count the perf golden cases whose modeled cycles fell, held or rose.

Two golden files are read:

- `tests/golden/perf_reports.txt`: each line is a case id followed by the
  `perf.TimingReport` fields as float hex, `total_cycles` first;
- `tests/golden/bench_rows.csv`: each row of a `tcmc bench` sweep, its
  case id the sweep, machine, kernel, size and passes columns joined by
  `/`, its cycles the `cycles` column.

Cases are matched by id. For each file the script prints how many went
lower, stayed equal and went higher from OLD to NEW, and how many exist in
only one file, in two groups: cases costed on the machine their schedule
was compiled for, and cases compiled for one machine and costed on another
(the perf ids that end in `/odd`, compiled for the default machine and
costed on `test_perf.ODD_CONFIG`), whose schedule was never chosen for the
machine that costs it. Every case that went higher is listed with both
totals, since the gate rule in ROADMAP.md asks why any regenerated total
rose; `--changed` lists the lower ones too. Last, each class of cases that
moved gets its count of lower and higher ones, a class being a case id
with each run of digits replaced by `N` (`random/N/mt=N/fuse,tile,
vectorize,mt/odd`), since the gate rule asks why each class moved.

Compare the working tree's golden files with the last commit's:

    git show HEAD:tests/golden/perf_reports.txt > old_perf_reports.txt
    git show HEAD:tests/golden/bench_rows.csv > old_bench_rows.csv
    python tests/compare_perf_goldens.py old_perf_reports.txt tests/golden/perf_reports.txt
    python tests/compare_perf_goldens.py old_bench_rows.csv tests/golden/bench_rows.csv

The file name keeps pytest from collecting it as a test.
"""

from __future__ import annotations

import argparse
import csv
import re
import sys
from collections import Counter
from pathlib import Path

# a perf golden case compiled for the default machine and costed on ODD_CONFIG
CROSS_MACHINE_SUFFIX = "/odd"
BENCH_KEY = ("sweep", "machine", "kernel", "size", "passes")


def read_totals(path: Path) -> dict[str, float]:
    """Each case id of a golden file mapped to its modeled cycles."""
    if path.suffix == ".csv":
        with path.open(newline="") as f:
            return {"/".join(row[k] for k in BENCH_KEY): float(row["cycles"])
                    for row in csv.DictReader(f)}
    totals = {}
    for line in path.read_text().splitlines():
        if line.strip():
            case, total = line.split()[:2]
            totals[case] = float.fromhex(total)
    return totals


def is_cross_machine(case: str, path: Path) -> bool:
    """Whether `case` was compiled for one machine and costed on another."""
    return path.suffix != ".csv" and case.endswith(CROSS_MACHINE_SUFFIX)


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


def case_class(case: str) -> str:
    """The class of `case`: its id with each run of digits replaced by `N`."""
    return re.sub(r"\d+", "N", case)


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("old", type=Path)
    parser.add_argument("new", type=Path)
    parser.add_argument("--changed", action="store_true",
                        help="also list each case that went lower")
    args = parser.parse_args(argv)
    old, new = read_totals(args.old), read_totals(args.new)
    for label, cross in (("same machine", False), ("cross machine", True)):
        keep = [c for c in {**old, **new} if is_cross_machine(c, args.new) == cross]
        if not keep and cross:
            continue
        classes = compare({c: old[c] for c in keep if c in old},
                          {c: new[c] for c in keep if c in new})
        print(f"{label}: " + " ".join(f"{k}={len(v)}" for k, v in classes.items()))
        for kind in ("higher", "lower") if args.changed else ("higher",):
            for case in classes[kind]:
                print(f"  {kind} {case} {old[case]:.10g} -> {new[case]:.10g}")
        moved = {kind: Counter(map(case_class, classes[kind])) for kind in ("lower", "higher")}
        for cls in sorted(moved["lower"] | moved["higher"]):
            print(f"  class {cls} lower={moved['lower'][cls]} higher={moved['higher'][cls]}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
