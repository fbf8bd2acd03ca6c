"""`pipeline.bench`: golden sweep rows and the compile work one call shares.

`tests/golden/bench_rows.csv` holds every row of the `passes`, `size` and
`memory_fraction` sweeps, with the sweep and the machine config in front,
so a match is byte for byte. Regenerate it only for a deliberate change to
the cost model or to a pass:

    PYTHONPATH=src python tests/test_bench.py --write
"""

import csv
import io
import sys

from tcmc import perf, pipeline

from conftest import ALL_KERNELS, ROOT, kernel_path
from test_perf import ODD_CONFIG

GOLDEN = ROOT / "tests" / "golden" / "bench_rows.csv"

N_KERNELS = ("gelu", "silu", "softmax", "expseries")


def golden_rows():
    """Yield (sweep, machine label, row) for every golden bench row."""
    paths = [kernel_path(k) for k in ALL_KERNELS]
    for label, cfg in (("default", perf.MachineConfig()), ("odd", ODD_CONFIG)):
        for row in pipeline.bench(paths, cfg, "passes", ladders=list(perf.PASS_LADDERS)):
            yield "passes", label, row
    for row in pipeline.bench([kernel_path(k) for k in N_KERNELS], perf.MachineConfig(), "size"):
        yield "size", "default", row
    for row in pipeline.bench([], perf.MachineConfig(), "memory_fraction"):
        yield "memory_fraction", "default", row


def golden_text() -> str:
    stream = io.StringIO()
    out = csv.DictWriter(stream, fieldnames=["sweep", "machine", *perf.CSV_COLUMNS],
                         lineterminator="\n")
    out.writeheader()
    for sweep, machine, row in golden_rows():
        out.writerow({"sweep": sweep, "machine": machine, **row})
    return stream.getvalue()


def test_bench_rows_match_golden_byte_for_byte():
    want = GOLDEN.read_text().splitlines()
    got = golden_text().splitlines()
    assert len(got) == len(want)
    diff = [(g, w) for g, w in zip(got, want) if g != w]
    assert not diff, f"{len(diff)} rows differ, first: got {diff[0][0]} want {diff[0][1]}"


def _count_calls(monkeypatch, name):
    calls = []
    real = getattr(pipeline, name)

    def spy(*args, **kwargs):
        calls.append(args[0])
        return real(*args, **kwargs)

    monkeypatch.setattr(pipeline, name, spy)
    return calls


def test_passes_sweep_applies_each_shared_prefix_once(monkeypatch):
    passes = _count_calls(monkeypatch, "apply_pass")
    lowers = _count_calls(monkeypatch, "lower_to_generics")
    rows = pipeline.bench([kernel_path("gelu")], perf.MachineConfig(), "passes",
                          ladders=list(perf.PASS_LADDERS))
    assert [r["passes"] for r in rows] == list(perf.PASS_LADDERS)
    # 7 pass runs where the five ladders list 20
    assert passes == ["fuse", "tile", "vectorize", "db", "mt", "async", "db"]
    assert len(lowers) == 1
    # nothing is shared across calls
    pipeline.bench([kernel_path("gelu")], perf.MachineConfig(), "passes",
                   ladders=list(perf.PASS_LADDERS))
    assert len(passes) == 14 and len(lowers) == 2


def test_size_sweep_applies_five_passes_per_size(monkeypatch):
    passes = _count_calls(monkeypatch, "apply_pass")
    parses = _count_calls(monkeypatch, "parse_kernel")
    lowers = _count_calls(monkeypatch, "lower_to_generics")
    rows = pipeline.bench([kernel_path("silu")], perf.MachineConfig(), "size",
                          sizes=[8192, 65536])
    assert [(r["size"], r["passes"]) for r in rows] == [
        (8192, "vec"), (8192, "vec_mt"), (65536, "vec"), (65536, "vec_mt")]
    assert passes == ["fuse", "tile", "vectorize", "mt", "async"] * 2
    assert len(parses) == 1 and len(lowers) == 2


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_bench.py --write")
    GOLDEN.write_text(golden_text())
    print(f"wrote {GOLDEN}")
