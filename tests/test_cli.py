"""tcmc command line: one test per documented exit code, and the options it rejects."""

import gc
import hashlib
import re
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from tcmc import cli, frontend, interp, ir, perf, pipeline, tensorio
from tcmc.ir import Payload

from conftest import (
    ALL_KERNELS, BENCH_DIMS, CONST_SCALAR_SOURCE, DEFAULT_PASSES, ROOT, bitexact, kernel_inputs,
    kernel_path, lower, squares_kernel,
)


def test_exit_ok_gelu(capsys):
    argv = ["compile", kernel_path("gelu"), "--shape", "N=4096", "--verify", "bitexact"]
    assert cli.main(argv) == cli.EXIT_OK
    assert "db           generics=" in capsys.readouterr().out


def test_thread_parts_of_a_small_tcm_hold_no_copies(tmp_path):
    # mt's four thread parts of a tile write views of its output: were each
    # a TCM buffer of its own, the verifier would charge up to four whole
    # chunks of them, a peak of 4,456 bytes against this TCM (exit 3)
    text = re.sub(r"^(tcm_bytes|compute_window_bytes) = \d+", r"\1 = 4120",
                  (ROOT / "configs" / "default.machine").read_text(), flags=re.M)
    machine = tmp_path / "small.machine"
    machine.write_text(text)
    argv = ["compile", kernel_path("rmsnorm"), "--shape", "R=127", "--shape", "C=33",
            "--tile-size", "5,0", "--mt-threshold", "1", "--machine", str(machine),
            "--verify", "bitexact"]
    assert cli.main(argv) == cli.EXIT_OK
    cfg = perf.MachineConfig.from_text(text)
    opts = pipeline.PipelineOptions(tile_sizes=(5, 0), mt_threshold=1, machine=cfg)
    final = pipeline.run_pipeline(kernel_path("rmsnorm"), pipeline.PipelineSpec(
        DEFAULT_PASSES, opts, "off"), dims={"R": 127, "C": 33}).final
    assert cfg.tcm_bytes == 4120 and ir.verify(final, tcm_bytes=4120).ok


def test_tile_refuses_a_tile_set_that_db_would_take_past_the_tcm(tmp_path, capsys):
    # the last generic's staged tiles of x and the 1/rms temp take two slots
    # each under db, and g's, the same on every trip, one: with its output
    # tile, 6,464 bytes, where one slot each is 4,384. tile refuses the loop
    # rather than hand db one the verifier rejects at that same 6,464-byte peak
    text = re.sub(r"^(tcm_bytes|compute_window_bytes) = \d+", r"\1 = 4608",
                  (ROOT / "configs" / "default.machine").read_text(), flags=re.M)
    machine = tmp_path / "small.machine"
    machine.write_text(text)
    for passes in ("fuse,tile", cli.DEFAULT_PASSES):
        argv = ["compile", kernel_path("rmsnorm"), "--shape", "R=33", "--shape", "C=64",
                "--tile-size", "8,0", "--machine", str(machine), "--passes", passes]
        assert cli.main(argv) == cli.EXIT_SPEC
        assert "live tile set of 6464 bytes exceeds TCM budget 4608" in capsys.readouterr().err


def test_exit_parse_error(tmp_path, capsys):
    bad = tmp_path / "bad.tk"
    bad.write_text("kernel k(x: f32[N], y: f32[N]) { y2 = x + }\n")
    assert cli.main(["compile", str(bad)]) == cli.EXIT_PARSE
    assert "parse error: line 1:" in capsys.readouterr().err


def test_exit_spec_tile_on_reduction_dim(capsys):
    assert cli.main(["compile", kernel_path("softmax"), "--tile-size", "1024"]) == cli.EXIT_SPEC
    assert "cannot tile reduction dim" in capsys.readouterr().err


def test_exit_spec_on_a_lowering_that_does_not_verify(monkeypatch, capsys):
    real_run = frontend._Lowering.run

    def unverifiable_run(self):
        program = real_run(self)
        ghost = replace(program.ops[0], inputs=("ghost",))
        return program.with_ops((ghost,) + program.ops[1:])

    monkeypatch.setattr(frontend._Lowering, "run", unverifiable_run)
    assert cli.main(["compile", kernel_path("gelu"), "--shape", "N=4096"]) == cli.EXIT_SPEC
    assert "error: lowered program does not verify" in capsys.readouterr().err


def test_constant_scalar_assignments_compile_and_verify(tmp_path, capsys):
    src = tmp_path / "scaled.tk"
    src.write_text(CONST_SCALAR_SOURCE)
    argv = ["compile", str(src), "--shape", "N=4096", "--verify", "bitexact"]
    assert cli.main(argv) == cli.EXIT_OK
    assert "db           generics=1  [compare(bitexact): pass]" in capsys.readouterr().out


def test_run_pipeline_takes_kernel_text_longer_than_a_file_name(tmp_path):
    text = Path(squares_kernel(tmp_path, 8)).read_text()
    assert len(text) > 255
    spec = pipeline.PipelineSpec(("fuse",), pipeline.PipelineOptions())
    final = pipeline.run_pipeline(text, spec, dims={"N": 64}).final
    assert final.name == "squares" and len(final.ops) == 1


def test_exit_verify_on_miscompile(monkeypatch, capsys):
    real_fuse = pipeline.fuse_elementwise

    def miscompiling_fuse(program):
        out = real_fuse(program)
        ops = list(out.ops)
        i = next(k for k, op in enumerate(ops) if isinstance(op, ir.GenericOp))
        ops[i] = replace(ops[i], payloads=tuple(Payload("neg", (p,)) for p in ops[i].payloads))
        return replace(out, ops=tuple(ops))

    monkeypatch.setattr(pipeline, "fuse_elementwise", miscompiling_fuse)
    argv = ["compile", kernel_path("gelu"), "--shape", "N=4096", "--passes", "fuse",
            "--verify", "bitexact"]
    assert cli.main(argv) == cli.EXIT_VERIFY
    err = capsys.readouterr().err
    assert "verification failed after fuse: compare(bitexact): FAIL" in err
    assert " (0x" in err


def test_exit_io_missing_kernel(tmp_path, capsys):
    assert cli.main(["compile", str(tmp_path / "missing.tk")]) == cli.EXIT_IO
    assert "No such file" in capsys.readouterr().err


def test_softmax_verifies_at_default_dims():
    # N=1048576 folds 2M elements per interpretation; a per-element Python
    # loop in the fold made this take over 20 s
    argv = ["compile", kernel_path("softmax"), "--verify", "bitexact"]
    assert cli.main(argv) == cli.EXIT_OK


def test_bench_csv_file_equals_stdout_and_is_closed(tmp_path, capsys):
    argv = ["bench", "--sweep", "passes", "--kernels", kernel_path("vecadd2d")]
    assert cli.main(argv) == cli.EXIT_OK
    want = capsys.readouterr().out
    out = tmp_path / "rows.csv"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert cli.main(argv + ["--csv", str(out)]) == cli.EXIT_OK
        gc.collect()
    assert not [w for w in caught if issubclass(w.category, ResourceWarning)]
    assert out.read_bytes() == want.encode()
    assert capsys.readouterr().out == f"wrote 4 rows to {out}\n"


def test_bench_size_sweep_rejects_a_kernel_without_n(capsys):
    # rmsnorm's dims are R and C: every size row would be the same schedule
    argv = ["bench", "--sweep", "size", "--kernels", kernel_path("rmsnorm"),
            "--sizes", "8192,65536"]
    assert cli.main(argv) == cli.EXIT_SPEC
    captured = capsys.readouterr()
    assert "kernel rmsnorm has no dimension N" in captured.err
    assert captured.out == ""


def test_run_writes_the_interpreted_outputs(tmp_path, capsys):
    program = lower("gelu", {"N": 4096})
    inputs = kernel_inputs(program, "gelu")
    tensorio.save_dir(tmp_path / "in", inputs)
    argv = ["run", kernel_path("gelu"), "--inputs", str(tmp_path / "in"),
            "--out", str(tmp_path / "out")]
    assert cli.main(argv) == cli.EXIT_OK
    assert capsys.readouterr().out == f"wrote {tmp_path / 'out' / 'y'}.bin shape=(4096,)\n"
    written = tensorio.load_dir(tmp_path / "out", ["y"])
    want = interp.interpret(program, inputs)
    assert written["y"].shape == (4096,)
    assert bitexact(written, want)
    assert np.isfinite(written["y"]).all()


def chain(tmp_path, n: int) -> str:
    """A kernel of n links that fusion nests into one payload 3n levels deep."""
    links = ["    t0 = 1.0 + xv * 0.5"]
    links += [f"    t{k} = 1.0 + xv * t{k - 1} * 0.5" for k in range(1, n)]
    src = tmp_path / f"chain{n}.tk"
    src.write_text("kernel chain(x: f32[N], y: f32[N]) {\n    xv = load(x)\n"
                   + "\n".join(links) + f"\n    store(y, t{n - 1})\n}}\n")
    return str(src)


def test_emit_final_prints_a_200_link_fused_chain(tmp_path, capsys):
    argv = ["compile", chain(tmp_path, 200), "--shape", "N=4096", "--emit-final"]
    assert cli.main(argv) == cli.EXIT_OK
    payload = "add(1.0, mul(a0, 0.5))"
    for _ in range(199):
        payload = f"add(1.0, mul(mul(a0, {payload}), 0.5))"
    # once: the double-buffered loop has one body
    assert capsys.readouterr().out.count(f"yield {payload}\n") == 1


def test_math_expansion_of_a_200_link_fused_chain(tmp_path, capsys):
    argv = ["compile", chain(tmp_path, 200), "--shape", "N=64", "--passes", "fuse,math-approx"]
    assert cli.main(argv) == cli.EXIT_OK
    assert capsys.readouterr().out.endswith("math-approx  generics=1\n")


def test_verify_of_a_400_link_chain(tmp_path, capsys):
    # 1200 levels: deeper than Python's recursion limit
    argv = ["compile", chain(tmp_path, 400), "--shape", "N=4096", "--verify", "bitexact"]
    with np.errstate(over="ignore"):
        assert cli.main(argv) == cli.EXIT_OK
    assert "db           generics=1  [compare(bitexact): pass]" in capsys.readouterr().out


def test_bench_of_a_400_link_chain(tmp_path, capsys):
    argv = ["bench", "--kernels", chain(tmp_path, 400), "--shape", "N=4096", "--sweep", "passes"]
    assert cli.main(argv) == cli.EXIT_OK
    rows = capsys.readouterr().out.splitlines()[1:]
    assert [row.split(",")[:3] for row in rows] == [
        ["chain400", "4096", ladder] for ladder in ("scalar", "vec", "vec_mt", "vec_mt_db")]


@pytest.mark.parametrize("flag", ["--double-buffer", "--db-stage1-only"])
def test_removed_double_buffer_flags_are_rejected(flag, capsys):
    with pytest.raises(SystemExit) as exit_info:
        cli.main(["compile", kernel_path("gelu"), flag])
    assert exit_info.value.code == 2
    assert f"unrecognized arguments: {flag}" in capsys.readouterr().err


@pytest.mark.parametrize("argv, flag", [
    # taken as prefixes, these were `--dump-after-all zz`, `--mt-threshold 1`
    # and `--kernels`
    (["compile", "gelu", "--passes", "fuse", "--dump-after", "zz"], "--dump-after"),
    (["compile", "gelu", "--mt", "1"], "--mt"),
    (["run", "gelu", "--inputs", "in", "--out", "out", "--mt", "1"], "--mt"),
    (["bench", "--sweep", "passes", "--kern", "gelu"], "--kern"),
])
def test_a_prefix_of_an_option_is_rejected(argv, flag, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exit_info:
        cli.main([kernel_path(a) if a == "gelu" else a for a in argv])
    assert exit_info.value.code == 2
    assert f"unrecognized arguments: {flag}" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_verify_evaluates_a_shared_24_link_chain(tmp_path, capsys):
    # evaluated as a tree, the payload's 2^24 paths never finished
    argv = ["compile", squares_kernel(tmp_path, 24), "--shape", "N=64", "--verify", "bitexact"]
    with np.errstate(over="ignore"):
        assert cli.main(argv) == cli.EXIT_OK
    assert "db           generics=1  [compare(bitexact): pass]" in capsys.readouterr().out


def test_emit_final_names_each_shared_node_of_a_24_link_chain(tmp_path, capsys):
    argv = ["compile", squares_kernel(tmp_path, 24), "--shape", "N=64", "--emit-final"]
    assert cli.main(argv) == cli.EXIT_OK
    body = ["%s0 = add(mul(a0, a0), 0.25)"]
    body += [f"%s{k} = add(mul(%s{k - 1}, %s{k - 1}), 0.25)" for k in range(1, 23)]
    body += ["yield add(mul(%s22, %s22), 0.25)"]
    lines = [line.strip() for line in capsys.readouterr().out.splitlines()]
    # once: the double-buffered loop has one body
    (start,) = [i for i, line in enumerate(lines) if line == body[0]]
    assert lines[start:start + 24] == body


def test_bench_costs_each_node_of_a_shared_24_link_chain_once(tmp_path, capsys):
    argv = ["bench", "--kernels", squares_kernel(tmp_path, 24), "--shape", "N=64", "--sweep", "passes"]
    assert cli.main(argv) == cli.EXIT_OK
    scalar = capsys.readouterr().out.splitlines()[1].split(",")
    # 48 one-cycle operations per point, not one per root-to-leaf path
    assert scalar[:3] == ["squares24", "64", "scalar"] and scalar[4] == str(64 * 48)


def test_rsqrt_meets_the_math_approx_contract(tmp_path, capsys):
    src = tmp_path / "rsqrt.tk"
    src.write_text("kernel rsq(x: f32[N], y: f32[N]) {\n    xv = load(x)\n"
                   "    out = rsqrt(xv * xv + 1.0)\n    store(y, out)\n}\n")
    argv = ["compile", str(src), "--shape", "N=4096", "--math", "approx", "--verify", "bitexact"]
    assert cli.main(argv) == cli.EXIT_OK
    assert "math-approx  generics=1  [compare(reltol(0.0001)): pass]" in capsys.readouterr().out


def test_exit_spec_shape_symbol_the_kernel_does_not_declare(capsys):
    argv = ["compile", kernel_path("softmax"), "--shape", "N=8481", "--shape", "R=33"]
    assert cli.main(argv) == cli.EXIT_SPEC
    assert "kernel softmax has no dimension 'R' (it declares N)" in capsys.readouterr().err


def test_exit_spec_tile_size_rank_of_no_generic(capsys):
    argv = ["compile", kernel_path("softmax"), "--shape", "N=8481", "--tile-size", "7,0"]
    assert cli.main(argv) == cli.EXIT_SPEC
    assert ("tile sizes [7, 0] have rank 2, but the generics of softmax have rank 1"
            in capsys.readouterr().err)


def test_exit_spec_interchange_of_no_generic(capsys):
    # rmsnorm's generics tile one dim each, so a 2-dim interchange changed nothing
    argv = ["compile", kernel_path("rmsnorm"), "--interchange", "5,7", "--emit-final"]
    assert cli.main(argv) == cli.EXIT_SPEC
    captured = capsys.readouterr()
    assert ("interchange [5, 7] applies to no generic of rmsnorm: it permutes 2 tiled dims, "
            "and the tiled generics have 1" in captured.err)
    assert captured.out == ""


def test_interchange_that_applies_reorders_the_tile_loops(capsys):
    argv = ["compile", kernel_path("vecadd2d"), "--shape", "R=8", "--shape", "C=128",
            "--tile-size", "4,64", "--passes", "fuse,tile", "--emit-final"]
    assert cli.main(argv + ["--interchange", "1,0"]) == cli.EXIT_OK
    assert "\n  for %i1 = 0 to 128 step 64 " in capsys.readouterr().out
    assert cli.main(argv) == cli.EXIT_OK
    assert "\n  for %i0 = 0 to 8 step 4 " in capsys.readouterr().out


@pytest.mark.parametrize("ladders, name", [("foo", "foo"), (",", "")])
def test_bench_exit_spec_unknown_ladder(ladders, name, capsys):
    argv = ["bench", "--sweep", "passes", "--kernels", kernel_path("gelu"), "--ladders", ladders]
    assert cli.main(argv) == cli.EXIT_SPEC
    captured = capsys.readouterr()
    assert (f"unknown ladder {name!r} (perf.PASS_LADDERS has scalar, vec, vec_db, vec_mt, "
            "vec_mt_db)" in captured.err)
    assert captured.out == ""


@pytest.mark.parametrize("sweep, option, reader", [
    ("size", ["--sizes", "8192", "--shape", "N=65536"], "passes"),
    ("passes", ["--sizes", "8192"], "size"),
    ("size", ["--ladders", "vec"], "passes"),
])
def test_bench_exit_spec_option_the_sweep_never_reads(sweep, option, reader, capsys):
    argv = ["bench", "--sweep", sweep, "--kernels", kernel_path("gelu")] + option
    assert cli.main(argv) == cli.EXIT_SPEC
    captured = capsys.readouterr()
    flag = option[-2]
    assert f"{flag} does not apply to the {sweep} sweep, only to the {reader} sweep" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("kernel", ALL_KERNELS)
def test_an_explicit_mt_threshold_prints_the_fixed_rules_final_ir(kernel, capsys, golden_dir):
    # the override's contract: the point-count rule's schedule, byte for byte,
    # as the golden digests record it. Since the cost model chose, the
    # digests record db's one-slot form of an invariant tile (rmsnorm's g)
    # and of every tile of a one-trip loop, with no prefetch guard there;
    # reduction tiles split evenly (softmax); and an override loop `tile`
    # sized by default, of two trips or more, forked once at the first
    # re-tiled step that fits where its own step does not (gelu, silu and
    # expseries); rmsnorm's three row loops run as one. One-trip and
    # explicit-tile loops keep the point-count rule
    shapes = [f"--shape={k}={v}" for k, v in BENCH_DIMS[kernel].items()]
    argv = ["compile", kernel_path(kernel), "--mt-threshold", "32768", "--emit-final", *shapes]
    assert cli.main(argv) == cli.EXIT_OK
    out = capsys.readouterr().out
    final = out[out.index("program @"):]
    case = (f"kernel/{kernel}/bench_dims/{cli.DEFAULT_PASSES}/tile=default/exact/mt=32768/block"
            "/06_db")
    lines = (golden_dir / "ir_digests.txt").read_text().splitlines()
    digests = dict(line.split() for line in lines)
    assert hashlib.sha256(final.encode()).hexdigest() == digests[case]
