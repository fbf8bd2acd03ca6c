"""tcmc command line: one test per documented exit code."""

from dataclasses import replace

from tcmc import cli, ir, pipeline
from tcmc.ir import Payload

from conftest import kernel_path


def test_exit_ok_gelu(capsys):
    argv = ["compile", kernel_path("gelu"), "--shape", "N=4096", "--verify", "bitexact"]
    assert cli.main(argv) == cli.EXIT_OK
    assert "db           generics=" in capsys.readouterr().out


def test_exit_parse_error(tmp_path, capsys):
    bad = tmp_path / "bad.tk"
    bad.write_text("kernel k(x: f32[N], y: f32[N]) { y2 = x + }\n")
    assert cli.main(["compile", str(bad)]) == cli.EXIT_PARSE
    assert "parse error: line 1:" in capsys.readouterr().err


def test_exit_spec_tile_on_reduction_dim(capsys):
    assert cli.main(["compile", kernel_path("softmax"), "--tile-size", "1024"]) == cli.EXIT_SPEC
    assert "cannot tile reduction dim" in capsys.readouterr().err


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
