"""tcmc command line: compile kernels through the pass pipeline, benchmark,
and run them on tensor files.

Exit codes:
  0  success
  2  kernel or machine config parse error
  3  invalid pipeline spec, lowering failure or pass failure
  4  differential verification failure
  5  missing file or other I/O error
"""

from __future__ import annotations

import argparse
import csv
import sys
from contextlib import nullcontext
from pathlib import Path

from . import interp, ir, perf, pipeline, tensorio
from .frontend import LoweringError, ParseError
from .passes import PassError
from .pipeline import PipelineOptions, PipelineSpec, SpecError, VerifyFailure

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_SPEC = 3
EXIT_VERIFY = 4
EXIT_IO = 5

DEFAULT_PASSES = "fuse,tile,vectorize,mt,async,db"


def _add_pipeline_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--passes", default=DEFAULT_PASSES,
                   help=f"comma-separated pass list (default: {DEFAULT_PASSES})")
    p.add_argument("--tile-size", default=None,
                   help="tile sizes per domain dim, e.g. 262144 or 32,0")
    p.add_argument("--interchange", default=None, help="tile loop interchange, e.g. 1,0")
    p.add_argument("--vector-width", type=int, default=32)
    p.add_argument("--threads", type=int, default=4)
    p.add_argument("--dist", default="block", help="block or cyclic:CHUNK")
    p.add_argument("--mt-threshold", type=int, default=None,
                   help="force: thread every tiled generic of at least N points; "
                        "default: the cost model chooses")
    p.add_argument("--math", choices=("exact", "approx"), default="exact")
    p.add_argument("--machine", default=None, help="machine config file (key = value)")
    p.add_argument("--shape", action="append", default=[],
                   help="bind a dimension symbol, e.g. --shape N=65536")
    p.add_argument("--seed", type=int, default=0, help="seed for verification inputs")


def _parse_dist(text: str) -> tuple[str, int]:
    if text == "block":
        return "block", 1
    if text.startswith("cyclic:"):
        return "block_cyclic", int(text.split(":", 1)[1])
    if text == "cyclic":
        return "block_cyclic", 1
    raise SpecError(f"bad --dist {text!r}: use block or cyclic:CHUNK")


def _parse_ints(text: str | None) -> tuple[int, ...] | None:
    if text is None:
        return None
    return tuple(int(v) for v in text.split(","))


def _parse_shapes(items: list[str]) -> dict[str, int]:
    dims = {}
    for item in items:
        if "=" not in item:
            raise SpecError(f"bad --shape {item!r}: use SYM=INT")
        k, v = item.split("=", 1)
        dims[k.strip()] = int(v)
    return dims


def _build_spec(args) -> PipelineSpec:
    passes = [p.strip() for p in args.passes.split(",") if p.strip()]
    if args.math == "approx" and "math-approx" not in passes:
        passes.append("math-approx")
    dist_kind, chunk = _parse_dist(args.dist)
    machine = perf.MachineConfig()
    if args.machine:
        machine = perf.MachineConfig.from_text(Path(args.machine).read_text())
    opts = PipelineOptions(
        tile_sizes=_parse_ints(args.tile_size),
        interchange=_parse_ints(args.interchange),
        vector_width=args.vector_width,
        threads=args.threads,
        dist_kind=dist_kind,
        dist_chunk=chunk,
        mt_threshold=args.mt_threshold,
        machine=machine,
    )
    verify = getattr(args, "verify", "off")
    if verify.startswith("reltol:"):
        verify = ("reltol", float(verify.split(":", 1)[1]))
    elif verify not in ("off", "bitexact"):
        raise SpecError(f"bad --verify {verify!r}: off, bitexact, or reltol:TOL")
    return PipelineSpec(tuple(passes), opts, verify)


def cmd_compile(args) -> int:
    spec = _build_spec(args)
    result = pipeline.run_pipeline(
        args.kernel, spec, dims=_parse_shapes(args.shape),
        dump_dir=args.dump_after_all, seed=args.seed)
    for st in result.stages:
        note = ""
        if st.compare is not None:
            note = f"  [{st.compare}]"
        gens = ir.count_ops(st.program, lambda o: isinstance(o, ir.GenericOp))
        print(f"{st.name:12s} generics={gens}{note}")
    if args.emit_final:
        print(ir.print_ir(result.final), end="")
    if result.dump_files:
        print(f"wrote {len(result.dump_files)} dumps to {Path(result.dump_files[0]).parent}")
    return EXIT_OK


def cmd_run(args) -> int:
    spec = _build_spec(args)
    ast, _ = pipeline.resolve_kernel(args.kernel)
    input_names = [p.name for p in ast.params]
    tensors = {}
    for name in input_names:
        try:
            tensors.update(tensorio.load_dir(args.inputs, [name]))
        except FileNotFoundError:
            continue  # outputs have no files
    result = pipeline.run_pipeline(args.kernel, spec, inputs=tensors,
                                   dims=_parse_shapes(args.shape), seed=args.seed)
    run_inputs = {d.name: tensors[d.name] for d in result.final.inputs()}
    outputs = interp.interpret(result.final, run_inputs)
    tensorio.save_dir(args.out, outputs)
    for name in sorted(outputs):
        print(f"wrote {Path(args.out) / name}.bin shape={outputs[name].shape}")
    return EXIT_OK


def cmd_bench(args) -> int:
    machine = perf.MachineConfig()
    if args.machine:
        machine = perf.MachineConfig.from_text(Path(args.machine).read_text())
    kernels = [k for k in args.kernels.split(",") if k]
    axis = {"size": "size", "m": "memory_fraction", "passes": "passes"}[args.sweep]
    for k in kernels:
        if not Path(k).exists():
            raise FileNotFoundError(k)
    ladders = args.ladders.split(",") if args.ladders else None
    sizes = _parse_ints(args.sizes)
    rows = pipeline.bench(kernels, machine, axis, ladders=ladders, sizes=sizes,
                          dims=_parse_shapes(args.shape))
    with open(args.csv, "w", newline="") if args.csv else nullcontext(sys.stdout) as stream:
        out = csv.DictWriter(stream, fieldnames=list(perf.CSV_COLUMNS))
        out.writeheader()
        out.writerows(rows)
    if args.csv:
        print(f"wrote {len(rows)} rows to {args.csv}")
    return EXIT_OK


def make_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="tcmc",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
        allow_abbrev=False)
    sub = ap.add_subparsers(dest="command", required=True)

    c = sub.add_parser("compile", help="run the pass pipeline over a kernel", allow_abbrev=False)
    c.add_argument("kernel")
    _add_pipeline_args(c)
    c.add_argument("--verify", default="off", help="off | bitexact | reltol:TOL")
    c.add_argument("--dump-after-all", default=None, metavar="DIR",
                   help="write NN_<pass>.ir dumps into DIR")
    c.add_argument("--emit-final", action="store_true", help="print the final IR")
    c.set_defaults(fn=cmd_compile)

    r = sub.add_parser("run", help="execute a kernel on tensor files", allow_abbrev=False)
    r.add_argument("kernel")
    r.add_argument("--inputs", required=True, help="directory of name.bin/name.shape files")
    r.add_argument("--out", required=True, help="output directory")
    _add_pipeline_args(r)
    r.set_defaults(fn=cmd_run, verify="off")

    b = sub.add_parser("bench", help="emit cost-model sweep CSV", allow_abbrev=False)
    b.add_argument("--kernels", default="", help="comma-separated kernel files")
    b.add_argument("--machine", default=None)
    b.add_argument("--shape", action="append", default=[],
                   help="bind a dimension symbol, e.g. --shape R=64")
    b.add_argument("--sweep", choices=("size", "m", "passes"), required=True)
    b.add_argument("--ladders", default=None,
                   help=f"pass ladders for --sweep passes ({', '.join(perf.PASS_LADDERS)})")
    b.add_argument("--sizes", default=None, help="sizes for --sweep size")
    b.add_argument("--csv", default=None, help="output file (default stdout)")
    b.set_defaults(fn=cmd_bench)
    return ap


def main(argv: list[str] | None = None) -> int:
    args = make_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (ParseError, perf.MachineConfigError) as e:
        print(f"parse error: {e}", file=sys.stderr)
        return EXIT_PARSE
    except (SpecError, LoweringError, PassError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_SPEC
    except VerifyFailure as e:
        print(f"verify failure: {e}", file=sys.stderr)
        return EXIT_VERIFY
    except (OSError, interp.ExecutionFault) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
