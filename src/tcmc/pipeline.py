"""Pass-pipeline driver: composition, stage dumps, differential verification.

The pipeline is a composition of passes applied in user order (dependency
checked): fuse, tile, vectorize, mt, async, db, math-approx. Each is one
function; db emits the two-slot DMA form of each tiled loop directly. With
verification on, the program is interpreted after every pass and compared
against the stage-0 interpretation: bit-exact for structural passes, within
reltol 1e-4 from the math expansion onward (its documented accuracy
contract).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping, Optional, Sequence, Union

import numpy as np

from . import interp, ir, perf
from .frontend import KernelAst, infer_dims_from_inputs, lower_to_generics, parse_kernel
from .mathlib import expand_math_ops
from .passes import (
    DistributionPolicy, PassError, double_buffer_loops, form_async_threads,
    form_virtual_threads, fuse_elementwise, tile_generic, tile_spec, vectorize_innermost,
)

PASS_ORDER = ("fuse", "tile", "vectorize", "mt", "async", "db", "math-approx")

# Unbound dimension symbols fall back to the reference benchmark sizes.
DEFAULT_DIMS = {"N": 1048576, "R": 127, "C": 513}

MATH_RELTOL = 1e-4


class SpecError(Exception):
    """Invalid pipeline specification (unknown pass, broken dependency)."""


class VerifyFailure(Exception):
    def __init__(self, stage: str, report: interp.CompareReport):
        super().__init__(f"verification failed after {stage}: {report}")
        self.stage = stage
        self.report = report


@dataclass
class PipelineOptions:
    tile_sizes: Optional[tuple[int, ...]] = None
    interchange: Optional[tuple[int, ...]] = None
    vector_width: int = 32
    threads: int = 4
    dist_kind: str = "block"
    dist_chunk: int = 1
    # None: the cost model chooses each tiled generic's form; an int forces
    # a fork of every tiled generic of at least that many points
    mt_threshold: Optional[int] = None
    machine: perf.MachineConfig = field(default_factory=perf.MachineConfig)


@dataclass(frozen=True)
class PipelineSpec:
    passes: tuple[str, ...]
    options: PipelineOptions
    verify_mode: Union[str, tuple[str, float]] = "off"  # off | bitexact | ("reltol", tau)


def validate_passes(passes: Sequence[str]) -> tuple[str, ...]:
    passes = tuple(passes)
    for p in passes:
        if p not in PASS_ORDER:
            raise SpecError(f"unknown pass {p!r} (choose from {', '.join(PASS_ORDER)})")
    if len(set(passes)) != len(passes):
        raise SpecError("duplicate pass in pipeline")
    idx = [PASS_ORDER.index(p) for p in passes]
    if idx != sorted(idx):
        raise SpecError(f"pass order must respect dependencies: {' < '.join(PASS_ORDER)}")
    if "db" in passes and "tile" not in passes:
        raise SpecError("db requires tile")
    if "async" in passes and "mt" not in passes:
        raise SpecError("async requires mt")
    return passes


def apply_pass(name: str, program: ir.KernelProgram, opts: PipelineOptions) -> ir.KernelProgram:
    if name == "fuse":
        return fuse_elementwise(program)
    if name == "tile":
        return tile_generic(program, opts.tile_sizes, opts.interchange,
                            tcm_bytes=opts.machine.tcm_bytes,
                            compute_window_bytes=opts.machine.compute_window_bytes,
                            vector_width=opts.vector_width, threads=opts.threads)
    if name == "vectorize":
        return vectorize_innermost(program, opts.vector_width)
    if name == "mt":
        policy = DistributionPolicy(opts.dist_kind, opts.threads, opts.dist_chunk)
        # explicit tile sizes are kept: only a default tile loop is re-tiled
        return form_virtual_threads(program, policy, opts.machine, opts.mt_threshold,
                                    retile=opts.tile_sizes is None)
    if name == "async":
        return form_async_threads(program)
    if name == "db":
        return double_buffer_loops(program)
    if name == "math-approx":
        return expand_math_ops(program)
    raise SpecError(f"unknown pass {name!r}")


@dataclass
class StageResult:
    name: str
    program: ir.KernelProgram
    compare: Optional[interp.CompareReport] = None


@dataclass
class PipelineResult:
    kernel: str
    stages: list[StageResult]
    outputs: Optional[dict[str, np.ndarray]]
    dump_files: list[Path]

    @property
    def final(self) -> ir.KernelProgram:
        return self.stages[-1].program


def kernel_name(path: Union[str, Path]) -> str:
    return Path(path).stem


def _read_source(source: Union[str, Path]) -> str:
    if isinstance(source, str) and "\n" in source:
        return source  # kernel text, which may be longer than any file name
    p = Path(source)
    if p.suffix == ".tk" or p.exists():
        return p.read_text()
    return str(source)


def resolve_kernel(source: Union[str, Path, KernelAst],
                   dims: Optional[Mapping[str, int]] = None,
                   inputs: Optional[Mapping[str, np.ndarray]] = None) -> tuple[KernelAst, dict]:
    """The kernel's AST (parsed unless `source` is one) and its bound dims."""
    ast = source if isinstance(source, KernelAst) else parse_kernel(_read_source(source))
    bound: dict[str, int] = {}
    if inputs:
        bound.update(infer_dims_from_inputs(ast, inputs))
    if dims:
        bound.update(dims)
    for p in ast.params:
        for d in p.dims:
            if isinstance(d, str) and d not in bound:
                if d not in DEFAULT_DIMS:
                    raise SpecError(f"dimension symbol {d!r} unbound; pass --shape {d}=<int>")
                bound[d] = DEFAULT_DIMS[d]
    return ast, bound


def random_inputs(program: ir.KernelProgram, seed: int = 0) -> dict[str, np.ndarray]:
    """Deterministic inputs for differential verification (range safe for exp)."""
    rng = np.random.default_rng(seed)
    out = {}
    for d in program.inputs():
        out[d.name] = (rng.standard_normal(d.shape) * 2.0).astype(np.float32)
    return out


def _check_tile_options(program: ir.KernelProgram, opts: PipelineOptions) -> None:
    """Reject tile sizes or an interchange that `tile_generic` would apply to no generic."""
    generics = [op for op in program.ops if isinstance(op, ir.GenericOp)]
    if opts.tile_sizes is not None:
        ranks = {len(op.domain) for op in generics}
        if len(opts.tile_sizes) not in ranks:
            raise SpecError(f"tile sizes {list(opts.tile_sizes)} have rank "
                            f"{len(opts.tile_sizes)}, but the generics of {program.name} have "
                            f"rank {', '.join(map(str, sorted(ranks))) or 'none'}")
    if opts.interchange is not None:
        specs = [tile_spec(op, program, opts.tile_sizes, opts.interchange,
                           opts.machine.tcm_bytes, opts.machine.compute_window_bytes)
                 for op in generics]
        if not any(s is not None and s.interchange is not None for s in specs):
            tiled = sorted({sum(t > 0 for t in s.sizes) for s in specs if s is not None})
            raise SpecError(f"interchange {list(opts.interchange)} applies to no generic of "
                            f"{program.name}: it permutes {len(opts.interchange)} tiled dims, "
                            + (f"and the tiled generics have {' or '.join(map(str, tiled))}"
                               if tiled else "and no generic is tiled"))


def run_pipeline(
    source: Union[str, Path],
    spec: PipelineSpec,
    inputs: Optional[Mapping[str, np.ndarray]] = None,
    dims: Optional[Mapping[str, int]] = None,
    dump_dir: Optional[Union[str, Path]] = None,
    seed: int = 0,
) -> PipelineResult:
    """Lower, run the pass list in order, dump stages, verify differentially.

    A `dims` symbol the kernel does not declare, `tile_sizes` whose length is
    the rank of no generic reaching `tile`, or an `interchange` that `tile`
    applies to no generic is a SpecError: each would otherwise compile a
    schedule other than the one asked for.

    Raises ParseError, SpecError, LoweringError, PassError, or VerifyFailure;
    the CLI maps each to its documented exit code.
    """
    passes = validate_passes(spec.passes)
    ast, bound = resolve_kernel(source, dims, inputs)
    declared = {d for p in ast.params for d in p.dims if isinstance(d, str)}
    unknown = sorted(set(dims or ()) - declared)
    if unknown:
        raise SpecError(f"kernel {ast.name} has no dimension {unknown[0]!r} "
                        f"(it declares {', '.join(sorted(declared)) or 'none'})")
    program = lower_to_generics(ast, bound)  # verifies what it returns

    stages = [StageResult("input", program)]
    for name in passes:
        before = stages[-1].program
        if name == "tile":
            _check_tile_options(before, spec.options)
        after = apply_pass(name, before, spec.options)
        rep = ir.verify(after, tcm_bytes=spec.options.machine.tcm_bytes)
        if not rep.ok:
            raise PassError(f"pass {name} broke structural invariants:\n{rep}")
        stages.append(StageResult(name, after))

    dump_files: list[Path] = []
    if dump_dir is not None:
        dump_dir = Path(dump_dir)
        dump_dir.mkdir(parents=True, exist_ok=True)
        for i, st in enumerate(stages):
            f = dump_dir / f"{i:02d}_{st.name}.ir"
            f.write_text(ir.print_ir(st.program))
            dump_files.append(f)

    outputs = None
    if spec.verify_mode != "off":
        run_inputs = dict(inputs) if inputs else random_inputs(program, seed)
        reference = interp.interpret(stages[0].program, run_inputs)
        outputs = reference
        past_math = False
        for st in stages[1:]:
            past_math = past_math or st.name == "math-approx"
            mode = spec.verify_mode
            if mode == "bitexact" and past_math:
                mode = ("reltol", MATH_RELTOL)
            got = interp.interpret(st.program, run_inputs)
            st.compare = interp.compare_outputs(got, reference, mode)
            if not st.compare.ok:
                raise VerifyFailure(st.name, st.compare)
            outputs = got
    return PipelineResult(ast.name, stages, outputs, dump_files)


def build_staged(
    source: Union[str, Path, KernelAst],
    passes: Sequence[str],
    dims: Optional[Mapping[str, int]],
    config: perf.MachineConfig,
    *,
    mt_threshold: Optional[int] = None,
    vector_width: int = 32,
    threads: int = 4,
    tile_sizes: Optional[tuple[int, ...]] = None,
) -> ir.KernelProgram:
    """Compile straight to the end of `passes` (no dumps, no verification)."""
    opts = PipelineOptions(machine=config, vector_width=vector_width, threads=threads,
                           tile_sizes=tile_sizes, mt_threshold=mt_threshold)
    return _staged(_lowered(source, dims), passes, opts)


def _lowered(source: Union[str, Path, KernelAst],
             dims: Optional[Mapping[str, int]]) -> dict[tuple[str, ...], ir.KernelProgram]:
    """A pass-prefix memo for `_staged` that holds the lowered kernel."""
    ast, bound = resolve_kernel(source, dims)
    return {(): lower_to_generics(ast, bound)}


def _staged(programs: dict[tuple[str, ...], ir.KernelProgram], passes: Sequence[str],
            opts: PipelineOptions) -> ir.KernelProgram:
    """The program after `passes`, applying each prefix not yet in `programs` once.

    Every entry of `programs` must come from the same `opts`.
    """
    passes = validate_passes(passes)
    for k, name in enumerate(passes):
        if passes[:k + 1] not in programs:
            programs[passes[:k + 1]] = apply_pass(name, programs[passes[:k]], opts)
    return programs[passes]


def _row(kernel: str, size, passes: str, rep: perf.TimingReport,
         baseline: Optional[float]) -> dict:
    speedup = (baseline / rep.total_cycles) if baseline else 1.0
    return {
        "kernel": kernel, "size": size, "passes": passes,
        "cycles": f"{rep.total_cycles:.6g}", "compute": f"{rep.compute_cycles:.6g}",
        "transfer": f"{rep.transfer_cycles:.6g}", "overhead": f"{rep.overhead_cycles:.6g}",
        "m": f"{rep.memory_fraction:.6g}", "speedup": f"{speedup:.6g}",
    }


def bench(
    kernels: Sequence[Union[str, Path]],
    config: perf.MachineConfig,
    axis: str = "passes",
    ladders: Optional[Sequence[str]] = None,
    sizes: Optional[Sequence[int]] = None,
    dims: Optional[Mapping[str, int]] = None,
) -> list[dict]:
    """Cost-model sweep rows (`perf.CSV_COLUMNS`) for each kernel in turn.

    - `passes`: each of `ladders` (default scalar, vec, vec_mt, vec_mt_db)
      at `dims`; speedups are over the first ladder. A ladder not in
      `perf.PASS_LADDERS` raises SpecError.
    - `size`: vec against vec_mt with mt forced on, at N in `sizes`
      (default `perf.SIZE_SWEEP`); speedups are over vec. A kernel with no
      dimension `N` raises SpecError.
    - `memory_fraction`: the db pass on `perf.overlap_probe` at m = 0,
      0.25, 0.5, 0.75, 1, against the undoubled probe; ignores `kernels`.

    Each kernel is parsed once and lowered once per size, and each distinct
    pass prefix of the ladders is applied once: the five ladders cost 7 pass
    runs, not 20. The programs are shared within this call only, so a second
    call compiles everything again.

    None or empty `ladders`, `sizes` and `dims` mean the defaults. Each is a
    SpecError on an axis that never reads it (`dims` and `ladders` on any
    axis but `passes`, `sizes` on any but `size`), since it would be dropped.
    """
    if axis not in ("passes", "size", "memory_fraction"):
        raise ValueError(f"unknown sweep axis {axis!r}")
    for flag, value, reader in (("--shape", dims, "passes"), ("--sizes", sizes, "size"),
                                ("--ladders", ladders, "passes")):
        if value and axis != reader:
            raise SpecError(f"{flag} does not apply to the {axis} sweep, only to the {reader} sweep")
    unknown = [name for name in ladders or () if name not in perf.PASS_LADDERS]
    if unknown:
        raise SpecError(f"unknown ladder {unknown[0]!r} (perf.PASS_LADDERS has "
                        f"{', '.join(perf.PASS_LADDERS)})")
    rows: list[dict] = []
    if axis == "memory_fraction":
        for m in (0.0, 0.25, 0.5, 0.75, 1.0):
            prog, cfg = perf.overlap_probe(m)
            base = perf.simulate(prog, cfg)
            rep = perf.simulate(double_buffer_loops(prog), cfg)
            rows.append(_row("overlap_probe", f"{m:g}", "db", rep, base.total_cycles))
        return rows
    dims = dims or None
    opts = PipelineOptions(machine=config)
    if axis == "size":
        opts.mt_threshold = 1  # vec never reaches mt, so these options serve both ladders
    for k in kernels:
        name = kernel_name(k)
        if axis == "size":
            ast = parse_kernel(_read_source(k))
            if not any(d == "N" for p in ast.params for d in p.dims):
                raise SpecError(f"kernel {name} has no dimension N to sweep; "
                                "--sweep size sets N only")
            for size in sizes or perf.SIZE_SWEEP:
                programs = _lowered(ast, {"N": size})
                st_rep = perf.simulate(_staged(programs, perf.PASS_LADDERS["vec"], opts), config)
                mt_rep = perf.simulate(_staged(programs, perf.PASS_LADDERS["vec_mt"], opts),
                                       config)
                rows.append(_row(name, size, "vec", st_rep, st_rep.total_cycles))
                rows.append(_row(name, size, "vec_mt", mt_rep, st_rep.total_cycles))
            continue
        baseline: Optional[float] = None
        size_label = "x".join(str(v) for v in dims.values()) if dims else "default"
        programs = _lowered(k, dims)
        for ladder in ladders or ("scalar", "vec", "vec_mt", "vec_mt_db"):
            rep = perf.simulate(_staged(programs, perf.PASS_LADDERS[ladder], opts), config)
            if baseline is None:
                baseline = rep.total_cycles
            rows.append(_row(name, size_label, ladder, rep, baseline))
    return rows
