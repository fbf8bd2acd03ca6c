"""Tiling for the DDR/TCM memory hierarchy, plus innermost vectorization.

Tiling rewrites each top-level generic with parallel dims into a loop nest
over tiles: stage each input tile into TCM with one `extract_slice ... @tcm`,
allocate each output tile in TCM, compute on the tiles, and write results
back with insert_slice. Remainder tiles clamp to min(t, extent - offset).

Temps that fit stay resident in TCM. Before tiling, each `role=temp` decl,
in program order, becomes `@tcm` when the resident bytes, its own included,
fit `tcm_bytes` beside the largest live tile set of any tile loop as the
later passes leave it (`_live_tile_bytes`); one that does not fit stays
`@ddr`. A tile loop reads and writes a resident operand in place through a
view (an `extract_slice` with no space), emitted after the run of staged
slices so that db still double-buffers every staged one. So a resident
temp is never written to DDR, staged again or copied. A generic whose
domain is one point and whose operands all live in TCM is left untiled.

Tile-loop fusion. After tiling, consecutive top-level `all_parallel` tile
loops of equal constant bounds and step, with no loop or guard in their
bodies, merge into one loop that runs each body in turn on every trip: the
later body's loop var becomes the first's, its staged slices join the
leading run (so db still finds its normal form), and a slice that repeats
an earlier one (same source, offsets, sizes and space) is dropped, its
users reading the earlier tile or view. A merge is refused where a later
body slices a buffer an earlier body writes back, or stages one it writes;
where an earlier body slices a buffer a later body writes; where a buffer
both slice is taken at different regions, or, written by the earlier one,
at a region that does not move with the loop var; and where the merged
loop's tiles, as db will slot them, do not fit the TCM the resident temps
leave, or not T times over (T the thread count) where one of the loops'
did: mt forks a tile loop only where T contexts of it fit (`threading.py`,
"Hoisting"), so such a merge would cost that loop its fork. Each trip then runs the same points in the same order as the loops
did, each fold in its order, so every output bit is kept. rmsnorm's row
sum, sqrt and normalize become one loop that stages `%x` once.

A rank-1 reduction whose operands exceed the compute window is tiled along
its reduction dim: its outputs become TCM accumulators, filled with the
fold's init before the loop, and every trip folds its tile into them with
`init=out`. The tiles run in order and each fold continues from the last
one's result, so this is the same strict left-to-right fold and keeps every
output bit (the bit-exactness contract). No other reduction dim is tiled.

Vectorization marks generics whose innermost dim is parallel with
`vectorized(W)`. When W does not divide the innermost extent the generic is
restructured into a width-multiple main part plus a scalar epilogue so the
annotation never lies about full groups; per-element evaluation order is
unchanged either way. Each part reads and writes views of the generic's
operands, so the split allocates and copies nothing. An elementwise
generic whose innermost extent is below W is all epilogue: it is marked
`vec_epilogue` and not split.

A generic whose innermost dim is its only reduction dim is vectorized the
same way when every reduction is a max. `vectorized(W)` then means W lanes
that each fold one contiguous block of the reduced dim, combined in lane
order. That is the sequential fold bit for bit: `np.maximum` keeps the later
of two equal values (+0 and -0), so the last maximal element wins in both
forms, and a NaN anywhere gives NaN in both. Both parts of a split fold into
the output in place, and the epilogue continues from the main part's result
with `init=out`. A sum is never vectorized along its reduced dim: reordering
float adds changes bits.

A generic with a parallel d0 and an innermost reduction dim that blocked
lanes leave alone (every sum, a max whose reduced extent is below W or whose
main part might not run, a fold over two reduction dims) is marked
`row_lanes(W)` instead: ceil(L/W) groups of W lanes along d0 (L its extent),
each lane folding its own row in the sequential order, the lanes past L in
the last group masked off. Each fold keeps its order, so every output bit is
kept. The form adds no op and no split.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

from .. import ir
from ..ir import (
    AffineIndexMap, AllocOp, DeallocOp, Extent, ExtractSliceOp, ForOp,
    GenericOp, IfOp, InsertSliceOp, IVar, KernelProgram, Op, CmpPred,
    ix_floordiv, ix_min, ix_mul, ix_sub,
)
from .common import (
    BufInfo, NameAllocator, PassError, resident_bytes, split_generic, tile_bytes,
)
from .double_buffer import staged_run, tile_tcm_bytes, written_buffers


@dataclass(frozen=True)
class TileSpec:
    """Per-dimension tile sizes (0 = keep whole). Only the default policy
    tiles a reduction dim; explicit sizes on one are a PassError."""

    sizes: tuple[int, ...]
    interchange: Optional[tuple[int, ...]] = None
    target_space: str = "tcm"


def _elem_bytes(dtype: str) -> int:
    return 2 if dtype == "f16" else 4


def _dim_bytes(generic: GenericOp, program: KernelProgram, dim: int) -> tuple[int, int]:
    """(bytes per index of `dim`, bytes of the rest) over the whole buffers of
    `generic`'s operands: an operand whose map reads `dim` counts toward the
    first, one that does not toward the second."""
    fixed = 0
    per_t = 0
    for name, m in zip(generic.inputs + generic.outputs, generic.maps):
        decl = program.decl(name)
        other = _elem_bytes(decl.dtype) if decl else 4
        tiled = False
        for j, r in enumerate(m.results):
            ext = decl.shape[j] if decl else 1
            if r == dim:
                tiled = True
            else:
                other *= ext
        if tiled:
            per_t += other
        else:
            fixed += other
    return per_t, fixed


def _pow2_floor(n: int) -> int:
    t = 1
    while t * 2 <= n:
        t *= 2
    return t


def default_tile_sizes(generic: GenericOp, program: KernelProgram, tcm_bytes: int,
                       compute_window_bytes: int, vector_width: int = 1) -> Optional[TileSpec]:
    """Largest power-of-two tile of the outermost parallel dim such that a
    two-slot buffer of all operand tiles fits in half the TCM.

    A generic without parallel dims is tiled along its reduction dim only
    when it is rank 1 and its operands exceed `compute_window_bytes`
    (`_reduction_tile_sizes`), in whole vectors of `vector_width` where
    they fit."""
    par = [d for d, it in enumerate(generic.iterators) if it == "parallel"]
    if not par:
        return _reduction_tile_sizes(generic, program, tcm_bytes, compute_window_bytes,
                                     vector_width)
    dim = par[0]
    extent = generic.domain[dim]
    assert isinstance(extent, int)
    per_t, fixed = _dim_bytes(generic, program, dim)
    budget = tcm_bytes // 4 - fixed
    if per_t == 0:
        return None
    t_max = budget // per_t
    if t_max < 1:
        raise PassError(
            f"@{generic.name}: no tile of dim d{dim} fits the TCM budget ({tcm_bytes} bytes)")
    t = min(_pow2_floor(t_max), extent)
    sizes = [0] * len(generic.domain)
    sizes[dim] = t
    return TileSpec(tuple(sizes))


def _reduction_tile_sizes(generic: GenericOp, program: KernelProgram, tcm_bytes: int,
                          window_bytes: int, width: int) -> Optional[TileSpec]:
    """The tile of a rank-1 reduction whose operands exceed the compute window.

    The footprint counts every input and output buffer whole, as the cost
    model does for its window test. The extent is split evenly into the
    fewest tiles whose footprint stays within the window (and, as for a
    parallel tile, within a quarter of the TCM), each rounded up to whole
    `width`-point vectors where that still fits. A generic that fits the
    window, or whose broadcast operands alone fill it, stays whole.
    """
    if len(generic.domain) != 1 or not isinstance(generic.domain[0], int):
        return None
    n = generic.domain[0]
    per_t, fixed = _dim_bytes(generic, program, 0)
    if per_t == 0 or per_t * n + fixed <= window_bytes:
        return None
    t_max = (min(window_bytes, tcm_bytes // 4) - fixed) // per_t
    if t_max < 1:
        return None
    tiles = -(-n // t_max)  # the fewest that fit
    t = -(-n // tiles)  # split evenly
    whole = -(-t // width) * width
    return TileSpec((whole if whole <= t_max else t,))


def _slice_of(shape: tuple[Extent, ...], m: AffineIndexMap, start: dict[int, Extent],
              size: dict[int, Extent]) -> tuple[tuple[Extent, ...], tuple[Extent, ...]]:
    """The tile of an operand of `shape` read through `m`: a tiled dim d at
    `start[d]` of `size[d]`, a broadcast dim one element, any other dim whole."""
    offsets, sizes = [], []
    for j, r in enumerate(m.results):
        if r in size:
            offsets.append(start[r])
            sizes.append(size[r])
        else:
            offsets.append(0)
            sizes.append(1 if r is None else shape[j])
    return tuple(offsets), tuple(sizes)


def _loop_order(generic: GenericOp, spec: TileSpec) -> list[int]:
    """The dims `spec` tiles, outermost loop first."""
    tiled_dims = [d for d, t in enumerate(spec.sizes) if t > 0]
    if not tiled_dims:
        raise PassError(f"@{generic.name}: tile spec selects no dims")
    if spec.interchange is None:
        return tiled_dims
    if sorted(spec.interchange) != list(range(len(tiled_dims))):
        raise PassError(
            f"@{generic.name}: interchange must permute the {len(tiled_dims)} tiled dims")
    return [tiled_dims[k] for k in spec.interchange]


def _live_tile_bytes(generic: GenericOp, spec: TileSpec, program: KernelProgram,
                     resident: set[str]) -> int:
    """The TCM a tile loop of `generic` may hold once every later pass has
    run, at the tiles' upper bounds.

    A staged input tile counts twice, for db's two slots, but once where db
    gives it one: where it does not read the innermost tile loop's dim, so
    no trip moves it, or where that loop has one trip. An operand in
    `resident` is a view and holds nothing, but an accumulator counts once
    whatever its output. Every other output tile counts once: vectorize and
    mt split it through views.
    """
    size = {d: min(t, generic.domain[d]) for d, t in enumerate(spec.sizes) if t > 0}
    carried = any(generic.iterators[d] == "reduction" for d in size)
    innermost = _loop_order(generic, spec)[-1]
    moves = size[innermost] < generic.domain[innermost]  # the loop has a second trip
    total = 0
    for k, (name, m) in enumerate(zip(generic.inputs + generic.outputs, generic.maps)):
        if k < len(generic.inputs):
            copies = 0 if name in resident else 2 if moves and innermost in m.results else 1
        else:
            copies = 1 if carried or name not in resident else 0
        _, sizes = _slice_of(program.decl(name).shape, m, size, size)
        total += copies * tile_bytes(sizes, program.is_narrow(name))
    return total


def _resident_temps(program: KernelProgram, tiled: list[tuple[GenericOp, TileSpec]],
                    tcm_bytes: int) -> KernelProgram:
    """`program` with each temp that fits declared `@tcm`.

    Temps are taken in program order. One stays resident when every resident
    temp's bytes, its own included, fit `tcm_bytes` beside the largest live
    tile set of any tile loop (`_live_tile_bytes`), and stays `@ddr`
    otherwise. A resident input is a view, so each temp taken can only
    shrink the tile sets the earlier ones were checked against."""
    resident = {d.name for d in program.decls if d.space == "tcm"}
    used = resident_bytes(program)
    for d in program.decls:
        if d.role != "temp" or d.space == "tcm":
            continue
        trial = resident | {d.name}
        need = used + tile_bytes(d.shape, d.dtype == "f16")
        peak = max((_live_tile_bytes(g, s, program, trial) for g, s in tiled), default=0)
        if need + peak <= tcm_bytes:
            resident, used = trial, need
    decls = tuple(replace(d, space="tcm") if d.name in resident else d for d in program.decls)
    return replace(program, decls=decls)


def _tile_one(generic: GenericOp, spec: TileSpec, program: KernelProgram,
              names: NameAllocator, tcm_bytes: Optional[int]) -> tuple[Op, ...]:
    """The tile loop nest of `generic`, with the ops around it.

    Tiles of parallel dims get their outputs allocated per trip and written
    back in the loop body. Tiles of reduction dims (every tiled dim is one)
    fold into one accumulator per output instead: allocated before the loop
    with the fold's init, folded with `init=out` on every trip, written back
    and deallocated after the loop.

    An input, or a parallel tile's output, already in the target space is
    sliced as a view, after the run of staged slices, so that db still
    finds every staged tile in the leading run (`recognize_normal_form`).
    The generic writes such an output in place. A loop whose live tile set
    as db will leave it (`_live_tile_bytes`) exceeds `tcm_bytes` is refused.
    """
    rank = len(generic.domain)
    if len(spec.sizes) != rank:
        raise PassError(f"@{generic.name}: tile spec rank {len(spec.sizes)} != domain rank {rank}")
    tiled_dims = [d for d, t in enumerate(spec.sizes) if t > 0]
    carried = any(generic.iterators[d] == "reduction" for d in tiled_dims)
    for d in tiled_dims:
        if carried and generic.iterators[d] == "parallel":
            raise PassError(f"@{generic.name}: cannot tile parallel dim d{d} with a reduction dim")
        if not isinstance(generic.domain[d], int):
            raise PassError(f"@{generic.name}: dynamic extent cannot be tiled")
    if tcm_bytes is not None:
        resident = {d.name for d in program.decls if d.space == "tcm"}
        live = _live_tile_bytes(generic, spec, program, resident)
        if live > tcm_bytes:
            raise PassError(f"@{generic.name}: live tile set of {live} bytes exceeds "
                            f"TCM budget {tcm_bytes}")

    loop_vars = {d: names.fresh("i") for d in tiled_dims}
    start = {d: IVar(v) for d, v in loop_vars.items()}
    tile_size = {d: ix_min(spec.sizes[d], ix_sub(generic.domain[d], start[d]))
                 for d in tiled_dims}

    body: list[Op] = []
    views: list[Op] = []
    allocs: list[Op] = []
    new_inputs: list[str] = []
    for name, m in zip(generic.inputs, generic.input_maps()):
        decl = program.decl(name)
        offsets, sizes = _slice_of(decl.shape if decl else (), m, start, tile_size)
        tile = names.fresh("t")
        if decl is not None and decl.space == spec.target_space:
            views.append(ExtractSliceOp(tile, name, offsets, sizes))
        else:
            body.append(ExtractSliceOp(tile, name, offsets, sizes, spec.target_space))
        new_inputs.append(tile)

    inner_domain = tuple(tile_size.get(d, generic.domain[d]) for d in range(rank))
    new_outputs: list[str] = []
    writebacks: list[Op] = []
    deallocs: list[Op] = []
    for name, m, red in zip(generic.outputs, generic.output_maps(), generic.reductions):
        decl = program.decl(name)
        offsets, sizes = _slice_of(decl.shape if decl else (), m, start, tile_size)
        otile = names.fresh("acc" if carried else "o")
        new_outputs.append(otile)
        if not carried and decl is not None and decl.space == spec.target_space:
            views.append(ExtractSliceOp(otile, name, offsets, sizes))
            continue
        narrow = program.is_narrow(name)
        allocs.append(AllocOp(otile, sizes, spec.target_space, narrow=narrow,
                              fill=red.init if carried else None))
        writebacks.append(InsertSliceOp(otile, name, offsets, sizes))
        deallocs.append(DeallocOp(otile))

    inner = replace(generic, domain=inner_domain, inputs=tuple(new_inputs),
                    outputs=tuple(new_outputs))
    if carried:
        inner = replace(inner, reductions=tuple(r.carried() for r in generic.reductions))
        body += views + [inner]
    else:
        body += views + allocs + [inner] + writebacks + deallocs

    order = _loop_order(generic, spec)
    annotations = frozenset({"tiled_generic"} if carried else {"tiled_generic", "all_parallel"})
    inner_ops = tuple(body)
    for d in reversed(order):
        inner_ops = (ForOp(loop_vars[d], 0, generic.domain[d], spec.sizes[d], inner_ops,
                           annotations=annotations),)
    if carried:
        return (*allocs, *inner_ops, *writebacks, *deallocs)
    return inner_ops


def _one_point_in_tcm(op: GenericOp, program: KernelProgram) -> bool:
    """Whether `op` computes one point from operands that all live in TCM:
    a tile loop would only wrap it."""
    return (all(e == 1 for e in op.domain)
            and all(program.decl(n).space == "tcm" for n in op.inputs + op.outputs))


def tile_generic(
    program: KernelProgram,
    tile_sizes: Optional[tuple[int, ...]] = None,
    interchange: Optional[tuple[int, ...]] = None,
    tcm_bytes: int = 8 * 1024 * 1024,
    compute_window_bytes: int = 131072,
    vector_width: int = 1,
    threads: int = 4,
) -> KernelProgram:
    """Tile every top-level generic over DDR -> TCM tiles.

    `tile_sizes` applies to generics whose rank matches its length; all other
    generics fall back to the default sizing policy. Generics with no
    parallel dims are left untouched, except a rank-1 reduction whose
    operands exceed `compute_window_bytes`: it folds tile by tile into a
    carried accumulator, its tiles whole vectors of `vector_width` where
    they fit. Each temp that fits is declared `@tcm` first
    (`_resident_temps`); a one-point generic over TCM operands alone is
    left whole. Sibling tile loops then merge where that is safe and costs
    no fork of `threads` contexts (module docstring, "Tile-loop fusion").
    """
    specs = [tile_spec(op, program, tile_sizes, interchange, tcm_bytes, compute_window_bytes,
                       vector_width) if isinstance(op, GenericOp) else None for op in program.ops]
    program = _resident_temps(
        program, [(op, s) for op, s in zip(program.ops, specs) if s is not None], tcm_bytes)
    names = NameAllocator(program)
    new_ops: list[Op] = []
    for op, spec in zip(program.ops, specs):
        if spec is None or _one_point_in_tcm(op, program):
            new_ops.append(op)
        else:
            new_ops.extend(_tile_one(op, spec, program, names, tcm_bytes))
    return program.with_ops(_fuse_tile_loops(new_ops, program, tcm_bytes, threads),
                            stage="tiled")


# ---------------------------------------------------------------------------
# Tile-loop fusion
# ---------------------------------------------------------------------------


def _fusible(op: Op) -> bool:
    """Whether `op` is a tile loop fusion may merge: `all_parallel`, of
    constant bounds and step, and with no loop or guard in its body."""
    return (isinstance(op, ForOp) and "all_parallel" in op.annotations
            and all(isinstance(e, int) for e in (op.lb, op.ub, op.step))
            and not any(getattr(b, "body", None) is not None for b in op.body))


def _regions(body: tuple[Op, ...]) -> dict[str, set[tuple]]:
    """Each buffer `body` slices or writes back, to the regions it does so at."""
    regions: dict[str, set[tuple]] = {}
    for op in body:
        if isinstance(op, (ExtractSliceOp, InsertSliceOp)):
            buf = op.source if isinstance(op, ExtractSliceOp) else op.dest
            regions.setdefault(buf, set()).add((op.offsets, op.sizes))
    return regions


def _may_merge(a: ForOp, b: ForOp) -> bool:
    """Whether `b`'s body, its loop var already `a`'s, may run right after
    `a`'s in every trip of one loop (the refusals of the module docstring's
    "Tile-loop fusion")."""
    ra, rb = _regions(a.body), _regions(b.body)
    written_a, written_b = written_buffers(a.body), written_buffers(b.body)
    back_a = {op.dest for op in a.body if isinstance(op, InsertSliceOp)}
    staged_b = {op.source for op in b.body[:staged_run(b.body)]}
    if back_a & rb.keys() or staged_b & written_a or ra.keys() & written_b:
        return False
    var = IVar(a.var)
    for buf in ra.keys() & rb.keys():
        regions = ra[buf] | rb[buf]
        if len(regions) > 1:
            return False
        # a shared buffer one of them writes: each trip takes its own region
        (offsets, _), = regions
        if buf in written_a and var not in offsets:
            return False
    return True


def _renamed(op: Op, alias: dict[str, str]) -> Op:
    """`op` reading each buffer of `alias` under its alias."""
    if isinstance(op, GenericOp):
        return replace(op, inputs=tuple(alias.get(n, n) for n in op.inputs),
                       outputs=tuple(alias.get(n, n) for n in op.outputs))
    if isinstance(op, ExtractSliceOp) and op.source in alias:
        return replace(op, source=alias[op.source])
    return op


def _merged(a: ForOp, b: ForOp) -> ForOp:
    """One loop running `a`'s body and then `b`'s in every trip: `b`'s staged
    slices join `a`'s leading run, and a slice of `b` that repeats one of
    `a`'s (same source, offsets, sizes and space) is dropped, its users
    reading `a`'s."""
    seen = {(op.source, op.offsets, op.sizes, op.space): op.result
            for op in a.body if isinstance(op, ExtractSliceOp)}
    alias: dict[str, str] = {}
    kept: list[Op] = []
    for op in b.body:
        if isinstance(op, ExtractSliceOp):
            key = (op.source, op.offsets, op.sizes, op.space)
            if key in seen:
                alias[op.result] = seen[key]
                continue
            seen[key] = op.result
        kept.append(_renamed(op, alias))
    n, m = staged_run(a.body), staged_run(tuple(kept))
    return replace(a, body=(*a.body[:n], *kept[:m], *a.body[n:], *kept[m:]))


def _fuse_tile_loops(ops: list[Op], program: KernelProgram, tcm_bytes: Optional[int],
                     threads: int = 4) -> tuple[Op, ...]:
    """`ops` with each run of consecutive fusible tile loops of equal bounds
    and step merged into one loop, where each merge is safe and costs no
    fork: the merged loop's tiles, as db will slot them, fit the TCM the
    resident temps leave `threads` times over where one of the parts' did
    (so mt could still fork it, `_Threader.fits`), and at least once."""
    room = None if tcm_bytes is None else tcm_bytes - resident_bytes(program)

    def fits(loop: ForOp, contexts: int) -> bool:
        if room is None:
            return True
        need = tile_tcm_bytes((loop,), program.is_narrow, db=True)
        return need is not None and contexts * need <= room

    out: list[Op] = []
    for op in ops:
        prev = out[-1] if out else None
        if (_fusible(op) and prev is not None and _fusible(prev)
                and (prev.lb, prev.ub, prev.step) == (op.lb, op.ub, op.step)):
            b = replace(op, body=ir.replace_extent(op.body, IVar(op.var), IVar(prev.var)))
            if _may_merge(prev, b):
                merged = _merged(prev, b)
                if fits(merged, threads) or (fits(merged, 1) and not (
                        fits(prev, threads) or fits(op, threads))):
                    out[-1] = merged
                    continue
        out.append(op)
    return tuple(out)


def tile_spec(
    op: GenericOp,
    program: KernelProgram,
    tile_sizes: Optional[tuple[int, ...]],
    interchange: Optional[tuple[int, ...]],
    tcm_bytes: int,
    compute_window_bytes: int,
    vector_width: int = 1,
) -> Optional[TileSpec]:
    """The tiling `tile_generic` gives `op`, or None when it leaves `op` whole.

    `interchange` rides on explicit `tile_sizes` of `op`'s rank, and on a
    default tiling only when it tiles as many dims as `interchange` names.
    """
    if tile_sizes is not None and len(tile_sizes) == len(op.domain):
        for d, t in enumerate(tile_sizes):
            if t > 0 and op.iterators[d] == "reduction":
                raise PassError(f"@{op.name}: cannot tile reduction dim d{d}")
            if t < 0:
                raise PassError(f"@{op.name}: negative tile size")
        if any(t > 0 for t in tile_sizes):
            return TileSpec(tuple(tile_sizes), interchange)
    spec = default_tile_sizes(op, program, tcm_bytes, compute_window_bytes, vector_width)
    if spec is not None and interchange is not None and len(
            [t for t in spec.sizes if t > 0]) == len(interchange):
        spec = replace(spec, interchange=interchange)
    return spec


# ---------------------------------------------------------------------------
# Vectorization
# ---------------------------------------------------------------------------


def _row_lanes(g: GenericOp, width: int) -> tuple[Op, ...]:
    """`g` marked `row_lanes(W)` where it has that form, else `g` as it is."""
    if not g.takes_row_lanes():
        return (g,)
    return (replace(g, annotations=g.annotations | {f"row_lanes({width})"}),)


def _vectorize_generic(g: GenericOp, width: int, names: NameAllocator,
                       info: BufInfo, div_vars: frozenset[str]) -> tuple[Op, ...]:
    if ir.vector_width(g.annotations) is not None or ir.row_lanes(g.annotations) is not None:
        return (g,)
    last = len(g.domain) - 1
    reduced = g.iterators[last] != "parallel"
    if reduced and not g.blocked_lanes_exact():
        return _row_lanes(g, width)
    n = g.domain[last]
    if width == 1 or ir.extent_divisible(n, width, div_vars):
        return (replace(g, annotations=g.annotations | {f"vectorized({width})"}),)

    main = ix_mul(ix_floordiv(n, width), width)
    rem = ix_sub(n, main)
    if reduced:
        # the epilogue folds on from the main part's result, so that part must
        # run, or the fold be carried in already; else it takes row lanes at most
        runs = main > 0 if isinstance(main, int) else all(r.init is None for r in g.reductions)
        if not runs:
            return _row_lanes(g, width)
    elif main == 0:  # below one vector: all epilogue, so nothing to split
        return (replace(g, name=f"{g.name}_epi", annotations=g.annotations | {"vec_epilogue"}),)

    def part(offset: Extent, size: Extent, tag: str) -> tuple[Op, ...]:
        head, sub = split_generic(g, last, offset, size, names, info, "v")
        ann = g.annotations | ({f"vectorized({width})"} if tag == "main" else {"vec_epilogue"})
        sub = replace(sub, name=f"{g.name}_{tag}", annotations=ann)
        if reduced and tag == "epi":
            sub = replace(sub, reductions=tuple(r.carried() for r in g.reductions))
        return head + (sub,)

    out: list[Op] = []
    if isinstance(main, int):
        if main > 0:
            out.extend(part(0, main, "main"))
        if isinstance(rem, int) and rem > 0:
            out.extend(part(main, rem, "epi"))
    else:
        out.append(IfOp(CmpPred("lt", 0, main), part(0, main, "main")))
        out.append(IfOp(CmpPred("lt", main, n), part(main, rem, "epi")))
    return tuple(out)


def _vectorize_block(ops: tuple[Op, ...], width: int, names: NameAllocator,
                     info: BufInfo, div_vars: frozenset[str]) -> tuple[Op, ...]:
    def fn(op: Op) -> Optional[tuple[Op, ...]]:
        if isinstance(op, GenericOp):
            return _vectorize_generic(op, width, names, info, div_vars)
        info.learn(op)
        if (isinstance(op, ForOp) and ir.extent_divisible(op.lb, width, div_vars)
                and ir.extent_divisible(op.step, width, div_vars)):
            body = _vectorize_block(op.body, width, names, info, div_vars | {op.var})
            return (replace(op, body=body),)
        return None

    return ir.map_ops(ops, fn)


def vectorize_innermost(program: KernelProgram, width: int) -> KernelProgram:
    """Mark or restructure generics for W-wide execution.

    A generic whose innermost dim is a reduction is vectorized along it only
    when it is a max over that one dim (blocked lanes, module docstring).
    The others, sums and extents below W among them, take `row_lanes(W)`
    when d0 is parallel, and stay as they are when it is not. The cost model
    reads `vectorized(W)` and `row_lanes(W)` to scale compute throughput.
    """
    if width < 1:
        raise PassError(f"vector width must be >= 1, got {width}")
    names = NameAllocator(program)
    info = BufInfo(program)
    ops = _vectorize_block(program.ops, width, names, info, frozenset())
    return program.with_ops(ops, stage="vectorized")
