"""Two-stage multi-threading: virtual threads (forall), then fork-join async.

Stage 1 gives each generic of a tiled loop whose d0 is parallel and whose
domain is bounded one of three forms:

- whole: as it is, on one context;
- strips: on one context, as a loop of window-sized strips of d0 (below),
  where its tile's operands exceed the compute window;
- fork: a forall that partitions d0 across a fixed thread count, block or
  block-cyclic, each thread part run whole or in strips.

By default the cost model chooses: mt builds each form the generic can
take and keeps the one `perf` prices cheapest, walked on the generic's own
operands with the loops around it at their first trip, so the pass and
the report cannot disagree; a tie goes to the first of whole, strips and
forks. `perf` prices a forall as the fork-join `async` lowers it to, so
each form is priced as it is built. The forms are built with scratch
names on a `BufInfo` overlay, so a rejected one burns no name of the
program, and the forks are priced only where whole and strips both cost
at least `perf.fork_join_floor`, the least a fork costs. One
`perf.FragmentPricer` walks every form of a run, and each form of a
generic is priced once per run, however many loop-level forms hold it.
An explicit `mt_threshold` (`--mt-threshold`) overrides the model: it
forks every such generic of at least that many points and keeps every
other whole, as mt did before the model chose. Thread bodies write
disjoint ranges of every shared buffer, so the emitted programs are
race-free by construction (the structural scanner in tcmc.oracles checks
the intervals).

Hoisting (persistent threads). A top-level `for` annotated `tiled_generic`
and `all_parallel`, of t trips, may fork once where:

- t is a constant of at least T, the thread count;
- T copies of the body's TCM tiles fit `tcm_bytes // 4`, the budget the
  default tile sizes give one context. The tiles are every staged
  `extract_slice ... @tcm` and `alloc ... @tcm` in the body, at their upper
  bounds;
- T copies of the body, each staged tile counted twice for db's two
  slots (once where db gives an invariant tile one slot), fit the TCM
  that the resident temps (`@tcm` decls, see tiling.py) leave
  (`_Threader.fits`). Without resident temps the rule above implies this
  one; with them, a hoisted loop past it would take the verifier's peak
  past `tcm_bytes`, so the loop stays per trip.

Under an explicit `mt_threshold` such a loop forks once where its body
holds a generic that mt would fork: at its own step where that qualifies
and fits, else, where `tile` sized it by default and it has at least two
constant trips, at the first re-tiled step t' of (c) below that fits.
Nothing is priced: per trip such a loop pays two fork-joins or more, and
hoisted one. A one-trip loop stays per trip, as under the model its
price turns on db's credit for a one-trip loop. Under the model, mt
prices these loop-level forms and keeps the cheapest: (a) per trip, each
generic in its form; (b) hoisted at the loop's own step; (c) hoisted at a
re-tiled step t', only for a loop `tile` sized by default (`retile`): the
largest power of two below the step, and the balanced step, ceil(extent
/ T), each a whole number of the body's vectors or row-lane groups, and
each where it gives the loop at least T trips and the rules above hold.
`tile` and `vectorize` build the body as a function of the loop's trip
extent `min(step, ub - %i)`, so the re-tiled loop is the loop with step
t' and that one node rewritten to `min(t', ub - %i)`; where the step was
a whole number of vectors, that is the loop `tile` and `vectorize` build
at t'. A hoist is kept only where it prices strictly below (a) both as
mt leaves the loop and as db will leave it (ties go to (a)), the
cheapest after db and the earlier on a tie; each form is walked by
`perf` on the program's tensors. A hoist is built and priced only where
its floor is below the cheapest form priced so far: the
`perf.fork_join_floor` of (a)'s bytes and of (a)'s compute less the part
the window miss factor adds, which a hoist's smaller tiles may escape;
`perf` reports both with (a)'s price. Each form is built from the same
names, and only the kept one keeps them. Where every extent of the body
that `perf` reads names %i only inside that trip-extent node, a context's
cost turns on its trips' extents alone, so `perf` walks the contexts of
one sequence of extents once (`_context_extents`): a hoist of 127 rows at
32 walks two contexts of four, one of 131,072 points at 32,768 one.

The loop becomes `forall th { for %i over context th's tiles { the body
} }`, over all t trips, each generic of the body whole or in strips on
its context (chosen as above, between those two forms). Under block the
tiles of a context are contiguous, and the first t mod T contexts run one
more than the others; under block-cyclic they are dealt round-robin, one
tile at a time, and the chunk C of `--dist cyclic:C`, a count of points
of a generic's d0, applies only where mt forks per generic. The loop
keeps its annotations, so db gives each context its own buffers (two
slots, or one for an invariant tile) and tags. Where every context runs
the same number s of trips, its loop's bound is `lb + s·step`, so that db
sees a one-trip context loop as one (one slot a tile, no prefetch). Only whole `all_parallel`
iterations change context and no fold changes order, so every output bit
is kept. Forks drop from t to 1, and each context does the work of its
tiles.

Strips. A part `[offset, end)` whose operand footprint exceeds the compute
window (counted as the cost model counts it: every operand buffer whole)
may run as a loop of strips, `for %s = offset to end step S`, each split
from the tile's generic directly at `[%s, min(S, end - %s))`, so a strip
adds no second view level. A thread part or strip reads and writes views
of the tile's operands and holds no TCM of its own. For the thread part
that starts at `offset = t * chunk`, `end` is `min((t + 1) * chunk, n)`,
its offset plus its size; on one context the part is the whole tile,
`[0, n)`. S is the largest power of two of indices whose footprint fits
the window, in whole vectors when the dim is vectorized and in whole
groups of row lanes; a part that fits, or whose strip would be one index,
runs whole. Where fewer than W rows of a `row_lanes(W)` generic fit, the
model also prices strips of the largest power of two rows that fit: more
lane groups, none paying the miss factor. Every strip splits a parallel
dim, so elementwise points and each row's fold keep their order and every
output bit is kept.

Stage 2 lowers each forall into the explicit pattern: create a group sized
to the thread count, spawn one async body per thread adding its token to
the group, then await the whole group before dependent work.
"""

from __future__ import annotations

import itertools
import math
from contextlib import contextmanager
from dataclasses import dataclass, replace
from typing import Optional

from .. import ir, perf
from ..ir import (
    AddToGroupOp, AllocOp, AsyncExecuteOp, AsyncGroupOp, AwaitAllOp, CmpPred, Extent,
    ExtractSliceOp, ForallOp, ForOp, GenericOp, IfOp, IVar, KernelProgram, Op,
    ix_add, ix_floordiv, ix_min, ix_mul, ix_sub,
)
from .common import (
    BufInfo, NameAllocator, PassError, const_upper, const_uppers, resident_bytes, split_generic,
    tile_bytes,
)
from .double_buffer import double_buffer_ops, tile_tcm_bytes


@dataclass(frozen=True)
class DistributionPolicy:
    kind: str = "block"  # "block" | "block_cyclic"
    num_threads: int = 4
    chunk: int = 1       # block_cyclic chunk size

    def __post_init__(self):
        if self.kind not in ("block", "block_cyclic"):
            raise PassError(f"unknown distribution kind {self.kind!r}")
        if self.num_threads < 1:
            raise PassError("num_threads must be >= 1")
        if self.chunk < 1:
            raise PassError("chunk must be >= 1")


def _strip_size(g: GenericOp, part: int, align: int, info: BufInfo,
                window: int) -> Optional[int]:
    """The strip of d0 that a part of up to `part` indices runs in, or None
    when the part runs whole.

    The footprint counts every operand buffer of the part whole, at its
    element width, as the cost model's window test does: an operand that
    reads d0 per index, one that does not (a broadcast operand, an output
    d0 is reduced out of) in full. A part that exceeds `window`
    runs in strips of the largest power of two of indices whose footprint
    fits, cut down to a multiple of `align`; none when that is one index,
    below `align`, or the whole part.
    """
    per_index = fixed = 0
    for name, m in zip(g.inputs + g.outputs, g.maps):
        shape = const_uppers(info.shapes.get(name, ()))
        if shape is None:
            return None
        elem = 2 if name in info.narrow else 4
        if 0 in m.results:
            j = m.results.index(0)
            per_index += elem * math.prod(shape[:j] + shape[j + 1:])
        else:
            fixed += elem * math.prod(shape)
    if per_index * part + fixed <= window or window - fixed < per_index:
        return None
    strip = 1 << (((window - fixed) // per_index).bit_length() - 1)
    strip -= strip % align
    return strip if max(2, align) <= strip < part else None


def _vector_align(g: GenericOp) -> int:
    """W when d0 is the vectorized innermost dim, else 1: a thread's chunk
    is a whole number of W-point vectors."""
    width = ir.vector_width(g.annotations)
    return width if (width and len(g.domain) == 1) else 1


def _align(g: GenericOp) -> int:
    """The d0 indices a split keeps together: whole W-point vectors along a
    vectorized innermost dim, or whole groups of W row lanes."""
    return ir.row_lanes(g.annotations) or _vector_align(g)


def _run_range(g: GenericOp, offset: Extent, size: Extent, end: Optional[Extent],
               strip: Optional[int], names: NameAllocator, info: BufInfo,
               name: Optional[str]) -> tuple[Op, ...]:
    """`g` on d0's `[offset, offset + size)` as one part named `name`; with a
    `strip`, as a loop of strips `for %s = offset to end step strip`, each
    split from `g` directly (named after `%s` when `name` is None)."""
    s = None if strip is None else IVar(names.fresh("s"))

    def part_at(lo: Extent, sz: Extent) -> tuple[Op, ...]:
        head, sub = split_generic(g, 0, lo, sz, names, info, "p")
        return head + (replace(sub, name=name or f"{g.name}_{s.name}"),)

    if s is None:
        return part_at(offset, size)
    return (ForOp(s.name, offset, end, strip, part_at(s, ix_min(strip, ix_sub(end, s)))),)


def _block_chunk(extent: Extent, align: int, threads: int) -> Extent:
    """ceil(extent / threads), rounded up to whole `align`-index vectors so
    that no thread ends up with a partial vector."""
    if align > 1:
        return ix_mul(ix_floordiv(ix_add(ix_floordiv(extent, align), threads - 1), threads), align)
    return ix_floordiv(ix_add(extent, threads - 1), threads)


def _wrap_generic(g: GenericOp, policy: DistributionPolicy, strip: Optional[int],
                  names: NameAllocator, info: BufInfo) -> Op:
    """`g` split over d0 into a forall of `policy.num_threads` threads, each
    part run whole or, with a `strip`, as a loop of strips."""
    n = g.domain[0]  # callers ensure d0 is parallel and bounded
    tvar = names.fresh("th")
    threads = policy.num_threads
    block = policy.kind == "block"
    chunk = _block_chunk(n, _vector_align(g), threads) if block else policy.chunk

    # block: thread t takes chunk t; block-cyclic: it takes chunks t, t + T, ...
    cvar = tvar if block else names.fresh("c")
    offset = ix_mul(IVar(cvar), chunk)
    # a strip loop runs to the part's end, its offset + chunk clamped to n
    end = None if strip is None else ix_min(ix_mul(ix_add(IVar(cvar), 1), chunk), n)
    body = _run_range(g, offset, ix_min(chunk, ix_sub(n, offset)), end, strip, names, info,
                      f"{g.name}_{tvar}")
    if block:
        inner: Op = IfOp(CmpPred("lt", offset, n), body)
    else:
        inner = ForOp(cvar, IVar(tvar), ix_floordiv(ix_add(n, chunk - 1), chunk), threads, body)
    return ForallOp(tvar, threads, (inner,), annotations=frozenset({"virtual_threads"}))


def _whole_trips(loop: ForOp) -> Optional[int]:
    """The trip count of a loop with constant bounds and step, else None."""
    if all(isinstance(e, int) for e in (loop.lb, loop.ub, loop.step)) and loop.step > 0:
        return len(range(loop.lb, loop.ub, loop.step))
    return None


def _first_trip(op: Op, env: dict[str, int]) -> dict[str, int]:
    """`env` with the var of a `for` or `forall` bound at its first trip."""
    return {**env, op.var: ir.eval_extent(op.lb, env) if isinstance(op, ForOp) else 0}


def _generics(ops: tuple[Op, ...], env: dict[str, int]):
    """Each generic in `ops`, with `env` and the loops around it at their first trip."""
    for op in ops:
        if isinstance(op, GenericOp):
            yield op, env
        elif isinstance(op, (ForOp, ForallOp)):
            yield from _generics(op.body, _first_trip(op, env))
        elif getattr(op, "body", None) is not None:
            yield from _generics(op.body, env)


class _ScratchNames:
    """Fresh names for a form that is only priced. No program name holds a
    `?`, so these collide with none, and a rejected form burns none of the
    program's."""

    def __init__(self):
        self.count = itertools.count()

    def fresh(self, prefix: str) -> str:
        return f"{prefix}?{next(self.count)}"


# A form of a tiled generic: WHOLE, ("strips", S) on one context, or
# ("fork", S or None), the forall whose thread parts run in strips of S.
Form = tuple[str, Optional[int]]
WHOLE: Form = ("whole", None)

class _Threader:
    """One run of `form_virtual_threads`: the walk, the form each tiled
    generic takes and the form of each top-level tile loop."""

    def __init__(self, program: KernelProgram, policy: DistributionPolicy,
                 machine: perf.MachineConfig, threshold: Optional[int], retile: bool):
        self.policy = policy
        self.machine = machine
        self.threshold = threshold
        self.retile = retile
        self.names = NameAllocator(program)
        self.info = BufInfo(program)
        # the TCM the resident temps leave to the tiles
        self.tile_room = machine.tcm_bytes - resident_bytes(program)
        self.decls = {d.name: (d.shape, d.space, d.dtype == "f16") for d in program.decls}
        # one simulator prices every form, and each form of a generic is priced
        # once: (generic, form, env) -> (generic, cycles), the generic held alive
        self.pricer = perf.FragmentPricer(machine)
        self.costs: dict[tuple, tuple[GenericOp, float]] = {}
        # and each generic's form is chosen once: (generic, hoisted, env) -> (generic, form)
        self.forms: dict[tuple, tuple[GenericOp, Form]] = {}
        # a priced hoist -> (hoist, its contexts' classes), where those are known
        self.classes: dict[int, tuple[ForallOp, tuple]] = {}

    @contextmanager
    def scratch(self):
        """Build with scratch names on an overlay of the buffer table, so that
        what is built inside burns no name of the program's."""
        saved = self.names, self.info
        self.names, self.info = _ScratchNames(), self.info.overlay()
        try:
            yield
        finally:
            self.names, self.info = saved

    # -- the form of one generic ----------------------------------------------

    def strips(self, g: GenericOp, part: int) -> list[Optional[int]]:
        """The strips a part of up to `part` d0 indices may run in: the
        window-sized strip of `_strip_size`, or None. Where that is None
        only because fewer than W rows of a `row_lanes(W)` generic fit the
        window, the cost model also weighs strips of the largest power of
        two rows that fit."""
        window = self.machine.compute_window_bytes
        strip = _strip_size(g, part, _align(g), self.info, window)
        if strip is None and self.threshold is None and ir.row_lanes(g.annotations):
            rows = _strip_size(g, part, 1, self.info, window)
            if rows is not None:
                return [None, rows]
        return [strip]

    def part(self, g: GenericOp) -> int:
        """The most d0 indices one thread of `g`'s fork gets."""
        n = const_upper(g.domain[0])
        if self.policy.kind == "block":
            return _block_chunk(n, _vector_align(g), self.policy.num_threads)
        return min(self.policy.chunk, n)

    def fixed_form(self, g: GenericOp, points: int, hoisted: bool, threshold: int) -> Form:
        """The point-count rule: fork `g` when it has at least `threshold`
        points; in a hoisted body, run it as strips instead."""
        if points < threshold:
            return WHOLE
        if hoisted:
            strip = self.strips(g, const_upper(g.domain[0]))[0]
            return WHOLE if strip is None else ("strips", strip)
        return ("fork", self.strips(g, self.part(g))[0])

    def form(self, g: GenericOp, env: dict[str, int], hoisted: bool) -> Form:
        """How the tiled generic `g` runs, `env` binding the loops around it
        at their first trip: under the override, by the point-count rule;
        else whichever of whole, its strips and (outside a hoisted body) its
        forks `perf` prices cheapest."""
        uppers = const_uppers(g.domain)
        if not (g.iterators and g.iterators[0] == "parallel") or uppers is None:
            return WHOLE
        points = math.prod(uppers)
        if self.threshold is not None:
            return self.fixed_form(g, points, hoisted, self.threshold)
        key = (id(g), hoisted, tuple(sorted(env.items())))
        if key not in self.forms:
            self.forms[key] = (g, self.cheapest_form(g, env, hoisted, uppers[0]))
        return self.forms[key][1]

    def cheapest_form(self, g: GenericOp, env: dict[str, int], hoisted: bool, n: int) -> Form:
        """The form of `g` (d0 of up to `n` indices) that `perf` prices
        cheapest (`form`), the first of whole, strips and forks on a tie."""
        forms = [WHOLE] + [("strips", s) for s in self.strips(g, n) if s]
        if hoisted and len(forms) == 1:
            return WHOLE  # no other form to weigh, and no fork in a hoisted body
        costs = [self.form_price(g, f, env) for f in forms]
        threads = self.policy.num_threads
        if not hoisted and min(costs) >= perf.fork_join_floor(self.machine, threads):
            forks = [("fork", s) for s in self.strips(g, self.part(g))]
            forms += forks
            costs += [self.form_price(g, f, env) for f in forks]
        return forms[costs.index(min(costs))]

    def form_price(self, g: GenericOp, form: Form, env: dict[str, int]) -> float:
        """The cycles of `g` in `form`, built in scratch and walked by `perf`
        on `g`'s own operands; priced once per run."""
        key = (id(g), form, tuple(sorted(env.items())))
        hit = self.costs.get(key)
        if hit is None:
            info = self.info
            buffers = {name: (info.shapes[name], info.spaces[name], name in info.narrow)
                       for name in g.inputs + g.outputs}
            with self.scratch():
                ops = self.build(g, form)
            classes = self.fork_parts(g, env) if form[0] == "fork" else None
            hit = self.costs[key] = (g, self.pricer.price(ops, buffers, env, classes)[0])
        return hit[1]

    def fork_parts(self, g: GenericOp, env: dict[str, int]) -> Optional[tuple[int, ...]]:
        """Under block, the d0 indices each thread of `g`'s fork runs: a
        thread's views, strips and guard are sized by its part alone
        (`_wrap_generic`), so threads of equal parts cost the same."""
        if self.policy.kind != "block":
            return None
        threads = self.policy.num_threads
        n = ir.eval_extent(g.domain[0], env)
        chunk = ir.eval_extent(_block_chunk(g.domain[0], _vector_align(g), threads), env)
        return tuple(max(0, min(chunk, n - t * chunk)) for t in range(threads))

    def build(self, g: GenericOp, form: Form) -> tuple[Op, ...]:
        """The ops that run `g` in `form`."""
        kind, strip = form
        if kind == "fork":
            return (_wrap_generic(g, self.policy, strip, self.names, self.info),)
        if kind == "strips":
            n = g.domain[0]
            return _run_range(g, 0, n, n, strip, self.names, self.info, None)
        return (g,)

    # -- the walk ---------------------------------------------------------------

    def walk(self, ops: tuple[Op, ...], env: dict[str, int], in_tiled: bool,
             hoisted: bool = False) -> tuple[Op, ...]:
        """`ops` with each tiled generic in its form; `env` binds the loops
        around `ops` at their first trip, and in a `hoisted` tile loop's body
        no generic forks."""
        def fn(op: Op) -> Optional[tuple[Op, ...]]:
            if isinstance(op, GenericOp):
                form = self.form(op, env, hoisted) if in_tiled else WHOLE
                return None if form == WHOLE else self.build(op, form)
            self.info.learn(op)
            if not in_tiled and isinstance(op, ForOp) and "tiled_generic" in op.annotations:
                return self.tile_loop(op, env)
            if isinstance(op, (ForOp, ForallOp)):
                body = self.walk(op.body, _first_trip(op, env), in_tiled, hoisted)
                return (op if body is op.body else replace(op, body=body),)
            return None

        return ir.map_ops(ops, fn)

    # -- the form of one tile loop ----------------------------------------------

    def tile_loop(self, loop: ForOp, env: dict[str, int]) -> tuple[Op, ...]:
        """A top-level tile loop, hoisted at its own or a re-tiled step where
        that qualifies (under the override, where one of its generics forks,
        at a re-tiled step only with two trips or more; under the model,
        where it is priced cheaper), and otherwise with each generic of its
        body in its form. A rejected hoist burns no name."""
        if self.threshold is None:
            return self.cheapest(loop, env)
        steps = [loop.step] if self.qualifies(loop) else []
        if (_whole_trips(loop) or 0) >= 2:  # two fork-joins or more per trip, one hoisted
            steps += self.retile_steps(loop)
        if steps and self.forks(loop, env):
            for step in steps:
                start = self.names.mark()
                hoisted = self.hoisted(loop if step == loop.step else _retiled(loop, step), env)
                if hoisted:
                    return hoisted
                self.names.reset(start)
        return (self.per_trip(loop, env),)

    def per_trip(self, loop: ForOp, env: dict[str, int]) -> ForOp:
        """`loop` with each generic of its body in its form."""
        return replace(loop, body=self.walk(loop.body, _first_trip(loop, env), True))

    def forks(self, loop: ForOp, env: dict[str, int]) -> bool:
        """Whether a generic of `loop`'s body would fork."""
        for op, _ in ir.walk_ops(loop.body):
            self.info.learn(op)  # the forms are priced on the body's tiles
        return any(self.form(g, genv, False)[0] == "fork"
                   for g, genv in _generics(loop.body, _first_trip(loop, env)))

    def qualifies(self, loop: ForOp) -> bool:
        """Whether `loop` may fork once (module docstring, "Hoisting"): an
        `all_parallel` loop of at least T constant trips whose T bodies' TCM
        tiles fit a quarter of the TCM."""
        threads = self.policy.num_threads
        trips = _whole_trips(loop)
        if "all_parallel" not in loop.annotations or trips is None or trips < threads:
            return False
        body_bytes = tile_tcm_bytes(loop.body, self.info.narrow.__contains__)
        return body_bytes is not None and threads * body_bytes <= self.machine.tcm_bytes // 4

    def fits(self, loop: ForOp) -> bool:
        """Whether T contexts of the tile loop `loop` fit the TCM the resident
        temps leave, each with its body's tiles, a staged tile in as many
        slots as db gives it (two, or one where it is invariant). The forms
        of a hoisted body add only views, so `loop` may be hoisted already
        or not."""
        body_bytes = tile_tcm_bytes((loop,), self.info.narrow.__contains__, db=True)
        return body_bytes is not None and self.policy.num_threads * body_bytes <= self.tile_room

    def hoisted(self, loop: ForOp, env: dict[str, int]) -> Optional[tuple[Op, ...]]:
        """`loop`, which `qualifies`, forked once over all its trips; None
        where it does not fit."""
        forall = self.hoist(loop, env)
        return (forall,) if self.fits(forall.body[0]) else None

    def cheapest(self, loop: ForOp, env: dict[str, int]) -> tuple[Op, ...]:
        """The cheapest loop-level form of `loop` (module docstring,
        "Hoisting"): per trip, or hoisted at its own step where it qualifies
        and fits, or at a re-tiled step (`retile_steps`). A hoist is kept
        only where it prices strictly below the per-trip form both as db
        will leave the loop and as mt leaves it; the cheaper after db wins,
        ties going to the earlier step. Every form is built from the same
        names, and only the kept one keeps them. No hoist is built or
        priced where its floor (`perf.fork_join_floor`) is not below the
        cheapest form priced so far."""
        candidates = [loop.step] if self.qualifies(loop) and self.fits(loop) else []
        candidates += self.retile_steps(loop)
        start = self.names.mark()
        per_trip = (self.per_trip(loop, env),)
        if not candidates:
            return per_trip
        by_extents = _costs_by_trip_extent(loop)
        least, compute, moved, missed = self.price(per_trip, env, piped=True)
        # a hoist moves no fewer bytes and computes the same points; its
        # smaller tiles may escape the window miss factor, but no more
        floor = perf.fork_join_floor(self.machine, self.policy.num_threads, compute - missed,
                                     moved)
        kept, taken, before = per_trip, self.names.mark(), None
        for step in candidates:
            if floor >= least:
                break
            self.names.reset(start)
            # every candidate fits already: a hoist's forms add only views
            candidate = loop if step == loop.step else _retiled(loop, step)
            hoisted = (self.hoist(candidate, env),)
            if by_extents:
                self.classes[id(hoisted[0])] = (hoisted[0], _context_extents(candidate,
                                                                             hoisted[0], env))
            price = self.price(hoisted, env, piped=True)[0]
            if price >= least:
                continue
            if before is None:
                before = self.price(per_trip, env, piped=False)[0]
            if self.price(hoisted, env, piped=False)[0] < before:
                kept, taken, least = hoisted, self.names.mark(), price
        self.names.reset(taken)  # a rejected form burns no name
        return kept

    def price(self, ops: tuple[Op, ...], env: dict[str, int], piped: bool
              ) -> tuple[float, float, float, float]:
        """`perf`'s (cycles, compute cycles, bytes moved, compute the window
        miss factor adds) of a loop form as mt leaves it or (`piped`) as db
        will. A hoist's contexts of the same class are walked once."""
        hit = self.classes.get(id(ops[0])) if len(ops) == 1 else None
        if piped:
            with self.scratch():
                ops = double_buffer_ops(ops, self.names, self.info.narrow.__contains__)
        return self.pricer.price(ops, self.decls, env, hit and hit[1])

    def retile_steps(self, loop: ForOp) -> list[int]:
        """The steps t' besides its own that `loop` is priced hoisted at,
        where `tile` sized it by default: the largest power of two below
        its step, and the balanced step, ceil(extent / T) rounded up; each
        a whole number of the body's vectors or row-lane groups, and kept
        only where `loop` re-tiled to it qualifies and fits, judged on its
        TCM tiles alone. None at all where the body does not hold the
        trip-extent node, so that nothing would follow a new step."""
        if not (self.retile and "all_parallel" in loop.annotations and loop.lb == 0
                and isinstance(loop.ub, int) and isinstance(loop.step, int) and loop.step > 1):
            return []
        align = max((_align(g) for g, _ in ir.walk_ops(loop.body) if isinstance(g, GenericOp)),
                    default=1)
        tiles = tuple(op for op in loop.body
                      if isinstance(op, (ExtractSliceOp, AllocOp)) and op.space == "tcm")
        if _retiled(replace(loop, body=tiles), loop.step).body is tiles:
            return []  # no trip-extent node to rewrite, even to the same step
        threads = self.policy.num_threads

        def hoists(step: int) -> bool:
            if -(-loop.ub // step) < threads:
                return False
            probe = _retiled(replace(loop, body=tiles), step)
            return self.qualifies(probe) and self.fits(probe)

        steps = []
        step = 1 << ((loop.step - 1).bit_length() - 1)
        while step >= align and not step % align:
            if hoists(step):
                steps.append(step)
                break
            step //= 2
        balanced = -(-loop.ub // (threads * align)) * align
        if balanced != loop.step and balanced not in steps and hoists(balanced):
            steps.append(balanced)
        return steps

    def hoist(self, loop: ForOp, env: dict[str, int]) -> ForallOp:
        """`forall th { for %i over context th's whole tiles { body } }` over
        all trips of `loop`, which `qualifies`; a generic of the body runs
        whole or as strips on its context."""
        trips = _whole_trips(loop)
        threads = self.policy.num_threads
        share, extra = divmod(trips, threads)  # the first `extra` contexts run one more
        th = IVar(self.names.fresh("th"))
        step = loop.step
        if self.policy.kind == "block":  # contiguous shares
            def start(k: Extent) -> Extent:
                first = ix_mul(k, share * step)
                if extra:
                    first = ix_add(first, ix_mul(ix_min(k, extra), step))
                return ix_add(loop.lb, first)

            lb, ub = start(th), start(ix_add(th, 1))
        else:  # tiles dealt round-robin, one at a time
            lb = ix_add(loop.lb, ix_mul(th, step))
            ub = loop.lb + trips * step
            step = threads * step
        if not extra:  # every context runs `share` trips, db's one-trip test can see
            ub = ix_add(lb, share * step)
        body = self.walk(loop.body, _first_trip(loop, env), True, hoisted=True)
        inner = replace(loop, lb=lb, ub=ub, step=step, body=body)
        return ForallOp(th.name, threads, (inner,), annotations=frozenset({"virtual_threads"}))


def _costs_by_trip_extent(loop: ForOp) -> bool:
    """Whether every extent of `loop`'s body that `perf` reads (generic
    domains, loop bounds, slice, alloc, write-back and dma sizes, guard
    sides) names the loop var only inside the trip extent `min(step, ub -
    %i)`, as `tile` and `vectorize` build it. The forms mt gives the body
    and db's stages derive their extents from those, so two contexts of a
    hoist whose trips have the same extents, in the same order, cost the
    same (`_context_extents`), the body re-tiled to any step included."""
    var = loop.var
    node = ix_min(loop.step, ix_sub(loop.ub, IVar(var)))

    def by_node(e: Extent) -> bool:
        if isinstance(e, int) or var not in ir._extent_vars(e) or e == node:
            return True
        return isinstance(e, ir.IBin) and by_node(e.lhs) and by_node(e.rhs)

    for op, _ in ir.walk_ops(loop.body):
        if isinstance(op, GenericOp):
            extents = op.domain
        elif isinstance(op, ForOp):
            extents = (op.lb, op.ub, op.step)
        elif isinstance(op, IfOp):
            extents = (op.pred.lhs, op.pred.rhs)
        else:
            extents = getattr(op, "sizes", ())
        if not all(by_node(e) for e in extents):
            return False
    return True


def _context_extents(loop: ForOp, forall: ForallOp, env: dict[str, int]) -> tuple:
    """For `forall`, `loop` hoisted, each context's trip extents in order."""
    node = ix_min(loop.step, ix_sub(loop.ub, IVar(loop.var)))
    (inner,) = forall.body
    return tuple(tuple(ir.eval_extent(node, {**env, loop.var: i})
                       for i in ir.trips(inner, {**env, forall.var: t}))
                 for t in range(forall.threads))


def _retiled(loop: ForOp, step: int) -> ForOp:
    """`loop` at `step`. `tile` and `vectorize` build the body as a function
    of the loop's trip extent `min(step, ub - %i)`, so that node alone
    becomes `min(step', ub - %i)`."""
    var = IVar(loop.var)
    old, new = ix_min(loop.step, ix_sub(loop.ub, var)), ix_min(step, ix_sub(loop.ub, var))
    return replace(loop, step=step, body=ir.replace_extent(loop.body, old, new))


def form_virtual_threads(
    program: KernelProgram,
    policy: DistributionPolicy = DistributionPolicy(),
    machine: Optional[perf.MachineConfig] = None,
    mt_threshold: Optional[int] = None,
    retile: bool = True,
) -> KernelProgram:
    """Give each tiled generic with a parallel, bounded d0 its form (module
    docstring): whole, window-sized strips on one context, or a forall of
    virtual threads, and fork once around each tile loop where that pays.
    `mt_threshold` None lets `perf` price the forms under `machine`, and
    with `retile` also a hoist at a smaller step than `tile` chose; an int
    forks every such generic of at least that many points instead."""
    if mt_threshold is not None and mt_threshold < 1:
        raise PassError("mt_threshold must be >= 1")
    threader = _Threader(program, policy, machine or perf.MachineConfig(), mt_threshold, retile)
    return program.with_ops(threader.walk(program.ops, {}, False), stage="virtual-threads")


def _lower_forall(op: ForallOp, names: NameAllocator) -> tuple[Op, ...]:
    for inner, _ in ir.walk_ops(op.body):
        if isinstance(inner, ForallOp):
            raise PassError("nested forall unsupported")
    group = names.fresh("grp")
    token = names.fresh("tok")
    spawn = ForOp(
        op.var, 0, op.threads, 1,
        (AsyncExecuteOp(token, op.body), AddToGroupOp(group, token)),
        annotations=op.annotations | {"async_threads"},
    )
    return (AsyncGroupOp(group, op.threads), spawn, AwaitAllOp(group))


def _lower_foralls(ops: tuple[Op, ...], names) -> tuple[Op, ...]:
    return ir.map_ops(ops, lambda op: _lower_forall(op, names)
                      if isinstance(op, ForallOp) else None)


def form_async_threads(program: KernelProgram) -> KernelProgram:
    """Rewrite every forall into the async fork-join pattern."""
    ops = _lower_foralls(program.ops, NameAllocator(program))
    return program.with_ops(ops, stage="async-threads")
