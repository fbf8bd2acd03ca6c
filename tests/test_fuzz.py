"""Differential fuzz: random programs through every pass prefix.

Each `oracles.gen_random_program` seed is compiled with the default pass
list at both mt thresholds and with the cost model choosing. After every
pass the program must pass `ir.verify` and interpret to outputs bit-equal
to the unpassed program's.
Seeds 0-49 are covered by the interpreter's golden digests; this file takes
the next 120 (FUZZ_SEEDS), a budget that keeps the file under about 3 s
on one core.
"""

from typing import Optional

import numpy as np
import pytest

from tcmc import interp, ir, oracles, pipeline

from conftest import DEFAULT_PASSES

FUZZ_SEEDS = range(50, 170)


def bits(outputs: dict) -> dict:
    return {k: np.asarray(v, np.float32).view(np.uint32).copy() for k, v in outputs.items()}


def fuzz_failures(seed: int, mt_threshold: Optional[int]) -> list[str]:
    program = oracles.gen_random_program(oracles.RandomProgramSpec(seed))
    inputs = oracles.random_inputs_for(program, seed)
    want = bits(interp.interpret(program, inputs))
    opts = pipeline.PipelineOptions(mt_threshold=mt_threshold)
    failures = []
    for name in DEFAULT_PASSES:
        program = pipeline.apply_pass(name, program, opts)
        report = ir.verify(program, tcm_bytes=opts.machine.tcm_bytes)
        if not report.ok:
            failures.append(f"seed {seed} after {name}: {report}")
            break
        got = bits(interp.interpret(program, inputs))
        if any(not np.array_equal(got[k], want[k]) for k in want):
            failures.append(f"seed {seed} after {name}: outputs differ from stage 0")
    return failures


@pytest.mark.parametrize("mt_threshold", [1, 32768])
def test_the_seeds_reach_row_lanes(mt_threshold):
    # the prefix differential below covers the `row_lanes(W)` form, and at
    # threshold 1 its thread parts
    opts = pipeline.PipelineOptions(mt_threshold=mt_threshold)
    lanes = []
    for seed in FUZZ_SEEDS:
        program = oracles.gen_random_program(oracles.RandomProgramSpec(seed))
        for name in DEFAULT_PASSES:
            program = pipeline.apply_pass(name, program, opts)
        lanes += [op.name for op, _ in ir.walk_ops(program.ops)
                  if isinstance(op, ir.GenericOp) and ir.row_lanes(op.annotations)]
    assert lanes
    if mt_threshold == 1:
        assert any("_th" in name for name in lanes)


# None: the cost model chooses each tiled generic's form
@pytest.mark.parametrize("mt_threshold", [1, 32768, None])
def test_every_pass_prefix_verifies_and_matches_stage0(mt_threshold):
    failures = [f for seed in FUZZ_SEEDS for f in fuzz_failures(seed, mt_threshold)]
    assert not failures, "\n".join(failures)
