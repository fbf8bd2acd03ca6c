from pathlib import Path

import numpy as np
import pytest

from tcmc import cli, ir
from tcmc.frontend import lower_to_generics, parse_kernel

ROOT = Path(__file__).resolve().parents[1]
KERNELS = ROOT / "kernels"

# reference benchmark shapes (vecadd2d/rmsnorm sizes follow the reported runs)
BENCH_DIMS = {
    "softmax": {"N": 16384},
    "gelu": {"N": 1048576},
    "silu": {"N": 16384},
    "rmsnorm": {"R": 127, "C": 513},
    "vecadd2d": {"R": 64, "C": 16384},
    "expseries": {"N": 1048576},
}

ALL_KERNELS = tuple(BENCH_DIMS)

# the sizes `perfbench`'s verify_reduce and verify_ewise workloads compile
VERIFY_DIMS = {
    "softmax": {"N": 32768},
    "rmsnorm": {"R": 127, "C": 513},
    "gelu": {"N": 131072},
    "silu": {"N": 131072},
    "expseries": {"N": 131072},
    "vecadd2d": {"R": 64, "C": 2048},
}

# the pass list `tcmc compile` runs by default
DEFAULT_PASSES = tuple(cli.DEFAULT_PASSES.split(","))


# names assigned a constant scalar: lowering folds them into the payload
CONST_SCALAR_SOURCE = """\
kernel scaled(x: f32[N], y: f32[N]) {
    t = 2.0 * 3.0
    u = exp(0.1 * t) / N
    store(y, load(x) * t + u)
}
"""


def kernel_source(name: str) -> str:
    return (KERNELS / f"{name}.tk").read_text()


def kernel_path(name: str) -> str:
    return str(KERNELS / f"{name}.tk")


def lower(name: str, dims=None):
    return lower_to_generics(parse_kernel(kernel_source(name)), dims or BENCH_DIMS[name])


def squares_kernel(tmp_path: Path, n: int) -> str:
    """A kernel file of n links t{k} = t{k-1} * t{k-1} + 0.25: fusion shares
    t{k-1}'s payload between both operands of t{k}, so the fused payload is
    a DAG of 2n operations and 2^n root-to-leaf paths."""
    links = ["    t0 = xv * xv + 0.25"]
    links += [f"    t{k} = t{k - 1} * t{k - 1} + 0.25" for k in range(1, n)]
    src = tmp_path / f"squares{n}.tk"
    src.write_text("kernel squares(x: f32[N], y: f32[N]) {\n    xv = load(x)\n"
                   + "\n".join(links) + f"\n    store(y, t{n - 1})\n}}\n")
    return str(src)


def kernel_inputs(program: ir.KernelProgram, kernel: str, seed: int = 0) -> dict:
    """Deterministic inputs in ranges each kernel is well-conditioned on.

    expseries is a truncated alternating series: wide negative inputs hit
    catastrophic cancellation in f32, so it is exercised on [-1, 1].
    """
    rng = np.random.default_rng(seed)
    out = {}
    for d in program.inputs():
        if kernel == "expseries":
            arr = rng.uniform(-1.0, 1.0, size=d.shape)
        elif kernel == "rmsnorm" and d.name == "g":
            arr = rng.uniform(0.5, 1.5, size=d.shape)
        else:
            arr = rng.standard_normal(d.shape) * 2.0
        out[d.name] = arr.astype(np.float32)
    return out


def bitexact(a: dict, b: dict) -> bool:
    return all(
        np.array_equal(np.asarray(a[k]).view(np.uint32), np.asarray(b[k]).view(np.uint32))
        for k in a)


@pytest.fixture(scope="session")
def golden_dir() -> Path:
    return ROOT / "tests" / "golden"
