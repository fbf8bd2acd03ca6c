"""Transformation passes over KernelProgram.

Each pass is a pure function: program in, new program out. Bit-exact
interpretation is part of every structural pass's contract and is enforced
by the test suite and the pipeline's differential verification.
"""

from .common import PassError
from .fusion import FusionCandidate, fuse_elementwise, fusion_legal
from .tiling import TileSpec, default_tile_sizes, tile_generic, tile_spec, vectorize_innermost
from .threading import DistributionPolicy, form_async_threads, form_virtual_threads
from .double_buffer import double_buffer_loops

__all__ = [
    "PassError",
    "FusionCandidate", "fusion_legal", "fuse_elementwise",
    "TileSpec", "default_tile_sizes", "tile_generic", "tile_spec", "vectorize_innermost",
    "DistributionPolicy", "form_virtual_threads", "form_async_threads",
    "double_buffer_loops",
]
