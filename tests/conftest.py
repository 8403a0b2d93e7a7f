import os

# One BLAS/OpenMP thread unless the environment says otherwise, set before
# numpy loads (as scripts/fingerprint.py and perfbench/run.py do), so the
# wall-clock bound of criterion 1 measures the oracle rather than how many
# other processes share the cores with BLAS's own threads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402
import pytest
from hypothesis import settings

from graphdenoise import (HoleMask, ImageGray, PixelGraph, WeightParams,
                          build_graph, normalized_laplacian)

settings.register_profile("suite", max_examples=40, deadline=None,
                          derandomize=True)
settings.load_profile("suite")


def two_node_graph(w: float = 1.0) -> PixelGraph:
    return PixelGraph.from_edges(2, [(0, 1, w)])


def path_graph(n: int) -> PixelGraph:
    return PixelGraph.from_edges(n, [(i, i + 1, 1.0) for i in range(n - 1)])


def random_guide_patch(rng, width=16, height=16, sigma_r=10.0):
    """A bilateral grid graph with random 8-bit-style guide intensities."""
    guide = ImageGray.from_array(rng.uniform(0.0, 255.0, (height, width)))
    mask = HoleMask.all_false(width, height)
    g = build_graph(guide, mask, WeightParams(sigma_r=sigma_r))
    return g, normalized_laplacian(g)


def random_connected_graph(rng, n=8):
    """Random spanning tree plus a few extra edges, random weights."""
    edges = []
    for v in range(1, n):
        u = int(rng.integers(0, v))
        edges.append((u, v, float(rng.uniform(0.2, 1.0))))
    for _ in range(int(rng.integers(0, 4))):
        u, v = rng.choice(n, 2, replace=False)
        edges.append((int(min(u, v)), int(max(u, v)), float(rng.uniform(0.2, 1.0))))
    return PixelGraph.from_edges(n, edges)


@pytest.fixture
def rng():
    return np.random.default_rng(20140512)
