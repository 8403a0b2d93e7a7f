"""``cg_filter``, the one per-segment conjugate-gradient loop of cg and cg0.

The reference below is the loop it replaced, kept verbatim with the
per-segment helpers the operator used to carry; ``cg_filter`` must
reproduce it byte for byte.
"""
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from graphdenoise import HoleMask, ImageGray, WeightParams
from graphdenoise.errors import DimensionMismatchError
from graphdenoise.filters import CG_BREAKDOWN_RTOL, CGInfo, cg_filter
from graphdenoise.pipeline import block_operator, split_patches


class _StepHelpers:
    """An operator plus the per-segment helpers the reference loop calls
    (formerly ``NormalizedLaplacian.norm``, ``.ratio``, ``.where`` and
    ``.expand``)."""

    def __init__(self, L):
        self._L = L

    def __getattr__(self, name):
        return getattr(self._L, name)

    def norm(self, x: np.ndarray) -> np.ndarray:
        """Euclidean norm per segment (as ``np.linalg.norm`` computes it)."""
        return np.sqrt(self.dot(x, x))

    def expand(self, v: np.ndarray) -> np.ndarray:
        """One value per segment -> one value per node."""
        return np.repeat(v, self.n // len(self.segments))

    def ratio(self, num: np.ndarray, den: np.ndarray, live: np.ndarray) -> np.ndarray:
        """Per node, num / den of its segment if that segment is live, else
        0 (a dead segment's den is never divided by)."""
        return self.expand(np.divide(num, den, out=np.zeros_like(num), where=live))

    def where(self, live: np.ndarray, new: np.ndarray, old: np.ndarray) -> np.ndarray:
        """``new`` on the segments flagged live, ``old`` (untouched) elsewhere."""
        return new if live.all() else np.where(self.expand(live), new, old)


def reference_cg_filter(L, b: np.ndarray, k: int, variant: str = "cg",
                        return_info: bool = False):
    if k < 1:
        raise ValueError("k must be >= 1")
    if variant not in ("cg", "cg0"):
        raise ValueError(f"unknown CG variant {variant!r}")
    b = np.asarray(b, dtype=np.float64)
    if b.shape != (L.n,):
        raise DimensionMismatchError("signal/operator size mismatch")
    x = b.copy()
    f = b if variant == "cg" else np.zeros_like(b)
    r = f - L.apply(x)
    live = ~(L.norm(r) <= 1e-14 * L.norm(b))
    p = r.copy()
    rr = L.dot(r, r)
    done = np.zeros(live.shape, np.int64)
    breakdown = np.zeros(live.shape, bool)
    for _ in range(k):
        if not live.any():
            break
        lp = L.apply(p)
        curv = L.dot(p, lp)
        broke = live & (curv <= CG_BREAKDOWN_RTOL * L.dot(p, p))
        breakdown |= broke
        live &= ~broke
        alpha = L.ratio(rr, curv, live)
        x = L.where(live, x + alpha * p, x)
        r = r - alpha * lp
        rr_new = L.dot(r, r)
        p = r + L.ratio(rr_new, rr, live) * p
        rr = rr_new
        done += live
    info = CGInfo(iterations=done, breakdown=breakdown)
    return (x, info) if return_info else x


def counting(L):
    """L with its apply calls counted in ``L.calls``."""
    class Counted(_StepHelpers):
        calls = 0

        def apply(self, x):
            Counted.calls += 1
            return self._L.apply(x)
    return Counted(L)


@given(seed=st.integers(0, 2**32 - 1), width=st.integers(1, 40),
       height=st.integers(1, 40), patch=st.sampled_from([8, 12, 16]),
       sigma_r=st.sampled_from([3.0, 10.0]), k=st.integers(1, 8))
def test_merged_loop_matches_the_replaced_loops_bitwise(seed, width, height, patch,
                                                        sigma_r, k):
    rng = np.random.default_rng(seed)
    guide = ImageGray.from_array(rng.uniform(0, 255, (height, width)))
    holes = rng.random((height, width)) < 0.2
    grid = split_patches(guide, patch)
    if rng.random() < 0.5:      # an all-hole tile
        x0, y0, w, h = grid.patches[rng.integers(len(grid.patches))]
        holes[y0:y0 + h, x0:x0 + w] = True
    L = block_operator(guide, HoleMask.from_array(holes), grid, WeightParams(sigma_r))
    # segments cycle through random, all-zero, null-vector and zero-graph
    # signals; the null vector is -0.0 on holes, where a stopped segment
    # that were still stepped would turn into +0.0, and a zero-graph signal
    # is zero on the segment's graph but not on an edge tile's padding
    b = rng.normal(0, 10, L.n)
    for i, (bi, d, s) in enumerate(zip(L.rows(b), L.rows(L.degrees), L.segments)):
        kind = (i + seed) % 4
        if kind == 1:
            bi[:] = 0.0
        elif kind == 2:
            bi[:] = np.where(d > 0, np.sqrt(d), -0.0)
        elif kind == 3:
            bi[s] = 0.0
    for variant in ("cg", "cg0"):
        new, ref = counting(L), counting(L)
        x, info = cg_filter(new, b, k, variant, return_info=True)
        xr, ir = reference_cg_filter(ref, b, k, variant, return_info=True)
        assert x.tobytes() == xr.tobytes()
        assert info.iterations.tobytes() == ir.iterations.tobytes()
        assert info.breakdown.tobytes() == ir.breakdown.tobytes()
        assert new.calls == ref.calls


@pytest.mark.parametrize("kind", ["cg", "cg0"])
def test_loop_writes_none_of_the_callers_arrays(kind):
    # ragged tiles, an all-zero segment and several steps; b and every
    # array L.apply returns must come back unchanged
    rng = np.random.default_rng(11)
    guide = ImageGray.from_array(rng.uniform(0, 255, (40, 56)))
    L = block_operator(guide, HoleMask.from_array(rng.random((40, 56)) < 0.1),
                       split_patches(guide, 32), WeightParams())
    b = rng.normal(0, 10, L.n)
    L.rows(b)[1] = 0.0
    kept = [(b, b.copy())]

    class Keeping(_StepHelpers):
        def apply(self, v):
            out = self._L.apply(v)
            kept.append((out, out.copy()))
            return out

    cg_filter(Keeping(L), b, 8, kind)
    assert len(kept) >= 1 + 8
    for a, before in kept:
        assert a.tobytes() == before.tobytes()
