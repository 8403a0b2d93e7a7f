"""The one per-segment conjugate-gradient loop behind cg, cg0 and gbjbf.

The references below are the two loops it replaced, kept verbatim with
the per-segment step helpers the operator used to carry; the merged loop
must reproduce them byte for byte.
"""
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from graphdenoise import (HoleMask, ImageGray, NumericError, WeightParams,
                          filters, gbjbf_exact, oracle)
from graphdenoise.errors import DimensionMismatchError
from graphdenoise.filters import CG_BREAKDOWN_RTOL, CGInfo, cg_filter
from graphdenoise.pipeline import block_operator, split_patches


class _StepHelpers:
    """An operator plus the per-segment step helpers the reference loops
    call (formerly ``NormalizedLaplacian.ratio``, ``.where``, ``.slab``,
    ``.parts`` and ``.expand``)."""

    def __init__(self, L):
        self._L = L

    def __getattr__(self, name):
        return getattr(self._L, name)

    def slab(self, i: int) -> slice:
        """The node range of segment i's slab."""
        m = self.n // len(self.segments)
        return slice(i * m, (i + 1) * m)

    def parts(self, x: np.ndarray) -> list[np.ndarray]:
        """Per segment, x on its graph's nodes in that graph's order."""
        return [x[self.slab(i)][s] for i, s in enumerate(self.segments)]

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


def reference_gbjbf_exact(L, rho: float, b: np.ndarray) -> np.ndarray:
    if rho < 0:
        raise ValueError("rho must be >= 0")
    b = np.asarray(b, dtype=np.float64)
    if b.shape != (L.n,):
        raise DimensionMismatchError("signal/operator size mismatch")
    if rho == 0 or not np.any(b):
        return b.copy()

    def op(v):
        return v + rho * L.apply(L.apply(v))

    with np.errstate(over="ignore", invalid="ignore"):
        bnorm = L.norm(b)
    if not np.all(np.isfinite(bnorm)):
        raise NumericError("regularized solve: the right-hand side norm is not finite")
    # an all-zero segment is its own solution
    nonzero = np.array([np.any(bi) for bi in L.parts(b)])
    x = _cg_spd_solve(L, op, b, 1e-12, np.where(L.expand(nonzero), 0.0, b), nonzero)

    def missed():
        # fails closed: a NaN residual is a miss
        return nonzero & ~(L.norm(b - op(x)) <= 1e-12 * bnorm)

    miss = missed()
    if miss.any():
        x = _cg_spd_solve(L, op, b, 1e-12, x, miss)
        if missed().any():
            raise NumericError("regularized solve missed the 1e-12 residual contract")
    return x


def _cg_spd_solve(L, op, b, rtol, x0, live, maxiter=1000):
    """Conjugate gradients on op(x) = b from x0, on the segments flagged
    live; the others keep x0.  Each segment has its own step sizes and
    stops at relative residual rtol."""
    x = x0.astype(np.float64).copy()
    live = live.copy()
    if not live.any():
        return x
    r = b - op(x)
    tol = rtol * L.norm(b)
    p = r.copy()
    rr = L.dot(r, r)
    for _ in range(maxiter):
        if not np.all(np.isfinite(rr[live])):
            raise NumericError("SPD solve: the residual norm is not finite")
        live &= ~(np.sqrt(rr) <= tol)
        if not live.any():
            return x
        ap = op(p)
        alpha = L.ratio(rr, L.dot(p, ap), live)
        x = L.where(live, x + alpha * p, x)
        r = r - alpha * ap
        rr_new = L.dot(r, r)
        p = r + L.ratio(rr_new, rr, live) * p
        rr = rr_new
    if np.all(np.sqrt(rr[live]) <= tol[live]):
        return x
    raise NumericError(f"SPD solve stalled above relative residual {rtol:g}")


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
    new, ref = counting(L), counting(L)
    assert gbjbf_exact(new, 2.0, b).tobytes() == reference_gbjbf_exact(ref, 2.0, b).tobytes()
    assert new.calls == ref.calls


def two_patch_problem():
    rng = np.random.default_rng(7)
    guide = ImageGray.from_array(rng.uniform(0, 255, (16, 32)))
    L = block_operator(guide, HoleMask.all_false(32, 16), split_patches(guide, 16),
                       WeightParams())
    assert len(L.segments) == 2
    return L, rng.normal(0, 10, L.n)


def test_gbjbf_retry_solves_only_the_segment_that_missed(monkeypatch):
    L, b = two_patch_problem()
    unperturbed = gbjbf_exact(L, 2.0, b)
    solve = oracle.conjugate_gradients
    lives = []

    def perturb_first_solve(L_, op, x, r, live, steps, **kw):
        lives.append(live.tolist())
        x, *rest = solve(L_, op, x, r, live, steps, **kw)
        if len(lives) == 1:
            x = x.copy()
            L.rows(x)[0] += 1.0     # segment 0 now misses the contract
        return (x, *rest)

    monkeypatch.setattr(oracle, "conjugate_gradients", perturb_first_solve)
    x = gbjbf_exact(L, 2.0, b)
    assert lives == [[True, True], [True, False]]
    assert L.rows(x)[1].tobytes() == L.rows(unperturbed)[1].tobytes()
    resid = b - (x + 2.0 * L.apply(L.apply(x)))
    assert np.all(L.norm(resid) <= 1e-12 * L.norm(b))


def test_gbjbf_stall_raises(monkeypatch):
    L, b = two_patch_problem()
    solve = oracle.conjugate_gradients

    def two_steps(L_, op, x, r, live, steps, **kw):
        return solve(L_, op, x, r, live, 2, **kw)

    monkeypatch.setattr(oracle, "conjugate_gradients", two_steps)
    with pytest.raises(NumericError, match="stalled"):
        gbjbf_exact(L, 2.0, b)


@pytest.mark.parametrize("kind", ["cg", "cg0", "gbjbf"])
def test_loop_writes_none_of_the_callers_arrays(monkeypatch, kind):
    # ragged tiles, an all-zero segment and several steps; every array the
    # caller hands in and every array op returns must come back unchanged
    rng = np.random.default_rng(11)
    guide = ImageGray.from_array(rng.uniform(0, 255, (40, 56)))
    L = block_operator(guide, HoleMask.from_array(rng.random((40, 56)) < 0.1),
                       split_patches(guide, 32), WeightParams())
    b = rng.normal(0, 10, L.n)
    L.rows(b)[1] = 0.0
    b_before = b.copy()
    module = oracle if kind == "gbjbf" else filters
    solve = module.conjugate_gradients
    kept = []

    def keeping(L_, op, x, r, live, steps, **kw):
        def op_keeping(v):
            out = op(v)
            kept.append((out, out.copy()))
            return out
        inputs = [(a, a.copy()) for a in (x, r, live)]
        result = solve(L_, op_keeping, x, r, live, steps, **kw)
        for a, before in inputs + kept:
            assert a.tobytes() == before.tobytes()
        return result

    monkeypatch.setattr(module, "conjugate_gradients", keeping)
    if kind == "gbjbf":
        gbjbf_exact(L, 2.0, b)
    else:
        cg_filter(L, b, 8, kind)
    assert len(kept) >= 8
    assert b.tobytes() == b_before.tobytes()
