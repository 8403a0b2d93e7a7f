import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from graphdenoise import (FilterKind, FilterSpec, HoleMask, ImageGray,
                          NumericError, PixelGraph, WeightParams, apply_filter,
                          build_graph, cg_filter, cheb_design, cheb_filter,
                          dense_eig, exact_filter, gbjbf_exact, jbf,
                          krylov_minimize, normalize_signal, normalized_laplacian,
                          poly_expand_gbjbf, poly_filter, quadratic_objective)
from graphdenoise.filters import MAX_K, ChebDesign, PolyExpansion
from graphdenoise.graph import sqrt_degrees
from graphdenoise.pipeline import block_operator, patch_operator, split_patches

from conftest import random_connected_graph, random_guide_patch, two_node_graph


def edgeless(n):
    return normalized_laplacian(PixelGraph.from_edges(n, []))


class TestJbf:
    def test_two_node_hand_value(self):
        L = normalized_laplacian(two_node_graph())
        np.testing.assert_allclose(jbf(L, np.array([1.0, 0.0])), [0.0, 1.0], atol=0)

    def test_nullvector_unchanged(self, rng):
        g, L = random_guide_patch(rng, 5, 7)
        v = sqrt_degrees(g)
        np.testing.assert_allclose(jbf(L, v), v, atol=1e-12 * v.max())

    def test_edgeless_graph_identity(self):
        b = np.array([4.0, -1.0, 0.25])
        assert jbf(edgeless(3), b).tolist() == b.tolist()


class TestChebDesign:
    def test_k1_l_half(self):
        d = cheb_design(1, 0.5)
        np.testing.assert_allclose(d.roots, [1.25], atol=1e-15)
        assert d.scale == pytest.approx(0.8, abs=1e-15)

    def test_k2_l_half(self):
        d = cheb_design(2, 0.5)
        base = math.sqrt(2) / 2
        np.testing.assert_allclose(d.roots, [1.25 + 0.75 * base, 1.25 - 0.75 * base],
                                   atol=1e-12)
        assert d.scale == pytest.approx(1.0 / 1.28125, abs=1e-12)

    @given(st.integers(1, 12), st.floats(0.05, 1.95))
    def test_unit_dc_response(self, k, l):
        d = cheb_design(k, l)
        assert d.response(0.0) == pytest.approx(1.0, abs=1e-12)
        assert np.all(d.roots >= l - 1e-12) and np.all(d.roots <= 2 + 1e-12)

    def test_invalid_stop_band(self):
        with pytest.raises(ValueError):
            cheb_design(3, 0.0)
        with pytest.raises(ValueError):
            cheb_design(3, 2.0)

    def test_minimax_level_and_equioscillation(self):
        # max of |h| on [l, 2] is 1/|T_k(z0)| with z0 the image of 0 under
        # the affine map of [l, 2] onto [-1, 1]; extrema alternate in sign.
        for k, l in [(3, 0.5), (5, 1.0)]:
            d = cheb_design(k, l)
            z0 = -(2 + l) / (2 - l)
            level = 1.0 / math.cosh(k * math.acosh(-z0))
            lam = np.linspace(l, 2.0, 10001)
            assert np.max(np.abs(d.response(lam))) == pytest.approx(level, abs=1e-12)
            extrema = 0.5 * (2 - l) * np.cos(np.pi * np.arange(k + 1) / k) + 0.5 * (2 + l)
            vals = d.response(extrema)
            np.testing.assert_allclose(np.abs(vals), level, atol=1e-12)
            assert np.all(vals[:-1] * vals[1:] < 0)


class TestChebFilter:
    def test_k1_two_node_hand_value(self):
        L = normalized_laplacian(two_node_graph())
        out = cheb_filter(L, np.array([1.0, 0.0]), cheb_design(1, 0.5))
        np.testing.assert_allclose(out, [0.2, 0.8], atol=1e-15)

    def test_nullvector_unchanged(self, rng):
        g, L = random_guide_patch(rng, 6, 6)
        v = sqrt_degrees(g)
        out = cheb_filter(L, v, cheb_design(3, 0.5))
        np.testing.assert_allclose(out, v, atol=1e-10 * v.max())

    def test_edgeless_graph_near_identity(self):
        # the scalar chain scale * prod(roots) re-rounds per step, so the
        # zero-operator case is identity only to a few ulps
        b = np.array([4.0, -1.0, 0.25])
        for k in (1, 2, 5):
            out = cheb_filter(edgeless(3), b, cheb_design(k, 0.5))
            np.testing.assert_allclose(out, b, rtol=1e-13, atol=0)

    def test_matches_exact_filter(self, rng):
        for _ in range(5):
            g, L = random_guide_patch(rng, 16, 16)
            eig = dense_eig(L)
            b = rng.normal(0, 10, g.n_nodes)
            d = cheb_design(3, 0.5)
            fast = cheb_filter(L, b, d)
            ref = exact_filter(eig, d.response, b)
            scale = max(1.0, np.max(np.abs(ref)))
            assert np.max(np.abs(fast - ref)) / scale <= 1e-8

    def test_root_order_invariance(self, rng):
        g, L = random_guide_patch(rng, 8, 8)
        b = rng.normal(0, 1, g.n_nodes)
        d = cheb_design(4, 0.5)
        base = cheb_filter(L, b, d)
        for _ in range(4):
            perm = rng.permutation(d.k)
            shuffled = ChebDesign(k=d.k, l=d.l, roots=d.roots[perm], scale=d.scale)
            out = cheb_filter(L, b, shuffled)
            assert np.max(np.abs(out - base)) <= 1e-8 * max(1.0, np.max(np.abs(base)))


class TestPolyExpansion:
    def test_constant_target(self):
        p = poly_expand_gbjbf(3, 0.0)
        assert p.coeffs[0] == pytest.approx(1.0, abs=1e-12)
        np.testing.assert_allclose(p.coeffs[1:], 0.0, atol=1e-12)

    def test_against_high_resolution_quadrature(self):
        p = poly_expand_gbjbf(3, 2.0)
        m = 4096
        theta = np.pi * (np.arange(m) + 0.5) / m
        lam = 1.0 + np.cos(theta)
        f = 1.0 / (1.0 + 2.0 * lam**2)
        for j in range(4):
            cj = (2.0 / m) * np.sum(f * np.cos(j * theta))
            if j == 0:
                cj *= 0.5
            assert p.coeffs[j] == pytest.approx(cj, abs=1e-10)

    def test_truncation_error_at_dc(self):
        p = poly_expand_gbjbf(3, 2.0)
        assert abs(p.evaluate(0.0) - 1.0) < 0.15

    def test_series_tracks_target(self):
        p = poly_expand_gbjbf(8, 2.0)
        lam = np.linspace(0, 2, 201)
        assert np.max(np.abs(p.evaluate(lam) - 1.0 / (1.0 + 2.0 * lam**2))) < 0.02


class TestPolyFilter:
    def test_constant_series_returns_input(self, rng):
        g, L = random_guide_patch(rng, 5, 5)
        b = rng.normal(0, 1, g.n_nodes)
        p = PolyExpansion(k=1, rho=0.0, coeffs=np.array([1.0, 0.0]))
        np.testing.assert_array_equal(poly_filter(L, b, p), b)

    def test_first_order_term_is_l_minus_identity(self, rng):
        g, L = random_guide_patch(rng, 5, 5)
        b = rng.normal(0, 1, g.n_nodes)
        p = PolyExpansion(k=1, rho=0.0, coeffs=np.array([0.0, 1.0]))
        np.testing.assert_allclose(poly_filter(L, b, p),
                                   L.apply(b) - b, atol=1e-14)

    def test_matches_exact_filter(self, rng):
        for _ in range(5):
            g, L = random_guide_patch(rng, 16, 16)
            eig = dense_eig(L)
            b = rng.normal(0, 10, g.n_nodes)
            p = poly_expand_gbjbf(3, 2.0)
            fast = poly_filter(L, b, p)
            ref = exact_filter(eig, p.evaluate, b)
            scale = max(1.0, np.max(np.abs(ref)))
            assert np.max(np.abs(fast - ref)) / scale <= 1e-8

    @pytest.mark.parametrize("k", [1, 2, 5])
    def test_costs_exactly_k_laplacian_applications(self, rng, k):
        g, L = random_guide_patch(rng, 4, 4)

        class CountingOperator:
            def __init__(self, inner):
                self.inner = inner
                self.n = inner.n
                self.calls = 0

            def apply(self, x):
                self.calls += 1
                return self.inner.apply(x)

        b = rng.normal(0, 1, g.n_nodes)
        counter = CountingOperator(L)
        poly_filter(counter, b, poly_expand_gbjbf(k, 2.0))
        assert counter.calls == k
        counter = CountingOperator(L)
        cheb_filter(counter, b, cheb_design(k, 0.5))
        assert counter.calls == k


class TestCgFilter:
    def test_cg_k1_two_node(self):
        L = normalized_laplacian(two_node_graph())
        out = cg_filter(L, np.array([1.0, 0.0]), 1, "cg")
        np.testing.assert_allclose(out, [1.0, 1.0], atol=1e-15)
        # 1-D brute force along the search direction: x = [1, t],
        # objective (1 - t)^2 - 2, minimized at t = 1
        t = np.linspace(-3, 3, 60001)
        obj = (1 - t) ** 2 - 2
        assert t[np.argmin(obj)] == pytest.approx(1.0, abs=1e-4)

    def test_cg0_k1_two_node(self):
        L = normalized_laplacian(two_node_graph())
        out = cg_filter(L, np.array([1.0, 0.0]), 1, "cg0")
        np.testing.assert_allclose(out, [0.5, 0.5], atol=1e-15)

    def test_cg0_nullvector_start_returns_input_bits(self, rng):
        g, L = random_guide_patch(rng, 6, 6)
        v = sqrt_degrees(g)
        out, info = cg_filter(L, v, 3, "cg0", return_info=True)
        assert np.array_equal(out, v)
        assert info.iterations == 0

    def test_breakdown_returns_current_iterate(self):
        L = normalized_laplacian(two_node_graph())
        out, info = cg_filter(L, np.array([1.0, 0.0]), 3, "cg", return_info=True)
        np.testing.assert_allclose(out, [1.0, 1.0], atol=1e-15)
        assert info.breakdown and info.iterations == 1

    def test_matches_krylov_brute_force(self, rng):
        for _ in range(10):
            g = random_connected_graph(rng)
            L = normalized_laplacian(g)
            b = rng.normal(0, 1, g.n_nodes)
            for variant in ("cg", "cg0"):
                f = b if variant == "cg" else np.zeros_like(b)
                for k in range(1, 5):
                    x, info = cg_filter(L, b, k, variant, return_info=True)
                    if info.breakdown:
                        continue  # projected problem is then unbounded
                    ref = krylov_minimize(L, b, f, k)
                    err = np.max(np.abs(x - ref)) / max(1.0, np.max(np.abs(ref)))
                    assert err <= 1e-8

    def test_objective_non_increasing(self, rng):
        for _ in range(5):
            g = random_connected_graph(rng)
            L = normalized_laplacian(g)
            b = rng.normal(0, 1, g.n_nodes)
            for variant in ("cg", "cg0"):
                f = b if variant == "cg" else np.zeros_like(b)
                prev = quadratic_objective(L, b, f)
                for k in range(1, 5):
                    obj = quadratic_objective(L, cg_filter(L, b, k, variant), f)
                    assert obj <= prev + 1e-10 * (1.0 + abs(prev))
                    prev = obj

    def test_full_dimension_residual_in_nullspace(self, rng):
        # consistent data (no nullspace component in f): after n-1 steps the
        # residual's component orthogonal to sqrt(degrees) is numerically zero
        for _ in range(10):
            g = random_connected_graph(rng)
            L = normalized_laplacian(g)
            v0 = sqrt_degrees(g)
            v0 = v0 / np.linalg.norm(v0)
            b = rng.normal(0, 1, g.n_nodes)
            b -= (b @ v0) * v0
            x = cg_filter(L, b, g.n_nodes - 1, "cg")
            r = b - L.apply(x)
            assert np.linalg.norm(r - (r @ v0) * v0) <= 1e-8 * np.linalg.norm(b)

    def test_cg0_preserves_dc(self, rng):
        for _ in range(10):
            g = random_connected_graph(rng)
            L = normalized_laplacian(g)
            v = sqrt_degrees(g)
            b = rng.normal(0, 1, g.n_nodes)
            x = cg_filter(L, b, 4, "cg0")
            assert abs(x @ v - b @ v) <= 1e-10 * max(1.0, abs(b @ v))

    def test_input_adaptivity_not_linear(self, rng):
        # the CG filters are input-dependent by design: check that
        # superposition genuinely fails (contrast with polynomial filters)
        g, L = random_guide_patch(rng, 8, 8)
        b1 = rng.normal(0, 1, g.n_nodes)
        b2 = rng.normal(0, 1, g.n_nodes)
        lhs = cg_filter(L, b1 + b2, 3, "cg0")
        rhs = cg_filter(L, b1, 3, "cg0") + cg_filter(L, b2, 3, "cg0")
        assert np.max(np.abs(lhs - rhs)) > 1e-6


    @pytest.mark.parametrize("variant", ["cg", "cg0"])
    def test_each_segment_runs_its_own_iteration(self, rng, variant):
        # four 16x16 patches: a zero signal (vanishing residual), a null
        # vector and an all-hole patch (vanishing residual for cg0, breakdown
        # at once for cg), and a random one.  The null vector is -0.0 on its
        # holes, where a stopped segment would turn into +0.0 if it were
        # still stepped with a zero step size.
        guide = ImageGray.from_array(rng.uniform(100, 140, (16, 64)))
        holes = np.zeros((16, 64), bool)
        holes[:, 16:32] = rng.random((16, 16)) < 0.2
        holes[:, 32:48] = True
        mask = HoleMask.from_array(holes)
        grid = split_patches(guide, 16)
        L = block_operator(guide, mask, grid, WeightParams())
        b = rng.normal(0, 1, L.n)
        b[L.slab(0)] = 0.0
        d = L.degrees[L.slab(1)]
        b[L.slab(1)] = np.where(d > 0, np.sqrt(d), -0.0)
        x, info = cg_filter(L, b, 3, variant, return_info=True)
        for i, p in enumerate(grid.patches):
            Lp = patch_operator(guide, mask, p, WeightParams())
            xp, ip = cg_filter(Lp, L.parts(b)[i], 3, variant, return_info=True)
            assert L.parts(x)[i].tobytes() == xp.tobytes()
            assert (info.iterations[i], info.breakdown[i]) == (ip.iterations[0],
                                                               ip.breakdown[0])
        cg = variant == "cg"
        assert info.breakdown.tolist() == [False, cg, cg, False]
        assert info.iterations.tolist() == [0, 0, 0, 3]


class TestLinearity:
    @given(st.integers(0, 2**32 - 1))
    def test_polynomial_filters_superpose(self, seed):
        r = np.random.default_rng(seed)
        g, L = random_guide_patch(r, 6, 6)
        b1 = r.normal(0, 1, g.n_nodes)
        b2 = r.normal(0, 1, g.n_nodes)
        a, c = float(r.uniform(-2, 2)), float(r.uniform(-2, 2))
        d = cheb_design(3, 0.5)
        p = poly_expand_gbjbf(3, 2.0)
        for filt in (lambda s: jbf(L, s),
                     lambda s: cheb_filter(L, s, d),
                     lambda s: poly_filter(L, s, p)):
            lhs = filt(a * b1 + c * b2)
            rhs = a * filt(b1) + c * filt(b2)
            scale = max(1.0, np.max(np.abs(rhs)))
            assert np.max(np.abs(lhs - rhs)) <= 1e-9 * scale


class TestApplyFilter:
    def test_jbf_constant_image_unchanged(self):
        guide = ImageGray.from_array(np.full((8, 8), 50.0))
        noisy = np.full(64, 131.25)
        g = build_graph(guide, HoleMask.all_false(8, 8), WeightParams())
        L = normalized_laplacian(g)
        out = apply_filter(FilterSpec(FilterKind.JBF), L, noisy)
        np.testing.assert_allclose(out, noisy, atol=1e-10)

    def test_cheb_dispatch_matches_direct_call(self, rng):
        g, L = random_guide_patch(rng, 6, 6)
        b_hat = rng.uniform(0, 255, g.n_nodes)
        spec = FilterSpec(FilterKind.K_CHEB, k=1, l=0.5)
        via_spec = apply_filter(spec, L, b_hat)
        x = normalize_signal(g, b_hat)
        direct = cheb_filter(L, x, cheb_design(1, 0.5))
        from graphdenoise import denormalize_signal

        np.testing.assert_array_equal(via_spec, denormalize_signal(g, direct))

    def test_gbjbf_dispatch_routes_to_exact_solve(self, rng):
        g, L = random_guide_patch(rng, 6, 6)
        b_hat = rng.uniform(0, 255, g.n_nodes)
        out = apply_filter(FilterSpec(FilterKind.GBJBF, rho=2.0), L, b_hat)
        from graphdenoise import denormalize_signal

        ref = denormalize_signal(g, gbjbf_exact(L, 2.0, normalize_signal(g, b_hat)))
        np.testing.assert_array_equal(out, ref)

    @pytest.mark.parametrize("kind", list(FilterKind))
    def test_hole_pixels_bit_identical(self, rng, kind):
        guide = ImageGray.from_array(rng.uniform(0, 255, (8, 8)))
        holes = rng.random((8, 8)) < 0.3
        holes[0, 0] = True
        mask = HoleMask.from_array(holes)
        g = build_graph(guide, mask, WeightParams())
        L = normalized_laplacian(g)
        b_hat = rng.uniform(0, 255, 64)
        out = apply_filter(FilterSpec(kind), L, b_hat)
        iso = g.degrees == 0
        assert np.array_equal(out[iso], b_hat[iso])

    @pytest.mark.parametrize("kind", list(FilterKind))
    def test_nonfinite_output_is_numeric_error(self, kind):
        # finite input whose D^{1/2} scaling and filter overflow
        guide = ImageGray.from_array(np.full((4, 4), 50.0))
        L = normalized_laplacian(build_graph(guide, HoleMask.all_false(4, 4), WeightParams()))
        with pytest.raises(NumericError):
            apply_filter(FilterSpec(kind), L, np.full(16, 1e308))

    def test_size_mismatch(self, rng):
        g, L = random_guide_patch(rng, 4, 4)
        with pytest.raises(Exception):
            apply_filter(FilterSpec(FilterKind.JBF), L, np.zeros(7))


class TestFilterSpecValidation:
    def test_defaults(self):
        s = FilterSpec(FilterKind.K_CG)
        assert (s.k, s.l, s.rho) == (3, 0.5, 2.0)

    def test_string_kind_coerced(self):
        assert FilterSpec("cheb").kind is FilterKind.K_CHEB

    @pytest.mark.parametrize("kw", [dict(k=0), dict(l=0.0), dict(l=2.0),
                                    dict(rho=0.0), dict(rho=-1.0),
                                    dict(k=MAX_K + 1)])
    def test_rejects_bad_parameters(self, kw):
        with pytest.raises(ValueError):
            FilterSpec(FilterKind.K_CHEB, **kw)
