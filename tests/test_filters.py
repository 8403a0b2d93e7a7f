import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from graphdenoise import (DimensionMismatchError, FilterKind, FilterSpec, HoleMask,
                          ImageGray, NumericError, PixelGraph, WeightParams, apply_filter,
                          build_graph, cg_filter, cheb_design,
                          dense_eig, exact_filter, gbjbf_degree, jbf,
                          krylov_minimize, normalize_signal, normalized_laplacian,
                          poly_expand_gbjbf, poly_filter, quadratic_objective)
from graphdenoise.filters import FILTERS, MAX_K, PolyExpansion, chebyshev_series
from graphdenoise.oracle import cheb_response, gbjbf_response
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
        v = np.sqrt(g.degrees)
        np.testing.assert_allclose(jbf(L, v), v, atol=1e-12 * v.max())

    def test_edgeless_graph_identity(self):
        b = np.array([4.0, -1.0, 0.25])
        assert jbf(edgeless(3), b).tolist() == b.tolist()


def mapped_chebyshev_roots(k, l):
    i = np.arange(1, k + 1)
    return 0.5 * (2 - l) * np.cos(np.pi * (2 * i - 1) / (2 * k)) + 0.5 * (2 + l)


class TestChebDesign:
    def test_k1_l_half(self):
        # root 1.25, scale 0.8
        lam = np.linspace(0.0, 2.0, 9)
        np.testing.assert_allclose(cheb_response(1, 0.5)(lam), 0.8 * (1.25 - lam),
                                   atol=1e-15)

    def test_k2_l_half(self):
        base = math.sqrt(2) / 2
        r1, r2 = 1.25 + 0.75 * base, 1.25 - 0.75 * base
        lam = np.linspace(0.0, 2.0, 9)
        np.testing.assert_allclose(cheb_response(2, 0.5)(lam),
                                   (r1 - lam) * (r2 - lam) / 1.28125, atol=1e-12)

    @given(st.integers(1, 12), st.floats(0.05, 1.95))
    def test_unit_dc_response(self, k, l):
        d = cheb_design(k, l)
        assert cheb_response(k, l)(0.0) == pytest.approx(1.0, abs=1e-12)
        assert d.evaluate(0.0) == pytest.approx(1.0, abs=1e-12)
        # the series vanishes at the Chebyshev roots mapped onto [l, 2]
        roots = mapped_chebyshev_roots(k, l)
        np.testing.assert_allclose(cheb_response(k, l)(roots), 0.0, atol=1e-12)
        np.testing.assert_allclose(d.evaluate(roots), 0.0, atol=1e-12)

    def test_invalid_stop_band(self):
        for design in (cheb_design, cheb_response):
            with pytest.raises(ValueError):
                design(3, 0.0)
            with pytest.raises(ValueError):
                design(3, 2.0)

    def test_minimax_level_and_equioscillation(self):
        # max of |h| on [l, 2] is 1/|T_k(z0)| with z0 the image of 0 under
        # the affine map of [l, 2] onto [-1, 1]; extrema alternate in sign.
        for k, l in [(3, 0.5), (5, 1.0)]:
            d = cheb_design(k, l)
            z0 = -(2 + l) / (2 - l)
            level = 1.0 / math.cosh(k * math.acosh(-z0))
            lam = np.linspace(l, 2.0, 10001)
            assert np.max(np.abs(d.evaluate(lam))) == pytest.approx(level, abs=1e-12)
            extrema = 0.5 * (2 - l) * np.cos(np.pi * np.arange(k + 1) / k) + 0.5 * (2 + l)
            vals = d.evaluate(extrema)
            np.testing.assert_allclose(np.abs(vals), level, atol=1e-12)
            assert np.all(vals[:-1] * vals[1:] < 0)

    @pytest.mark.parametrize("l", [0.1, 0.5, 1.9])
    @pytest.mark.parametrize("k", [1, 3, 40, 82, 128, 256])
    def test_series_matches_the_product_form(self, k, l):
        lam = np.linspace(0.0, 2.0, 20001)
        err = np.max(np.abs(cheb_design(k, l).evaluate(lam) - cheb_response(k, l)(lam)))
        assert err <= 1e-12


class TestChebFilter:
    def test_k1_two_node_hand_value(self):
        L = normalized_laplacian(two_node_graph())
        out = poly_filter(L, np.array([1.0, 0.0]), cheb_design(1, 0.5))
        np.testing.assert_allclose(out, [0.2, 0.8], atol=1e-15)

    def test_nullvector_unchanged(self, rng):
        g, L = random_guide_patch(rng, 6, 6)
        v = np.sqrt(g.degrees)
        out = poly_filter(L, v, cheb_design(3, 0.5))
        np.testing.assert_allclose(out, v, atol=1e-10 * v.max())

    def test_edgeless_graph_near_identity(self):
        # every node is isolated, so the filter returns p(0) b, and p(0),
        # the series summed at lambda = 0, is 1 only to a few ulps
        b = np.array([4.0, -1.0, 0.25])
        for k in (1, 2, 5):
            out = poly_filter(edgeless(3), b, cheb_design(k, 0.5))
            np.testing.assert_allclose(out, b, rtol=1e-13, atol=0)

    def test_matches_exact_filter(self, rng):
        for _ in range(5):
            g, L = random_guide_patch(rng, 16, 16)
            eig = dense_eig(L)
            b = rng.normal(0, 10, g.n_nodes)
            fast = poly_filter(L, b, cheb_design(3, 0.5))
            ref = exact_filter(eig, cheb_response(3, 0.5), b)
            scale = max(1.0, np.max(np.abs(ref)))
            assert np.max(np.abs(fast - ref)) / scale <= 1e-8


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

    @pytest.mark.parametrize("design,response,k,param", [
        (poly_expand_gbjbf, gbjbf_response, 3, 2.0),
        (poly_expand_gbjbf, gbjbf_response, gbjbf_degree(2.0), 2.0),
        (cheb_design, cheb_response, 3, 0.5),
        (cheb_design, cheb_response, 1, 0.5)])
    def test_memoized_series_is_the_fresh_series(self, design, response, k, param):
        first = design(k, param)
        assert design(k, param) is first
        fresh = chebyshev_series(response(param) if design is poly_expand_gbjbf
                                 else response(k, param), k)
        assert first.k == fresh.k == k and type(first.k) is int
        assert first.coeffs.tobytes() == fresh.coeffs.tobytes()
        assert not first.coeffs.flags.writeable


class TestGbjbfDegree:
    def test_degrees(self):
        assert [gbjbf_degree(r) for r in (0.5, 2.0, 10.0, 100.0, 1000.0, 3000.0, 1e4)] \
            == [24, 34, 52, 95, 170, 224, 303]

    @pytest.mark.parametrize("rho", [1e-3, 0.5, 2.0, 100.0, 3000.0, 5170.0])
    def test_series_meets_its_tail_bound(self, rho):
        p = poly_expand_gbjbf(gbjbf_degree(rho), rho)
        lam = np.linspace(0.0, 2.0, 20001)
        assert np.max(np.abs(p.evaluate(lam) - gbjbf_response(rho)(lam))) <= 1e-13

    def test_rho_whose_degree_exceeds_max_k_is_rejected(self):
        assert gbjbf_degree(5170.0) <= MAX_K < gbjbf_degree(5180.0)
        FilterSpec(FilterKind.GBJBF, rho=5170.0)
        for rho in (5180.0, 1e308):
            with pytest.raises(ValueError, match="5170"):
                FilterSpec(FilterKind.GBJBF, rho=rho)
        FilterSpec(FilterKind.K_POLY, rho=1e308)     # poly's degree is its k

    def test_extreme_rho_without_warnings(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert gbjbf_degree(5e-324) == 1
            assert gbjbf_degree(1e308) > 10**70


class TestPolyFilter:
    def test_constant_series_returns_input(self, rng):
        g, L = random_guide_patch(rng, 5, 5)
        b = rng.normal(0, 1, g.n_nodes)
        p = PolyExpansion(k=1, coeffs=np.array([1.0, 0.0]))
        np.testing.assert_array_equal(poly_filter(L, b, p), b)

    def test_first_order_term_is_l_minus_identity(self, rng):
        g, L = random_guide_patch(rng, 5, 5)
        b = rng.normal(0, 1, g.n_nodes)
        p = PolyExpansion(k=1, coeffs=np.array([0.0, 1.0]))
        np.testing.assert_allclose(poly_filter(L, b, p),
                                   L.apply(b) - b, atol=1e-14)

    @pytest.mark.parametrize("k, coeffs", [(0, [1.0]), (1, [1.0]), (2, [1.0, 0.0])])
    def test_degree_and_coefficients_must_agree(self, k, coeffs):
        with pytest.raises(ValueError):
            PolyExpansion(k=k, coeffs=np.array(coeffs))

    def test_writes_no_input(self, rng):
        # the recurrence steps in place, on arrays it allocated itself, and
        # reuses the dying T_{j-1} for its products, except T_0 = b
        g, L = random_guide_patch(rng, 5, 5)
        b = rng.normal(0, 1, g.n_nodes)
        before = b.tobytes()
        for k in (1, 2, 3, 34):
            poly_filter(L, b, poly_expand_gbjbf(k, 2.0))
            assert b.tobytes() == before
        b.flags.writeable = False
        for k in (1, 2, 3, 34):
            poly_filter(L, b, cheb_design(k, 0.5))

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
            """Counts the applies of an operator and of its off-diagonal
            part, which the recurrence steps with."""

            def __init__(self, inner, calls):
                self.inner, self.calls = inner, calls
                self.n, self.degrees = inner.n, inner.degrees

            @property
            def off_diagonal(self):
                return CountingOperator(self.inner.off_diagonal, self.calls)

            def apply(self, x):
                self.calls.append(self.inner)
                return self.inner.apply(x)

        b = rng.normal(0, 1, g.n_nodes)
        for p in (poly_expand_gbjbf(k, 2.0), cheb_design(k, 0.5)):
            calls = []
            poly_filter(CountingOperator(L, calls), b, p)
            assert len(calls) == k
            assert all(op is L.off_diagonal for op in calls)

    def test_isolated_nodes_get_the_response_at_zero(self, rng):
        # N is 0 at a degree-0 node, which the filter must not read as
        # lambda = 1: spectral-response measures these nodes directly
        guide = ImageGray.from_array(rng.uniform(0, 255, (6, 6)))
        holes = rng.random((6, 6)) < 0.3
        holes[0, :2] = True
        g = build_graph(guide, HoleMask.from_array(holes), WeightParams())
        L = normalized_laplacian(g)
        iso = g.degrees == 0
        b = rng.normal(0, 1, g.n_nodes)
        for p in (poly_expand_gbjbf(gbjbf_degree(2.0), 2.0), poly_expand_gbjbf(3, 2.0),
                  cheb_design(3, 0.5), cheb_design(1, 0.5)):
            out = poly_filter(L, b, p)
            assert out[iso].tobytes() == (p.evaluate(0.0) * b[iso]).tobytes()


def reference_poly_filter(L, b, p):
    """The replaced recurrence in t = L - I, kept verbatim, the pin for the
    one in N = L.off_diagonal."""
    b = np.asarray(b, dtype=np.float64)
    c = p.coeffs
    t_prev, t_cur = b, L.apply(b)
    t_cur -= b
    acc = c[0] * b
    acc += c[1] * t_cur
    for j in range(2, p.k + 1):
        t_next = L.apply(t_cur)
        t_next -= t_cur
        t_next *= 2.0
        t_next -= t_prev
        acc += c[j] * t_next
        t_prev, t_cur = t_cur, t_next
    return acc


class TestOffDiagonalRecurrence:
    # DIA block operators on ragged tilings, one-row and one-column images
    # among them, and CSR operators of single patches; the recurrence in N
    # moves only rounding on live nodes, and apply_filter still restores
    # the input exactly at isolated ones
    @example(seed=0, width=30, height=1, patch=8, holes=0.1, csr=False)
    @example(seed=1, width=1, height=30, patch=64, holes=0.0, csr=False)
    @example(seed=2, width=45, height=30, patch=16, holes=0.2, csr=False)
    @example(seed=3, width=17, height=11, patch=8, holes=0.2, csr=True)
    @given(seed=st.integers(0, 2**32 - 1), width=st.integers(1, 50),
           height=st.integers(1, 50), patch=st.integers(8, 64),
           holes=st.floats(0.0, 0.5), csr=st.booleans())
    def test_matches_the_replaced_recurrence(self, seed, width, height, patch, holes, csr):
        r = np.random.default_rng(seed)
        guide = ImageGray.from_array(r.uniform(0, 255, (height, width)))
        mask = HoleMask.from_array(r.random((height, width)) < holes)
        grid, weights = split_patches(guide, patch), WeightParams(float(r.choice([3.0, 10.0])))
        image = r.uniform(0, 255, (height, width))
        if csr:
            L = normalized_laplacian(build_graph(guide, mask, weights))
            b_hat = image.ravel()
        else:
            L = block_operator(guide, mask, grid, weights)
            b_hat = grid.to_nodes(image, 0.0)
        live = L.degrees > 0
        b = normalize_signal(L, b_hat)
        k = int(r.integers(1, 41))
        for p in (poly_expand_gbjbf(gbjbf_degree(2.0), 2.0), poly_expand_gbjbf(k, 2.0),
                  cheb_design(k, float(r.uniform(0.1, 1.9)))):
            out, ref = poly_filter(L, b, p), reference_poly_filter(L, b, p)
            if live.any():
                err = np.max(np.abs(out[live] - ref[live]))
                assert err <= 1e-14 * np.max(np.abs(ref[live]))
        for kind in (FilterKind.GBJBF, FilterKind.K_POLY, FilterKind.K_CHEB):
            out = apply_filter(FilterSpec(kind), L, b_hat)
            assert out[~live].tobytes() == b_hat[~live].tobytes()


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
        v = np.sqrt(g.degrees)
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
            v0 = np.sqrt(g.degrees)
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
            v = np.sqrt(g.degrees)
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
        L.rows(b)[0] = 0.0
        d = L.rows(L.degrees)[1]
        L.rows(b)[1] = np.where(d > 0, np.sqrt(d), -0.0)
        x, info = cg_filter(L, b, 3, variant, return_info=True)
        for i, (p, s) in enumerate(zip(grid.patches, L.segments)):
            Lp = patch_operator(guide, mask, p, WeightParams())
            xp, ip = cg_filter(Lp, L.rows(b)[i][s], 3, variant, return_info=True)
            assert L.rows(x)[i][s].tobytes() == xp.tobytes()
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
                     lambda s: poly_filter(L, s, d),
                     lambda s: poly_filter(L, s, p)):
            lhs = filt(a * b1 + c * b2)
            rhs = a * filt(b1) + c * filt(b2)
            scale = max(1.0, np.max(np.abs(rhs)))
            assert np.max(np.abs(lhs - rhs)) <= 1e-9 * scale


def denormalize_signal(g, x: np.ndarray) -> np.ndarray:
    """Back to the vertex domain: x_hat = D^{-1/2} x (identity on degree 0)."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape != g.degrees.shape:
        raise DimensionMismatchError("signal/graph size mismatch")
    return np.where(g.degrees > 0, x / np.where(g.degrees > 0, np.sqrt(g.degrees), 1.0), x)


def normalize_signal_by_where(g, xhat: np.ndarray) -> np.ndarray:
    """``graph.normalize_signal`` as it was before it became one multiply
    by ``degree_scale``, kept verbatim."""
    xhat = np.asarray(xhat, dtype=np.float64)
    if xhat.shape != g.degrees.shape:
        raise DimensionMismatchError("signal/graph size mismatch")
    return np.where(g.degrees > 0, xhat * np.sqrt(g.degrees), xhat)


def apply_filter_by_where(spec, L, b_hat):
    """``apply_filter`` as it was before its round trip became one multiply
    by ``degree_scale``'s s and one divide by D^{1/2}, kept verbatim (with
    the ``normalize_signal`` of then, above) as the pin for that round
    trip."""
    b_hat = np.asarray(b_hat, dtype=np.float64)
    if b_hat.shape != (L.n,):
        raise DimensionMismatchError("signal/operator size mismatch")
    with np.errstate(over="ignore", invalid="ignore"):
        out = FILTERS[spec.kind].fast(spec, L, normalize_signal_by_where(L, b_hat))
        # live made after the filter, and the filter output freed once the
        # result replaces it: other orders made glibc trim the heap and
        # fault it back in on more calls
        live = L.degrees > 0
        out = np.where(live, out / np.where(live, np.sqrt(L.degrees), 1.0), b_hat)
    if not np.isfinite(out).all():
        raise NumericError(f"{spec.kind.value} filter output is not finite")
    return out


def apply_filter_two_passes(spec, L, b_hat):
    """``apply_filter`` as it was before the map back and the restore of
    isolated nodes became one pass, kept verbatim (with the deleted
    ``graph.denormalize_signal`` above and the ``normalize_signal`` of
    then) as the pin for that pass."""
    b_hat = np.asarray(b_hat, dtype=np.float64)
    if b_hat.shape != (L.n,):
        raise DimensionMismatchError("signal/operator size mismatch")
    with np.errstate(over="ignore", invalid="ignore"):
        out = denormalize_signal(L, FILTERS[spec.kind].fast(spec, L,
                                                            normalize_signal_by_where(L, b_hat)))
    iso = L.degrees == 0
    if np.any(iso):
        out[iso] = b_hat[iso]
    if not np.isfinite(out).all():
        raise NumericError(f"{spec.kind.value} filter output is not finite")
    return out


def filtered_bytes(apply, spec, L, b_hat):
    try:
        return apply(spec, L, b_hat).tobytes()
    except NumericError:
        return NumericError


def ragged_case(seed, width, height, patch, sigma_r, special):
    """A block operator on a ragged tiling with holes, and a signal with
    ``special`` at about half of its isolated nodes.  sigma_r 1e-3
    underflows every weight between unequal guide levels, so non-hole
    nodes have degree 0 too; the first tile is all holes."""
    r = np.random.default_rng(seed)
    guide = ImageGray.from_array(r.integers(0, 4, (height, width)).astype(np.float64))
    holes = r.random((height, width)) < r.uniform(0.0, 0.5)
    holes[:patch, :patch] = True
    mask = HoleMask.from_array(holes)
    grid = split_patches(guide, patch)
    L = block_operator(guide, mask, grid, WeightParams(sigma_r=sigma_r))
    b_hat = grid.to_nodes(r.uniform(0.0, 255.0, (height, width)), 0.0)
    iso = np.flatnonzero(L.degrees == 0)
    b_hat[iso[r.random(iso.size) < 0.5]] = special
    return L, b_hat


RAGGED_CASES = dict(seed=st.integers(0, 2**32 - 1), width=st.integers(1, 40),
                    height=st.integers(1, 40), patch=st.sampled_from([8, 16]),
                    sigma_r=st.sampled_from([10.0, 1.0, 1e-3]))


class TestApplyFilter:
    @given(**RAGGED_CASES,
           special=st.sampled_from([0.0, -0.0, math.nan, math.inf, -math.inf]))
    def test_matches_the_two_pass_version(self, seed, width, height, patch, sigma_r,
                                          special):
        L, b_hat = ragged_case(seed, width, height, patch, sigma_r, special)
        for kind in FilterKind:
            spec = FilterSpec(kind)
            assert (filtered_bytes(apply_filter, spec, L, b_hat)
                    == filtered_bytes(apply_filter_two_passes, spec, L, b_hat))

    # 1e160-scale values at isolated nodes overflow the CG filters'
    # per-segment inner products, which include those nodes
    @given(**RAGGED_CASES,
           special=st.sampled_from([-0.0, 1e160, -2.5e160, 5e-324, math.nan]))
    def test_matches_the_where_version(self, seed, width, height, patch, sigma_r,
                                       special):
        L, b_hat = ragged_case(seed, width, height, patch, sigma_r, special)
        before = b_hat.tobytes()
        for kind in FilterKind:
            spec = FilterSpec(kind)
            assert (filtered_bytes(apply_filter, spec, L, b_hat)
                    == filtered_bytes(apply_filter_by_where, spec, L, b_hat))
        assert b_hat.tobytes() == before

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
        direct = poly_filter(L, x, cheb_design(1, 0.5))
        np.testing.assert_array_equal(via_spec, denormalize_signal(g, direct))

    def test_gbjbf_dispatch_routes_to_exact_solve(self, rng):
        g, L = random_guide_patch(rng, 6, 6)
        b_hat = rng.uniform(0, 255, g.n_nodes)
        out = apply_filter(FilterSpec(FilterKind.GBJBF, rho=2.0), L, b_hat)
        series = poly_expand_gbjbf(gbjbf_degree(2.0), 2.0)
        ref = denormalize_signal(g, poly_filter(L, normalize_signal(g, b_hat), series))
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

    @pytest.mark.parametrize("k", [3.5, 3.0, np.float64(3.0), "3"])
    def test_rejects_a_k_that_is_not_an_integer(self, k):
        for kind in FilterKind:
            with pytest.raises(ValueError, match="integer"):
                FilterSpec(kind, k=k)

    def test_numpy_integer_k_is_valid(self, rng):
        spec = FilterSpec(FilterKind.K_CG0, k=np.int64(3))
        g, L = random_guide_patch(rng, 6, 6)
        b_hat = rng.uniform(0, 255, g.n_nodes)
        assert (apply_filter(spec, L, b_hat).tobytes()
                == apply_filter(FilterSpec(FilterKind.K_CG0, k=3), L, b_hat).tobytes())
