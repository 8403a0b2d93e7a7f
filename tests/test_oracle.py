import numpy as np
import pytest

from graphdenoise import (FilterKind, FilterSpec, HoleMask, ImageGray,
                          NormalizedLaplacian, NumericError, PixelGraph,
                          WeightParams, apply_filter, dense_eig, exact_filter,
                          filters, gbjbf_degree, jbf, measure_response,
                          normalized_laplacian, oracle)
from graphdenoise.filters import FILTERS
from graphdenoise.oracle import gbjbf_response
from graphdenoise.pipeline import block_operator, patch_operator, split_patches

from conftest import path_graph, random_guide_patch, two_node_graph


class TestDenseEig:
    def test_two_node_spectrum(self):
        eig = dense_eig(normalized_laplacian(two_node_graph()))
        np.testing.assert_allclose(eig.eigenvalues, [0.0, 2.0], atol=1e-14)

    def test_single_node(self):
        eig = dense_eig(normalized_laplacian(PixelGraph.from_edges(1, [])))
        assert eig.eigenvalues.tolist() == [0.0]

    def test_path3_spectrum(self):
        eig = dense_eig(normalized_laplacian(path_graph(3)))
        np.testing.assert_allclose(eig.eigenvalues, [0.0, 1.0, 2.0], atol=1e-12)

    def test_invariants(self, rng):
        g, L = random_guide_patch(rng, 12, 11)
        eig = dense_eig(L)
        n = eig.n
        u = eig.eigenvectors
        assert np.max(np.abs(u.T @ u - np.eye(n))) <= 1e-10
        assert np.max(np.abs(L.dense() @ u - u * eig.eigenvalues)) <= 1e-8 * n
        assert eig.eigenvalues[0] >= -1e-10
        assert eig.eigenvalues[-1] <= 2 + 1e-10
        assert np.all(np.diff(eig.eigenvalues) >= 0)

    def test_sign_convention_deterministic(self, rng):
        g, L = random_guide_patch(rng, 6, 6)
        a = dense_eig(L).eigenvectors
        b = dense_eig(L).eigenvectors
        np.testing.assert_array_equal(a, b)
        for c in range(a.shape[1]):
            col = a[:, c]
            nz = np.nonzero(np.abs(col) > 1e-12 * np.abs(col).max())[0]
            assert col[nz[0]] > 0

    def test_node_cap(self):
        L = normalized_laplacian(PixelGraph.from_edges(8193, []))
        with pytest.raises(NumericError):
            dense_eig(L)


class TestExactFilter:
    def test_identity_response(self, rng):
        g, L = random_guide_patch(rng, 8, 8)
        eig = dense_eig(L)
        b = rng.normal(0, 1, g.n_nodes)
        np.testing.assert_allclose(exact_filter(eig, lambda lam: np.ones_like(lam), b),
                                   b, atol=1e-10)

    def test_lambda_response_equals_apply(self, rng):
        g, L = random_guide_patch(rng, 8, 8)
        eig = dense_eig(L)
        b = rng.normal(0, 1, g.n_nodes)
        np.testing.assert_allclose(exact_filter(eig, lambda lam: lam, b),
                                   L.apply(b), atol=1e-10)

    def test_one_minus_lambda_two_node(self):
        eig = dense_eig(normalized_laplacian(two_node_graph()))
        out = exact_filter(eig, lambda lam: 1.0 - lam, np.array([1.0, 0.0]))
        np.testing.assert_allclose(out, [0.0, 1.0], atol=1e-12)

    def test_product_equals_composition(self, rng):
        g, L = random_guide_patch(rng, 7, 7)
        eig = dense_eig(L)
        b = rng.normal(0, 1, g.n_nodes)
        for _ in range(5):
            c1 = rng.normal(0, 1, 3)
            c2 = rng.normal(0, 1, 3)
            h1 = lambda lam: c1[0] + c1[1] * lam + c1[2] * lam**2
            h2 = lambda lam: c2[0] + c2[1] * lam + c2[2] * lam**2
            both = exact_filter(eig, lambda lam: h1(lam) * h2(lam), b)
            composed = exact_filter(eig, h1, exact_filter(eig, h2, b))
            np.testing.assert_allclose(both, composed, atol=1e-9)


def gbjbf(L, rho: float, b: np.ndarray) -> np.ndarray:
    """gbjbf's fast path in the normalized domain: its Chebyshev series at
    degree gbjbf_degree(rho)."""
    return FILTERS[FilterKind.GBJBF].fast(FilterSpec(FilterKind.GBJBF, rho=rho), L, b)


def two_patch_problem(rng):
    """A 32x32 patch and a ragged 16x32 one as one block operator, plus
    each patch's own operator."""
    guide = ImageGray.from_array(rng.uniform(0, 255, (32, 48)))
    mask = HoleMask.all_false(48, 32)
    grid = split_patches(guide, 32)
    L = block_operator(guide, mask, grid, WeightParams())
    return L, [patch_operator(guide, mask, p, WeightParams()) for p in grid.patches]


class TestGbjbfExact:
    """gbjbf's fast path against the exact response 1/(1 + rho lambda^2)
    through the dense oracle.  The conjugate-gradient solve it replaced
    kept |b - (I + rho L^2) x| <= 1e-12 |b|, which bounds the error by
    1e-12 |b| since I + rho L^2 >= I; the series keeps that residual at
    rho 2 and the error bound at every rho tested."""

    def test_two_node_hand_value(self):
        L = normalized_laplacian(two_node_graph())
        out = gbjbf(L, 2.0, np.array([1.0, 0.0]))
        np.testing.assert_allclose(out, [5.0 / 9.0, 4.0 / 9.0], atol=1e-12)

    def test_nullvector_passes_through(self, rng):
        g, L = random_guide_patch(rng, 6, 4)
        v = np.sqrt(g.degrees)
        np.testing.assert_allclose(gbjbf(L, 2.0, v), v, atol=1e-10)

    @pytest.mark.parametrize("size", [10, 60])   # 100- and 3600-node systems
    def test_residual_contract(self, rng, size):
        # at rho 2 the tail bound gives |r| <= (1 + 4 rho) 1e-13 |b|
        g, L = random_guide_patch(rng, size, size)
        b = rng.normal(0, 10, g.n_nodes)
        x = gbjbf(L, 2.0, b)
        resid = b - (x + 2.0 * L.apply(L.apply(x)))
        assert np.linalg.norm(resid) <= 1e-12 * np.linalg.norm(b)

    @pytest.mark.parametrize("size", [10, 60])   # 100- and 3600-node graphs
    def test_error_against_dense_oracle(self, rng, size):
        g, L = random_guide_patch(rng, size, size)
        eig = dense_eig(L)
        b = rng.normal(0, 10, g.n_nodes)
        for rho in (0.5, 2.0, 100.0, 3000.0):
            err = gbjbf(L, rho, b) - exact_filter(eig, gbjbf_response(rho), b)
            assert np.linalg.norm(err) <= 1e-12 * np.linalg.norm(b), rho

    def test_fast_path_never_eigendecomposes(self, rng, monkeypatch):
        # each segment's reference comes first, from its own operator
        _, single = random_guide_patch(rng, 10, 10)
        block, patches = two_patch_problem(rng)
        cases = []
        for L, parts in ((single, [single]), (block, patches)):
            b = rng.normal(0, 10, L.n)
            refs = [exact_filter(dense_eig(Lp), gbjbf_response(2.0), bi[s])
                    for Lp, bi, s in zip(parts, L.rows(b), L.segments)]
            cases.append((L, b, refs))

        def forbidden(L):
            raise AssertionError("gbjbf's fast path eigendecomposed")

        monkeypatch.setattr(oracle, "dense_eig", forbidden)
        monkeypatch.setattr(filters, "dense_eig", forbidden)
        for L, b, refs in cases:
            x = gbjbf(L, 2.0, b)
            for xi, bi, ref, s in zip(L.rows(x), L.rows(b), refs, L.segments):
                assert np.linalg.norm(xi[s] - ref) <= 1e-12 * np.linalg.norm(bi[s])

    @pytest.mark.parametrize("bad", ["nan", "inf"])
    @pytest.mark.parametrize("size", [10, 60])   # 100- and 3600-node graphs
    def test_nonfinite_norm_fails_closed(self, rng, size, bad):
        g, L = random_guide_patch(rng, size, size)
        b = rng.normal(0, 1, g.n_nodes)
        b[3] = float(bad)
        with pytest.raises(NumericError):
            apply_filter(FilterSpec(FilterKind.GBJBF), L, b)

    @pytest.mark.parametrize("segment", [0, 1])
    def test_nonfinite_norm_in_one_segment_fails_closed(self, rng, segment):
        L, _ = two_patch_problem(rng)
        b = rng.normal(0, 1, L.n)
        assert np.all(np.isfinite(apply_filter(FilterSpec(FilterKind.GBJBF), L, b)))
        L.rows(b)[segment][5] = np.nan
        with pytest.raises(NumericError):
            apply_filter(FilterSpec(FilterKind.GBJBF), L, b)

    @pytest.mark.parametrize("size", [10, 60])
    def test_huge_finite_input_scales_linearly(self, rng, size):
        # |b|^2 overflows, which the conjugate-gradient solve refused
        g, L = random_guide_patch(rng, size, size)
        b = rng.normal(0, 1, g.n_nodes)
        x = apply_filter(FilterSpec(FilterKind.GBJBF), L, b)
        big = apply_filter(FilterSpec(FilterKind.GBJBF), L, b * 1e160)
        np.testing.assert_allclose(big / 1e160, x, rtol=0, atol=1e-13 * np.abs(x).max())

    @pytest.mark.parametrize("rho", [0.5, 2.0, 100.0, 3000.0])
    def test_applies_the_laplacian_gbjbf_degree_times(self, rng, monkeypatch, rho):
        g, L = random_guide_patch(rng, 8, 8)
        calls = []
        real_apply = NormalizedLaplacian.apply

        def apply(self, x):
            calls.append(1)
            return real_apply(self, x)

        monkeypatch.setattr(NormalizedLaplacian, "apply", apply)
        gbjbf(L, rho, rng.normal(0, 1, g.n_nodes))
        assert len(calls) == gbjbf_degree(rho)


class TestMeasureResponse:
    def test_identity_filter(self, rng):
        g, L = random_guide_patch(rng, 6, 6)
        eig = dense_eig(L)
        b = rng.normal(0, 1, g.n_nodes)
        r = measure_response(lambda s: s, eig, b)
        assert np.all(r.valid)
        np.testing.assert_allclose(r.h, 1.0, atol=1e-10)

    def test_jbf_measures_one_minus_lambda(self, rng):
        g, L = random_guide_patch(rng, 8, 8)
        eig = dense_eig(L)
        b = rng.normal(0, 1, g.n_nodes)
        r = measure_response(lambda s: jbf(L, s), eig, b)
        np.testing.assert_allclose(r.h[r.valid], (1.0 - eig.eigenvalues)[r.valid],
                                   atol=1e-8)

    def test_gbjbf_measures_closed_form(self, rng):
        g, L = random_guide_patch(rng, 8, 8)
        eig = dense_eig(L)
        b = rng.normal(0, 1, g.n_nodes)
        r = measure_response(lambda s: gbjbf(L, 2.0, s), eig, b)
        np.testing.assert_allclose(r.h[r.valid], gbjbf_response(2.0)(eig.eigenvalues)[r.valid],
                                   atol=1e-8)

    def test_invalid_samples_flagged_not_dropped(self, rng):
        g, L = random_guide_patch(rng, 5, 5)
        eig = dense_eig(L)
        b = eig.eigenvectors[:, 3].copy()  # energy along one mode only
        r = measure_response(lambda s: s, eig, b)
        assert r.lambdas.size == g.n_nodes
        assert r.valid[3]
        assert not np.all(r.valid)

    def test_zero_input_rejected(self, rng):
        g, L = random_guide_patch(rng, 4, 4)
        with pytest.raises(ValueError):
            measure_response(lambda s: s, dense_eig(L), np.zeros(g.n_nodes))

    def test_filter_applied_once(self, rng):
        g, L = random_guide_patch(rng, 4, 4)
        calls = []

        def probe(s):
            calls.append(1)
            return s

        measure_response(probe, dense_eig(L), np.ones(g.n_nodes))
        assert len(calls) == 1

    def test_polynomial_responses_input_independent_cg_adaptive(self, rng):
        from graphdenoise import cg_filter, cheb_design, poly_expand_gbjbf, \
            poly_filter

        g, L = random_guide_patch(rng, 8, 8)
        eig = dense_eig(L)
        b1 = rng.normal(0, 1, g.n_nodes)
        b2 = rng.normal(0, 1, g.n_nodes)
        d = cheb_design(3, 0.5)
        p = poly_expand_gbjbf(3, 2.0)
        for filt in (lambda s: jbf(L, s),
                     lambda s: poly_filter(L, s, d),
                     lambda s: poly_filter(L, s, p)):
            r1 = measure_response(filt, eig, b1)
            r2 = measure_response(filt, eig, b2)
            both = r1.valid & r2.valid
            assert both.sum() > g.n_nodes // 2
            assert np.max(np.abs(r1.h[both] - r2.h[both])) <= 1e-8
        r1 = measure_response(lambda s: cg_filter(L, s, 3, "cg"), eig, b1)
        r2 = measure_response(lambda s: cg_filter(L, s, 3, "cg"), eig, b2)
        both = r1.valid & r2.valid
        assert np.max(np.abs(r1.h[both] - r2.h[both])) > 1e-3


class TestResponseCsv:
    def test_format_and_lossless_round_trip(self, rng):
        g, L = random_guide_patch(rng, 4, 4)
        eig = dense_eig(L)
        b = eig.eigenvectors[:, 0] + 0.3 * eig.eigenvectors[:, 5]
        r = measure_response(lambda s: jbf(L, s), eig, b)
        assert not np.all(r.valid)
        csv = r.to_csv()
        lines = csv.split("\n")
        assert lines[0] == "lambda,h,valid"
        assert csv.endswith("\n") and "\r" not in csv
        assert len(lines) == 2 + g.n_nodes  # header + rows + trailing newline
        for row, lam, h, ok in zip(lines[1:-1], r.lambdas, r.h, r.valid):
            ls, hs, vs = row.split(",")
            assert float(ls) == lam  # 17 significant digits round-trip
            if ok:
                assert vs == "true" and float(hs) == h
            else:
                assert vs == "false" and hs == ""

    def test_write_csv_bytes(self, rng, tmp_path):
        g, L = random_guide_patch(rng, 4, 4)
        eig = dense_eig(L)
        r = measure_response(lambda s: s, eig, np.ones(g.n_nodes))
        p = tmp_path / "resp.csv"
        r.write_csv(p)
        data = p.read_bytes()
        assert data.decode("ascii") == r.to_csv()
        assert b"\r" not in data
