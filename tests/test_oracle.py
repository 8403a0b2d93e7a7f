import numpy as np
import pytest

from graphdenoise import (FilterKind, FilterSpec, HoleMask, ImageGray,
                          NumericError, PixelGraph, WeightParams, dense_eig,
                          exact_filter, gbjbf_exact, jbf, measure_response,
                          normalized_laplacian, oracle)
from graphdenoise.filters import FILTERS
from graphdenoise.graph import conjugate_gradients, sqrt_degrees
from graphdenoise.oracle import gbjbf_response
from graphdenoise.pipeline import block_operator, split_patches

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


class TestGbjbfExact:
    def test_rho_zero_is_identity(self, rng):
        g, L = random_guide_patch(rng, 5, 5)
        b = rng.normal(0, 1, g.n_nodes)
        np.testing.assert_array_equal(gbjbf_exact(L, 0.0, b), b)

    def test_two_node_hand_value(self):
        L = normalized_laplacian(two_node_graph())
        out = gbjbf_exact(L, 2.0, np.array([1.0, 0.0]))
        np.testing.assert_allclose(out, [5.0 / 9.0, 4.0 / 9.0], atol=1e-12)

    def test_nullvector_passes_through(self, rng):
        g, L = random_guide_patch(rng, 6, 4)
        v = sqrt_degrees(g)
        np.testing.assert_allclose(gbjbf_exact(L, 2.0, v), v, atol=1e-10)

    @pytest.mark.parametrize("size", [10, 60])   # 100- and 3600-node systems
    def test_residual_contract(self, rng, size):
        g, L = random_guide_patch(rng, size, size)
        b = rng.normal(0, 10, g.n_nodes)
        x = gbjbf_exact(L, 2.0, b)
        resid = b - (x + 2.0 * L.apply(L.apply(x)))
        assert np.linalg.norm(resid) <= 1e-12 * np.linalg.norm(b)

    def test_fast_path_never_eigendecomposes(self, rng, monkeypatch):
        def forbidden(L):
            raise AssertionError("gbjbf's fast path eigendecomposed")

        monkeypatch.setattr(oracle, "dense_eig", forbidden)
        _, single = random_guide_patch(rng, 10, 10)
        guide = ImageGray.from_array(rng.uniform(0, 255, (48, 64)))
        block = block_operator(guide, HoleMask.all_false(64, 48),
                                  split_patches(guide, 48), WeightParams())
        spec = FilterSpec(FilterKind.GBJBF)
        for L in (single, block):
            b = rng.normal(0, 10, L.n)
            x = FILTERS[FilterKind.GBJBF].fast(spec, L, b)
            resid = b - (x + spec.rho * L.apply(L.apply(x)))
            assert np.all(L.norm(resid) <= 1e-12 * L.norm(b))

    @pytest.mark.parametrize("bad", ["overflow", "nan", "inf"])
    @pytest.mark.parametrize("size", [10, 60])   # 100- and 3600-node systems
    def test_nonfinite_norm_fails_closed(self, rng, size, bad):
        g, L = random_guide_patch(rng, size, size)
        b = rng.normal(0, 1, g.n_nodes)
        if bad == "overflow":
            b *= 1e160       # finite samples, but |b|^2 overflows
        else:
            b[3] = float(bad)
        with pytest.raises(NumericError):
            gbjbf_exact(L, 2.0, b)

    @pytest.mark.parametrize("segment", [0, 1])
    def test_nonfinite_norm_in_one_segment_fails_closed(self, rng, segment):
        # a 48x48 patch and a ragged 16x48 one, solved in one CG run
        guide = ImageGray.from_array(rng.uniform(0, 255, (48, 64)))
        grid = split_patches(guide, 48)
        L = block_operator(guide, HoleMask.all_false(64, 48), grid, WeightParams())
        b = rng.normal(0, 1, L.n)
        assert np.all(np.isfinite(gbjbf_exact(L, 2.0, b)))
        b[L.slab(segment)] *= 1e160
        with pytest.raises(NumericError):
            gbjbf_exact(L, 2.0, b)

    def test_nan_residual_raises_at_once(self, rng):
        g, L = random_guide_patch(rng, 6, 6)
        calls = []

        def op(v):
            calls.append(1)
            return np.full_like(v, np.nan)

        b = rng.normal(0, 1, g.n_nodes)
        x = np.zeros_like(b)
        with pytest.raises(NumericError):
            conjugate_gradients(L, op, x, b - op(x), np.array([True]), 1000,
                                tol=1e-12 * L.norm(b))
        assert len(calls) == 1


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
        r = measure_response(lambda s: gbjbf_exact(L, 2.0, s), eig, b)
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
        from graphdenoise import cg_filter, cheb_design, cheb_filter, \
            poly_expand_gbjbf, poly_filter

        g, L = random_guide_patch(rng, 8, 8)
        eig = dense_eig(L)
        b1 = rng.normal(0, 1, g.n_nodes)
        b2 = rng.normal(0, 1, g.n_nodes)
        d = cheb_design(3, 0.5)
        p = poly_expand_gbjbf(3, 2.0)
        for filt in (lambda s: jbf(L, s),
                     lambda s: cheb_filter(L, s, d),
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
