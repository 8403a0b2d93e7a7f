import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from graphdenoise import (DimensionMismatchError, FilterKind, FilterSpec,
                          HoleMask, ImageGray, PixelGraph, WeightParams,
                          apply_filter, build_graph, normalize_signal,
                          normalized_laplacian)
from graphdenoise.filters import FILTERS, FilterDef
from graphdenoise.graph import bilateral_weights

from conftest import path_graph, random_guide_patch, two_node_graph


def img(rows):
    return ImageGray.from_array(np.asarray(rows, dtype=np.float64))


def mask(rows):
    return HoleMask.from_array(np.asarray(rows, dtype=bool))


class TestBuildGraph:
    def test_equal_intensities_give_unit_weight(self):
        g = build_graph(img([[7.0, 7.0]]), mask([[0, 0]]), WeightParams(sigma_r=10))
        assert g.edges() == [(0, 1, 1.0)]

    def test_gap_of_sigma_r_gives_exp_minus_half(self):
        g = build_graph(img([[0.0, 10.0]]), mask([[0, 0]]), WeightParams(sigma_r=10))
        ((_, _, w),) = g.edges()
        assert w == pytest.approx(math.exp(-0.5), abs=1e-12)

    def test_hole_pixel_gets_no_edges(self):
        g = build_graph(img([[1.0, 2.0]]), mask([[0, 1]]), WeightParams())
        assert g.n_nodes == 2 and g.n_edges == 0
        assert g.degrees.tolist() == [0.0, 0.0]

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            build_graph(img([[1.0, 2.0]]), mask([[0], [0]]), WeightParams())

    @pytest.mark.parametrize("sigma_r", [0.0, -1.0, math.inf, math.nan,
                                         1e-300, 1e-160, 1e154, 1e200])
    def test_weight_params_reject_a_broken_kernel(self, sigma_r):
        # the last four are finite and positive, but 1/(2 sigma_r^2)
        # overflows to inf or underflows to 0
        with pytest.raises(ValueError, match="sigma_r"):
            WeightParams(sigma_r=sigma_r)

    def test_equal_weight_params_give_identical_weights(self):
        # a float32 sigma_r compared equal to its float64 value (same hash)
        # yet scaled the weights in float32, 8.2e-9 apart at sigma_r 10
        d = np.linspace(-60.0, 60.0, 241)
        for value in (np.float32(10.0), np.float32(0.1), 10.0, np.float64(0.1), 3):
            p, q = WeightParams(value), WeightParams(float(value))
            assert type(p.sigma_r) is float and p == q and hash(p) == hash(q)
            assert (bilateral_weights(d.copy(), p).tobytes()
                    == bilateral_weights(d.copy(), q).tobytes())
        # a Python float or float64 keeps its bits, and so do the weights
        for value in (10.0, np.float64(0.1), 1e-3):
            with np.errstate(over="ignore"):
                ref = np.exp(d**2 * (-1.0 / (2.0 * value**2)))
            assert WeightParams(value).sigma_r == value
            assert bilateral_weights(d.copy(), WeightParams(value)).tobytes() == ref.tobytes()

    def test_only_4_neighbour_edges(self):
        g = build_graph(img([[0, 0, 0], [0, 0, 0], [0, 0, 0]]),
                        HoleMask.all_false(3, 3), WeightParams())
        assert g.n_edges == 12  # 6 horizontal + 6 vertical
        for i, j, _ in g.edges():
            assert j - i in (1, 3)

    def test_deterministic_canonical_ordering(self, rng):
        guide = ImageGray.from_array(rng.uniform(0, 255, (5, 7)))
        holes = HoleMask.from_array(rng.random((5, 7)) < 0.2)
        a = build_graph(guide, holes, WeightParams())
        b = build_graph(guide, holes, WeightParams())
        assert a.edges() == b.edges()
        pairs = list(zip(a.edge_i.tolist(), a.edge_j.tolist()))
        assert pairs == sorted(pairs)
        assert np.all(a.edge_i < a.edge_j)


class TestLaplacian:
    def test_two_node_dense_form(self):
        L = normalized_laplacian(two_node_graph())
        np.testing.assert_allclose(L.dense(), [[1.0, -1.0], [-1.0, 1.0]], atol=0)

    def test_single_node_zero_operator(self):
        L = normalized_laplacian(PixelGraph.from_edges(1, []))
        assert L.dense().tolist() == [[0.0]]

    def test_path3_eigenvalues(self):
        L = normalized_laplacian(path_graph(3))
        lam = np.linalg.eigvalsh(L.dense())
        np.testing.assert_allclose(lam, [0.0, 1.0, 2.0], atol=1e-12)

    def test_apply_basis_vector(self):
        L = normalized_laplacian(two_node_graph())
        np.testing.assert_allclose(L.apply(np.array([1.0, 0.0])),
                                   [1.0, -1.0], atol=0)

    def test_apply_nullvector(self, rng):
        g, L = random_guide_patch(rng, 9, 6)
        v = np.sqrt(g.degrees)
        assert np.max(np.abs(L.apply(v))) <= 1e-12 * v.max()

    def test_operator_carries_the_graph_degrees(self, rng):
        g, L = random_guide_patch(rng, 9, 6)
        assert L.degrees.tobytes() == g.degrees.tobytes()
        assert L.n == L.matrix.shape[0] == L.degrees.size == g.n_nodes

    def test_zero_operator_maps_to_zero(self):
        L = normalized_laplacian(PixelGraph.from_edges(4, []))
        x = np.array([3.0, -1.0, 2.0, 0.5])
        assert L.apply(x).tolist() == [0.0, 0.0, 0.0, 0.0]

    def test_apply_dimension_mismatch(self):
        L = normalized_laplacian(two_node_graph())
        with pytest.raises(DimensionMismatchError):
            L.apply(np.zeros(3))

    def test_symmetry_through_basis_application(self, rng):
        g, L = random_guide_patch(rng, 6, 5)
        n = g.n_nodes
        dense = np.column_stack([L.apply(e) for e in np.eye(n)])
        np.testing.assert_allclose(dense, dense.T, atol=1e-15)
        np.testing.assert_allclose(dense, L.dense(), atol=0)

    def test_psd_and_rayleigh_range(self, rng):
        g, L = random_guide_patch(rng, 8, 8)
        x = rng.normal(0, 1, (1000, g.n_nodes))
        quad = np.einsum("ij,ij->i", x, (L.matrix @ x.T).T)
        sq = np.einsum("ij,ij->i", x, x)
        assert np.all(quad >= -1e-12 * sq)
        assert np.all(quad / sq <= 2 + 1e-12)


def round_trip(L, x):
    """``apply_filter`` with an identity fast path: x mapped into the
    normalized domain and back."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setitem(FILTERS, FilterKind.JBF, FilterDef(
            fast=lambda spec, L, x: x, reference=lambda spec, L, x: x))
        return apply_filter(FilterSpec(FilterKind.JBF), L, x)


class TestNormalization:
    def test_unit_degrees_identity(self):
        g = two_node_graph(1.0)
        x = np.array([0.3, -2.0])
        assert normalize_signal(g, x).tolist() == x.tolist()
        assert round_trip(normalized_laplacian(g), x).tolist() == x.tolist()

    def test_degree_four_scaling(self):
        # center of a 3x3 constant-guide patch has degree 4
        g = build_graph(ImageGray.from_array(np.zeros((3, 3))),
                        HoleMask.all_false(3, 3), WeightParams())
        assert g.degrees[4] == 4.0
        x = np.zeros(9)
        x[4] = 3.0
        assert normalize_signal(g, x)[4] == 6.0

    def test_identity_on_isolated_nodes(self):
        g = PixelGraph.from_edges(3, [(0, 1, 2.0)])
        x = np.array([1.0, 2.0, 0.1234])
        assert normalize_signal(g, x)[2] == x[2]

    @given(st.integers(0, 2**32 - 1))
    def test_round_trip_within_one_ulp(self, seed):
        # multiply-then-divide by sqrt(degree) is correctly rounded at each
        # step, so the round trip lands on the input or an adjacent float;
        # isolated coordinates are restored exactly.
        r = np.random.default_rng(seed)
        guide = ImageGray.from_array(r.uniform(0, 255, (4, 5)))
        holes = HoleMask.from_array(r.random((4, 5)) < 0.25)
        g = build_graph(guide, holes, WeightParams())
        x = r.normal(128, 60, 20)
        rt = round_trip(normalized_laplacian(g), x)
        iso = g.degrees == 0
        assert np.array_equal(rt[iso], x[iso])
        ok = (rt == x) | (rt == np.nextafter(x, np.inf)) | (rt == np.nextafter(x, -np.inf))
        assert np.all(ok)


def build_graph_two_blocks(guide, mask, params):
    """``build_graph`` with one copy-pasted block per edge direction, kept
    verbatim as the pin for its one direction loop."""
    h, w = guide.height, guide.width
    g = guide.to_array()
    hole = mask.to_array()
    ok = ~hole
    idx = np.arange(h * w, dtype=np.int64).reshape(h, w)

    parts_i, parts_j, parts_w = [], [], []
    if w > 1:
        keep = (ok[:, :-1] & ok[:, 1:]).ravel()
        d = (g[:, :-1] - g[:, 1:]).ravel()
        parts_i.append(idx[:, :-1].ravel()[keep])
        parts_j.append(idx[:, 1:].ravel()[keep])
        parts_w.append(bilateral_weights(d[keep], params))
    if h > 1:
        keep = (ok[:-1, :] & ok[1:, :]).ravel()
        d = (g[:-1, :] - g[1:, :]).ravel()
        parts_i.append(idx[:-1, :].ravel()[keep])
        parts_j.append(idx[1:, :].ravel()[keep])
        parts_w.append(bilateral_weights(d[keep], params))

    if parts_i:
        ei = np.concatenate(parts_i)
        ej = np.concatenate(parts_j)
        ew = np.concatenate(parts_w)
    else:
        ei = ej = np.zeros(0, np.int64)
        ew = np.zeros(0, np.float64)
    return PixelGraph(n_nodes=h * w, edge_i=ei, edge_j=ej, edge_w=ew)


@given(st.integers(0, 2**32 - 1), st.integers(1, 7), st.integers(1, 7),
       st.sampled_from([10.0, 1.0, 1e-3]))
def test_build_graph_matches_the_two_block_version(seed, w, h, sigma_r):
    # sizes 1 wide or 1 high have no edges in one direction (or none at all)
    r = np.random.default_rng(seed)
    guide = ImageGray.from_array(r.integers(0, 4, (h, w)).astype(np.float64))
    holes = HoleMask.from_array(r.random((h, w)) < 0.3)
    params = WeightParams(sigma_r=sigma_r)
    new = build_graph(guide, holes, params)
    old = build_graph_two_blocks(guide, holes, params)
    assert new.n_nodes == old.n_nodes
    for name in ("edge_i", "edge_j", "edge_w", "degrees"):
        a, b = getattr(new, name), getattr(old, name)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


@given(st.integers(0, 2**32 - 1), st.integers(2, 7), st.integers(2, 7))
def test_graph_invariants_random(seed, w, h):
    r = np.random.default_rng(seed)
    guide = ImageGray.from_array(r.uniform(0, 255, (h, w)))
    holes = HoleMask.from_array(r.random((h, w)) < 0.3)
    g = build_graph(guide, holes, WeightParams(sigma_r=float(r.uniform(1, 40))))

    deg = np.zeros(g.n_nodes)
    for i, j, wt in g.edges():
        assert 0 <= i < j < g.n_nodes
        assert wt >= 0
        assert not holes.flags[i] and not holes.flags[j]
        deg[i] += wt
        deg[j] += wt
    # summation order differs between this loop and the builder
    np.testing.assert_allclose(deg, g.degrees, rtol=1e-14, atol=0)

    L = normalized_laplacian(g)
    v = np.sqrt(g.degrees)
    if v.max() > 0:
        assert np.max(np.abs(L.apply(v))) <= 1e-12 * v.max()
    x = r.normal(0, 1, g.n_nodes)
    quad = float(x @ L.apply(x))
    assert quad >= -1e-12 * float(x @ x)
    assert quad / float(x @ x) <= 2 + 1e-12
