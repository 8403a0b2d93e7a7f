"""Pixel graphs and the symmetric normalized Laplacian.

The graph connects horizontally/vertically adjacent non-hole pixels with
bilateral intensity weights

    w_ij = exp(-(g_i - g_j)^2 / (2 sigma_r^2))

taken from a guide image g.  On a 4-connected grid the spatial kernel is a
constant, so it is fixed to 1 and only sigma_r matters.  Hole pixels get no
edges at all.

The filtering substrate is L = I - D^{-1/2} W D^{-1/2}, a sparse symmetric
positive semi-definite operator with spectrum in [0, 2].  Rows and columns
of isolated (degree-0) nodes are identically zero, and the square-root
degree scalings D^{+-1/2} act as the identity on those coordinates, so any
filter with unit response at eigenvalue 0 passes hole pixels through.

``NormalizedLaplacian`` carries the degrees D with L, so it is the one
object a filter needs: L for the products, D for the D^{+-1/2} round
trip.  An operator may be block diagonal over several disjoint graphs, its
*segments* (the image pipeline filters every patch at once this way).
Inner products then come one per segment, so input-adaptive filters keep
one step size per graph; an operator built from one ``PixelGraph`` has a
single segment.  ``conjugate_gradients`` is the one per-segment CG loop,
shared by the CG filters and the regularized (gbjbf) solve.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .errors import DimensionMismatchError, NumericError
from .image import HoleMask, ImageGray, _frozen, check_same_shape

# Dense materialization is only for oracle-scale graphs.
DENSE_NODE_CAP = 8192


@dataclass(frozen=True)
class WeightParams:
    """Bilateral intensity kernel width.  The spatial factor is constant on
    the 4-connected grid, so sigma_r is the only kernel parameter."""

    sigma_r: float = 10.0

    def __post_init__(self):
        # build_graph scales squared guide differences by 1/(2 sigma_r^2)
        with np.errstate(over="ignore", divide="ignore"):
            scale = 1.0 / (2.0 * np.float64(self.sigma_r) ** 2)
        if not (self.sigma_r > 0 and 0.0 < scale < np.inf):  # rejects inf and NaN too
            raise ValueError("sigma_r must be > 0 with 1/(2 sigma_r^2) finite and nonzero")


@dataclass(frozen=True)
class PixelGraph:
    """Weighted undirected graph over pixels.

    Edges are stored once each with i < j, sorted lexicographically by
    (i, j) so construction is independent of pixel iteration order.
    """

    n_nodes: int
    edge_i: np.ndarray
    edge_j: np.ndarray
    edge_w: np.ndarray
    degrees: np.ndarray = field(init=False)

    def __post_init__(self):
        i = np.asarray(self.edge_i, dtype=np.int64)
        j = np.asarray(self.edge_j, dtype=np.int64)
        w = np.asarray(self.edge_w, dtype=np.float64)
        if not (i.shape == j.shape == w.shape):
            raise DimensionMismatchError("edge arrays must have equal length")
        if i.size:
            if i.min() < 0 or j.max() >= self.n_nodes:
                raise ValueError("edge endpoint out of range")
            if np.any(i >= j):
                raise ValueError("edges must satisfy i < j")
            if np.any(w < 0):
                raise ValueError("edge weights must be nonnegative")
            order = np.lexsort((j, i))
            i, j, w = i[order], j[order], w[order]
        deg = np.zeros(self.n_nodes, dtype=np.float64)
        np.add.at(deg, i, w)
        np.add.at(deg, j, w)
        object.__setattr__(self, "edge_i", _frozen(i))
        object.__setattr__(self, "edge_j", _frozen(j))
        object.__setattr__(self, "edge_w", _frozen(w))
        object.__setattr__(self, "degrees", _frozen(deg))

    @classmethod
    def from_edges(cls, n_nodes: int, edges) -> "PixelGraph":
        """Build from an iterable of (i, j, w); endpoints are canonicalized."""
        edges = list(edges)
        if edges:
            a = np.array([(min(i, j), max(i, j), w) for i, j, w in edges], dtype=np.float64)
            i, j, w = a[:, 0].astype(np.int64), a[:, 1].astype(np.int64), a[:, 2]
        else:
            i = j = np.zeros(0, np.int64)
            w = np.zeros(0, np.float64)
        return cls(n_nodes=n_nodes, edge_i=i, edge_j=j, edge_w=w)

    @property
    def n_edges(self) -> int:
        return int(self.edge_i.size)

    def edges(self):
        """Canonical (i, j, w) triples, i < j, sorted by (i, j)."""
        return list(zip(self.edge_i.tolist(), self.edge_j.tolist(), self.edge_w.tolist()))


def build_graph(guide: ImageGray, mask: HoleMask, params: WeightParams) -> PixelGraph:
    """4-connected bilateral graph over non-hole pixels of a guide image."""
    check_same_shape(guide, mask, "guide/mask")
    h, w = guide.height, guide.width
    g = guide.to_array()
    hole = mask.to_array()
    ok = ~hole
    idx = np.arange(h * w, dtype=np.int64).reshape(h, w)
    inv_two_sigma2 = 1.0 / (2.0 * params.sigma_r**2)

    parts_i, parts_j, parts_w = [], [], []
    if w > 1:
        keep = (ok[:, :-1] & ok[:, 1:]).ravel()
        d = (g[:, :-1] - g[:, 1:]).ravel()
        parts_i.append(idx[:, :-1].ravel()[keep])
        parts_j.append(idx[:, 1:].ravel()[keep])
        parts_w.append(np.exp(-(d[keep] ** 2) * inv_two_sigma2))
    if h > 1:
        keep = (ok[:-1, :] & ok[1:, :]).ravel()
        d = (g[:-1, :] - g[1:, :]).ravel()
        parts_i.append(idx[:-1, :].ravel()[keep])
        parts_j.append(idx[1:, :].ravel()[keep])
        parts_w.append(np.exp(-(d[keep] ** 2) * inv_two_sigma2))

    if parts_i:
        ei = np.concatenate(parts_i)
        ej = np.concatenate(parts_j)
        ew = np.concatenate(parts_w)
    else:
        ei = ej = np.zeros(0, np.int64)
        ew = np.zeros(0, np.float64)
    return PixelGraph(n_nodes=h * w, edge_i=ei, edge_j=ej, edge_w=ew)


@dataclass(frozen=True)
class NormalizedLaplacian:
    """Sparse symmetric operator I - D^{-1/2} W D^{-1/2}.

    ``degrees`` are the node degrees D the matrix was built from.
    Isolated nodes (degree 0) contribute zero rows and columns (their
    diagonal is 0, not 1), which keeps the operator PSD with spectrum in
    [0, 2] and makes sqrt(degrees) a null vector.

    ``segments`` splits the node order into len(segments) equal contiguous
    slabs with no edges between them; entry i selects, from slab i, the
    nodes of its graph in that graph's own node order (a slab may also
    carry padding nodes outside every graph).
    """

    matrix: sp.spmatrix
    degrees: np.ndarray
    segments: tuple = (slice(None),)

    @property
    def n(self) -> int:
        return self.degrees.size

    def apply(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        if x.shape != (self.n,):
            raise DimensionMismatchError(f"signal length {x.shape} != {self.n}")
        return self.matrix @ x

    def dense(self) -> np.ndarray:
        if self.n > DENSE_NODE_CAP:
            raise NumericError(
                f"dense materialization capped at {DENSE_NODE_CAP} nodes (n={self.n})"
            )
        return self.matrix.toarray()

    def slab(self, i: int) -> slice:
        """The node range of segment i's slab."""
        m = self.n // len(self.segments)
        return slice(i * m, (i + 1) * m)

    def parts(self, x: np.ndarray) -> list[np.ndarray]:
        """Per segment, x on its graph's nodes in that graph's order."""
        return [x[self.slab(i)][s] for i, s in enumerate(self.segments)]

    def dot(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Inner product per segment.  Each is one dot over the segment's
        nodes in its graph's order, so it equals, bit for bit, the inner
        product on that graph's own operator."""
        return np.array([a @ b for a, b in zip(self.parts(x), self.parts(y))])

    def norm(self, x: np.ndarray) -> np.ndarray:
        """Euclidean norm per segment (as ``np.linalg.norm`` computes it)."""
        return np.sqrt(self.dot(x, x))

    def expand(self, v: np.ndarray) -> np.ndarray:
        """One value per segment -> one value per node."""
        return np.repeat(v, self.n // len(self.segments))


def conjugate_gradients(L: NormalizedLaplacian, op, x: np.ndarray, r: np.ndarray,
                        live: np.ndarray, steps: int, tol=None, breakdown_rtol=None):
    """At most ``steps`` conjugate-gradient (Hestenes-Stiefel) steps on
    op(x) = c, op symmetric and block diagonal like L, from iterate x with
    residual r = c - op(x), on the segments flagged ``live``.

    Each segment has its own step sizes and stop, and a stopped segment is
    never stepped again, so its result is bit-identical to running on its
    graph alone.  Stop rules (None turns one off): ``tol``, per segment,
    stops at residual norm <= tol, checked before every step, and raises
    ``NumericError`` on a non-finite one; ``breakdown_rtol`` stops without
    stepping at curvature p^T op(p) <= breakdown_rtol |p|^2 (a nullspace
    direction, never divided by).

    Returns (x, rr, live, iterations, breakdown), the last four per
    segment: squared residual norm, still live, steps taken, broke down.
    """
    live = live.copy()
    iterations = np.zeros(live.shape, np.int64)
    breakdown = np.zeros(live.shape, bool)

    def ratio(num, den):   # per node: its segment's num / den if live, else 0
        return L.expand(np.divide(num, den, out=np.zeros_like(num), where=live))

    p = r
    rr = L.dot(r, r)
    for _ in range(steps):
        if tol is not None:
            if not np.all(np.isfinite(rr[live])):
                raise NumericError("conjugate gradients: the residual norm is not finite")
            live &= ~(np.sqrt(rr) <= tol)
        if not live.any():
            break
        ap = op(p)
        curv = L.dot(p, ap)
        if breakdown_rtol is not None:
            broke = live & (curv <= breakdown_rtol * L.dot(p, p))
            breakdown |= broke
            live &= ~broke
        alpha = ratio(rr, curv)
        x = x + alpha * p if live.all() else np.where(L.expand(live), x + alpha * p, x)
        r = r - alpha * ap
        rr_new = L.dot(r, r)
        p = r + ratio(rr_new, rr) * p
        rr = rr_new
        iterations += live
    return x, rr, live, iterations, breakdown


def normalized_laplacian(g: PixelGraph) -> NormalizedLaplacian:
    deg = g.degrees
    noniso = deg > 0
    inv_sqrt = np.zeros_like(deg)
    inv_sqrt[noniso] = 1.0 / np.sqrt(deg[noniso])
    s = g.edge_w * inv_sqrt[g.edge_i] * inv_sqrt[g.edge_j]
    diag_idx = np.nonzero(noniso)[0]
    rows = np.concatenate([g.edge_i, g.edge_j, diag_idx])
    cols = np.concatenate([g.edge_j, g.edge_i, diag_idx])
    vals = np.concatenate([-s, -s, np.ones(diag_idx.size)])
    m = sp.coo_matrix((vals, (rows, cols)), shape=(g.n_nodes, g.n_nodes)).tocsr()
    m.sum_duplicates()
    return NormalizedLaplacian(matrix=m, degrees=deg)


def sqrt_degrees(g) -> np.ndarray:
    return np.sqrt(g.degrees)


def normalize_signal(g, xhat: np.ndarray) -> np.ndarray:
    """Vertex-domain signal into the normalized domain: x = D^{1/2} x_hat.

    ``g`` is anything with ``degrees`` (an operator or a ``PixelGraph``).
    Degree-0 coordinates pass through unchanged.
    """
    xhat = np.asarray(xhat, dtype=np.float64)
    if xhat.shape != g.degrees.shape:
        raise DimensionMismatchError("signal/graph size mismatch")
    return np.where(g.degrees > 0, xhat * sqrt_degrees(g), xhat)


def denormalize_signal(g, x: np.ndarray) -> np.ndarray:
    """Back to the vertex domain: x_hat = D^{-1/2} x (identity on degree 0)."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape != g.degrees.shape:
        raise DimensionMismatchError("signal/graph size mismatch")
    return np.where(g.degrees > 0, x / np.where(g.degrees > 0, sqrt_degrees(g), 1.0), x)
