"""Pixel graphs and the symmetric normalized Laplacian.

The graph connects horizontally/vertically adjacent non-hole pixels with
bilateral intensity weights

    w_ij = exp(-(g_i - g_j)^2 / (2 sigma_r^2))

taken from a guide image g.  On a 4-connected grid the spatial kernel is a
constant, so it is fixed to 1 and only sigma_r matters.  Hole pixels get no
edges at all.

The filtering substrate is L = I - D^{-1/2} W D^{-1/2}, a sparse symmetric
positive semi-definite operator with spectrum in [0, 2].  Rows and columns
of isolated (degree-0) nodes are identically zero.  ``degree_scale``
gives D^{1/2} with 1.0 at isolated nodes, so the map in is one multiply
(``normalize_signal``) that leaves isolated coordinates' bits unchanged;
``filters.apply_filter`` maps the result back by dividing by D^{1/2} and
restores the input at isolated nodes.

``NormalizedLaplacian`` carries the degrees D with L, so it is the one
object a filter needs: L for the products, D for the D^{+-1/2} round
trip, and ``off_diagonal``, L without its diagonal, for the polynomial
filters' recurrence.  An operator may be block diagonal over several
disjoint graphs, its *segments*, the rows of a (segments, slab) view: the
image pipeline filters every patch at once this way, and a ``PixelGraph``
gives one row.  Inner products come one per row (one ``vecdot``, ragged
rows gathered), so the CG filters' loop (``filters.cg_filter``) keeps one
step size per graph, broadcast.

``scipy.sparse`` is imported only where a matrix is assembled
(``normalized_laplacian``, ``off_diagonal`` and
``pipeline.block_operator``), so a process that builds no operator never
loads it.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import TYPE_CHECKING

import numpy as np

from .errors import DimensionMismatchError, NumericError
from .image import HoleMask, ImageGray, _frozen, check_same_shape

if TYPE_CHECKING:
    import scipy.sparse as sp

# Dense materialization is only for oracle-scale graphs.
DENSE_NODE_CAP = 8192


@dataclass(frozen=True)
class WeightParams:
    """Bilateral intensity kernel width.  The spatial factor is constant on
    the 4-connected grid, so sigma_r is the only kernel parameter.

    sigma_r is stored as a Python float, so equal params give bit-identical
    weights: a float32 sigma_r would otherwise compare equal to its float64
    value yet scale the weights in float32."""

    sigma_r: float = 10.0

    def __post_init__(self):
        # build_graph scales squared guide differences by 1/(2 sigma_r^2)
        with np.errstate(over="ignore", divide="ignore"):
            scale = 1.0 / (2.0 * np.float64(self.sigma_r) ** 2)
        if not (self.sigma_r > 0 and 0.0 < scale < np.inf):  # rejects inf and NaN too
            raise ValueError("sigma_r must be > 0 with 1/(2 sigma_r^2) finite and nonzero")
        object.__setattr__(self, "sigma_r", float(self.sigma_r))


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


def bilateral_weights(d: np.ndarray, params: WeightParams) -> np.ndarray:
    """exp(-d^2 / (2 sigma_r^2)) of float64 guide differences d, written
    into d, which is returned; a square or exponent that overflows to
    infinity gives the weight 0 it tends to."""
    with np.errstate(over="ignore"):
        np.square(d, out=d)
        # -(d^2 c) by one multiply: negation is exact, so the bits are the same
        np.multiply(d, -1.0 / (2.0 * params.sigma_r**2), out=d)
        return np.exp(d, out=d)


def build_graph(guide: ImageGray, mask: HoleMask, params: WeightParams) -> PixelGraph:
    """4-connected bilateral graph over non-hole pixels of a guide image."""
    check_same_shape(guide, mask, "guide/mask")
    h, w = guide.height, guide.width
    g = guide.to_array()
    ok = ~mask.to_array()
    idx = np.arange(h * w, dtype=np.int64).reshape(h, w)

    parts = []
    for a, b in ((np.s_[:, :-1], np.s_[:, 1:]),   # right edges
                 (np.s_[:-1], np.s_[1:])):        # down edges
        keep = (ok[a] & ok[b]).ravel()
        parts.append((idx[a].ravel()[keep], idx[b].ravel()[keep],
                      bilateral_weights((g[a] - g[b]).ravel()[keep], params)))
    ei, ej, ew = (np.concatenate(p) for p in zip(*parts))
    return PixelGraph(n_nodes=h * w, edge_i=ei, edge_j=ej, edge_w=ew)


@dataclass(frozen=True)
class NormalizedLaplacian:
    """Sparse symmetric operator I - D^{-1/2} W D^{-1/2}.

    ``degrees`` are the node degrees D the matrix was built from.
    Isolated nodes (degree 0) contribute zero rows and columns (their
    diagonal is 0, not 1), which keeps the operator PSD with spectrum in
    [0, 2] and makes sqrt(degrees) a null vector.

    ``segments`` splits the node order into len(segments) equal contiguous
    slabs, the rows of ``rows(x)``, with no edges between them; entry i is
    ``slice(None)`` if slab i is one whole graph in its own node order, else
    the index array of that graph's nodes (the rest are padding).
    ``ragged`` holds the (i, index array) pairs of the latter, found once.
    """

    matrix: sp.spmatrix
    degrees: np.ndarray
    segments: tuple = (slice(None),)
    ragged: tuple = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "ragged", tuple(
            (i, s) for i, s in enumerate(self.segments) if isinstance(s, np.ndarray)))

    @property
    def n(self) -> int:
        return self.degrees.size

    @cached_property
    def off_diagonal(self) -> NormalizedLaplacian:
        """N = -D^{-1/2} W D^{-1/2}, this operator without its diagonal, as
        an operator over the same degrees and segments, built on first use.

        N is L - I on live nodes, whose diagonal is 1, and 0 like L on
        isolated ones.  Over a DIA matrix it is a view of the same data
        with the diagonal row moved to offset n + 1, outside the matrix,
        where no other row lies, so its products skip that row.  Any other
        format gives a CSR matrix of the off-diagonal entries in column
        order, explicit zeros kept.
        """
        import scipy.sparse as sp

        m = self.matrix
        if m.format == "dia":
            offsets = m.offsets.copy()
            offsets[offsets == 0] = self.n + 1
            off = sp.dia_matrix((m.data, offsets), shape=m.shape)
        else:
            c = m.tocoo()
            keep = c.row != c.col
            off = sp.csr_matrix((c.data[keep], (c.row[keep], c.col[keep])), shape=m.shape)
            off.sum_duplicates()
        return NormalizedLaplacian(matrix=off, degrees=self.degrees, segments=self.segments)

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

    def rows(self, x: np.ndarray) -> np.ndarray:
        """x as a (segments, slab) view: row i is segment i's slab."""
        return x.reshape(len(self.segments), -1)

    def dot(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Inner product per segment: one ``vecdot`` over the rows, ragged
        rows redone on their graph's nodes, so each equals, bit for bit,
        the inner product on that graph's own operator."""
        xs, ys = self.rows(x), self.rows(y)
        d = np.vecdot(xs, ys)
        for i, s in self.ragged:
            d[i] = xs[i][s] @ ys[i][s]
        return d


def normalized_laplacian(g: PixelGraph) -> NormalizedLaplacian:
    import scipy.sparse as sp

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


def degree_scale(degrees: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """s = D^{1/2} with 1.0 at isolated nodes (degree not > 0), and the
    isolated nodes' indices: x_hat * s is x_hat's normalized form."""
    s = np.sqrt(degrees)
    isolated = np.flatnonzero(~(degrees > 0))
    s[isolated] = 1.0
    return s, isolated


def normalize_signal(g, xhat: np.ndarray) -> np.ndarray:
    """Vertex-domain signal into the normalized domain: x = D^{1/2} x_hat,
    one multiply by ``degree_scale``'s s.

    ``g`` is anything with ``degrees`` (an operator or a ``PixelGraph``).
    Degree-0 coordinates are multiplied by 1.0, which leaves their bits
    unchanged: they enter the CG filters' per-segment inner products.
    """
    xhat = np.asarray(xhat, dtype=np.float64)
    if xhat.shape != g.degrees.shape:
        raise DimensionMismatchError("signal/graph size mismatch")
    return xhat * degree_scale(g.degrees)[0]
