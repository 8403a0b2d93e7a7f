"""Dense spectral oracle and exact reference filters.

Everything here trades speed for trust: a full symmetric eigendecomposition
(capped at 8192 nodes), exact application of arbitrary spectral transfer
functions, the closed-form regularized least-squares response, the minimax
low-pass response in product form, a brute-force Krylov-subspace minimizer,
and empirical transfer-function measurement.
These are the references every fast vertex-domain filter is validated
against; no fast path runs through this module.

``scipy.linalg`` is imported inside ``dense_eig``, its one user, so the
fast paths, and every command but ``denoise --check-oracle`` and
``spectral-response``, run without loading it.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DimensionMismatchError, NumericError
from .graph import NormalizedLaplacian
from .image import _frozen, _integer, _real, atomic_write_bytes


@dataclass(frozen=True)
class EigenDecomposition:
    """Ascending eigenvalues and orthonormal eigenvector columns."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "eigenvalues", _frozen(np.asarray(self.eigenvalues, float)))
        object.__setattr__(self, "eigenvectors", _frozen(np.asarray(self.eigenvectors, float)))

    @property
    def n(self) -> int:
        return self.eigenvalues.size


def dense_eig(L: NormalizedLaplacian) -> EigenDecomposition:
    """Full eigendecomposition via LAPACK's symmetric solver.

    Eigenvector signs are fixed so the first component exceeding 1e-12 of
    the column max is positive, keeping golden files stable.  ``L.dense()``
    enforces the node cap.
    """
    import scipy.linalg

    try:
        lam, u = scipy.linalg.eigh(L.dense())
    except scipy.linalg.LinAlgError as e:
        raise NumericError(f"symmetric eigensolver did not converge: {e}") from e
    for c in range(u.shape[1]):
        col = u[:, c]
        nz = np.nonzero(np.abs(col) > 1e-12 * np.abs(col).max())[0]
        if nz.size and col[nz[0]] < 0:
            u[:, c] = -col
    return EigenDecomposition(eigenvalues=lam, eigenvectors=u)


def exact_filter(eig: EigenDecomposition, h: Callable[[np.ndarray], np.ndarray],
                 b: np.ndarray) -> np.ndarray:
    """U h(Lambda) U^T b for a scalar transfer function h."""
    b = np.asarray(b, dtype=np.float64)
    if b.shape != (eig.n,):
        raise DimensionMismatchError("signal/eigendecomposition size mismatch")
    u = eig.eigenvectors
    hl = np.asarray(h(eig.eigenvalues), dtype=np.float64)
    return u @ (hl * (u.T @ b))


def gbjbf_response(rho: float):
    """The closed-form low-pass transfer function 1 / (1 + rho * lambda^2),
    0 where rho * lambda^2 overflows."""
    rho = _real(rho, "rho")
    def h(lam):
        with np.errstate(over="ignore"):
            return 1.0 / (1.0 + rho * np.asarray(lam) ** 2)
    return h


def cheb_response(k: int, l: float):
    """The degree-k minimax low-pass transfer function with stop band
    [l, 2], in product form scale * prod_i (r_i - lambda).

    The roots r_i are the degree-k Chebyshev roots cos(pi (2i-1) / 2k)
    mapped affinely from [-1, 1] onto [l, 2], in descending order, and
    scale = 1/prod(r_i) gives unit response at 0.  Evaluated at scalars
    the product is accurate at every degree; it is ``cheb``'s reference,
    independent of the series coefficients its fast path runs.
    """
    if not (_integer(k) and k >= 1):
        raise ValueError("k must be an integer >= 1")
    l = _real(l, "l")
    if not (0.0 < l < 2.0):
        raise ValueError("stop-band start l must lie in (0, 2)")
    i = np.arange(1, k + 1, dtype=np.float64)
    roots = 0.5 * (2.0 - l) * np.cos(np.pi * (2.0 * i - 1.0) / (2.0 * k)) + 0.5 * (2.0 + l)
    scale = float(1.0 / np.prod(roots))

    def h(lam):
        lam = np.asarray(lam, dtype=np.float64)
        out = np.full(lam.shape, scale)
        for r in roots:
            out = out * (r - lam)
        return out
    return h


@dataclass(frozen=True)
class SpectralResponse:
    """Measured per-eigenvalue transfer factors.

    A sample is invalid when the input has (numerically) no energy along
    that eigenvector, making the ratio meaningless; invalid samples are
    reported rather than dropped, and serialize with an empty h field.
    """

    lambdas: np.ndarray
    h: np.ndarray
    valid: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "lambdas", _frozen(np.asarray(self.lambdas, float)))
        object.__setattr__(self, "h", _frozen(np.asarray(self.h, float)))
        object.__setattr__(self, "valid", _frozen(np.asarray(self.valid, bool)))

    def to_csv(self) -> str:
        lines = ["lambda,h,valid"]
        for lam, hv, ok in zip(self.lambdas, self.h, self.valid):
            hs = format(hv, ".17g") if ok else ""
            lines.append(f"{format(lam, '.17g')},{hs},{'true' if ok else 'false'}")
        return "\n".join(lines) + "\n"

    def write_csv(self, path) -> None:
        atomic_write_bytes(path, self.to_csv().encode("ascii"))


def measure_response(filt: Callable[[np.ndarray], np.ndarray],
                     eig: EigenDecomposition, b: np.ndarray) -> SpectralResponse:
    """Empirical transfer function of an arbitrary (possibly input-adaptive)
    filter: h_i = <u_i, filt(b)> / <u_i, b>, with the filter applied once."""
    b = np.asarray(b, dtype=np.float64)
    if b.shape != (eig.n,):
        raise DimensionMismatchError("signal/eigendecomposition size mismatch")
    bnorm = np.linalg.norm(b)
    if bnorm == 0:
        raise ValueError("measure_response requires a nonzero input")
    u = eig.eigenvectors
    num = u.T @ np.asarray(filt(b), dtype=np.float64)
    den = u.T @ b
    valid = np.abs(den) >= 1e-9 * bnorm
    h = np.zeros_like(num)
    h[valid] = num[valid] / den[valid]
    return SpectralResponse(lambdas=eig.eigenvalues, h=h, valid=valid)


def krylov_minimize(L: NormalizedLaplacian, x0: np.ndarray, f: np.ndarray,
                    k: int) -> np.ndarray:
    """Brute-force minimizer of x^T L x - 2 x^T f over the affine subspace
    x0 + span{r0, L r0, ..., L^{k-1} r0}, r0 = f - L x0.

    The Krylov basis is orthonormalized explicitly and the projected
    problem solved densely; this is the independent check for the fast
    conjugate-gradient filter.
    """
    x0 = np.asarray(x0, dtype=np.float64)
    f = np.asarray(f, dtype=np.float64)
    r0 = f - L.apply(x0)
    cols = []
    v = r0
    for _ in range(k):
        cols.append(v)
        v = L.apply(v)
    K = np.stack(cols, axis=1)
    q, r = np.linalg.qr(K)
    keep = np.abs(np.diag(r)) > 1e-12 * max(1.0, np.linalg.norm(r0))
    q = q[:, keep]
    if q.shape[1] == 0:
        return x0.copy()
    hess = q.T @ np.column_stack([L.apply(q[:, c]) for c in range(q.shape[1])])
    hess = 0.5 * (hess + hess.T)
    g = q.T @ r0
    # Solve through the eigendecomposition with a relative curvature floor:
    # subspace directions with (numerically) zero curvature get no motion,
    # otherwise an unbounded objective would turn the solve into noise.
    ev, vec = np.linalg.eigh(hess)
    live = ev > 1e-12 * max(ev[-1], 0.0)
    y = vec[:, live] @ ((vec[:, live].T @ g) / ev[live])
    return x0 + q @ y
