"""Dense spectral oracle and exact reference filters.

Everything here trades speed for trust: a full symmetric eigendecomposition
(capped at 8192 nodes), exact application of arbitrary spectral transfer
functions, the closed-form regularized least-squares response, a brute-force
Krylov-subspace minimizer, and empirical transfer-function measurement.
These are the references every fast vertex-domain filter is validated
against.

One fast path lives here too: ``gbjbf_exact``, the conjugate-gradient solve
of the regularized system through ``graph.conjugate_gradients``, which
never eigendecomposes.  It stays in this module because the benchmark's
tracer wraps it here by name.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
import scipy.linalg

from .errors import DimensionMismatchError, NumericError
from .graph import NormalizedLaplacian, conjugate_gradients
from .image import _frozen, atomic_write_bytes


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
    """The closed-form low-pass transfer function 1 / (1 + rho * lambda^2)."""
    def h(lam):
        return 1.0 / (1.0 + rho * np.asarray(lam) ** 2)
    return h


def gbjbf_exact(L: NormalizedLaplacian, rho: float, b: np.ndarray) -> np.ndarray:
    """Solve (I + rho L^2) x = b to relative residual <= 1e-12.

    Conjugate gradients (``graph.conjugate_gradients``, residual stop) on
    the SPD operator, whose spectrum lies in [1, 1 + rho * 4], so no
    eigendecomposition is needed; the dense reference is ``gbjbf_response``
    through ``dense_eig``.  The contract is verified on the true residual
    and the segments that miss it are solved once more from where they
    stopped; a second miss, a solve that stalls within 1000 steps or a norm
    that is not finite (an overflowing or non-finite b) raises
    ``NumericError``.  Each segment of a block-diagonal L has its own step
    sizes and contract, so its result is bit-identical to solving on its
    graph alone.
    """
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
    tol = 1e-12 * bnorm
    # an all-zero segment is its own solution
    nonzero = np.array([np.any(bi) for bi in L.parts(b)])

    def solve(x, live):
        # CG on the live segments, then the misses (a NaN residual is one)
        x, rr, live, _, _ = conjugate_gradients(L, op, x, b - op(x), live, 1000, tol=tol)
        if not np.all(np.sqrt(rr[live]) <= tol[live]):
            raise NumericError("regularized solve stalled above relative residual 1e-12")
        return x, nonzero & ~(L.norm(b - op(x)) <= tol)

    x, miss = solve(np.where(L.expand(nonzero), 0.0, b), nonzero)
    if miss.any():
        x, miss = solve(x, miss)
        if miss.any():
            raise NumericError("regularized solve missed the 1e-12 residual contract")
    return x


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
