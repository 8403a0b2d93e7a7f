"""Fast vertex-domain graph filters and the ``FILTERS`` registry.

All filters here touch the operator only through Laplacian-vector products,
so cost is O(k (n + edges)) for a degree/iteration budget k:

* ``jbf``        -- the one-step neighborhood average b - L b.
* ``poly_filter``-- truncated Chebyshev-series approximation of the
                    closed-form regularized filter 1/(1 + rho lambda^2).
* ``cheb_filter``-- minimax low-pass polynomial whose roots are Chebyshev
                    roots mapped onto a stop band [l, 2], scaled to unit
                    response at eigenvalue 0, applied as a root-product
                    iteration.
* ``cg_filter``  -- k conjugate-gradient iterations on the quadratic
                    x^T L x - 2 x^T f, an input-adaptive Krylov-subspace
                    low-pass (``graph.conjugate_gradients``, the loop
                    gbjbf's solve runs too, with a breakdown stop).

``FILTERS`` maps each ``FilterKind`` to its normalized-domain fast path and
its dense oracle reference; ``apply_filter`` dispatches through it and owns
the D^{+-1/2} round trip, read from the operator's own degrees, so the
individual filters compose freely.
"""
from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable

import numpy as np
from numpy.polynomial import chebyshev as npcheb

from .errors import DimensionMismatchError, NumericError
from .graph import (NormalizedLaplacian, conjugate_gradients, denormalize_signal,
                    normalize_signal)
from .image import _frozen
from .oracle import (dense_eig, exact_filter, gbjbf_exact, gbjbf_response,
                     krylov_minimize)

# Largest degree / iteration count a FilterSpec accepts: the cost of
# poly's series design grows as k^2 and every filter's as k.
MAX_K = 256

# Relative curvature below which a CG search direction is treated as lying
# in the Laplacian nullspace (breakdown: stop, keep the current iterate).
CG_BREAKDOWN_RTOL = 1e-14


class FilterKind(enum.Enum):
    JBF = "jbf"
    GBJBF = "gbjbf"
    K_POLY = "poly"
    K_CHEB = "cheb"
    K_CG = "cg"
    K_CG0 = "cg0"


@dataclass(frozen=True)
class FilterSpec:
    """Which filter to run plus its parameters.

    k is the polynomial degree / iteration count, 1 to MAX_K (unused by JBF
    and GBJBF), l the stop-band start for the minimax filter, rho the
    regularization weight for GBJBF and its polynomial approximation.
    """

    kind: FilterKind
    k: int = 3
    l: float = 0.5
    rho: float = 2.0

    def __post_init__(self):
        if not isinstance(self.kind, FilterKind):
            object.__setattr__(self, "kind", FilterKind(self.kind))
        if not 1 <= self.k <= MAX_K:
            raise ValueError(f"k must be in [1, {MAX_K}]")
        if not (0.0 < self.l < 2.0):
            raise ValueError("stop-band start l must lie in (0, 2)")
        if not self.rho > 0:
            raise ValueError("rho must be > 0")


def jbf(L: NormalizedLaplacian, b: np.ndarray) -> np.ndarray:
    """One-step filter b - L b (transfer function 1 - lambda)."""
    b = np.asarray(b, dtype=np.float64)
    return b - L.apply(b)


# ---------------------------------------------------------------------------
# Minimax (equiripple) low-pass polynomial

@dataclass(frozen=True)
class ChebDesign:
    """Degree-k polynomial with roots on the stop band [l, 2].

    Roots are the degree-k Chebyshev roots cos(pi (2i-1) / 2k) mapped
    affinely from [-1, 1] onto [l, 2] (stored in descending order), and the
    scale is 1/prod(roots) so the response at 0 is 1.
    """

    k: int
    l: float
    roots: np.ndarray
    scale: float

    def __post_init__(self):
        object.__setattr__(self, "roots", _frozen(np.asarray(self.roots, float)))

    def response(self, lam) -> np.ndarray:
        """Evaluate scale * prod_i (roots_i - lambda)."""
        lam = np.asarray(lam, dtype=np.float64)
        out = np.full(lam.shape, self.scale)
        for r in self.roots:
            out = out * (r - lam)
        return out


def cheb_design(k: int, l: float) -> ChebDesign:
    if k < 1:
        raise ValueError("k must be >= 1")
    if not (0.0 < l < 2.0):
        raise ValueError("stop-band start l must lie in (0, 2)")
    i = np.arange(1, k + 1, dtype=np.float64)
    base = np.cos(np.pi * (2.0 * i - 1.0) / (2.0 * k))
    roots = 0.5 * (2.0 - l) * base + 0.5 * (2.0 + l)
    return ChebDesign(k=k, l=l, roots=roots, scale=float(1.0 / np.prod(roots)))


def cheb_filter(L: NormalizedLaplacian, b: np.ndarray, design: ChebDesign) -> np.ndarray:
    """Root-product iteration x^i = r_i x^{i-1} - L x^{i-1}, x^0 = scale * b.

    Roots are applied in descending order; the result is order-independent
    up to rounding.
    """
    x = design.scale * np.asarray(b, dtype=np.float64)
    for r in design.roots:
        x = r * x - L.apply(x)
    return x


# ---------------------------------------------------------------------------
# Truncated Chebyshev-series approximation of the regularized filter

@dataclass(frozen=True)
class PolyExpansion:
    """Chebyshev-series coefficients c_0..c_k in the basis T_j(lambda - 1),
    approximating 1/(1 + rho lambda^2) on [0, 2]."""

    k: int
    rho: float
    coeffs: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "coeffs", _frozen(np.asarray(self.coeffs, float)))

    def evaluate(self, lam) -> np.ndarray:
        t = np.asarray(lam, dtype=np.float64) - 1.0
        return npcheb.chebval(t, self.coeffs)


def poly_expand_gbjbf(k: int, rho: float) -> PolyExpansion:
    """Series coefficients by Gauss-Chebyshev quadrature.

    Under lambda = 1 + cos(theta) the coefficients are cosine moments of
    the target; max(64, 8k) nodes are spectrally accurate for this smooth
    target.  rho = 0 (a constant target) is accepted for testing.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if rho < 0:
        raise ValueError("rho must be >= 0")
    m = max(64, 8 * k)
    theta = np.pi * (np.arange(m) + 0.5) / m
    lam = 1.0 + np.cos(theta)
    f = 1.0 / (1.0 + rho * lam**2)
    j = np.arange(k + 1)[:, None]
    c = (2.0 / m) * (np.cos(j * theta[None, :]) @ f)
    c[0] *= 0.5
    return PolyExpansion(k=k, rho=rho, coeffs=c)


def poly_filter(L: NormalizedLaplacian, b: np.ndarray, p: PolyExpansion) -> np.ndarray:
    """Evaluate the series at the operator.

    Uses the three-term recurrence T_{j+1}(t) = 2 t T_j(t) - T_{j-1}(t)
    with t = L - I, costing exactly k Laplacian applications.
    """
    b = np.asarray(b, dtype=np.float64)
    c = p.coeffs
    t_prev = b
    acc = c[0] * b
    if p.k >= 1:
        t_cur = L.apply(b) - b
        acc = acc + c[1] * t_cur
        for j in range(2, p.k + 1):
            t_next = 2.0 * (L.apply(t_cur) - t_cur) - t_prev
            acc = acc + c[j] * t_next
            t_prev, t_cur = t_cur, t_next
    return acc


# ---------------------------------------------------------------------------
# Conjugate-gradient Krylov filters

def quadratic_objective(L: NormalizedLaplacian, x: np.ndarray, f: np.ndarray) -> float:
    """The CG filter's objective x^T L x - 2 x^T f."""
    x = np.asarray(x, dtype=np.float64)
    f = np.asarray(f, dtype=np.float64)
    return float(x @ L.apply(x) - 2.0 * (x @ f))


@dataclass(frozen=True)
class CGInfo:
    """Per segment of the operator: iterations done and whether the
    iteration stopped at a breakdown."""

    iterations: np.ndarray
    breakdown: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "iterations", _frozen(np.asarray(self.iterations, np.int64)))
        object.__setattr__(self, "breakdown", _frozen(np.asarray(self.breakdown, bool)))


def cg_filter(L: NormalizedLaplacian, b: np.ndarray, k: int, variant: str = "cg",
              return_info: bool = False):
    """k Hestenes-Stiefel conjugate-gradient iterations on x^T L x - 2 x^T f.

    variant "cg"  starts at x0 = b with f = b;
    variant "cg0" starts at x0 = b with f = 0.

    The iterate after k steps minimizes the quadratic over the affine
    Krylov subspace x0 + span{r0, L r0, ..., L^{k-1} r0}, r0 = f - L x0.
    A search direction whose curvature p^T L p falls to 1e-14 of |p|^2
    lies numerically in the Laplacian nullspace; iteration stops there and
    the current iterate is returned (the degenerate curvature is never
    divided by).  A vanishing initial residual returns b unchanged.  Each
    segment of L runs its own iteration (``graph.conjugate_gradients``).
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if variant not in ("cg", "cg0"):
        raise ValueError(f"unknown CG variant {variant!r}")
    b = np.asarray(b, dtype=np.float64)
    if b.shape != (L.n,):
        raise DimensionMismatchError("signal/operator size mismatch")
    f = b if variant == "cg" else np.zeros_like(b)
    r = f - L.apply(b)
    live = ~(L.norm(r) <= 1e-14 * L.norm(b))
    x, _, _, done, breakdown = conjugate_gradients(
        L, L.apply, b.copy(), r, live, k, breakdown_rtol=CG_BREAKDOWN_RTOL)
    info = CGInfo(iterations=done, breakdown=breakdown)
    return (x, info) if return_info else x


# ---------------------------------------------------------------------------
# Registry and dispatch

@dataclass(frozen=True)
class FilterDef:
    """One filter kind.  Both functions map (spec, L, x) to the filtered
    normalized-domain signal: ``fast`` is the vertex-domain path the
    pipeline runs, ``reference`` the dense oracle it must match."""

    fast: Callable[[FilterSpec, NormalizedLaplacian, np.ndarray], np.ndarray]
    reference: Callable[[FilterSpec, NormalizedLaplacian, np.ndarray], np.ndarray]


def _exact(h):
    """Reference applying the transfer function h(spec, lambda) exactly
    through the dense eigendecomposition."""
    return lambda spec, L, x: exact_filter(dense_eig(L), lambda lam: h(spec, lam), x)


FILTERS: dict[FilterKind, FilterDef] = {
    FilterKind.JBF: FilterDef(
        fast=lambda spec, L, x: jbf(L, x),
        reference=_exact(lambda spec, lam: 1.0 - lam)),
    FilterKind.GBJBF: FilterDef(
        fast=lambda spec, L, x: gbjbf_exact(L, spec.rho, x),
        reference=_exact(lambda spec, lam: gbjbf_response(spec.rho)(lam))),
    FilterKind.K_POLY: FilterDef(
        fast=lambda spec, L, x: poly_filter(L, x, poly_expand_gbjbf(spec.k, spec.rho)),
        reference=_exact(
            lambda spec, lam: poly_expand_gbjbf(spec.k, spec.rho).evaluate(lam))),
    FilterKind.K_CHEB: FilterDef(
        fast=lambda spec, L, x: cheb_filter(L, x, cheb_design(spec.k, spec.l)),
        reference=_exact(lambda spec, lam: cheb_design(spec.k, spec.l).response(lam))),
    FilterKind.K_CG: FilterDef(
        fast=lambda spec, L, x: cg_filter(L, x, spec.k, "cg"),
        reference=lambda spec, L, x: krylov_minimize(L, x, x, spec.k)),
    FilterKind.K_CG0: FilterDef(
        fast=lambda spec, L, x: cg_filter(L, x, spec.k, "cg0"),
        reference=lambda spec, L, x: krylov_minimize(L, x, np.zeros_like(x), spec.k)),
}


def apply_filter(spec: FilterSpec, L: NormalizedLaplacian, b_hat: np.ndarray) -> np.ndarray:
    """Normalize by L's degrees, run the selected filter's fast path,
    denormalize.

    Isolated (hole) pixels carry no graph information, so they are passed
    through bit-identical to the input for every filter kind.  A result
    that is not finite everywhere raises ``NumericError``.
    """
    b_hat = np.asarray(b_hat, dtype=np.float64)
    if b_hat.shape != (L.n,):
        raise DimensionMismatchError("signal/operator size mismatch")
    with np.errstate(over="ignore", invalid="ignore"):
        out = denormalize_signal(L, FILTERS[spec.kind].fast(spec, L, normalize_signal(L, b_hat)))
    iso = L.degrees == 0
    if np.any(iso):
        out[iso] = b_hat[iso]
    if not np.isfinite(out).all():
        raise NumericError(f"{spec.kind.value} filter output is not finite")
    return out
