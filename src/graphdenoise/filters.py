"""Fast vertex-domain graph filters and the ``FILTERS`` registry.

All filters here touch the operator only through Laplacian-vector products,
so cost is O(k (n + edges)) for a degree/iteration budget k:

* ``jbf``        -- the one-step neighborhood average b - L b.
* ``poly_filter``-- a truncated Chebyshev series (``chebyshev_series``)
                    run by its three-term recurrence in t = L - I, stepped
                    with L's off-diagonal part N (one product per degree,
                    no diagonal row; p(0) b at isolated nodes, where N is
                    0 rather than -1; b itself never written): ``poly`` at
                    degree k and ``gbjbf`` at the degree ``gbjbf_degree(rho)``,
                    whose coefficient tail is <= 1e-13, of the closed-form
                    regularized filter 1/(1 + rho lambda^2); ``cheb`` is
                    the series of the degree-k minimax low-pass whose
                    roots are Chebyshev roots mapped onto a stop band
                    [l, 2], with unit response at eigenvalue 0.
* ``cg_filter``  -- k conjugate-gradient iterations on the quadratic
                    x^T L x - 2 x^T f, an input-adaptive Krylov-subspace
                    low-pass (one step size per segment, with a breakdown
                    stop).

``FILTERS`` maps each ``FilterKind`` to its normalized-domain fast path and
its dense oracle reference; ``apply_filter`` dispatches through it and owns
the D^{+-1/2} round trip, read from the operator's own degrees, with the
input restored at its isolated nodes (``L.isolated``) on the way back, so
the individual filters compose freely.
"""
from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from numpy.polynomial import chebyshev as npcheb

from .errors import DimensionMismatchError, NumericError
from .graph import NormalizedLaplacian, normalize_signal
from .image import _frozen, _integer, _real
from .oracle import (cheb_response, dense_eig, exact_filter, gbjbf_response,
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
    regularization weight for GBJBF and its polynomial approximation.  GBJBF
    takes a rho whose series degree ``gbjbf_degree(rho)`` is at most MAX_K,
    rho up to about 5170.
    """

    kind: FilterKind
    k: int = 3
    l: float = 0.5
    rho: float = 2.0

    def __post_init__(self):
        object.__setattr__(self, "kind", FilterKind(self.kind))
        if not (_integer(self.k) and 1 <= self.k <= MAX_K):
            raise ValueError(f"k must be an integer in [1, {MAX_K}]")
        object.__setattr__(self, "k", int(self.k))
        object.__setattr__(self, "l", _real(self.l, "l"))
        object.__setattr__(self, "rho", _real(self.rho, "rho"))
        if not (0.0 < self.l < 2.0):
            raise ValueError("stop-band start l must lie in (0, 2)")
        if not 0 < self.rho < np.inf:
            raise ValueError("rho must be finite and > 0")
        if self.kind is FilterKind.GBJBF and gbjbf_degree(self.rho) > MAX_K:
            raise ValueError(f"gbjbf takes rho up to about 5170, where its series "
                             f"degree reaches {MAX_K}; got rho {self.rho:g}")


def jbf(L: NormalizedLaplacian, b: np.ndarray) -> np.ndarray:
    """One-step filter b - L b (transfer function 1 - lambda)."""
    b = np.asarray(b, dtype=np.float64)
    return b - L.apply(b)


# ---------------------------------------------------------------------------
# Chebyshev-series polynomial filters: gbjbf, poly and cheb

@dataclass(frozen=True)
class PolyExpansion:
    """Chebyshev-series coefficients c_0..c_k, k >= 1, in the basis
    T_j(lambda - 1) of a transfer function on [0, 2]."""

    coeffs: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "coeffs", _frozen(np.asarray(self.coeffs, float)))
        if self.coeffs.ndim != 1 or self.coeffs.size < 2:
            raise ValueError("a series needs a 1-D array of at least 2 coefficients")

    @property
    def k(self) -> int:
        return self.coeffs.size - 1

    def evaluate(self, lam) -> np.ndarray:
        t = np.asarray(lam, dtype=np.float64) - 1.0
        return npcheb.chebval(t, self.coeffs)


def chebyshev_series(h, k: int) -> PolyExpansion:
    """Degree-k Chebyshev series of the transfer function h on [0, 2],
    coefficients by Gauss-Chebyshev quadrature.

    Under lambda = 1 + cos(theta) the coefficients are cosine moments of
    h.  max(64, 8k) nodes are spectrally accurate for a smooth h, and exact
    up to rounding for a polynomial of degree <= k.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    m = max(64, 8 * k)
    theta = np.pi * (np.arange(m) + 0.5) / m
    f = h(1.0 + np.cos(theta))
    j = np.arange(k + 1)[:, None]
    c = (2.0 / m) * (np.cos(j * theta[None, :]) @ f)
    c[0] *= 0.5
    return PolyExpansion(c)


@functools.lru_cache(maxsize=16, typed=True)
def poly_expand_gbjbf(k: int, rho: float) -> PolyExpansion:
    """Degree-k series of gbjbf's response 1/(1 + rho lambda^2): the
    ``poly`` filter at k = spec.k, the gbjbf filter itself at
    k = ``gbjbf_degree(rho)``.  Memoized: a series is read-only, so every
    call with the same (k, rho) shares one."""
    return chebyshev_series(gbjbf_response(rho), k)


@functools.lru_cache(maxsize=16, typed=True)
def cheb_design(k: int, l: float) -> PolyExpansion:
    """The degree-k minimax low-pass with stop band [l, 2]
    (``oracle.cheb_response``) as its Chebyshev series.  On [0, 2] the
    polynomial is bounded by 1, so the series' three-term recurrence is
    stable at every degree, where its root product is not.  Memoized like
    ``poly_expand_gbjbf``."""
    return chebyshev_series(cheb_response(k, l), k)


def gbjbf_degree(rho: float) -> int:
    """Smallest degree K whose Chebyshev coefficients beyond K sum to at
    most 1e-13, which bounds the sup error of gbjbf's truncated series on
    [0, 2].

    In t = lambda - 1 the response has poles a = -1 +- i s, s = 1/sqrt(rho),
    and |c_j| <= C r^j with C = 2 sqrt(s) / (4 + s^2)^(1/4) and r = e^-eta,
    eta = acosh of the Bernstein ellipse's semi-major axis
    (|a - 1| + |a + 1|) / 2 through the poles.  The tail beyond K is then
    C r^(K+1) / (1 - r).  Every step is free of overflow and cancellation
    for any finite rho > 0, so the degree is finite (and huge for huge rho).
    """
    rho = _real(rho, "rho")
    if not 0 < rho < math.inf:
        raise ValueError("rho must be finite and > 0")
    s = 1.0 / math.sqrt(rho)
    h = math.hypot(2.0, s)                   # |a - 1|; |a + 1| = s
    d = 0.5 * (s + s * (s / (h + 2.0)))      # semi-major axis - 1
    eta = math.log1p(d + math.sqrt(d) * math.sqrt(d + 2.0))
    c = 2.0 * math.sqrt(s / h)
    return max(1, math.ceil(math.log(c / (1e-13 * -math.expm1(-eta))) / eta - 1.0))


def poly_filter(L: NormalizedLaplacian, b: np.ndarray, p: PolyExpansion) -> np.ndarray:
    """Evaluate the series at the operator.

    Uses the three-term recurrence T_{j+1}(t) = 2 t T_j(t) - T_{j-1}(t)
    with t = L - I, which on live nodes is exactly N = L.off_diagonal, L
    without its unit diagonal: each step is one product with N (a 4-row
    matvec on the block operator) and costs one ``apply``, k in all.

    Each step updates ``N.apply``'s fresh output and the sum in place, and
    writes the product c_j T_j into the dying T_{j-1} rather than a new
    temporary, so a step allocates only the matvec's output: the
    allocating form's temporaries made glibc trim the heap and fault it
    back in on every call, and a preallocated product buffer, one more
    live n-vector, faulted more.  T_0 is b, the caller's input, which is
    never written.

    At isolated nodes N is 0, not t = -1, so the recurrence evaluates the
    series at lambda = 1 there; ``L.isolated`` is overwritten with p(0) b,
    the response at the eigenvalue 0 such a node carries.
    """
    b = np.asarray(b, dtype=np.float64)
    N, c = L.off_diagonal, p.coeffs
    t_prev, t_cur = b, N.apply(b)
    acc = c[0] * b
    acc += c[1] * t_cur
    for j in range(2, p.k + 1):
        t_next = N.apply(t_cur)
        t_next *= 2.0
        t_next -= t_prev
        # the product goes into the dying T_{j-1}, but never into b
        acc += np.multiply(c[j], t_next, out=None if t_prev is b else t_prev)
        t_prev, t_cur = t_cur, t_next
    acc[L.isolated] = p.evaluate(0.0) * b[L.isolated]
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
    A search direction whose curvature p^T L p falls to CG_BREAKDOWN_RTOL
    of |p|^2 lies numerically in the Laplacian nullspace; iteration stops
    there and the current iterate is returned (the degenerate curvature is
    never divided by).  A vanishing initial residual returns b unchanged.

    Each segment of L has its own step sizes and stop, and a stopped
    segment is never stepped again, so its result is bit-identical to
    filtering its graph alone.  x, r and p are stepped in place in the
    filter's own (segments, slab) buffers: it writes neither b nor any
    array ``L.apply`` returns.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if variant not in ("cg", "cg0"):
        raise ValueError(f"unknown CG variant {variant!r}")
    b = np.asarray(b, dtype=np.float64)
    if b.shape != (L.n,):
        raise DimensionMismatchError("signal/operator size mismatch")
    f = b if variant == "cg" else 0.0
    x, r = np.array(L.rows(b)), L.rows(f - L.apply(b))
    p, tmp = r.copy(), np.empty_like(r)
    rr = L.dot(r, r)
    live = ~(np.sqrt(rr) <= 1e-14 * np.sqrt(L.dot(b, b)))
    iterations = np.zeros(live.shape, np.int64)
    breakdown = np.zeros(live.shape, bool)

    def ratio(num, den):   # per row: its segment's num / den if live, else 0
        return np.divide(num, den, out=np.zeros_like(num), where=live)[:, None]

    for step in range(k):
        if not live.any():
            break
        ap = L.rows(L.apply(p.reshape(-1)))
        curv = L.dot(p, ap)
        broke = live & (curv <= CG_BREAKDOWN_RTOL * L.dot(p, p))
        breakdown |= broke
        live &= ~broke
        alpha = ratio(rr, curv)
        # the mask keeps a stopped segment unwritten; unmasked adds are faster
        np.add(x, np.multiply(alpha, p, out=tmp), out=x,
               where=True if live.all() else live[:, None])
        iterations += live
        if step == k - 1:   # the r and p updates below would never be read
            break
        np.subtract(r, np.multiply(alpha, ap, out=tmp), out=r)
        rr_new = L.dot(r, r)
        np.add(r, np.multiply(ratio(rr_new, rr), p, out=p), out=p)
        rr = rr_new
    x = x.reshape(-1)
    info = CGInfo(iterations=iterations, breakdown=breakdown)
    return (x, info) if return_info else x


# ---------------------------------------------------------------------------
# Registry and dispatch

@dataclass(frozen=True)
class FilterDef:
    """One filter kind.  Both functions map (spec, L, x) to the filtered
    normalized-domain signal: ``fast`` is the vertex-domain path the
    pipeline runs, ``reference`` the dense oracle it must match.
    ``check_max_k`` is the largest k at which the two agree to the
    ``cli.ORACLE_CHECK_TOL`` of ``denoise --check-oracle`` on the bundled
    scene, at the default flags and every patch size the check allows;
    above it the CG filters and their explicit-Krylov-basis reference
    part, so a correct run would read as a numeric failure."""

    fast: Callable[[FilterSpec, NormalizedLaplacian, np.ndarray], np.ndarray]
    reference: Callable[[FilterSpec, NormalizedLaplacian, np.ndarray], np.ndarray]
    check_max_k: int = MAX_K


def _exact(h):
    """Reference applying the transfer function h(spec, lambda) exactly
    through the dense eigendecomposition."""
    return lambda spec, L, x: exact_filter(dense_eig(L), lambda lam: h(spec, lam), x)


FILTERS: dict[FilterKind, FilterDef] = {
    FilterKind.JBF: FilterDef(
        fast=lambda spec, L, x: jbf(L, x),
        reference=_exact(lambda spec, lam: 1.0 - lam)),
    FilterKind.GBJBF: FilterDef(
        fast=lambda spec, L, x: poly_filter(
            L, x, poly_expand_gbjbf(gbjbf_degree(spec.rho), spec.rho)),
        reference=_exact(lambda spec, lam: gbjbf_response(spec.rho)(lam))),
    FilterKind.K_POLY: FilterDef(
        fast=lambda spec, L, x: poly_filter(L, x, poly_expand_gbjbf(spec.k, spec.rho)),
        reference=_exact(
            lambda spec, lam: poly_expand_gbjbf(spec.k, spec.rho).evaluate(lam))),
    FilterKind.K_CHEB: FilterDef(
        fast=lambda spec, L, x: poly_filter(L, x, cheb_design(spec.k, spec.l)),
        reference=_exact(lambda spec, lam: cheb_response(spec.k, spec.l)(lam))),
    FilterKind.K_CG: FilterDef(
        fast=lambda spec, L, x: cg_filter(L, x, spec.k, "cg"),
        reference=lambda spec, L, x: krylov_minimize(L, x, x, spec.k),
        check_max_k=7),
    FilterKind.K_CG0: FilterDef(
        fast=lambda spec, L, x: cg_filter(L, x, spec.k, "cg0"),
        reference=lambda spec, L, x: krylov_minimize(L, x, np.zeros_like(x), spec.k),
        check_max_k=13),
}


def apply_filter(spec: FilterSpec, L: NormalizedLaplacian, b_hat: np.ndarray) -> np.ndarray:
    """Map b_hat into the normalized domain (``graph.normalize_signal``:
    x = D^{1/2} b_hat), run the selected filter's fast path, and map its
    output back by one divide by D^{1/2}.

    Isolated nodes (``L.isolated``: holes and padding) carry no graph
    information: the map back puts the input there bit-identical, for
    every filter kind.  A result that is not finite everywhere raises
    ``NumericError``.
    """
    b_hat = np.asarray(b_hat, dtype=np.float64)
    # x is made in normalize_signal's buffer, and the divisor D^{1/2} anew
    # after the filter (its 0s at isolated nodes are overwritten below): a
    # D^{1/2} kept alive through the filter raised `denoise cheb`'s peak at
    # 4096^2 by 8 B/node, 2018 -> 2146 MB.  x is dropped first so that the
    # divisor can reuse its memory: with x alive, a filter_sweep frame faulted
    # 633 pages, not 507, and ran 2.4 ms slower (2-core VM, medians of 10 runs).
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        x = normalize_signal(L, b_hat)
        out = FILTERS[spec.kind].fast(spec, L, x)
        del x
        out /= np.sqrt(L.degrees)
    out[L.isolated] = b_hat[L.isolated]
    if not np.isfinite(out).all():
        raise NumericError(f"{spec.kind.value} filter output is not finite")
    return out
