"""Depth-based view warping with quarter-pel interpolation and hole marking.

The warp is backward and purely horizontal (rectified stereo): every target
pixel [u, v] samples the source view at u' = u +- disparity[v, u],
quantized to the quarter-pel grid.  Fractional positions use the standard
H.265/HEVC 8-tap (half-pel) and 7-tap (quarter-pel) luma kernels, each run
only on the pixels at its phase, so a phase no pixel has costs nothing;
whole-pel pixels copy their source sample.  A kernel is a fixed-order tap
sum (``interp_subpel``): one gather per tap from the edge-padded source,
then one correctly rounded multiply and add per tap, left to right, with
no BLAS, so a float source gives the same guide bits under any BLAS
build, kernel or thread count.  (With an 8-bit source the integer
products and sums are exact, so any order of the taps gives the same
guide.)  A target pixel becomes a hole when its source position leaves the
image or when a pixel with sufficiently larger disparity lands on (almost)
the same source position -- a simple deterministic z-ordering proxy for
occlusion.

Pixel j covers pixel i of its row when |u'_j - u'_i| <= 0.75 and
d_j - d_i > 1.  Left to right (u' = u + d), u'_j - u'_i = (j - i) +
(d_j - d_i) exceeds 2 when j > i, so only a pixel left of i can cover it;
right to left, only one to its right.  A row's largest drop D, the largest
d_j - d_i with j on that side of i, bounds every fl(d_j - d_i) of the row
(floating-point subtraction is monotone).  A row with D <= 1 has no cover;
in the others a cover needs |j - i| <= D + 0.75, so |j - i| <= ceil(D)
(position rounding, relevant only for pixels that land in the image, is far
below the 0.25 to spare).  Testing one column shift at a time on the rows
with D > 1, up to band = ceil of their largest D, is therefore exact.

Two more restrictions keep it exact.  With j on the cover side of i and at
most band columns away, fl(max_j d_j - d_i) = max_j fl(d_j - d_i), again
by monotone subtraction, so only a candidate, a pixel i with
fl(max_j d_j - d_i) > 1, can be covered; the window maxima take
ceil(log2 band) passes of doubling.  Every pixel a candidate's cover can
come from lies at most band columns past it, so the shifts are tested only
on the rows with a candidate, from their first candidate column to band
columns past their last; a pixel in that span that is not a candidate
passes no test.  The test runs column-major, so that a column shift moves
whole rows of memory, with the same two comparisons on the same values.

Hole pixels are excluded from graph construction entirely; after filtering
they are patched by a 3x3 median over their available non-hole neighbors.
The fill is split in two: a plan that depends on the mask alone
(``fill_plan``: which holes have an available neighbor and which of their
neighbors are not available), which a caller filling several images on
one mask makes once, and the value step of ``median_fill`` (gather, mark,
stable row sort, count, pick).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError, FileFormatError
from .image import (HoleMask, ImageGray, _frozen, _Raster, check_same_shape,
                    read_pgm, write_pgm)

# H.265/HEVC luma interpolation taps (sum to 64 each, normalized by 1/64).
# Half-pel uses 8 taps on offsets -3..+4; quarter-pel kernels use 7 taps on
# offsets -3..+3 (phase 1/4) and -2..+4 (phase 3/4, the mirror).
HALF_TAPS = np.array([-1, 4, -11, 40, 40, -11, 4, -1], dtype=np.int64)
QUARTER_TAPS = np.array([-1, 4, -10, 58, 17, -5, 1], dtype=np.int64)
THREE_QUARTER_TAPS = QUARTER_TAPS[::-1].copy()

PHASES = (0.0, 0.25, 0.5, 0.75)
# each fractional phase: the offset of its first tap in the 8-sample
# window, and its taps as floats
_KERNELS = {phase: (first, tuple(map(float, taps))) for phase, first, taps in (
    (0.25, 0, QUARTER_TAPS), (0.5, 0, HALF_TAPS), (0.75, 1, THREE_QUARTER_TAPS))}

# Occlusion proxy: a pixel is covered when another pixel maps within this
# horizontal distance of its source position with disparity larger by more
# than the protrusion threshold.
OCCLUSION_RADIUS_PX = 0.75
OCCLUSION_DISPARITY_STEP_PX = 1.0


@dataclass(frozen=True)
class DepthMap(_Raster):
    """Per-pixel horizontal disparity, in pixels, for the target view."""

    values: np.ndarray
    _field = "values"
    _dtype = np.float64

    def __post_init__(self):
        super().__post_init__()
        if not np.all(np.isfinite(self.values)) or np.any(self.values < 0):
            raise ValueError("disparities must be finite and >= 0")


@dataclass(frozen=True)
class WarpParams:
    direction: str = "left_to_right"

    def __post_init__(self):
        if self.direction not in ("left_to_right", "right_to_left"):
            raise ValueError(f"unknown warp direction {self.direction!r}")


@dataclass(frozen=True)
class WarpResult:
    guide: ImageGray
    mask: HoleMask
    phase_counts: np.ndarray  # interpolations performed per quarter-pel phase

    def __post_init__(self):
        object.__setattr__(self, "phase_counts",
                           _frozen(np.asarray(self.phase_counts, np.int64)))


def interp_subpel(samples: np.ndarray, phase: float, starts=0) -> float | np.ndarray:
    """Interpolate at a quarter-pel phase from windows of 8 consecutive samples.

    ``samples`` is 1-D and a window is ``samples[start : start + 8]``; its
    sample 3 is the integer position, and callers replicate boundary
    pixels.  ``starts`` is one start, giving a float, or an integer array of
    them, giving an array of its shape, one value per start.  Phase 0
    returns the integer-position sample exactly.  No intermediate clipping.

    A fractional phase is one fixed-order tap sum: each tap's samples are
    gathered straight from ``samples``, then v = s_0 t_0, v += s_1 t_1, ...,
    v /= 64, each product and add correctly rounded, left to right.  No
    BLAS kernel takes part, so every value is bitwise equal to that
    window's own call and to the same sum in Python, on any host.
    """
    samples = np.asarray(samples, dtype=np.float64)
    at = np.asarray(starts)
    if at.dtype.kind not in "iu":
        raise ValueError("interp_subpel starts must be integers")
    if samples.ndim != 1 or at.size and (at.min() < 0 or at.max() > samples.size - 8):
        raise DimensionMismatchError("interp_subpel needs 8 samples from each start")
    shape, at = at.shape, at.reshape(-1)
    if phase == 0.0:
        out = samples[3:].take(at)
    elif phase in _KERNELS:
        first, taps = _KERNELS[phase]
        out = samples[first:].take(at)
        out *= taps[0]
        tap = np.empty_like(out)
        for k, t in enumerate(taps[1:], first + 1):
            # the starts are checked above, so clipping moves none of them
            np.take(samples[k:], at, out=tap, mode="clip")
            tap *= t
            out += tap
        out /= 64.0
    else:
        raise ValueError(f"phase must be one of {PHASES}, got {phase}")
    return out.reshape(shape) if shape else float(out[0])


def _quantize_quarter(u: np.ndarray) -> np.ndarray:
    """Nearest quarter-pel position in units of 1/4 pel (ties round up).
    Clipping u to [-1, w] (w = u.shape[-1]) keeps every result inside
    [0, 4(w - 1)] and every one outside it, and keeps the cast defined."""
    q = np.clip(u, -1.0, u.shape[-1])
    q *= 4.0
    q += 0.5
    return np.floor(q, out=np.empty(q.shape, np.int64), casting="unsafe")


def _mark_covered(hole: np.ndarray, up: np.ndarray, d: np.ndarray,
                  left_to_right: bool) -> None:
    """Add to hole every pixel that another pixel of its row covers: the
    z-ordering test on the unquantized positions up, one column shift at a
    time up to the band, the largest drop's ceiling.  It runs only where a
    cover can land: on the rows with a candidate (a pixel with a disparity
    more than 1 larger within the band on the cover side), from their first
    candidate column to band columns past their last (module docstring)."""
    # flip a left-to-right warp so that every cover comes from a later column
    flip = slice(None, None, -1 if left_to_right else 1)
    d, up, hole = d[:, flip], up[:, flip], hole[:, flip]
    # each row's largest drop, max_j d[j] - min(d[:j]) (0 if w = 1), in one buffer
    buf = np.minimum.accumulate(d, axis=1)
    drops = np.subtract(d[:, 1:], buf[:, :-1], out=buf[:, :-1]).max(axis=1, initial=0.0)
    rows = np.flatnonzero(drops > OCCLUSION_DISPARITY_STEP_PX)
    if not rows.size:
        return
    w = d.shape[1]
    band = min(w - 1, int(np.ceil(drops[rows].max())))
    # from here on column-major, so that a column shift moves whole rows of
    # memory: column c of the selected rows is dt[c]
    dt = d[rows].T.copy()
    # the candidates: top[c] = max(dt[c + 1 : c + 1 + band]), its window
    # doubled in place until it is band columns long
    top, reach = dt[1:].copy(), 1
    while reach < band:
        step = min(reach, band - reach)
        np.maximum(top[:-step], top[step:], out=top[:-step])
        reach += step
    top -= dt[:-1]
    candidate = top > OCCLUSION_DISPARITY_STEP_PX
    hit = candidate.any(axis=0)
    if not hit.any():
        return
    # the rows with a candidate, from their first candidate column to band
    # columns past their last
    cols = np.flatnonzero(candidate.any(axis=1))
    span = slice(cols[0], min(w, cols[-1] + 1 + band))
    rows, dt = rows[hit], dt[span][:, hit]
    ut, covered = up[rows, span].T.copy(), hole[rows, span].T.copy()
    for s in range(1, min(band, len(covered) - 1) + 1):
        near = ut[s:] - ut[:-s]
        near = np.abs(near, out=near) <= OCCLUSION_RADIUS_PX
        covered[:-s] |= near & (dt[s:] - dt[:-s] > OCCLUSION_DISPARITY_STEP_PX)
    hole[rows, span] = covered.T


def warp_guide(source: ImageGray, depth: DepthMap, params: WarpParams) -> WarpResult:
    """Backward-warp the source view to the depth map's perspective."""
    check_same_shape(source, depth, "source/depth")
    h, w = source.height, source.width
    d = depth.to_array()
    left_to_right = params.direction == "left_to_right"

    # window b of a row is its samples b-3 .. b+4, boundary pixels replicated:
    # the 8 flat samples of the padded source from row * (w + 7) + b on.
    # A fractional phase gathers only its own pixels' taps (none when no
    # pixel has it); phase 0 reads their centre samples.
    padded = np.empty((h, w + 7))
    padded[:, 3:-4] = source.to_array()
    padded[:, :3] = padded[:, 3:4]
    padded[:, -4:] = padded[:, -5:-4]
    padded = padded.reshape(-1)

    u = np.arange(w, dtype=np.float64)
    up = u + d if left_to_right else u - d
    q4 = _quantize_quarter(up)
    # q4 < 0 or q4 > 4(w - 1) in one test: a negative q4 is above 2**63 as unsigned
    hole = q4.view(np.uint64) > 4 * (w - 1)
    _mark_covered(hole, up, d, left_to_right)

    # the occlusion test was up's last reader: the guide takes its buffer,
    # 0 at the holes, and every other pixel is written by its phase below
    guide = up
    guide[hole] = 0.0
    phase_counts = np.zeros(4, dtype=np.int64)
    # each pixel's phase (-1 for a hole) and the flat start of its window
    label = np.bitwise_and(q4, 3, out=np.empty(q4.shape, np.int8))
    label[hole] = -1
    q4 >>= 2
    q4 += (w + 7) * np.arange(h)[:, None]
    for p, phase in enumerate(PHASES):
        sel = label == p
        starts = q4[sel]
        guide[sel] = interp_subpel(padded, phase, starts)
        phase_counts[p] = starts.size

    return WarpResult(
        guide=ImageGray._own(guide),
        mask=HoleMask._own(hole),
        phase_counts=phase_counts,
    )


# the 8 neighbours of a pixel, in the order their ties are broken
_STEPS = tuple((dy, dx) for dy in (-1, 0, 1) for dx in (-1, 0, 1) if dy or dx)


@dataclass(frozen=True, eq=False)
class FillPlan:
    """The part of ``median_fill`` that depends on the mask alone.

    For each hole with at least one available neighbor, in flat-index
    order: its flat index (``holes``) and which of its 8 neighbors are out
    of bounds or holes (``gone``, one row per hole, in ``_STEPS`` order),
    16 B per such hole.  The neighbors' flat indices are not kept;
    ``median_fill`` forms them on each call."""

    width: int
    height: int
    holes: np.ndarray
    gone: np.ndarray


def fill_plan(mask: HoleMask) -> FillPlan:
    """The fill plan of a hole mask (see ``FillPlan``)."""
    w = mask.width
    holes = np.flatnonzero(mask.flags)
    # the neighbors in the mask padded by one pixel of True: True outside
    # the image and on a hole
    padded = np.pad(mask.to_array(), 1, constant_values=True).ravel()
    centres = holes + 2 * (holes // w) + (w + 3)
    gone = padded[centres[:, None] + [dy * (w + 2) + dx for dy, dx in _STEPS]]
    some = ~gone.all(axis=1)
    return FillPlan(mask.width, mask.height, _frozen(holes[some]), _frozen(gone[some]))


def median_fill(img: ImageGray, mask: HoleMask, plan: FillPlan | None = None) -> ImageGray:
    """Replace each hole pixel by the median of its available neighbors.

    "Available" means in-bounds, non-hole pixels of the 3x3 neighborhood
    (center excluded) whose sample is not NaN.  Medians are taken from the
    input image, so the pass is order-free and idempotent; even-sized
    neighbor sets use the lower-middle order statistic, equal values
    (0.0 and -0.0) in neighbor order; a hole with no available neighbor
    keeps its input value.  Non-hole pixels are untouched.

    ``plan`` must be ``fill_plan`` of this same mask (only its size is
    checked); it is made here when not given, and a caller filling several
    images on one mask makes it once.  All its holes are done at
    once: their 8 neighbors are gathered by flat index, with NaN marking
    the unavailable ones, and each row is sorted stably, which puts the
    NaNs last; the pick's rank comes from the count of the rest.
    """
    check_same_shape(img, mask, "image/mask")
    if plan is None:
        plan = fill_plan(mask)
    check_same_shape(img, plan, "image/fill plan")
    w = img.width
    nbrs = img.samples.take(plan.holes[:, None] + [dy * w + dx for dy, dx in _STEPS],
                            mode="clip")
    np.putmask(nbrs, plan.gone, np.nan)
    nbrs.sort(axis=1, kind="stable")
    count = np.count_nonzero(~np.isnan(nbrs), axis=1)
    some = count > 0
    out = img.samples.copy()
    out[plan.holes[some]] = nbrs[some, (count[some] - 1) // 2]
    return ImageGray._own(out.reshape(img.height, img.width))


# ---------------------------------------------------------------------------
# 16-bit depth containers

def save_depth(path, depth: DepthMap, disparity_scale: float) -> None:
    """Store disparity / disparity_scale as 16-bit PGM."""
    raw = depth.to_array() / disparity_scale
    q = np.rint(raw)
    if np.any(q < 0) or np.any(q > 65535):
        raise FileFormatError("scaled disparity does not fit a 16-bit PGM")
    write_pgm(path, q.astype(np.int64), maxval=65535)


def load_depth(path, disparity_scale: float) -> DepthMap:
    """Read a 16-bit (or 8-bit) PGM and map stored integers to disparity."""
    arr, _maxval = read_pgm(path)
    # an overflowing product is left to DepthMap's finiteness check
    with np.errstate(over="ignore", invalid="ignore"):
        values = arr.astype(np.float64)
        values *= disparity_scale
    return DepthMap._own(values)
