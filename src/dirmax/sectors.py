"""Frequency-plane geometry: sectors, restricted strips, multipliers, overlap.

For an interval J = (a, b) of slopes, the restricted strip with center
c in (a, b) is

    S_c(J) = { (x1, x2) : x1 > 1/(b - a),  |x2 - c x1| <= 5 },

a slab of half-width 5 around the slope-c ray, activated only beyond the
frequency 1/|J|.  Every membership test here calls one rule, ``_in_strip``
(strict x1 bound, closed slab bound), on strips read off a decomposition's
interval arrays by masks.  For a complete lacunary decomposition the strips
attached to the poled rank intervals overlap at most
``MAX_POLE_STRIP_OVERLAP`` (40) times at any point.  The endpoint strips of
the top-rank intervals stay within ``MAX_TOP_OVERLAP`` (12) on depth-1
decompositions (two points on each side of every pole), but not beyond:
``random_complete_decomposition`` at depth >= 2 reaches 16, because a point
shared by two top-rank intervals counts once for each (seed 28, mu 4,
depth 3).  Which count the constant bounds, and for which complete sets, is
still open; neither the constant nor the count has been changed to fit.
``max_overlap`` computes the exact maxima by an activation sweep (see
``_sweep_max`` for the exactness argument).

``sector_multiplier`` applies the sharp frequency cutoff 1_S to a sampled
function: an orthogonal projection on the discrete Fourier lattice, hence
exactly idempotent and self-adjoint, with Parseval intact.

``support_containment_check`` verifies the geometric heart of the smoothed
operator decomposition: the spectral band of one dyadic piece of the kernel,

    { r_k <= xi1 <= 2 r_{k+1}, |xi2 - theta xi1| < 1 },     r_k = 1/|J_k|,

lies inside the strip S_{p_k}(J_k) whenever the interval chain satisfies the
pole-gap condition |J_{k+1}|/2 <= dist(p_k, J_{k+1}) <= |J_{k+1}|.  The band
is written on the x2 ~ +theta x1 side; the convolution kernel's transform
lives on the mirrored side, so equivalently this checks the reflected band.
The sign convention is fixed globally here and in the containment report.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right, insort
from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

from .errors import InvalidArgument, PreconditionViolation
from .grid_ops import Grid2D, OperatorConfig, gamma_op, m1, strong_maximal
from .lacunary import DirectionSet, LacunaryDecomposition, RankInterval

__all__ = [
    "Strip",
    "Sector",
    "FrequencyBand",
    "max_overlap",
    "max_overlap_with_argmax",
    "sector_multiplier",
    "support_containment_check",
    "ContainmentReport",
    "validate_pole_gap_chain",
    "domination_ratio",
    "strip_decomposition_report",
    "strip_multiplier_energy",
    "MAX_POLE_STRIP_OVERLAP",
    "MAX_TOP_OVERLAP",
    "STRIP_HALF_WIDTH",
]

STRIP_HALF_WIDTH = 5.0
MAX_POLE_STRIP_OVERLAP = 40
MAX_TOP_OVERLAP = 12


@dataclass(frozen=True)
class Strip:
    """Restricted strip S_c(J): x1 > 1/(hi-lo), |x2 - c x1| <= half_width."""

    slope_lo: float
    slope_hi: float
    center: float
    half_width: float = STRIP_HALF_WIDTH

    def __post_init__(self):
        if not (self.slope_lo < self.center < self.slope_hi):
            raise InvalidArgument(
                f"center {self.center} outside ({self.slope_lo}, {self.slope_hi})"
            )

    @property
    def min_x1(self) -> float:
        return 1.0 / (self.slope_hi - self.slope_lo)


@dataclass(frozen=True)
class Sector:
    """Sector of slopes a <= x2/x1 <= b in the right half plane x1 > 0."""

    slope_lo: float
    slope_hi: float

    def __post_init__(self):
        if not (self.slope_lo < self.slope_hi):
            raise InvalidArgument("sector needs slope_lo < slope_hi")


@dataclass(frozen=True)
class FrequencyBand:
    """Spectral band xi1 in [xi1_lo, xi1_hi], |xi2 - theta xi1| < bump_halfwidth."""

    xi1_lo: float
    xi1_hi: float
    theta: float
    bump_halfwidth: float = 1.0

    def __post_init__(self):
        if not (0.0 <= self.xi1_lo < self.xi1_hi):
            raise InvalidArgument("band needs 0 <= xi1_lo < xi1_hi")

    def corners(self) -> list[tuple[float, float]]:
        out = []
        for x1 in (self.xi1_lo, self.xi1_hi):
            for sgn in (-1.0, 1.0):
                out.append((x1, self.theta * x1 + sgn * self.bump_halfwidth))
        return out


# ---------------------------------------------------------------------------
# overlap counting
# ---------------------------------------------------------------------------


def _strip_arrays(decomp: LacunaryDecomposition, require_poles: bool):
    """(tau, center) arrays for the poled strips and (tau, a, b) for top rank.

    Masks over the interval arrays, keeping their order (``_sweep_max``
    breaks witness ties by it).  tau = 1/|J| is the activation threshold of
    a strip.  Rank <= mu-1 intervals without a pole contribute no strip;
    with ``require_poles`` they raise instead (a complete decomposition
    always has them).

    Top-rank intervals that contain a pole are excluded: such a gap only
    exists because each lacunary sequence is truncated at finite depth, and
    stands in for its untruncated continuation (an accumulating cascade of
    ever finer gaps, none of which contains the pole).  Every other adjacent
    interval of the truncated set is an adjacent interval of the untruncated
    completion as well, so the endpoint-strip count tested here is the
    faithful finite realization.
    """
    mu = decomp.order
    lo, hi, rank, pole = decomp.lo, decomp.hi, decomp.rank, decomp.pole
    tau = 1.0 / (hi - lo)
    low = rank <= mu - 1
    poleless = low & np.isnan(pole)
    if require_poles and poleless.any():
        j = int(np.argmax(poleless))
        raise InvalidArgument(
            f"rank-{rank[j]} interval ({lo[j]}, {hi[j]}) has no pole; "
            "overlap needs a complete decomposition "
            "(to skip such intervals, pass require_poles=False, or --skip-poleless to "
            "dirmax overlap)"
        )
    low &= ~poleless
    poles = np.sort(np.asarray(decomp.poles, dtype=float))
    # truncation stand-ins (see above): a pole strictly inside the interval
    top = (rank == mu) & (
        np.searchsorted(poles, hi, side="left") <= np.searchsorted(poles, lo, side="right")
    )
    return tau[low], pole[low], tau[top].repeat(2), np.stack((lo[top], hi[top]), 1).ravel()


def _in_strip(x1, x2, tau, center, half_width=STRIP_HALF_WIDTH):
    """Strip membership, broadcasting: x1 > tau strict, |x2 - center x1| <= half_width."""
    return (x1 > tau) & (np.abs(x2 - center * x1) <= half_width)


# Strip counts from which ``_block_sweep`` is faster than ``_insort_sweep``
# (they level at 300-400 strips on random complete decompositions), and the
# most window entries ``_block_sweep`` expands at once, which keeps its scratch
# arrays O(n) however crowded the windows are.
_BLOCK_SWEEP_MIN = 400
_WINDOW_CHUNK = 1 << 16


def _sweep_max(tau: np.ndarray, centers: np.ndarray) -> tuple[int, tuple[float, float]]:
    """Exact maximum of sum_J 1_{S}(x) over the half plane, with an argmax.

    In slope coordinates sigma = x2/x1 a strip is active once x1 exceeds its
    threshold tau and then covers |sigma - center| <= 5/x1: a ball around its
    center whose radius shrinks as x1 grows.  Between consecutive activation
    thresholds the active set is fixed and every ball only shrinks, so the
    count at any fixed sigma is non-increasing there; maxima therefore occur
    immediately after activations, and only windows containing the newly
    activated center can set a record.  Sweeping activations in order and
    scanning the window of width w = 10/x1 around each new center is exact up
    to the measure-zero configurations where a maximum is achieved only in the
    limit x1 -> tau+ (the strict x1 bound excludes the threshold itself);
    evaluation uses x1 = tau * (1 + 1e-12).

    The scan at center c tries every window [s, s + w] whose left edge s is an
    active center in [c - w, c] with s + w >= c, and keeps the first strictly
    larger count: first activation, then first start.  Every such window lies
    inside [c - w, c + w] with the bounds rounded as computed, because
    rounding is monotone: s >= fl(c - w), and s <= c gives fl(s + w) <=
    fl(c + w).  So the active centers in [c - w, c + w] bound every count the
    scan can find, and an activation whose bound does not beat the running
    best cannot set a record and is skipped.  Any larger bound skips no more
    than the exact one does.

    Two implementations give the same count and witness bits, chosen by the
    number of strips: ``_insort_sweep`` for small sets and ``_block_sweep``
    for large ones.
    """
    if len(tau) == 0:
        return 0, (1.0, 0.0)
    order = np.argsort(tau, kind="stable")
    sweep = _insort_sweep if len(tau) < _BLOCK_SWEEP_MIN else _block_sweep
    return sweep(tau[order], centers[order])


def _insort_sweep(tau, centers):
    """``_sweep_max`` over strips sorted by tau, one activation at a time on a
    sorted list of the active centers, bounding each window by its exact
    active count.  Plain floats and bisect: one numpy call per activation
    costs more than the search itself, and the comparisons are the same IEEE
    ones."""
    best, arg = 0, (1.0, 0.0)
    active: list[float] = []
    for t, c in zip(tau.tolist(), centers.tolist()):
        insort(active, c)
        x1 = t * (1.0 + 1e-12)
        width = 2.0 * STRIP_HALF_WIDTH / x1
        lo = bisect_left(active, c - width)
        if bisect_right(active, c + width) - lo <= best:
            continue
        for start in active[lo : bisect_right(active, c)]:
            end = start + width
            if end < c:
                continue
            cnt = bisect_right(active, end) - bisect_left(active, start)
            if cnt > best:
                best = cnt
                arg = (x1, (start + 0.5 * width) * x1)
    return best, arg


def _block_sweep(tau, centers):
    """``_sweep_max`` over strips sorted by tau, on arrays, a block of
    activations at a time.

    Each window [c - w, c + w] is ranked once against the sorted centers.
    Within a block, one prefix count over sorted positions gives every
    window's count of the members activated by the block's end, a bound on
    its active count.  Only windows whose bound beats the running best are
    expanded, with their members laid end to end, and scanned together: the
    first start of the first window with the largest count is the loop's
    record.  Strips come sorted by tau, and x1 and w are computed with the
    loop's IEEE operations.
    """
    n = len(tau)
    x1 = tau * (1.0 + 1e-12)
    width = 2.0 * STRIP_HALF_WIDTH / x1
    rank = np.argsort(centers)  # sorted position -> activation; ties may fall either way
    sc = centers[rank]
    # window [c - w, c + w] = sorted positions [first, stop)
    first = np.searchsorted(sc, centers - width, "left")
    stop = np.searchsorted(sc, centers + width, "right")
    at = np.empty(n, dtype=np.intp)  # activation -> sorted position
    at[rank] = np.arange(n)
    seen = np.zeros(n + 1, dtype=np.intp)  # seen[p + 1] = 1: position p activated
    block = max(64, int(4.0 * math.sqrt(n)))  # each block costs O(n); longer ones bound looser
    best, arg = 0, (1.0, 0.0)
    for s in range(0, n, block):
        seen[at[s : s + block] + 1] = 1
        below = np.cumsum(seen)  # below[p]: activated positions < p
        lo, hi = below[first[s : s + block]], below[stop[s : s + block]]
        todo = np.flatnonzero(hi - lo > best)
        if not len(todo):
            continue
        activated = np.flatnonzero(seen[1:])
        while len(todo):
            lens = (hi - lo)[todo]
            take = max(1, int(np.searchsorted(np.cumsum(lens), _WINDOW_CHUNK, "right")))
            k, todo, lens = todo[:take], todo[take:], lens[:take]
            offs = np.cumsum(lens) - lens
            # the members activated by the block's end, window after window:
            # sorted position g, and the activation i whose window holds it
            own = np.repeat(np.arange(take), lens)
            g = activated[np.arange(offs[-1] + lens[-1]) + (lo[k] - offs)[own]]
            i = s + k[own]
            live = rank[g] <= i
            nlive = np.zeros(len(g) + 1, dtype=np.intp)
            np.cumsum(live, out=nlive[1:])
            val, c = sc[g], centers[i]
            end = val + width[i]
            st = np.flatnonzero(live & (val <= c) & (end >= c))
            # live members in [val, end], counted from the start's own entry:
            # a later duplicate of a live value undercounts, but never beats
            # the first, which comes first and counts exactly
            last = (offs - lo[k])[own[st]] + below[np.searchsorted(sc, end[st], "right")]
            cnt = nlive[last] - nlive[st]
            j = int(np.argmax(cnt))
            if cnt[j] > best:
                x, w = float(x1[i[st[j]]]), float(width[i[st[j]]])
                best, arg = int(cnt[j]), (x, (float(val[st[j]]) + 0.5 * w) * x)
                todo = todo[(hi - lo)[todo] > best]
    return best, arg


def max_overlap(
    decomp: LacunaryDecomposition, require_poles: bool = True
) -> tuple[int, int]:
    """Exact maxima of the two overlap counts over all frequency points."""
    n_low, n_top, _, _ = max_overlap_with_argmax(decomp, require_poles)
    return n_low, n_top


def max_overlap_with_argmax(
    decomp: LacunaryDecomposition, require_poles: bool = True
):
    """As ``max_overlap`` but also reporting witness points."""
    tau_l, cen_l, tau_t, cen_t = _strip_arrays(decomp, require_poles)
    n_low, arg_low = _sweep_max(tau_l, cen_l)
    n_top, arg_top = _sweep_max(tau_t, cen_t)
    return n_low, n_top, arg_low, arg_top


# ---------------------------------------------------------------------------
# sharp frequency cutoffs
# ---------------------------------------------------------------------------


def _region_mask(region: Union[Strip, Sector], xi1: np.ndarray, xi2: np.ndarray):
    if isinstance(region, Strip):
        return _in_strip(xi1, xi2, region.min_x1, region.center, region.half_width)
    if isinstance(region, Sector):
        with np.errstate(divide="ignore", invalid="ignore"):
            slope = np.where(xi1 != 0.0, xi2 / np.where(xi1 != 0, xi1, 1.0), np.inf)
        return (xi1 > 0) & (slope >= region.slope_lo) & (slope <= region.slope_hi)
    raise InvalidArgument(f"unsupported region {type(region).__name__}")


def _reflected_strip_mask(strip: Strip, xi1: np.ndarray, xi2: np.ndarray):
    """Strip membership in the rotated frequency frame (u, v) = (xi2, -xi1).

    The directional smoothing kernel V_r(x2 - a x1) phi_h(x1) has transform
    vhat_r(xi2) phihat_h(xi1 + a xi2), concentrated near the rotated ray
    v = a u; rotating the frame maps that support onto the standard strip
    picture, so strip multipliers meant to capture kernel pieces are
    evaluated here.  The rotation is the package-wide sign convention for
    relating kernel spectra to strips.
    """
    u, v = xi2, -xi1
    return _region_mask(strip, u, v) | _region_mask(strip, -u, -v)


def frequency_lattice(f: Grid2D) -> tuple[np.ndarray, np.ndarray]:
    """Angular frequency coordinates of the grid's DFT bins (xi1 cols, xi2 rows)."""
    xi1 = 2.0 * math.pi * np.fft.fftfreq(f.width, d=f.spacing)
    xi2 = 2.0 * math.pi * np.fft.fftfreq(f.height, d=f.spacing)
    return xi1, xi2


def sector_multiplier(f: Grid2D, region: Union[Strip, Sector]) -> Grid2D:
    """Sharp frequency restriction: inverse transform of 1_region * fhat.

    Computed on the grid's own Fourier lattice, so the operator is an
    orthogonal projection there: exactly idempotent, self-adjoint, and
    Parseval-compatible.  The output is complex for regions that are not
    symmetric under xi -> -xi (restricted strips are not).
    """
    xi1, xi2 = frequency_lattice(f)
    mask = _region_mask(region, xi1[None, :], xi2[:, None])
    fhat = np.fft.fft2(f.values)
    out = np.fft.ifft2(fhat * mask)
    return f.with_values(out)


def strip_multiplier_energy(
    decomp: LacunaryDecomposition, f: Grid2D, require_poles: bool = True
) -> tuple[float, float, int]:
    """(sum_J ||T_{S_{p_J}(J)} f||_2^2, ||f||_2^2, lattice overlap max).

    By Parseval each term is the spectral energy inside one strip, so the sum
    equals the integral of |fhat|^2 against the strip overlap count; the
    count never exceeds MAX_POLE_STRIP_OVERLAP, which bounds the ratio.
    """
    tau_l, cen_l, _, _ = _strip_arrays(decomp, require_poles)
    xi1, xi2 = frequency_lattice(f)
    fhat = np.fft.fft2(f.values)
    power = np.abs(fhat) ** 2
    count = np.zeros_like(power, dtype=np.int64)
    for t, c in zip(tau_l, cen_l):
        count += _in_strip(xi1[None, :], xi2[:, None], t, c)
    total = float(np.sum(power * count))
    denom = float(np.sum(power))
    scale = f.spacing**2 / (f.width * f.height)
    return total * scale, denom * scale, int(count.max(initial=0))


# ---------------------------------------------------------------------------
# pole-gap chains and band containment
# ---------------------------------------------------------------------------


def validate_pole_gap_chain(chain: Sequence[RankInterval]) -> None:
    """Check nesting and |J_{k+1}|/2 <= dist(p_k, J_{k+1}) <= |J_{k+1}|.

    Every interval except possibly the last must carry a pole.  Raises
    PreconditionViolation naming the first offending index (1-based).
    """
    for k in range(len(chain) - 1):
        j, jn = chain[k], chain[k + 1]
        if not (j.lo <= jn.lo and jn.hi <= j.hi):
            raise PreconditionViolation(f"chain not nested at k={k + 1}")
        if j.pole is None:
            raise PreconditionViolation(f"interval k={k + 1} lacks a pole")
        dist = max(jn.lo - j.pole, j.pole - jn.hi, 0.0)
        w = jn.width
        if not (0.5 * w <= dist <= w):
            raise PreconditionViolation(
                f"pole-gap condition fails at k={k + 1}: "
                f"dist={dist:.6g} not in [{0.5 * w:.6g}, {w:.6g}]"
            )


@dataclass(frozen=True)
class BandCheck:
    k: int
    band: FrequencyBand
    strip: Strip
    corner_margin: float  # min over corners of half_width - |xi2 - c xi1|
    contained: bool


@dataclass(frozen=True)
class ContainmentReport:
    m: int
    checks: tuple[BandCheck, ...]

    @property
    def all_contained(self) -> bool:
        return all(c.contained for c in self.checks)


def _chain_strips(chain: Sequence[RankInterval], theta: float) -> list[Strip]:
    """The strips S_{p_k}(J_k), k < n, then S_theta(J_n) of a pole-gap chain
    (``validate_pole_gap_chain``) whose closed last interval holds theta.  On
    its boundary, theta gives way to the nearest float strictly inside: the
    slab test is what matters."""
    if not chain:
        raise InvalidArgument("chain must be nonempty")
    validate_pole_gap_chain(chain)
    last = chain[-1]
    if not (last.lo <= theta <= last.hi):
        raise InvalidArgument("theta must lie in the last interval")
    center = min(max(theta, math.nextafter(last.lo, last.hi)), math.nextafter(last.hi, last.lo))
    return [Strip(j.lo, j.hi, j.pole) for j in chain[:-1]] + [Strip(last.lo, last.hi, center)]


def support_containment_check(
    chain: Sequence[RankInterval],
    theta: float,
    R: float,
) -> ContainmentReport:
    """Check that each dyadic kernel band lands inside its strip.

    With r_k = 1/|J_k| and m = max{k : 2 r_k < R}, the k-th band is
    [r_k, 2 r_{k+1}] x {|xi2 - theta xi1| < 1} (the last band, k = n, runs to
    2R and is checked against the strip centered at theta itself).  The slab
    margin 5 - |xi2 - c xi1| is concave and the band is convex, so its minimum
    over the band is attained at a corner: the four corners decide
    containment, and ``corner_margin`` is the band's exact slab margin.
    The x1 edge xi1 = r_k coincides with the strip activation threshold; the
    check accepts the closure there and reports margins for the slab bound.
    """
    if not (R > 0 and math.isfinite(R)):
        raise InvalidArgument(f"R must be a positive real, got {R}")
    strips = _chain_strips(chain, theta)
    n = len(chain)
    r = [1.0 / j.width for j in chain]
    m = 0
    for k in range(1, n + 1):
        if 2.0 * r[k - 1] < R:
            m = k
    checks = []
    for k in range(1, m + 1):
        band = FrequencyBand(r[k - 1], 2.0 * (r[k] if k < n else R), theta)
        strip = strips[k - 1]
        margin = min(
            strip.half_width - abs(x2 - strip.center * x1)
            for x1, x2 in band.corners()
        )
        x1_ok = band.xi1_lo >= strip.min_x1 - 1e-12 * max(1.0, strip.min_x1)
        checks.append(BandCheck(k, band, strip, float(margin), bool(margin >= 0 and x1_ok)))
    return ContainmentReport(m, tuple(checks))


# ---------------------------------------------------------------------------
# empirical domination checks
# ---------------------------------------------------------------------------


def iterated_maximal(f: Grid2D, slope: float, cfg: OperatorConfig) -> Grid2D:
    """M_slope M_vertical f: vertical maximal first, then along (1, slope)."""
    inner = m1(f, DirectionSet((0.25,)), cfg)
    return m1(inner, DirectionSet.from_slopes((slope,)), cfg)


def domination_ratio(
    f: Grid2D,
    alpha: float,
    beta: float,
    r: float,
    h: float,
    cfg: OperatorConfig,
    interior_margin: float = 0.0,
) -> float:
    """Empirical constant in |Gamma_{alpha,r,h} f| <= C (h r |a-b| + 1) M_b M_perp f.

    Returns the max over pixels of the left side divided by the normalized
    right side; 0/0 counts as 0, and a zero denominator against a nonzero
    numerator reports +inf (a discretization artifact worth seeing).

    ``interior_margin`` restricts the sup to pixels at least that far from
    every grid edge.  Near corners the zero-extended composition loses the
    inner maximal field's off-grid values (the continuum line through such a
    pixel sees the support from outside the sampled window), deflating the
    denominator by orders of magnitude; a margin comparable to the top
    radius keeps the comparison where the discretization is faithful.
    """
    if not (0.0 < alpha < 1.0 and 0.0 < beta < 1.0):
        raise InvalidArgument("alpha and beta must lie in (0, 1)")
    fa = f.abs()
    num = np.abs(gamma_op(fa, alpha, r, h).values)
    den = (h * r * abs(alpha - beta) + 1.0) * iterated_maximal(fa, beta, cfg).values
    if interior_margin > 0.0:
        keep = f.interior_mask(interior_margin)
        num = num[keep]
        den = den[keep]
    pos = den > 0
    if np.any(~pos & (num > 1e-12 * max(1.0, float(num.max())))):
        return math.inf
    ratio = np.zeros_like(num)
    np.divide(num, den, out=ratio, where=pos)
    return float(ratio.max())


@dataclass(frozen=True)
class DominationReport:
    max_ratio: float
    argmax: tuple[int, int]
    lhs: Grid2D
    rhs: Grid2D


def strip_decomposition_report(
    f: Grid2D,
    chain: Sequence[RankInterval],
    theta: float,
    R: float,
    cfg: OperatorConfig,
    h: float = 0.25,
) -> DominationReport:
    """Pointwise ratio of the smoothed operator to its strip-multiplier bound.

    Left side: |Gamma_{theta,R} f|.  Right side: the strong maximal field
    plus iterated maximal fields of the strip multipliers, one for the
    theta-centered strip of the innermost interval and one per chain pole.
    The bound hides an absolute constant, so the ratio is reported, not
    asserted against a fixed number.  ``h`` rescales the bump; the operator
    family is scaling invariant in h, and moderate h keeps the sampled
    kernel's mass inside the grid.  The left side skips ``gamma_op``'s
    truncation guard: the report is a diagnostic, not a certified bound.
    """
    strips = _chain_strips(chain, theta)
    fa = f.abs()
    lhs = np.abs(gamma_op(fa, theta, R, h, check_truncation=False).values)
    rhs = strong_maximal(fa, cfg).values.copy()
    # the theta strip first, then the pole strips in chain order
    pieces = [(strips[-1], theta)] + [(s, s.center) for s in strips[:-1]]
    xi1, xi2 = frequency_lattice(f)
    fhat = np.fft.fft2(fa.values)
    for strip, slope in pieces:
        # kernel spectra live in the rotated frame; mask the matching region
        mask = _reflected_strip_mask(strip, xi1[None, :], xi2[:, None])
        tf = f.with_values(np.fft.ifft2(fhat * mask))
        rhs += iterated_maximal(tf.abs(), slope, cfg).values
    pos = rhs > 0
    ratio = np.zeros_like(lhs)
    np.divide(lhs, rhs, out=ratio, where=pos)
    idx = int(np.argmax(ratio))
    return DominationReport(
        float(ratio.max()),
        (idx // f.width, idx % f.width),
        f.with_values(lhs),
        f.with_values(rhs),
    )
