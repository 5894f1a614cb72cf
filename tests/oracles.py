"""Slow pointwise references that the tests check the library against, and
the tests' random pole-gap chains.

``directional_avg`` samples one centered line average with its own bilinear
reads, the reference for the shift-add engine's fields; ``overlap_count``
and ``strip_contains`` count strip memberships at single frequency points,
the brute-force oracles of ``sectors.max_overlap``, and ``sweep_max_bisect``
is the one-activation-at-a-time sweep that ``sectors._sweep_max`` must match
bit for bit.  ``random_pole_gap_chain`` draws the interval chains fed to
``sectors.support_containment_check``.
``binary_decomposition_loop`` is the per-point bisection loop, the reference
for ``lacunary.binary_decomposition``'s level-by-level arrays; the reference
loops build ``StageGroup`` tuples, and ``stage_groups`` reads a
decomposition's group arrays back as them.
"""

from bisect import bisect_left, bisect_right, insort
from typing import NamedTuple, Optional

import numpy as np

from dirmax.errors import InvalidArgument
from dirmax.grid_ops import Grid2D, _base_segments, direction_vector
from dirmax.lacunary import (
    LacunaryDecomposition,
    RankInterval,
    _as_floats,
    _assemble,
    _GroupArrays,
)
from dirmax.sectors import (
    STRIP_HALF_WIDTH,
    Strip,
    _in_strip,
    _strip_arrays,
    validate_pole_gap_chain,
)


class StageGroup(NamedTuple):
    """One lacunary sequence inserted at a given stage (stage 1 = the seed set)."""

    stage: int
    pole: float
    points: tuple[float, ...]  # ordered by decreasing distance to the pole


def stage_groups(d: LacunaryDecomposition) -> list[StageGroup]:
    """The decomposition's stage groups, in the builder's order, as Python numbers."""
    g = d.stage_groups
    pts, ends = g.points.tolist(), g.offsets.tolist()
    cols = zip(g.stage.tolist(), g.pole.tolist(), ends, ends[1:])
    return [StageGroup(k, p, tuple(pts[a:b])) for k, p, a, b in cols]


def _bilinear_sample(grid: Grid2D, x1: np.ndarray, x2: np.ndarray) -> np.ndarray:
    """Sample the grid at physical points with bilinear weights, zero outside."""
    v = grid.values
    h, w = v.shape
    cx = (np.asarray(x1) - grid.origin[0]) / grid.spacing
    cy = (np.asarray(x2) - grid.origin[1]) / grid.spacing
    j0 = np.floor(cx).astype(int)
    i0 = np.floor(cy).astype(int)
    fx, fy = cx - j0, cy - i0
    out = np.zeros(np.broadcast(cx, cy).shape)
    for di, dj, ww in ((0, 0, (1 - fx) * (1 - fy)), (0, 1, fx * (1 - fy)),
                       (1, 0, (1 - fx) * fy), (1, 1, fx * fy)):
        ii, jj = i0 + di, j0 + dj
        ok = (ii >= 0) & (ii < h) & (jj >= 0) & (jj < w)
        out += np.where(ok, v[np.clip(ii, 0, h - 1), np.clip(jj, 0, w - 1)] * ww, 0.0)
    return out


def directional_avg(
    f: Grid2D,
    s: float,
    delta: float,
    x: tuple[float, float],
    samples_per_unit: Optional[int] = None,
) -> float:
    """Centered average of |f| along e_s with half-length delta at the point x.

    Composite trapezoid rule with bilinear interpolation and zero extension;
    the default sampling density is one node per grid step.
    """
    if not (delta > 0):
        raise InvalidArgument("delta must be positive")
    spu = max(1, round(1.0 / f.spacing)) if samples_per_unit is None else samples_per_unit
    if spu < 1:
        raise InvalidArgument("samples_per_unit must be >= 1")
    e = direction_vector(s)
    n_seg = _base_segments(delta, spu)
    ts = np.linspace(-delta, delta, n_seg + 1)
    w = np.full(n_seg + 1, 1.0 / n_seg)
    w[0] = w[-1] = 0.5 / n_seg
    vals = _bilinear_sample(f.abs(), x[0] + ts * e[0], x[1] + ts * e[1])
    return float(np.dot(w, vals))


def strip_contains(strip: Strip, p: tuple[float, float]) -> bool:
    """Membership in the strip; the x1 bound is strict, the slab bound closed."""
    return bool(_in_strip(p[0], p[1], strip.min_x1, strip.center, strip.half_width))


def overlap_count(
    decomp: LacunaryDecomposition,
    p: tuple[float, float],
    require_poles: bool = True,
) -> tuple[int, int]:
    """(n_low, n_top) strip membership counts at one frequency point.

    n_low counts the pole strips S_{p_J}(J) over rank <= mu-1 intervals;
    n_top counts the endpoint strips S_a(J), S_b(J) over top-rank intervals
    with multiplicity.
    """
    x1, x2 = float(p[0]), float(p[1])
    if not x1 > 0:
        raise InvalidArgument("overlap is defined on the half plane x1 > 0")
    tau_l, cen_l, tau_t, cen_t = _strip_arrays(decomp, require_poles)
    n_low = int(np.sum(_in_strip(x1, x2, tau_l, cen_l)))
    return n_low, int(np.sum(_in_strip(x1, x2, tau_t, cen_t)))


def sweep_max_bisect(tau: np.ndarray, centers: np.ndarray) -> tuple[int, tuple[float, float]]:
    """Exact strip-overlap maximum with its witness, one activation at a time.

    Activations in stable order of tau; each inserts its center into a sorted
    list, skips when the active centers in [c - w, c + w] (w = 10/x1) do not
    beat the running best, and otherwise tries every window [s, s + w] that
    starts at an active center in [c - w, c] and reaches c, keeping the first
    strictly larger count.  See ``sectors._sweep_max`` for why this is exact.
    """
    if len(tau) == 0:
        return 0, (1.0, 0.0)
    order = np.argsort(tau, kind="stable")
    tau, centers = tau[order].tolist(), centers[order].tolist()
    best, arg = 0, (tau[0] * 2.0, centers[0] * 2.0 * tau[0])
    active: list[float] = []
    for t, c in zip(tau, centers):
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


def random_pole_gap_chain(
    rng: np.random.Generator, n: int, domain: tuple[float, float] = (0.0, 1.0)
) -> list[RankInterval]:
    """Random nested interval chain satisfying the pole-gap condition.

    Each step places the next interval on a random side of the current pole
    with dist(p_k, J_{k+1}) uniform in [|J_{k+1}|/2, |J_{k+1}|].  The last
    interval carries no pole (the containment check substitutes theta there).
    """
    if n < 1:
        raise InvalidArgument("chain length must be >= 1")
    lo, hi = domain
    out: list[RankInterval] = []
    for k in range(1, n + 1):
        if k == 1:
            w = (hi - lo) * rng.uniform(0.5, 0.9)
            jlo = lo + (hi - lo - w) * rng.random()
            jhi = jlo + w
        else:
            prev = out[-1]
            p = prev.pole
            room_r, room_l = prev.hi - p, p - prev.lo
            go_right = room_r >= room_l
            if rng.random() < 0.35:
                go_right = not go_right
            room = room_r if go_right else room_l
            w = room * rng.uniform(0.15, 0.4)
            d = w * rng.uniform(0.5, 1.0)  # d + w <= 0.8 room, so J stays inside
            if go_right:
                jlo, jhi = p + d, p + d + w
            else:
                jlo, jhi = p - d - w, p - d
        pole = None
        if k < n:
            pole = jlo + (jhi - jlo) * rng.uniform(0.25, 0.75)
        out.append(RankInterval(jlo, jhi, k, pole))
    validate_pole_gap_chain(out)
    return out


def binary_decomposition_loop(points) -> LacunaryDecomposition:
    """Repeated median bisection, one point and one stage group at a time.

    Stage 1 holds the extremes (the lower one as a group about a pole at the
    upper one); each later stage places the lower median of every range of
    interior indices still pending, left range before right range.
    """
    pts = sorted(set(_as_floats(points)))
    if not pts:
        raise InvalidArgument("points must be nonempty")
    if len(pts) == 1:
        dom = (pts[0] - 0.5, pts[0] + 0.5)
        g = StageGroup(1, pts[0], (pts[0],))
        return _assemble([tuple(pts)], 0.5, dom, _GroupArrays.of([g]))
    domain = (pts[0], pts[-1])
    joined = np.ones(len(pts), dtype=np.int64)  # the stage each point joins at
    groups = [StageGroup(1, pts[-1], (pts[0],))]
    # Work list of index ranges (i, j) meaning interior indices i..j of pts
    # still to be placed inside the gap (pts[i-1], pts[j+1]).
    pending = [(1, len(pts) - 2)] if len(pts) > 2 else []
    stage = 1
    while pending:
        stage += 1
        nxt = []
        for i, j in pending:
            mid = (i + j) // 2  # lower median
            joined[mid] = stage
            groups.append(StageGroup(stage, pts[mid], (pts[mid],)))
            if mid - 1 >= i:
                nxt.append((i, mid - 1))
            if j >= mid + 1:
                nxt.append((mid + 1, j))
        pending = nxt
    arr = np.array(pts)
    chain = [tuple(arr[joined <= k].tolist()) for k in range(1, stage + 1)]
    return _assemble(chain, 0.5, domain, _GroupArrays.of(groups))
