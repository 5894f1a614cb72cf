"""Lacunary direction sets and their stage-wise decompositions.

A finite sequence ``v_1, v_2, ...`` is lacunary about a pole ``p`` with gap
``lam`` in (0, 1) when the distances to the pole decay geometrically:

    |v_{i+1} - p| < lam * |v_i - p|   for every consecutive pair (strict).

A set is mu-lacunary when it can be grown in ``mu`` stages, each stage
inserting one lacunary sequence into each gap (adjacent interval) of the
previous stage.  The adjacent intervals of the stage-k set are the rank-k
intervals of the decomposition; an interval of rank <= mu-1 is tagged with
the first pole that appeared inside it.

Complete lacunary sequences are the normalized form used by the frequency
strip overlap bound: consecutive distance ratios pinned to [1/4, 1/2) and
the first element reaching at least half-way to the containing interval's
end.  ``complete_decomposition`` embeds any decomposition with gap <= 1/2
into a complete one of the same order (gap > 1/2 costs a bounded factor in
the order, via interleaved reindexing).

All objects are immutable after construction and every operation is a pure
function, so everything here is safe for concurrent use.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Callable, Iterable, Optional, Sequence

import numpy as np

from .errors import InvalidArgument, PreconditionViolation, ValidationFailure

__all__ = [
    "DirectionSet",
    "LacunarySequence",
    "RankInterval",
    "LacunaryDecomposition",
    "CompleteLacunarySpec",
    "check_lacunary",
    "infer_pole",
    "adjacent_intervals",
    "build_decomposition",
    "binary_decomposition",
    "complete_one_sided",
    "complete_decomposition",
    "perpendicular",
    "random_complete_decomposition",
    "staged_complete_decomposition",
]

# Ratio window of a complete lacunary sequence: ratios in [RATIO_LO, RATIO_HI).
RATIO_LO = 0.25
RATIO_HI = 0.5


def _as_floats(points: Iterable[float]) -> tuple[float, ...]:
    vals = tuple(float(p) for p in points)
    if any(not math.isfinite(v) for v in vals):
        raise InvalidArgument("points must be finite")
    return vals


# ---------------------------------------------------------------------------
# direction sets
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DirectionSet:
    """A finite set of directions, each a number in (conventionally) [0, 1].

    The same container is used for both parametrizations of a direction in
    the plane: the angle fraction s (unit vector (cos 2*pi*s, sin 2*pi*s))
    and the slope a (vector (1, a)).  Grid operators interpret values as
    angle fractions; the frequency-plane geometry works with slopes.
    """

    values: tuple[float, ...]

    def __post_init__(self):
        vals = tuple(sorted(set(_as_floats(self.values))))
        object.__setattr__(self, "values", vals)

    def __len__(self) -> int:
        return len(self.values)

    def __iter__(self):
        return iter(self.values)

    def canonical_lines(self) -> tuple[float, ...]:
        """Angle fractions reduced mod 1/2: equal results mean equal lines."""
        return tuple(sorted({round(v % 0.5, 15) for v in self.values}))

    @staticmethod
    def from_slopes(slopes: Iterable[float]) -> "DirectionSet":
        """Convert slopes a (direction (1, a)) to angle fractions."""
        return DirectionSet(tuple(math.atan(s) / (2 * math.pi) for s in slopes))

    def to_json(self) -> list[float]:
        return list(self.values)

    @staticmethod
    def from_json(data) -> "DirectionSet":
        if not isinstance(data, (list, tuple)):
            raise InvalidArgument("a direction set is a JSON array of numbers")
        try:
            return DirectionSet(tuple(float(v) for v in data))
        except (TypeError, ValueError) as exc:
            raise InvalidArgument(f"malformed direction set: {exc}") from None


def perpendicular(directions: DirectionSet) -> DirectionSet:
    """Directions orthogonal to the given ones, in angle form: s -> s + 1/4 mod 1."""
    return DirectionSet(tuple((v + 0.25) % 1.0 for v in directions.values))


# ---------------------------------------------------------------------------
# lacunarity checks and pole inference
# ---------------------------------------------------------------------------


def check_lacunary(points: Sequence[float], pole: float, gap: float) -> bool:
    """True iff |v_{i+1} - pole| < gap * |v_i - pole| for every consecutive pair.

    The inequality is strict, and the comparisons are exact IEEE comparisons
    with no epsilon: this is a combinatorial gate, not a numeric one.  A pole
    equal to a non-final point fails automatically (a distance of zero cannot
    strictly decrease); a single point is vacuously lacunary for any pole.
    """
    pts = _as_floats(points)
    if not pts:
        raise InvalidArgument("points must be nonempty")
    if not math.isfinite(pole):
        raise InvalidArgument("pole must be finite")
    if not (0.0 < gap < 1.0) or not math.isfinite(gap):
        raise InvalidArgument(f"gap must lie in (0, 1), got {gap}")
    for u, w in zip(pts, pts[1:]):
        if not abs(w - pole) < gap * abs(u - pole):
            return False
    return True


def _pair_pole_interval(u: float, w: float, gap: float) -> tuple[float, float]:
    # Poles p with |w - p| < gap * |u - p| form the open interval between the
    # roots of the associated quadratic in p.
    r1 = (w - gap * u) / (1.0 - gap)
    r2 = (w + gap * u) / (1.0 + gap)
    return (r1, r2) if r1 <= r2 else (r2, r1)


def _feasible_pole_interval(points: Sequence[float], gap: float) -> tuple[float, float]:
    """Open interval of poles making the ordered points gap-lacunary.

    Each consecutive pair contributes one open interval; the feasible set is
    their intersection.  Returns (lo, hi) with lo >= hi meaning empty.
    """
    lo, hi = -math.inf, math.inf
    for u, w in zip(points, points[1:]):
        a, b = _pair_pole_interval(u, w, gap)
        lo, hi = max(lo, a), min(hi, b)
    return lo, hi


def infer_pole(
    points: Sequence[float],
    gap: float,
    within: Optional[tuple[float, float]] = None,
    exclude_points: bool = False,
) -> Optional[float]:
    """Find a pole making the points gap-lacunary, or None if none exists.

    The points must be strictly monotone, and the pole is searched on the
    convergence side only: at or beyond the last point (a decreasing
    sequence accumulates downward, an increasing one upward).  On that side
    each pairwise constraint |v_{i+1} - p| < gap * |v_i - p| is a half-line
    p > (v_{i+1} - gap v_i) / (1 - gap) (mirrored for increasing input), so
    the feasible set is a half-open interval computed in closed form; the
    returned pole is the feasible point nearest the sequence.

    ``within`` restricts the search to a closed interval, as needed when a
    sub-sequence must keep its pole inside a containing gap.
    """
    pts = _as_floats(points)
    if not (0.0 < gap < 1.0):
        raise InvalidArgument(f"gap must lie in (0, 1), got {gap}")
    if not pts:
        raise InvalidArgument("points must be nonempty")
    if len(pts) == 1:
        p = pts[0]
        if within is not None and not (within[0] <= p <= within[1]):
            p = 0.5 * (within[0] + within[1])
        if exclude_points and p == pts[0]:
            if within is not None:
                p = 0.5 * (within[0] + pts[0])
                if p == pts[0]:
                    p = 0.5 * (pts[0] + within[1])
            else:
                p = pts[0] - 1.0
        return p
    inc = all(w > u for u, w in zip(pts, pts[1:]))
    dec = all(w < u for u, w in zip(pts, pts[1:]))
    if not (inc or dec):
        raise InvalidArgument("points must be strictly monotone")
    last = pts[-1]
    bounds = [(w - gap * u) / (1.0 - gap) for u, w in zip(pts, pts[1:])]
    if dec:
        lo, hi = max(bounds), last  # feasible poles: (lo, hi]
    else:
        lo, hi = last, min(bounds)  # feasible poles: [lo, hi)
    if within is not None:
        lo, hi = max(lo, float(within[0])), min(hi, float(within[1]))
    if lo > hi:
        return None
    width = hi - lo
    near, far = (hi, lo) if dec else (lo, hi)
    candidates = [
        near,
        near - 1e-9 * width if dec else near + 1e-9 * width,
        0.5 * (lo + hi),
        far + 1e-9 * width if dec else far - 1e-9 * width,
    ]
    for p in candidates:
        if not math.isfinite(p):
            continue
        if within is not None and not (within[0] <= p <= within[1]):
            continue
        if exclude_points and p in pts:
            continue
        if check_lacunary(pts, p, gap):
            return p
    return None


# ---------------------------------------------------------------------------
# sequences, intervals, decompositions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LacunarySequence:
    """Points ordered by strictly decreasing distance to a pole.

    A single point is accepted as a degenerate (vacuous) sequence; in that
    case the pole may coincide with the point.
    """

    points: tuple[float, ...]
    pole: float
    gap: float

    def __post_init__(self):
        object.__setattr__(self, "points", _as_floats(self.points))
        if not check_lacunary(self.points, self.pole, self.gap):
            raise ValidationFailure(
                f"points {self.points} are not {self.gap}-lacunary about {self.pole}"
            )
        if len(self.points) > 1 and self.pole in self.points[:-1]:
            raise ValidationFailure("pole coincides with a non-final point")

    def distances(self) -> tuple[float, ...]:
        return tuple(abs(v - self.pole) for v in self.points)


@dataclass(frozen=True)
class RankInterval:
    """An adjacent interval of the stage-k set, tagged with its rank k.

    ``pole`` is the first pole that appeared inside the interval during the
    construction; it is set only for ranks <= order-1 (top-rank intervals
    never receive one).
    """

    lo: float
    hi: float
    rank: int
    pole: Optional[float] = None

    def __post_init__(self):
        if not (self.lo < self.hi):
            raise InvalidArgument(f"empty interval ({self.lo}, {self.hi})")
        if self.rank < 1:
            raise InvalidArgument("rank must be a positive integer")
        if self.pole is not None and not (self.lo < self.pole < self.hi):
            raise ValidationFailure(
                f"pole {self.pole} outside interval ({self.lo}, {self.hi})"
            )

    @property
    def width(self) -> float:
        return self.hi - self.lo


@dataclass(frozen=True)
class _StageGroup:
    """One lacunary sequence inserted at a given stage (stage 1 = the seed set)."""

    stage: int
    pole: float
    points: tuple[float, ...]  # ordered by decreasing distance to the pole


@dataclass(frozen=True)
class LacunaryDecomposition:
    """A nested chain of direction sets with rank intervals and poles.

    ``poles`` lists every pole used in the construction (one or two per
    inserted group), whether or not it ended up tagging a rank interval.
    """

    chain: tuple[tuple[float, ...], ...]
    gap: float
    rank_intervals: tuple[RankInterval, ...]
    domain: tuple[float, float]
    poles: tuple[float, ...] = ()
    groups: tuple[_StageGroup, ...] = field(default=(), repr=False)

    @property
    def order(self) -> int:
        return len(self.chain)

    @property
    def final_set(self) -> tuple[float, ...]:
        return self.chain[-1]

    def intervals_of_rank(self, rank: int) -> tuple[RankInterval, ...]:
        return tuple(j for j in self.rank_intervals if j.rank == rank)

    def to_json(self) -> dict:
        return {
            "gap": self.gap,
            "chain": [list(s) for s in self.chain],
            "rank_intervals": [
                {"lo": j.lo, "hi": j.hi, "rank": j.rank, "pole": j.pole}
                for j in self.rank_intervals
            ],
            "domain": list(self.domain),
            "poles": list(self.poles),
        }

    @staticmethod
    def from_json(data: dict) -> "LacunaryDecomposition":
        try:
            chain = tuple(tuple(sorted(float(v) for v in s)) for s in data["chain"])
            intervals = tuple(
                RankInterval(d["lo"], d["hi"], d["rank"], d.get("pole"))
                for d in data["rank_intervals"]
            )
            domain = tuple(data.get("domain", (chain[-1][0], chain[-1][-1])))
            poles = tuple(
                data.get("poles", sorted({j.pole for j in intervals if j.pole is not None}))
            )
            gap = float(data["gap"])
        except KeyError as exc:
            raise InvalidArgument(f"decomposition JSON lacks the key {exc}") from None
        except (AttributeError, IndexError, TypeError, ValueError) as exc:
            raise InvalidArgument(f"malformed decomposition JSON: {exc}") from None
        return LacunaryDecomposition(chain, gap, intervals, domain, poles)

    def save(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_json(), fh, sort_keys=True, indent=1)

    @staticmethod
    def load(path) -> "LacunaryDecomposition":
        with open(path) as fh:
            try:
                data = json.load(fh)
            except (json.JSONDecodeError, UnicodeDecodeError) as exc:
                raise InvalidArgument(f"{path}: not valid JSON ({exc})") from None
        return LacunaryDecomposition.from_json(data)


@dataclass(frozen=True)
class CompleteLacunarySpec:
    """A complete one-side lacunary sequence inside an interval.

    Invariants: consecutive distance ratios lie in [1/4, 1/2), and the first
    element reaches at least half-way from the pole to the interval end on
    its side.  ``points`` are ordered by decreasing distance to the pole.
    """

    interval: tuple[float, float]
    pole: float
    side: str  # "one-side-increasing" | "one-side-decreasing"
    points: tuple[float, ...]

    def __post_init__(self):
        a, b = self.interval
        if not (a <= self.pole <= b):
            raise ValidationFailure(f"pole {self.pole} outside interval {self.interval}")
        pts = _as_floats(self.points)
        object.__setattr__(self, "points", pts)
        if not pts:
            raise ValidationFailure("complete sequence must be nonempty")
        d = [abs(v - self.pole) for v in pts]
        above = all(v > self.pole for v in pts)
        below = all(v < self.pole for v in pts)
        if not (above or below):
            raise ValidationFailure("complete one-side sequence must stay on one side")
        expected = "one-side-decreasing" if above else "one-side-increasing"
        if self.side != expected:
            raise ValidationFailure(f"side mismatch: {self.side} vs {expected}")
        cap = (b - self.pole) if above else (self.pole - a)
        if not all(x < cap for x in d):
            raise ValidationFailure("points leave the interval")
        if not d[0] >= 0.5 * cap:
            raise ValidationFailure(
                f"first element reaches {d[0]:.6g} < half the gap {0.5 * cap:.6g}"
            )
        for x, y in zip(d, d[1:]):
            ratio = y / x
            if not (RATIO_LO <= ratio < RATIO_HI):
                raise ValidationFailure(f"ratio {ratio} outside [1/4, 1/2)")


# ---------------------------------------------------------------------------
# adjacent intervals
# ---------------------------------------------------------------------------


def adjacent_intervals(
    points: Iterable[float], domain: tuple[float, float]
) -> list[tuple[float, float]]:
    """Maximal open subintervals of ``domain`` containing no point of the set.

    Ordered left to right; the two boundary gaps against the domain endpoints
    are included (when nonempty).  An empty set yields the whole domain.
    """
    a, b = float(domain[0]), float(domain[1])
    if not a < b:
        raise InvalidArgument(f"empty domain ({a}, {b})")
    pts = sorted(set(_as_floats(points)))
    if pts and (pts[0] < a or pts[-1] > b):
        raise InvalidArgument("set must be contained in the domain")
    out = []
    prev = a
    for p in pts:
        if p > prev:
            out.append((prev, p))
        prev = p
    if b > prev:
        out.append((prev, b))
    return out


# ---------------------------------------------------------------------------
# decomposition assembly (shared by the builders)
# ---------------------------------------------------------------------------


def _order_by_distance(points: Sequence[float], pole: float) -> tuple[float, ...]:
    return tuple(sorted(points, key=lambda v: -abs(v - pole)))


def _assign_poles(
    chain: Sequence[tuple[float, ...]],
    domain: tuple[float, float],
    groups: Sequence[_StageGroup],
) -> tuple[RankInterval, ...]:
    """Build all rank intervals and tag ranks <= mu-1 with their first pole.

    "First" means smallest (stage, pole value): poles from earlier stages win,
    ties within a stage resolve left to right.
    """
    from bisect import bisect_right

    mu = len(chain)
    by_stage: dict[int, list[float]] = {}
    for g in groups:
        by_stage.setdefault(g.stage, []).append(g.pole)
    stage_poles = [(s, sorted(ps)) for s, ps in sorted(by_stage.items())]
    intervals: list[RankInterval] = []
    for k in range(1, mu + 1):
        gaps = adjacent_intervals(chain[k - 1], domain)
        assigned: list[Optional[float]] = [None] * len(gaps)
        if k <= mu - 1:
            los = [g[0] for g in gaps]
            remaining = len(gaps)
            for _stage, ps in stage_poles:
                if remaining == 0:
                    break
                for p in ps:
                    i = bisect_right(los, p) - 1
                    if (
                        0 <= i
                        and assigned[i] is None
                        and gaps[i][0] < p < gaps[i][1]
                    ):
                        assigned[i] = p
                        remaining -= 1
        intervals.extend(
            RankInterval(lo, hi, k, pole)
            for (lo, hi), pole in zip(gaps, assigned)
        )
    return tuple(intervals)


def _assemble(
    chain: Sequence[Sequence[float]],
    gap: float,
    domain: tuple[float, float],
    groups: Sequence[_StageGroup],
) -> LacunaryDecomposition:
    """Decomposition of a nested chain whose stage groups are already lacunary."""
    chain_t = tuple(tuple(sorted(set(_as_floats(s)))) for s in chain)
    intervals = _assign_poles(chain_t, domain, groups)
    poles = tuple(sorted({g.pole for g in groups}))
    return LacunaryDecomposition(chain_t, gap, intervals, domain, poles, tuple(groups))


def _split_groups_for_stage(
    added: Sequence[float],
    prev_set: Sequence[float],
    domain: tuple[float, float],
    gap: float,
    stage: int,
) -> list[_StageGroup]:
    """Partition a stage's new points by adjacent interval and infer poles.

    Each per-interval group must admit a pole: first as a one-sided monotone
    sequence, then (for interior poles) as a two-sided pair about a common
    pole found by scanning split positions.
    """
    out: list[_StageGroup] = []
    gaps = adjacent_intervals(prev_set, domain)
    for lo, hi in gaps:
        pts = sorted(p for p in added if lo < p < hi)
        if not pts:
            continue
        group = _infer_group(pts, (lo, hi), gap, stage)
        if group is None:
            raise ValidationFailure(
                f"stage {stage}: points in interval ({lo:.6g}, {hi:.6g}) admit no "
                f"{gap}-lacunary pole"
            )
        out.extend(group)
    placed = {p for g in out for p in g.points}
    stray = [p for p in added if p not in placed]
    if stray:
        raise InvalidArgument(
            f"stage {stage}: added points {stray} fall on stage boundaries or "
            "outside the domain"
        )
    return out


def _infer_group(
    pts: list[float],
    interval: tuple[float, float],
    gap: float,
    stage: int,
    exclude_points: bool = False,
) -> Optional[list[_StageGroup]]:
    # one-sided: pole beyond either end; completion flows need the pole
    # strictly off the points so the group can be completed about it
    for ordered in (tuple(reversed(pts)), tuple(pts)):
        pole = infer_pole(ordered, gap, within=interval, exclude_points=exclude_points)
        if pole is not None and check_lacunary(
            _order_by_distance(pts, pole), pole, gap
        ):
            return [_StageGroup(stage, pole, _order_by_distance(pts, pole))]
    # two-sided about an interior pole
    for j in range(1, len(pts)):
        left, right = pts[:j], pts[j:]
        flo, fhi = _feasible_pole_interval(tuple(left), gap)
        glo, ghi = _feasible_pole_interval(tuple(reversed(right)), gap)
        lo = max(flo, glo, left[-1], interval[0])
        hi = min(fhi, ghi, right[0], interval[1])
        if lo < hi:
            pole = 0.5 * (lo + hi)
            ordl = _order_by_distance(left, pole)
            ordr = _order_by_distance(right, pole)
            if check_lacunary(ordl, pole, gap) and check_lacunary(ordr, pole, gap):
                return [
                    _StageGroup(stage, pole, ordl),
                    _StageGroup(stage, pole, ordr),
                ]
    return None


def build_decomposition(
    chain: Sequence[Iterable[float]],
    gap: float,
    domain: Optional[tuple[float, float]] = None,
) -> LacunaryDecomposition:
    """Validate a nested chain of slope sets as a mu-lacunary decomposition.

    Every group of added points falling in one adjacent interval of the
    previous stage must admit a pole with the given gap (found via
    ``infer_pole``); rank intervals are populated and each one of rank
    <= mu-1 receives the first pole that appeared inside it.
    """
    if not (0.0 < gap < 1.0):
        raise InvalidArgument(f"gap must lie in (0, 1), got {gap}")
    sets = [tuple(sorted(set(_as_floats(s)))) for s in chain]
    if not sets or not sets[0]:
        raise InvalidArgument("chain must contain at least one nonempty set")
    for k in range(len(sets) - 1):
        if not set(sets[k]) <= set(sets[k + 1]):
            raise InvalidArgument(f"chain is not nested at stage {k + 1}")
    if domain is None:
        lo, hi = sets[-1][0], sets[-1][-1]
        if lo == hi:
            lo, hi = lo - 0.5, hi + 0.5
        domain = (lo, hi)

    groups: list[_StageGroup] = []
    seed = sets[0]
    seed_group = _infer_group(list(seed), domain, gap, stage=1)
    if seed_group is None:
        raise ValidationFailure("stage 1 set admits no lacunary pole")
    groups.extend(seed_group)
    for k in range(1, len(sets)):
        added = sorted(set(sets[k]) - set(sets[k - 1]))
        groups.extend(_split_groups_for_stage(added, sets[k - 1], domain, gap, k + 1))
    return _assemble(sets, gap, domain, groups)


# ---------------------------------------------------------------------------
# bisection construction
# ---------------------------------------------------------------------------


def binary_decomposition(
    points: Iterable[float], gap: float = 0.5
) -> LacunaryDecomposition:
    """Decompose a finite set by repeated median bisection.

    Stage 1 keeps the extremes; each later stage inserts, in every gap that
    still contains interior points, the (lower) median interior point as a
    one-point lacunary sequence.  The resulting order is at most
    floor(log2 N) + 2 for N points.
    """
    pts = sorted(set(_as_floats(points)))
    if not pts:
        raise InvalidArgument("points must be nonempty")
    if len(pts) == 1:
        dom = (pts[0] - 0.5, pts[0] + 0.5)
        g = _StageGroup(1, pts[0], (pts[0],))
        return _assemble([pts], gap, dom, [g])
    domain = (pts[0], pts[-1])
    chain = [(pts[0], pts[-1])]
    groups = [
        _StageGroup(1, pts[-1], (pts[0],)),  # two extremes: pole at the far end
    ]
    # Work list of index ranges (i, j) meaning interior indices i..j of pts
    # still to be placed inside the gap (pts[i-1], pts[j+1]).
    pending = [(1, len(pts) - 2)] if len(pts) > 2 else []
    stage = 1
    while pending:
        stage += 1
        added = []
        nxt = []
        for i, j in pending:
            mid = (i + j) // 2  # lower median
            added.append(pts[mid])
            groups.append(_StageGroup(stage, pts[mid], (pts[mid],)))
            if mid - 1 >= i:
                nxt.append((i, mid - 1))
            if j >= mid + 1:
                nxt.append((mid + 1, j))
        chain.append(tuple(sorted(set(chain[-1]) | set(added))))
        pending = nxt
    return _assemble(chain, gap, domain, groups)


# ---------------------------------------------------------------------------
# completion
# ---------------------------------------------------------------------------


def _bridge_distances(d_hi: float, d_lo: float) -> list[float]:
    """Distances strictly between d_hi and d_lo making all ratios [1/4, 1/2).

    Requires d_lo / d_hi < 1/2.  Returns the inserted values only, ordered
    decreasing; may be empty when the direct ratio already fits.
    """
    rho = d_lo / d_hi
    if not rho < RATIO_HI:
        raise PreconditionViolation(
            f"ratio {rho} >= 1/2 cannot be bridged; reindex the sequence into "
            "interleaved subsequences first"
        )
    if rho >= RATIO_LO:
        return []
    steps = math.ceil(math.log2(1.0 / rho) / 2.0)
    for attempt in (steps, steps + 1):
        step = rho ** (1.0 / attempt)
        step = min(max(step, RATIO_LO), RATIO_HI * (1.0 - 1e-12))
        mids = [d_hi * step**j for j in range(1, attempt)]
        seqd = [d_hi] + mids + [d_lo]
        if all(RATIO_LO <= y / x < RATIO_HI for x, y in zip(seqd, seqd[1:])):
            return mids
    raise ValidationFailure(f"could not bridge ratio {rho}")


def _complete_distances(dists: Sequence[float], cap: float) -> list[float]:
    """Extend decreasing distances to a complete profile inside (0, cap)."""
    d = list(dists)
    if d and d[0] >= cap:
        raise ValidationFailure("sequence leaves its interval")
    if not d:
        d = [0.75 * cap]
    if d[0] < 0.5 * cap:
        top = 0.75 * cap if 2.0 * d[0] < 0.75 * cap else 0.5 * (2.0 * d[0] + cap)
        head = [top] + _bridge_distances(top, d[0])
        d = head + d
    out = [d[0]]
    for x in d[1:]:
        out.extend(_bridge_distances(out[-1], x))
        out.append(x)
    return out


def complete_one_sided(
    seq: LacunarySequence, interval: tuple[float, float]
) -> CompleteLacunarySpec:
    """Embed a one-sided lacunary sequence into a complete one in the interval.

    The output contains every input point, has consecutive distance ratios in
    [1/4, 1/2), and its first element reaches at least half-way from the pole
    to the interval end.  Requires every actual ratio < 1/2 (a gap >= 1/2 is
    rejected with a pointer to interleaved reindexing).
    """
    a, b = float(interval[0]), float(interval[1])
    if not (a <= seq.pole <= b):
        raise InvalidArgument(f"pole {seq.pole} outside interval ({a}, {b})")
    pts = seq.points
    if not all(a < v < b for v in pts):
        raise InvalidArgument("sequence must lie inside the interval")
    above = all(v > seq.pole for v in pts)
    below = all(v < seq.pole for v in pts)
    if not (above or below):
        raise InvalidArgument("sequence must lie on one side of its pole")
    d = [abs(v - seq.pole) for v in pts]
    for x, y in zip(d, d[1:]):
        if y / x >= RATIO_HI:
            raise PreconditionViolation(
                f"distance ratio {y / x:.6g} >= 1/2: complete embedding impossible; "
                "reindex into interleaved subsequences (gap**n < 1/2) first"
            )
    cap = (b - seq.pole) if above else (seq.pole - a)
    dist = _complete_distances(d, cap)
    sign = 1.0 if above else -1.0
    points = tuple(seq.pole + sign * x for x in dist)
    side = "one-side-decreasing" if above else "one-side-increasing"
    return CompleteLacunarySpec((a, b), seq.pole, side, points)


def substage_count(gap: float) -> int:
    """Number of interleaved subsequences needed to push a gap under 1/2.

    1 for gap <= 1/2, otherwise ceil(1 / log2(1/gap)).
    """
    if not (0.0 < gap < 1.0):
        raise InvalidArgument(f"gap must lie in (0, 1), got {gap}")
    if gap <= 0.5:
        return 1
    return math.ceil(1.0 / math.log2(1.0 / gap))


def _complete_group_in_interval(
    pts: list[float],
    interval: tuple[float, float],
    gap: float,
    stage: int,
) -> list[_StageGroup]:
    """Complete the restriction of an added sequence inside one gap.

    Restrictions of gap-lacunary sequences stay lacunary with the same gap
    about a pole in the closed gap, and moving the pole toward the points
    only shrinks the ratios, so an effective gap of min(gap, 1/2) is always
    feasible here once gaps > 1/2 have been reindexed away.
    """
    lo, hi = interval
    eff = min(gap, 0.5)
    sub = _infer_group(pts, interval, eff, stage, exclude_points=True)
    if sub is None:
        raise ValidationFailure(
            f"stage {stage}: restriction to ({lo:.6g}, {hi:.6g}) admits no pole"
        )
    out = []
    for g in sub:
        seq = LacunarySequence(g.points, g.pole, eff)
        spec = complete_one_sided(seq, interval)
        out.append(_StageGroup(stage, g.pole, spec.points))
    return out


def complete_decomposition(decomp: LacunaryDecomposition) -> LacunaryDecomposition:
    """Embed a decomposition into a complete one containing its final set.

    For gap <= 1/2 each stage is completed in place (order unchanged); for
    gap > 1/2 every added sequence is first split into ``substage_count(gap)``
    interleaved subsequences, each completed as its own stage, so the output
    order is at most substage_count(gap) * order.
    """
    if len(decomp.final_set) == 1:
        return decomp
    lam = decomp.gap
    n_sub = substage_count(lam)
    domain = decomp.domain
    if not decomp.groups:
        # e.g. loaded from JSON: recover stage groups by re-validating the chain
        decomp = build_decomposition(decomp.chain, lam, domain)
    groups_by_stage: dict[int, list[_StageGroup]] = {}
    for g in decomp.groups:
        groups_by_stage.setdefault(g.stage, []).append(g)

    new_chain: list[tuple[float, ...]] = []
    new_groups: list[_StageGroup] = []
    current: set[float] = set()
    stage_out = 0
    for stage in range(1, decomp.order + 1):
        batches: list[list[float]] = [[] for _ in range(n_sub)]
        for g in groups_by_stage.get(stage, []):
            for i in range(n_sub):
                batches[i].extend(g.points[i::n_sub])
        for batch in batches:
            pending = sorted(set(batch) - current)
            # Points sitting exactly on the domain boundary are anchors: they
            # bound the adjacent intervals and need no completion of their own.
            anchors = [p for p in pending if p in (domain[0], domain[1])]
            current.update(anchors)
            pending = [p for p in pending if p not in anchors]
            if not pending and stage_out > 0:
                continue
            stage_out += 1
            added_groups: list[_StageGroup] = []
            for lo, hi in adjacent_intervals(sorted(current), domain):
                pts = [p for p in pending if lo < p < hi]
                if not pts:
                    continue
                added_groups.extend(
                    _complete_group_in_interval(pts, (lo, hi), lam, stage_out)
                )
            for g in added_groups:
                current.update(g.points)
            new_groups.extend(added_groups)
            new_chain.append(tuple(sorted(current)))
    if not set(decomp.final_set) <= set(new_chain[-1]):
        raise ValidationFailure("completion lost input points")
    return _assemble(new_chain, min(lam, 0.5), domain, new_groups)


# ---------------------------------------------------------------------------
# staged complete constructions
# ---------------------------------------------------------------------------


def staged_complete_decomposition(
    mu: int,
    depth: int,
    pole: Callable[[float, float], float],
    first: Callable[[float], float],
    ratio: Callable[[], float],
    fill: Optional[Callable[[], bool]] = None,
    domain: tuple[float, float] = (0.0, 1.0),
) -> LacunaryDecomposition:
    """Grow a complete mu-lacunary decomposition from a per-gap profile.

    Each stage visits the adjacent intervals of the current set left to right
    (stage 1: the domain) and, unless ``fill()`` is false after stage 1, puts
    ``depth`` points on each side of ``pole(lo, hi)``, upper side first: the
    distances start at ``first(cap)`` (cap: pole to interval end) and are
    multiplied by ``ratio()`` after every point.  The callables run in that
    order, so a random profile is reproducible from its generator.  A
    complete profile keeps first(cap) in [cap/2, cap) and ratios in [1/4, 1/2).
    """
    if mu < 1:
        raise InvalidArgument("mu must be >= 1")
    current: list[float] = []
    chain: list[tuple[float, ...]] = []
    groups: list[_StageGroup] = []
    for stage in range(1, mu + 1):
        gaps = adjacent_intervals(current, domain) if current else [tuple(domain)]
        new_pts: list[float] = []
        for lo, hi in gaps:
            if stage > 1 and fill is not None and not fill():
                continue
            p = pole(lo, hi)
            for sign, cap in ((1.0, hi - p), (-1.0, p - lo)):
                d = first(cap)
                pts = []
                for _ in range(depth):
                    pts.append(p + sign * d)
                    d *= ratio()
                groups.append(_StageGroup(stage, p, tuple(pts)))
                new_pts.extend(pts)
        current = sorted(set(current) | set(new_pts))
        chain.append(tuple(current))
    return _assemble(chain, 0.5, domain, groups)


def random_complete_decomposition(
    rng: np.random.Generator,
    mu: int,
    depth: int = 1,
    domain: tuple[float, float] = (0.0, 1.0),
    fill_probability: float = 1.0,
) -> LacunaryDecomposition:
    """``staged_complete_decomposition`` with a random profile drawn from ``rng``:
    pole at a uniform fraction in [0.3, 0.7] of the interval, first distance a
    uniform fraction in [0.55, 0.95] of the cap, ratios uniform in [0.26, 0.49],
    and after stage 1 each interval filled with probability ``fill_probability``.
    """
    return staged_complete_decomposition(
        mu,
        depth,
        pole=lambda lo, hi: lo + (hi - lo) * rng.uniform(0.3, 0.7),
        first=lambda cap: cap * rng.uniform(0.55, 0.95),
        ratio=lambda: rng.uniform(0.26, 0.49),
        fill=(lambda: rng.random() <= fill_probability) if fill_probability < 1.0 else None,
        domain=domain,
    )
