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
from itertools import repeat
from typing import Callable, Iterable, NamedTuple, Optional, Sequence

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


def _check_gap(gap: float) -> None:
    if not (0.0 < gap < 1.0):
        raise InvalidArgument(f"gap must lie in (0, 1), got {gap}")


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
    _check_gap(gap)
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
    _check_gap(gap)
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
    flo, fhi = _feasible_pole_interval(pts, gap)
    lo, hi = (flo, last) if dec else (last, fhi)  # feasible poles: (lo, hi] or [lo, hi)
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
        if self.rank < 1 or self.rank != int(self.rank):
            raise InvalidArgument("rank must be a positive integer")
        if self.pole is not None and not (self.lo < self.pole < self.hi):
            raise ValidationFailure(
                f"pole {self.pole} outside interval ({self.lo}, {self.hi})"
            )

    @property
    def width(self) -> float:
        return self.hi - self.lo


class _StageGroup(NamedTuple):
    """One lacunary sequence inserted at a given stage (stage 1 = the seed set).

    A named tuple rather than a dataclass: random builds make tens of thousands.
    """

    stage: int
    pole: float
    points: tuple[float, ...]  # ordered by decreasing distance to the pole


@dataclass(frozen=True, eq=False)
class LacunaryDecomposition:
    """A nested chain of direction sets with rank intervals and poles.

    The rank intervals are four read-only arrays in rank, then left-to-right
    order: ``lo``, ``hi``, ``rank`` (int64) and ``pole`` (NaN if untagged).
    ``RankInterval`` objects exist only at the edges: ``rank_intervals`` and
    ``intervals_of_rank`` build them; ``from_json`` checks arrays instead.

    ``poles`` lists every pole used in the construction (one or two per
    inserted group), whether or not it ended up tagging a rank interval.
    ``groups`` records the builder's stage groups (none after ``from_json``);
    no operation reads them, since completion re-derives them from the chain.
    """

    chain: tuple[tuple[float, ...], ...]
    gap: float
    lo: np.ndarray = field(repr=False)
    hi: np.ndarray = field(repr=False)
    rank: np.ndarray = field(repr=False)
    pole: np.ndarray = field(repr=False)
    domain: tuple[float, float]
    poles: tuple[float, ...] = ()
    groups: tuple[_StageGroup, ...] = field(default=(), repr=False)

    def __post_init__(self):
        for a in (self.lo, self.hi, self.rank, self.pole):
            a.flags.writeable = False

    @property
    def order(self) -> int:
        return len(self.chain)

    @property
    def final_set(self) -> tuple[float, ...]:
        return self.chain[-1]

    def _rows(self):
        """(lo, hi, rank, pole or None) per rank interval, as Python numbers."""
        cols = (self.lo.tolist(), self.hi.tolist(), self.rank.tolist(), self.pole.tolist())
        return ((a, b, k, None if math.isnan(p) else p) for a, b, k, p in zip(*cols))

    @property
    def rank_intervals(self) -> tuple[RankInterval, ...]:
        return tuple(RankInterval(*row) for row in self._rows())

    def intervals_of_rank(self, rank: int) -> tuple[RankInterval, ...]:
        return tuple(j for j in self.rank_intervals if j.rank == rank)

    def to_json(self) -> dict:
        return {
            "gap": self.gap,
            "chain": [list(s) for s in self.chain],
            "rank_intervals": [
                {"lo": a, "hi": b, "rank": k, "pole": p} for a, b, k, p in self._rows()
            ],
            "domain": list(self.domain),
            "poles": list(self.poles),
        }

    @staticmethod
    def from_json(data: dict) -> "LacunaryDecomposition":
        try:
            chain = [[float(v) for v in s] for s in data["chain"]]
            lo, hi, rank, pole = _rank_columns(data["rank_intervals"])
            domain = _as_floats(
                data["domain"] if "domain" in data else (min(chain[-1]), max(chain[-1]))
            )
            if len(domain) != 2 or not domain[0] < domain[1]:
                raise ValueError(f"domain {list(domain)} is not [lo, hi] with lo < hi")
            poles = _as_floats(data.get("poles", np.unique(pole[~np.isnan(pole)])))
            gap = float(data["gap"])
        except KeyError as exc:
            raise InvalidArgument(f"decomposition JSON lacks the key {exc}") from None
        except (AttributeError, IndexError, OverflowError, TypeError, ValueError) as exc:
            raise InvalidArgument(f"malformed decomposition JSON: {exc}") from None
        _check_gap(gap)
        sets, domain = _check_chain(chain, domain)
        _check_rank_arrays(sets, domain, lo, hi, rank, pole, poles)
        chain = tuple(tuple(s.tolist()) for s in sets)
        return LacunaryDecomposition(chain, gap, lo, hi, rank.astype(np.int64), pole, domain, poles)

    def save(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_json(), fh, sort_keys=True, indent=1)

    @staticmethod
    def load(path) -> "LacunaryDecomposition":
        return LacunaryDecomposition.from_json(_read_json(path))


def _read_json(path):
    """The JSON value stored in the file at ``path``; InvalidArgument if it is not JSON."""
    with open(path) as fh:
        try:
            return json.load(fh)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise InvalidArgument(f"{path}: not valid JSON ({exc})") from None


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
    domain = _check_domain(domain)
    pts = sorted(set(_as_floats(points)))
    _check_inside(pts, domain)
    lo, hi = _gaps(pts, domain)
    return list(zip(lo.tolist(), hi.tolist()))


def _check_domain(domain: Sequence[float]) -> tuple[float, float]:
    a, b = float(domain[0]), float(domain[1])
    if not a < b:
        raise InvalidArgument(f"empty domain ({a}, {b})")
    return a, b


def _check_inside(points: Sequence[float], domain: tuple[float, float]) -> None:
    """InvalidArgument unless every point is finite and inside the closed domain."""
    pts = np.asarray(points, dtype=float)
    if not np.isfinite(pts).all():
        raise InvalidArgument("points must be finite")
    if pts.size and (pts.min() < domain[0] or pts.max() > domain[1]):
        raise InvalidArgument("set must be contained in the domain")


def _gaps(points: Sequence[float], domain: tuple[float, float]) -> tuple[np.ndarray, np.ndarray]:
    """``adjacent_intervals`` as (lo, hi) arrays, for a sorted set inside the domain."""
    edges = np.concatenate(([domain[0]], np.asarray(points, dtype=float), [domain[1]]))
    lo, hi = edges[:-1], edges[1:]
    nonempty = lo < hi
    return lo[nonempty], hi[nonempty]


def _split_by_gaps(
    points: np.ndarray, current: np.ndarray, domain: tuple[float, float]
) -> tuple[list[tuple[float, float, list[float]]], list[float]]:
    """The sorted ``points`` split by the gaps of the sorted set ``current``.

    Returns ``(lo, hi, pts)`` for each gap holding some of the points, left
    to right, and the points strictly inside no gap: those on the domain's
    boundary or on the set.
    """
    lo, hi = _gaps(current, domain)
    i = np.searchsorted(lo, points, side="right") - 1
    inside = (i >= 0) & (lo[i] < points) & (points < hi[i])
    gap, start = np.unique(i[inside], return_index=True)
    pts = np.split(points[inside], start[1:])
    split = [(a, b, p.tolist()) for a, b, p in zip(lo[gap].tolist(), hi[gap].tolist(), pts)]
    return split, points[~inside].tolist()


def _check_chain(
    chain: Iterable[Iterable[float]], domain: Optional[Sequence[float]] = None
) -> tuple[list[np.ndarray], tuple[float, float]]:
    """The chain's sets as sorted, unique arrays, and the domain holding them.

    InvalidArgument unless every value is finite and inside the closed
    domain, the first set is nonempty and each set contains the one before
    it; containment is checked before nesting.  The default domain spans the
    final set, widened by 1/2 on each side when that set is a single point.
    """
    sets = [np.unique(np.fromiter(s, dtype=float)) for s in chain]
    if not sets or not sets[0].size:
        raise InvalidArgument("chain must contain at least one nonempty set")
    if domain is None:
        lo, hi = _as_floats(sets[-1][[0, -1]])  # NaN sorts last
        domain = (lo - 0.5, hi + 0.5) if lo == hi else (lo, hi)
    domain = _check_domain(domain)
    _check_inside(np.concatenate(sets), domain)
    for k in range(1, len(sets)):
        if not np.isin(sets[k - 1], sets[k], assume_unique=True).all():
            raise InvalidArgument(f"chain is not nested at stage {k}")
    return sets, domain


# ---------------------------------------------------------------------------
# decomposition assembly (shared by the builders)
# ---------------------------------------------------------------------------


def _rank_columns(rows) -> tuple[np.ndarray, ...]:
    """(lo, hi, rank, pole) float arrays of JSON rank intervals, pole NaN if null.

    Values must be JSON numbers, not booleans.  The first faulty row is then
    built as a ``RankInterval``, which raises its error.
    """
    rows = [(d["lo"], d["hi"], d["rank"], d.get("pole")) for d in rows]
    lo, hi, rank, tags = list(zip(*rows)) or [()] * 4
    for name, col in zip(("lo", "hi", "rank", "pole"), (lo, hi, rank, set(tags) - {None})):
        if not {type(v) for v in col} <= {int, float}:
            raise InvalidArgument(f"rank interval {name} values must be numbers")
    tagged = np.array([p is not None for p in tags], dtype=bool)
    lo, hi, rank, pole = (np.array(c, dtype=float) for c in (lo, hi, rank, tags))
    ok = (lo < hi) & (rank >= 1) & (rank == np.floor(rank)) & (~tagged | (lo < pole) & (pole < hi))
    if not ok.all():
        i = ok.argmin()
        RankInterval(lo[i], hi[i], rank[i], pole[i] if tagged[i] else None)
    return lo, hi, rank, pole


def _check_rank_arrays(chain, domain, lo, hi, rank, pole, poles) -> None:
    """InvalidArgument unless the arrays are the rank intervals of the chain.

    Ranks run 1..mu in order, rank k holds exactly the nonempty gaps of
    chain set k in the domain, left to right, no top-rank interval carries a
    pole tag, and every pole tag is one of ``poles``.  The chain has passed
    ``_check_chain``.
    """
    gaps = [_gaps(s, domain) for s in chain]
    want_rank = np.repeat(np.arange(1, len(chain) + 1), [len(g[0]) for g in gaps])
    if not np.array_equal(rank, want_rank):
        raise InvalidArgument(
            f"rank intervals must run through ranks 1..{len(chain)} in order, "
            "one per gap of each chain set"
        )
    want_lo, want_hi = (np.concatenate(c) for c in zip(*gaps))
    bad = (lo != want_lo) | (hi != want_hi)
    if bad.any():
        k = int(rank[bad.argmax()])
        raise InvalidArgument(f"the rank-{k} intervals are not the gaps of chain set {k}")
    if not np.isnan(pole[rank == len(chain)]).all():
        raise InvalidArgument("a top-rank interval carries a pole tag")
    foreign = np.setdiff1d(pole[~np.isnan(pole)], np.asarray(poles, dtype=float))
    if foreign.size:
        raise InvalidArgument(f"pole tag {foreign[0]} is not one of the poles")


def _order_by_distance(points: Sequence[float], pole: float) -> tuple[float, ...]:
    return tuple(sorted(points, key=lambda v: -abs(v - pole)))


def _rank_arrays(
    chain: Sequence[tuple[float, ...]],
    domain: tuple[float, float],
    stage: np.ndarray,
    cand: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(lo, hi, rank, pole) of all rank intervals; ranks <= mu-1 get their first pole.

    ``cand`` holds the candidate poles, ``stage`` the stage of each.  "First"
    means smallest (stage, pole value) strictly inside: poles from earlier
    stages win, ties within a stage resolve left to right.
    """
    mu = len(chain)
    cand = cand[np.lexsort((cand, stage))]
    cols = []
    for k in range(1, mu + 1):
        lo, hi = _gaps(chain[k - 1], domain)
        pole = np.full(len(lo), math.nan)
        if k <= mu - 1:
            i = np.searchsorted(lo, cand, side="right") - 1
            inside = (i >= 0) & (lo[i] < cand) & (cand < hi[i])
            gaps, first = np.unique(i[inside], return_index=True)
            pole[gaps] = cand[inside][first]
        cols.append((lo, hi, np.full(len(lo), k, dtype=np.int64), pole))
    return tuple(np.concatenate(c) for c in zip(*cols))


def _assemble(
    chain: Sequence[tuple[float, ...]],
    gap: float,
    domain: tuple[float, float],
    groups: Sequence[_StageGroup],
) -> LacunaryDecomposition:
    """Decomposition of a nested chain whose stage groups are already lacunary.

    Every builder holds its chain as sorted, unique tuples of finite floats
    inside the domain and checks its input for that; nothing is re-checked here.
    """
    stage = np.array([g.stage for g in groups], dtype=np.int64)
    pole = np.array([g.pole for g in groups], dtype=float)
    arrays = _rank_arrays(chain, domain, stage, pole)
    poles = tuple(sorted(set(pole.tolist())))
    return LacunaryDecomposition(tuple(chain), gap, *arrays, domain, poles, tuple(groups))


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
    _check_gap(gap)
    sets, domain = _check_chain(chain, domain)
    groups = _infer_group(sets[0].tolist(), domain, gap, stage=1)
    if groups is None:
        raise ValidationFailure("stage 1 set admits no lacunary pole")
    for stage in range(2, len(sets) + 1):
        added = np.setdiff1d(sets[stage - 1], sets[stage - 2], assume_unique=True)
        split, stray = _split_by_gaps(added, sets[stage - 2], domain)
        for lo, hi, pts in split:
            group = _infer_group(pts, (lo, hi), gap, stage)
            if group is None:
                raise ValidationFailure(
                    f"stage {stage}: points in interval ({lo:.6g}, {hi:.6g}) admit no "
                    f"{gap}-lacunary pole"
                )
            groups.extend(group)
        if stray:
            raise InvalidArgument(
                f"stage {stage}: added points {stray} fall on stage boundaries or "
                "outside the domain"
            )
    return _assemble([tuple(s.tolist()) for s in sets], gap, domain, groups)


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
    _check_gap(gap)
    pts = sorted(set(_as_floats(points)))
    if not pts:
        raise InvalidArgument("points must be nonempty")
    if len(pts) == 1:
        dom = (pts[0] - 0.5, pts[0] + 0.5)
        g = _StageGroup(1, pts[0], (pts[0],))
        return _assemble([tuple(pts)], gap, dom, [g])
    domain = (pts[0], pts[-1])
    joined = np.ones(len(pts), dtype=np.int64)  # the stage each point joins at
    groups = [
        _StageGroup(1, pts[-1], (pts[0],)),  # two extremes: pole at the far end
    ]
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
            groups.append(_StageGroup(stage, pts[mid], (pts[mid],)))
            if mid - 1 >= i:
                nxt.append((i, mid - 1))
            if j >= mid + 1:
                nxt.append((mid + 1, j))
        pending = nxt
    arr = np.array(pts)
    chain = [tuple(arr[joined <= k].tolist()) for k in range(1, stage + 1)]
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
    given = dict(zip(d, pts))  # keep the input points exactly, build only the bridges
    points = tuple(given.get(x, seq.pole + sign * x) for x in dist)
    side = "one-side-decreasing" if above else "one-side-increasing"
    return CompleteLacunarySpec((a, b), seq.pole, side, points)


def substage_count(gap: float) -> int:
    """Number of interleaved subsequences needed to push a gap under 1/2.

    1 for gap <= 1/2, otherwise ceil(1 / log2(1/gap)).
    """
    _check_gap(gap)
    if gap <= 0.5:
        return 1
    return math.ceil(1.0 / math.log2(1.0 / gap))


def complete_decomposition(decomp: LacunaryDecomposition) -> LacunaryDecomposition:
    """Embed a decomposition into a complete one containing its final set.

    For gap <= 1/2 each stage is completed in place (order unchanged); for
    gap > 1/2 every added sequence is first split into ``substage_count(gap)``
    interleaved subsequences, each completed as its own stage, so the output
    order is at most substage_count(gap) * order.
    """
    if len(decomp.final_set) == 1:
        return decomp
    lam, domain = decomp.gap, decomp.domain
    n_sub = substage_count(lam)
    # Restrictions of gap-lacunary sequences stay lacunary with the same gap
    # about a pole in the closed gap, and moving the pole toward the points
    # only shrinks the ratios, so an effective gap of min(gap, 1/2) is always
    # feasible once gaps > 1/2 have been reindexed away.
    eff = min(lam, 0.5)
    batches: list[list[float]] = [[] for _ in range(decomp.order * n_sub)]
    for g in build_decomposition(decomp.chain, lam, domain).groups:
        for i in range(n_sub):
            batches[(g.stage - 1) * n_sub + i].extend(g.points[i::n_sub])

    new_chain: list[tuple[float, ...]] = []
    new_groups: list[_StageGroup] = []
    current = np.empty(0)
    for batch in batches:
        pending = np.setdiff1d(batch, current)
        # Points exactly on the domain boundary are anchors: they bound the
        # adjacent intervals, split none and need no completion of their own.
        split, anchors = _split_by_gaps(pending, current, domain)
        added = [anchors]
        stage = len(new_chain) + 1
        for lo, hi, pts in split:
            sub = _infer_group(pts, (lo, hi), eff, stage, exclude_points=True)
            if sub is None:
                raise ValidationFailure(
                    f"stage {stage}: restriction to ({lo:.6g}, {hi:.6g}) admits no pole"
                )
            for g in sub:
                spec = complete_one_sided(LacunarySequence(g.points, g.pole, eff), (lo, hi))
                new_groups.append(_StageGroup(stage, g.pole, spec.points))
                added.append(spec.points)
        current = np.unique(np.concatenate([current, *added]))
        if split or not new_chain:
            new_chain.append(tuple(current.tolist()))
    new_chain[-1] = tuple(current.tolist())  # with the anchors of skipped batches
    if not set(decomp.final_set) <= set(new_chain[-1]):
        raise ValidationFailure("completion lost input points")
    return _assemble(new_chain, eff, domain, new_groups)


# ---------------------------------------------------------------------------
# staged complete constructions
# ---------------------------------------------------------------------------


def staged_complete_decomposition(
    mu: int,
    depth: int,
    profile: Callable[[int, np.ndarray, np.ndarray], tuple],
    domain: tuple[float, float] = (0.0, 1.0),
) -> LacunaryDecomposition:
    """Grow a complete mu-lacunary decomposition from an array profile.

    Stage k passes the adjacent intervals of the current set (stage 1: the
    domain), left to right, as arrays ``lo`` and ``hi`` to ``profile(k, lo,
    hi)``, which returns ``(keep, pole, scale)``: the indices of the intervals
    to fill (None: all), one pole per filled interval, and ``scale``, which
    broadcasts to shape (filled, 2, depth + 1).  Side 0 is the upper side
    (points p + d), side 1 the lower one (p - d).  Along a side, d starts at
    cap * scale[..., 0] (cap: pole to interval end) and is multiplied by
    scale[..., j] after point j; the last ratio is not used.  The stage's
    points join the set in one sort-unique step.  A complete profile keeps
    first fractions in [1/2, 1) and ratios in [1/4, 1/2).

    Draw order: ``random_complete_decomposition`` draws each stage with one
    generator call, in the order of a per-interval loop: for each interval
    left to right, the fill flag (after stage 1, when filling is random),
    the pole, then the upper side's first distance and ``depth`` ratios,
    then the lower side's.
    """
    if mu < 1:
        raise InvalidArgument("mu must be >= 1")
    domain = _check_domain(domain)
    sign = np.array([1.0, -1.0])
    current = np.empty(0)
    chain: list[tuple[float, ...]] = []
    groups: list[_StageGroup] = []
    for stage in range(1, mu + 1):
        lo, hi = _gaps(current, domain)
        keep, pole, scale = profile(stage, lo, hi)
        if keep is not None:
            lo, hi = lo[keep], hi[keep]
        d = np.stack((hi - pole, pole - lo), axis=1) * scale[:, :, 0]
        pts = np.empty((len(pole), 2, depth))
        for j in range(depth):
            pts[:, :, j] = pole[:, None] + sign * d
            d = d * scale[:, :, j + 1]
        _check_inside(pts, domain)
        current = np.unique(np.concatenate((current, pts.ravel())))
        chain.append(tuple(current.tolist()))
        rows = map(tuple, pts.reshape(2 * len(pole), depth).tolist())
        poles = np.repeat(pole, 2).tolist()  # upper, then lower group per interval
        groups.extend(map(_StageGroup._make, zip(repeat(stage), poles, rows)))
    return _assemble(chain, 0.5, domain, groups)


def _filled_draw(
    rng: np.random.Generator, n: int, low: np.ndarray, high: np.ndarray, fill: float
) -> tuple[np.ndarray, np.ndarray]:
    """One stage's values when each of n intervals is filled with probability fill.

    Per interval the stream holds a flag u (filled iff u <= fill) and, if
    filled, one uniform value per slot of ``low``/``high``.  Which values are
    flags depends on the flags before them, so the stream is first read as
    raw doubles (enough for n filled intervals) to walk the flags; then the
    generator is rewound and draws exactly the values used.  Returns the
    filled intervals' indices and their values, one row each.
    """
    width = len(low)
    state = rng.bit_generator.state
    raw = rng.random(n * (width + 1)).tolist()
    keep, starts, pos = [], [], 0
    for i in range(n):
        if raw[pos] <= fill:
            keep.append(i)
            starts.append(pos + 1)
            pos += width
        pos += 1
    rng.bit_generator.state = state
    slots = np.array(starts, dtype=np.intp)[:, None] + np.arange(width)
    lows, highs = np.zeros(pos), np.ones(pos)  # flags: uniform on [0, 1)
    lows[slots], highs[slots] = low, high
    return np.array(keep, dtype=np.intp), rng.uniform(lows, highs)[slots]


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
    side = [(0.55, 0.95)] + [(0.26, 0.49)] * depth
    low, high = np.array([(0.3, 0.7)] + side + side).T  # one interval's slots

    def profile(stage, lo, hi):
        if stage > 1 and fill_probability < 1.0:
            keep, vals = _filled_draw(rng, len(lo), low, high, fill_probability)
            lo, hi = lo[keep], hi[keep]
        else:
            keep, n = None, len(lo)
            vals = rng.uniform(np.tile(low, n), np.tile(high, n)).reshape(n, len(low))
        pole = lo + (hi - lo) * vals[:, 0]
        return keep, pole, vals[:, 1:].reshape(len(pole), 2, depth + 1)

    return staged_complete_decomposition(mu, depth, profile, domain)
