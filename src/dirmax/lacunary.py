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
from contextlib import suppress
from dataclasses import dataclass, field
from typing import Callable, Iterable, NamedTuple, Optional, Sequence

import numpy as np

from .errors import InvalidArgument, PreconditionViolation, ValidationFailure
from .errors import _check_integer, _positive_real

__all__ = [
    "DirectionSet",
    "RankInterval",
    "LacunaryDecomposition",
    "check_lacunary",
    "infer_pole",
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

    @staticmethod
    def from_slopes(slopes: Iterable[float]) -> "DirectionSet":
        """Convert slopes a (direction (1, a)) to angle fractions."""
        return DirectionSet(tuple(math.atan(s) / (2 * math.pi) for s in slopes))

    def to_json(self) -> list[float]:
        return list(self.values)

    @staticmethod
    def from_json(data) -> "DirectionSet":
        return DirectionSet(_json_numbers(data, "a direction set").tolist())


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
        if check_lacunary(pts, p, gap):
            return p
    return None


# ---------------------------------------------------------------------------
# intervals and decompositions
# ---------------------------------------------------------------------------


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
        _check_integer("rank", self.rank, 1)
        if self.pole is not None and not (self.lo < self.pole < self.hi):
            raise ValidationFailure(
                f"pole {self.pole} outside interval ({self.lo}, {self.hi})"
            )

    @property
    def width(self) -> float:
        return self.hi - self.lo


class _GroupArrays(NamedTuple):
    """Stage groups as arrays: group i joins at stage ``stage[i]`` (int64) about
    ``pole[i]``, and its points, by decreasing distance to the pole, are
    ``points[offsets[i]:offsets[i + 1]]`` (``offsets`` is int64, one longer)."""

    stage: np.ndarray
    pole: np.ndarray
    points: np.ndarray
    offsets: np.ndarray

    @staticmethod
    def of(groups: Iterable[tuple[int, float, Sequence[float]]]) -> "_GroupArrays":
        """The arrays of (stage, pole, points) triples, in the given order."""
        stage, pole, points = [list(c) for c in zip(*groups)] or [[], [], []]
        sizes = np.array([len(p) for p in points], dtype=np.int64)
        return _GroupArrays(
            np.array(stage, dtype=np.int64),
            np.array(pole, dtype=float),
            np.array([v for p in points for v in p], dtype=float),
            np.concatenate(([0], np.cumsum(sizes))),
        )


@dataclass(frozen=True, eq=False)
class LacunaryDecomposition:
    """A nested chain of direction sets with rank intervals and poles.

    The rank intervals are four read-only arrays in rank, then left-to-right
    order: ``lo``, ``hi``, ``rank`` (int64) and ``pole`` (NaN if untagged).
    ``RankInterval`` objects exist only at the edges: ``rank_intervals`` and
    ``intervals_of_rank`` build them; ``from_json`` checks arrays instead.

    Chain sets are read-only, sorted, unique float64 arrays.  ``poles`` is a
    read-only float64 array of every pole of the construction (one or two per
    inserted group), tagging an interval or not: sorted and unique from a
    builder, in file order on load.
    ``stage_groups`` holds the builder's stage groups as arrays
    (``_GroupArrays``: a stage and a pole per group, and the groups' points
    as one flat array with offsets; none after ``from_json``).  No operation
    reads them, since completion re-derives them from the chain.
    """

    chain: tuple[np.ndarray, ...]
    gap: float
    lo: np.ndarray = field(repr=False)
    hi: np.ndarray = field(repr=False)
    rank: np.ndarray = field(repr=False)
    pole: np.ndarray = field(repr=False)
    domain: tuple[float, float]
    poles: np.ndarray
    stage_groups: _GroupArrays = field(default_factory=lambda: _GroupArrays.of(()), repr=False)

    def __post_init__(self):
        for a in (*self.chain, self.poles, self.lo, self.hi, self.rank, self.pole,
                  *self.stage_groups):
            a.flags.writeable = False

    @property
    def order(self) -> int:
        return len(self.chain)

    @property
    def final_set(self) -> np.ndarray:
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
            "chain": [s.tolist() for s in self.chain],
            "rank_intervals": [
                {"lo": a, "hi": b, "rank": k, "pole": p} for a, b, k, p in self._rows()
            ],
            "domain": list(self.domain),
            "poles": self.poles.tolist(),
        }

    @staticmethod
    def from_json(data: dict) -> "LacunaryDecomposition":
        try:
            chain = [_json_numbers(s, "each chain set") for s in data["chain"]]
            lo, hi, rank, pole = _interval_columns(
                data["rank_intervals"], "rank interval", ("lo", "hi", "rank")
            )
            domain = _json_numbers(data["domain"], "domain") if "domain" in data else None
            tags = np.unique(pole[~np.isnan(pole)])
            poles = _json_numbers(data["poles"], "poles") if "poles" in data else tags
            (gap,) = _json_numbers([data["gap"]], "gap").tolist()
        except KeyError as exc:
            raise InvalidArgument(f"decomposition JSON lacks the key {exc}") from None
        except (AttributeError, TypeError) as exc:
            raise InvalidArgument(f"malformed decomposition JSON: {exc}") from None
        _check_gap(gap)
        sets, domain = _check_chain(chain, domain)
        _check_rank_arrays(sets, domain, lo, hi, rank, pole, poles)
        return LacunaryDecomposition(sets, gap, lo, hi, rank.astype(np.int64), pole, domain, poles)

    def save(self, path) -> None:
        """Write ``json.dumps(self.to_json(), sort_keys=True, indent=1) + "\\n"``
        in pieces of at most ``_PIECE`` numbers or rank intervals each.

        ``path`` is a file path or an open text stream, which is left open.
        """
        data = self.to_json()
        if hasattr(path, "write"):
            _write_decomposition(path, data)
            return
        with open(path, "w") as fh:
            _write_decomposition(fh, data)

    @staticmethod
    def load(path) -> "LacunaryDecomposition":
        return LacunaryDecomposition.from_json(_read_json(path))


# Numbers, or rank intervals, per write of ``LacunaryDecomposition.save``.
_PIECE = 256

# One rank interval as json.dumps(..., sort_keys=True, indent=1) lays it out.
_ROW_KEYS = ("hi", "lo", "pole", "rank")
_ROW = '\n  {\n   "hi": %s,\n   "lo": %s,\n   "pole": %s,\n   "rank": %s\n  }'


def _write_decomposition(fh, data: dict) -> None:
    """Write a ``to_json`` dict as json.dumps(data, sort_keys=True, indent=1)
    lays it out, with a final newline, without the pure-Python indent encoder."""
    fh.write('{\n "chain": [')
    for k, s in enumerate(data["chain"]):
        fh.write(",\n  " if k else "\n  ")
        _write_numbers(fh, s, 3)
    fh.write(("\n ]" if data["chain"] else "]") + ',\n "domain": ')
    _write_numbers(fh, data["domain"], 2)
    fh.write(f',\n "gap": {json.dumps(data["gap"])},\n "poles": ')
    _write_numbers(fh, data["poles"], 2)
    fh.write(',\n "rank_intervals": [')
    rows = data["rank_intervals"]
    for i in range(0, len(rows), _PIECE):
        piece = rows[i : i + _PIECE]
        cols = [json.dumps([r[key] for r in piece])[1:-1].split(", ") for key in _ROW_KEYS]
        fh.write(("," if i else "") + ",".join(_ROW % row for row in zip(*cols)))
    fh.write(("\n ]" if rows else "]") + "\n}\n")


def _write_numbers(fh, values: Sequence, depth: int) -> None:
    """Write a list of JSON numbers as json.dumps(..., indent=1) lays it out at
    nesting ``depth``: the C encoder's "a, b" text with each ", " broken into a
    new line, ``_PIECE`` numbers at a time."""
    if not len(values):
        fh.write("[]")
        return
    sep = ",\n" + " " * depth
    fh.write("[" + sep[1:])
    for i in range(0, len(values), _PIECE):
        fh.write((sep if i else "") + json.dumps(values[i : i + _PIECE])[1:-1].replace(", ", sep))
    fh.write("\n" + " " * (depth - 1) + "]")


def _read_json(path):
    """The JSON value stored in the file at ``path``; InvalidArgument if it is not JSON."""
    with open(path) as fh:
        try:
            return json.load(fh)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise InvalidArgument(f"{path}: not valid JSON ({exc})") from None


def _json_numbers(value, what: str) -> np.ndarray:
    """The JSON array ``value`` as floats; InvalidArgument naming ``what`` unless every
    item is an ``int`` or ``float`` (not a ``bool``) that is finite as a float."""
    if isinstance(value, (list, tuple)) and {type(v) for v in value} <= {int, float}:
        with suppress(OverflowError):  # an int beyond the float range
            arr = np.array(value, dtype=float)
            if np.isfinite(arr).all():
                return arr
    raise InvalidArgument(f"{what} must hold only finite JSON numbers")


def _interval_columns(rows, what: str, keys: Sequence[str] = ("lo", "hi")) -> tuple:
    """Float arrays of JSON interval rows, one per key, then the poles (NaN where null
    or missing); InvalidArgument naming ``what`` unless ``rows`` is an array of
    objects with the keys and every value is a finite JSON number (``_json_numbers``)."""
    try:
        cols = [[d[k] for d in rows] for k in keys]
        tags = [d.get("pole") for d in rows]
    except (AttributeError, KeyError, TypeError):
        fields = ", ".join((*keys, "pole"))
        raise InvalidArgument(f"{what}s must be a JSON array of {{{fields}}} objects") from None
    cols = [_json_numbers(c, f"{what} {k} values") for k, c in zip(keys, cols)]
    tagged = np.array([p is not None for p in tags], dtype=bool)
    pole = np.full(len(tags), math.nan)
    pole[tagged] = _json_numbers([p for p in tags if p is not None], f"{what} pole values")
    return (*cols, pole)


# ---------------------------------------------------------------------------
# adjacent intervals
# ---------------------------------------------------------------------------


def _check_domain(domain: Sequence[float]) -> tuple[float, float]:
    if len(domain) != 2 or not domain[0] < domain[1]:
        raise InvalidArgument(f"domain {[float(v) for v in domain]} is not [lo, hi] with lo < hi")
    return float(domain[0]), float(domain[1])


def _check_inside(points: Sequence[float], domain: tuple[float, float]) -> None:
    """InvalidArgument unless every point is finite and inside the closed domain."""
    pts = np.asarray(points, dtype=float)
    if not np.isfinite(pts).all():
        raise InvalidArgument("points must be finite")
    if pts.size and (pts.min() < domain[0] or pts.max() > domain[1]):
        raise InvalidArgument("set must be contained in the domain")


def _gaps(points: Sequence[float], domain: tuple[float, float]) -> tuple[np.ndarray, np.ndarray]:
    """Maximal open subintervals of the domain holding no point, as (lo, hi) arrays.

    For a sorted set inside the closed domain; ordered left to right, with the
    empty gaps at a boundary point dropped.  An empty set yields the domain.
    """
    edges = np.concatenate(([domain[0]], np.asarray(points, dtype=float), [domain[1]]))
    lo, hi = edges[:-1], edges[1:]
    nonempty = lo < hi
    return lo[nonempty], hi[nonempty]


def _gap_of(lo: np.ndarray, hi: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Index of the gap (lo[i], hi[i]) of ``_gaps`` strictly holding each value, -1 if none."""
    i = np.searchsorted(lo, values, side="right") - 1
    return np.where((i >= 0) & (lo[i] < values) & (values < hi[i]), i, -1)


def _split_by_gaps(
    points: np.ndarray, current: np.ndarray, domain: tuple[float, float]
) -> tuple[list[tuple[float, float, list[float]]], list[float]]:
    """The sorted ``points`` split by the gaps of the sorted set ``current``.

    Returns ``(lo, hi, pts)`` for each gap holding some of the points, left
    to right, and the points strictly inside no gap: those on the domain's
    boundary or on the set.
    """
    lo, hi = _gaps(current, domain)
    i = _gap_of(lo, hi, points)
    inside = i >= 0
    gap, start = np.unique(i[inside], return_index=True)
    pts = np.split(points[inside], start[1:])
    split = [(a, b, p.tolist()) for a, b, p in zip(lo[gap].tolist(), hi[gap].tolist(), pts)]
    return split, points[~inside].tolist()


def _span(points: np.ndarray) -> tuple[float, float]:
    """The default domain of sorted points: from the first to the last, widened
    by 1/2 on each side when they are one point.  InvalidArgument for NaN."""
    lo, hi = _as_floats(points[[0, -1]])
    return (lo - 0.5, hi + 0.5) if lo == hi else (lo, hi)


def _check_chain(
    chain: Iterable[Sequence[float]], domain: Optional[Sequence[float]] = None
) -> tuple[tuple[np.ndarray, ...], tuple[float, float]]:
    """The chain's sets as sorted, unique arrays, and the domain holding them.

    InvalidArgument unless every set is a 1-d array of finite numbers inside
    the closed domain, the first set is nonempty and each set contains the
    one before it; containment is checked before nesting.  The default
    domain is the final set's ``_span``.
    """
    try:
        sets = tuple(np.asarray(s, dtype=float) for s in chain)
    except (TypeError, ValueError, OverflowError) as exc:
        raise InvalidArgument(f"chain sets must be arrays of numbers ({exc})") from None
    if any(s.ndim != 1 for s in sets):
        raise InvalidArgument("chain sets must be 1-d")
    sets = tuple(np.unique(s) for s in sets)
    if not sets or not sets[0].size:
        raise InvalidArgument("chain must contain at least one nonempty set")
    domain = _check_domain(_span(sets[-1]) if domain is None else domain)  # NaN sorts last
    _check_inside(np.concatenate(sets), domain)
    for k in range(1, len(sets)):
        if not np.isin(sets[k - 1], sets[k], assume_unique=True).all():
            raise InvalidArgument(f"chain is not nested at stage {k}")
    return sets, domain


# ---------------------------------------------------------------------------
# decomposition assembly (shared by the builders)
# ---------------------------------------------------------------------------


def _check_rank_arrays(chain, domain, lo, hi, rank, pole, poles) -> None:
    """InvalidArgument unless the arrays are the rank intervals of the chain.

    Ranks, ``lo`` and ``hi`` must equal ``_rank_arrays``' for the chain, no
    top-rank interval may carry a pole tag, and every pole tag must be one
    of ``poles``; ValidationFailure for a tag outside its interval.  The
    chain has passed ``_check_chain``.
    """
    want_lo, want_hi, want_rank, _ = _rank_arrays(chain, domain, np.empty(0, np.int64), np.empty(0))
    if not np.array_equal(rank, want_rank):
        raise InvalidArgument(
            f"rank intervals must run through ranks 1..{len(chain)} in order, "
            "one per gap of each chain set"
        )
    bad = (lo != want_lo) | (hi != want_hi)
    if bad.any():
        k = int(rank[bad.argmax()])
        raise InvalidArgument(f"the rank-{k} intervals are not the gaps of chain set {k}")
    outside = ~np.isnan(pole) & ~((lo < pole) & (pole < hi))
    if outside.any():
        i = outside.argmax()
        raise ValidationFailure(f"pole {pole[i]} outside interval ({lo[i]}, {hi[i]})")
    if not np.isnan(pole[rank == len(chain)]).all():
        raise InvalidArgument("a top-rank interval carries a pole tag")
    foreign = np.setdiff1d(pole[~np.isnan(pole)], poles)
    if foreign.size:
        raise InvalidArgument(f"pole tag {foreign[0]} is not one of the poles")


def _order_by_distance(points: Sequence[float], pole: float) -> tuple[float, ...]:
    return tuple(sorted(points, key=lambda v: -abs(v - pole)))


def _rank_arrays(
    chain: Sequence[np.ndarray],
    domain: tuple[float, float],
    stage: np.ndarray,
    cand: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(lo, hi, rank, pole) of all rank intervals; ranks <= mu-1 get their first pole.

    ``cand`` holds the candidate poles, ``stage`` the stage of each.  "First"
    means smallest (stage, pole value) strictly inside: poles from earlier
    stages win, ties within a stage resolve left to right.
    """
    gaps = [_gaps(s, domain) for s in chain]
    lo, hi = (np.concatenate(c) for c in zip(*gaps))
    rank = np.repeat(np.arange(1, len(chain) + 1), [len(g) for g, _ in gaps])
    pole = np.full(len(rank), math.nan)
    cand = cand[np.lexsort((cand, stage))]
    start = 0
    for glo, ghi in gaps[:-1]:
        i = _gap_of(glo, ghi, cand)
        inside = i >= 0
        gap, first = np.unique(i[inside], return_index=True)
        pole[start + gap] = cand[inside][first]
        start += len(glo)
    return lo, hi, rank, pole


def _sorted_unique(values: np.ndarray) -> np.ndarray:
    """The values sorted, each kept once: the first of equal ones, as a set keeps
    the first of -0.0 and 0.0."""
    values = values[np.argsort(values, kind="stable")]
    first = np.ones(len(values), dtype=bool)
    first[1:] = values[1:] != values[:-1]
    return values[first]


def _assemble(
    chain: Sequence[np.ndarray],
    gap: float,
    domain: tuple[float, float],
    groups: _GroupArrays,
) -> LacunaryDecomposition:
    """Decomposition of a nested chain whose stage groups are already lacunary.

    Every builder holds its chain as sorted, unique, finite float64 arrays
    inside the domain and checks its input for that; nothing is re-checked here.
    """
    arrays = _rank_arrays(chain, domain, groups.stage, groups.pole)
    poles = _sorted_unique(groups.pole)
    return LacunaryDecomposition(tuple(chain), gap, *arrays, domain, poles, groups)


def _split_pole(
    pts: list[float], interval: tuple[float, float], gap: float, splits: Iterable[int]
) -> Optional[tuple[float, list[tuple[float, ...]]]]:
    """The pole and sides of the first split of the sorted points that admits one.

    Split j puts ``pts[:j]`` left of the pole and ``pts[j:]`` right of it;
    the pole is the midpoint of the open interval of poles inside
    ``interval``, strictly between the two sides, that make each side
    gap-lacunary.  The sides are the nonempty ones, each ordered by
    decreasing distance to the pole.  None if no split admits a pole.
    """
    for j in splits:
        left, right = pts[:j], pts[j:]
        flo, fhi = _feasible_pole_interval(left, gap)
        glo, ghi = _feasible_pole_interval(right[::-1], gap)
        lo = max(flo, glo, interval[0], *left[-1:])
        hi = min(fhi, ghi, interval[1], *right[:1])
        pole = 0.5 * (lo + hi)
        sides = [_order_by_distance(s, pole) for s in (left, right) if s]
        if lo < pole < hi and all(check_lacunary(s, pole, gap) for s in sides):
            return pole, sides
    return None


def _infer_group(
    pts: list[float], interval: tuple[float, float], gap: float, stage: int
) -> Optional[list[tuple[int, float, tuple[float, ...]]]]:
    """The (stage, pole, points) groups of the sorted points, or None."""
    # one-sided: the feasible pole nearest the points, beyond either end
    for ordered in (pts[::-1], pts):
        pole = infer_pole(ordered, gap, within=interval)
        if pole is not None:
            # infer_pole passed check_lacunary on ``ordered``, so the distances
            # to the pole strictly fall along it: it is the distance order
            return [(stage, pole, tuple(ordered))]
    # two-sided about an interior pole
    found = _split_pole(pts, interval, gap, range(1, len(pts)))
    return None if found is None else [(stage, found[0], s) for s in found[1]]


def _stage_groups(
    chain: Sequence[Sequence[float]], gap: float, domain: Optional[Sequence[float]]
) -> tuple[tuple[np.ndarray, ...], tuple[float, float], list[tuple[int, float, tuple[float, ...]]]]:
    """The checked chain (``_check_chain``), its domain, and its stage groups
    as (stage, pole, points) triples.

    Every group of added points falling in one adjacent interval of the
    previous stage must admit a pole with the given gap (``infer_pole``).
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
    return sets, domain, groups


def build_decomposition(
    chain: Sequence[Sequence[float]],
    gap: float,
    domain: Optional[tuple[float, float]] = None,
) -> LacunaryDecomposition:
    """Validate a nested chain of slope sets as a mu-lacunary decomposition.

    Rank intervals of rank <= mu-1 receive the first pole of the chain's
    stage groups (``_stage_groups``) that appeared inside them.
    """
    sets, domain, groups = _stage_groups(chain, gap, domain)
    return _assemble(sets, gap, domain, _GroupArrays.of(groups))


# ---------------------------------------------------------------------------
# bisection construction
# ---------------------------------------------------------------------------


def binary_decomposition(points: Iterable[float]) -> LacunaryDecomposition:
    """Decompose a finite set by repeated median bisection.

    Stage 1 keeps the extremes; each later stage inserts, in every gap that
    still contains interior points, the (lower) median interior point as a
    one-point lacunary sequence.  The resulting order is at most
    floor(log2 N) + 2 for N points.  One point is lacunary for every gap,
    so the output is labelled with gap 1/2.
    """
    pts = _sorted_unique(np.fromiter(points, dtype=float))
    if not pts.size:
        raise InvalidArgument("points must be nonempty")
    domain = _span(pts)  # rejects non-finite points, which sort to the ends
    chain, groups = _bisection(pts)
    return _assemble(chain, 0.5, domain, groups)


def _bisection(pts: np.ndarray) -> tuple[list[np.ndarray], _GroupArrays]:
    """The chain and stage groups of the bisection of sorted, unique points."""
    n = len(pts)
    joined = np.ones(n, dtype=np.int64)  # the stage each point joins at
    # Index ranges lo..hi of interior points still to be placed inside the gap
    # (pts[lo - 1], pts[hi + 1]); each stage places the lower median of every
    # range, then splits the range into its left part and its right part.
    lo, hi = np.array([1]), np.array([n - 2])
    stage = 1
    while (keep := lo <= hi).any():
        lo, hi = lo[keep], hi[keep]
        mid = (lo + hi) // 2
        stage += 1
        joined[mid] = stage
        lo, hi = np.stack((lo, mid + 1), axis=1).ravel(), np.stack((mid - 1, hi), axis=1).ravel()
    # a stage's ranges run left to right, so its groups follow the point order
    mid = 1 + np.argsort(joined[1:-1], kind="stable")
    # stage 1 places the two extremes: the lower one about a pole at the upper
    # one (a single point about itself); every group is one point
    points = np.concatenate((pts[:1], pts[mid]))
    groups = _GroupArrays(
        np.concatenate(([1], joined[mid])),
        np.concatenate((pts[-1:], pts[mid])),
        points,
        np.arange(len(points) + 1),
    )
    return [pts[joined <= k] for k in range(1, stage + 1)], groups


# ---------------------------------------------------------------------------
# completion
# ---------------------------------------------------------------------------


def _bridge_distances(d_hi: float, d_lo: float) -> list[float]:
    """Distances strictly between d_hi and d_lo making all ratios [1/4, 1/2).

    For d_lo / d_hi < 1/2.  Returns the inserted values only, ordered
    decreasing; may be empty when the direct ratio already fits.
    """
    rho = d_lo / d_hi
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


def _complete_distances(d: list[float], cap: float) -> list[float]:
    """Extend nonempty decreasing distances to a complete profile inside (0, cap)."""
    if d[0] < 0.5 * cap:
        top = 0.75 * cap if 2.0 * d[0] < 0.75 * cap else 0.5 * (2.0 * d[0] + cap)
        d = [top, *_bridge_distances(top, d[0]), *d]
    out = [d[0]]
    for x in d[1:]:
        out.extend(_bridge_distances(out[-1], x))
        out.append(x)
    return out


def complete_one_sided(
    points: Sequence[float], pole: float, interval: tuple[float, float]
) -> tuple[float, ...]:
    """Embed one-sided lacunary points into a complete sequence in the interval.

    ``points`` lie on one side of ``pole``, ordered by decreasing distance
    to it.  The output contains every input point exactly, ordered the same
    way; its consecutive distance ratios lie in [1/4, 1/2), and its first
    element reaches at least half-way from the pole to the interval end.
    Requires every input ratio < 1/2 (a gap >= 1/2 is rejected with a
    pointer to interleaved reindexing).  ValidationFailure if the rounded
    output points break the profile.
    """
    a, b = float(interval[0]), float(interval[1])
    pts = _as_floats(points)
    if not pts:
        raise InvalidArgument("points must be nonempty")
    if not (a <= pole <= b):
        raise InvalidArgument(f"pole {pole} outside interval ({a}, {b})")
    if not all(a < v < b for v in pts):
        raise InvalidArgument("points must lie inside the interval")
    above = all(v > pole for v in pts)
    if not (above or all(v < pole for v in pts)):
        raise InvalidArgument("points must lie on one side of their pole")
    d = [abs(v - pole) for v in pts]
    for x, y in zip(d, d[1:]):
        if y / x >= RATIO_HI:
            raise PreconditionViolation(
                f"distance ratio {y / x:.6g} >= 1/2: complete embedding impossible; "
                "reindex into interleaved subsequences (gap**n < 1/2) first"
            )
    cap = (b - pole) if above else (pole - a)
    sign = 1.0 if above else -1.0
    given = dict(zip(d, pts))  # keep the input points exactly, build only the bridges
    out = tuple(given.get(x, pole + sign * x) for x in _complete_distances(d, cap))
    reach = [abs(v - pole) for v in out]
    if not reach[0] >= 0.5 * cap:
        raise ValidationFailure(
            f"first element reaches {reach[0]:.6g} < half the gap {0.5 * cap:.6g}"
        )
    for x, y in zip(reach, reach[1:]):
        if not RATIO_LO <= y / x < RATIO_HI:
            raise ValidationFailure(f"ratio {y / x} outside [1/4, 1/2)")
    return out


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
    for stage, _pole, points in _stage_groups(decomp.chain, lam, domain)[2]:
        for i in range(n_sub):
            batches[(stage - 1) * n_sub + i].extend(points[i::n_sub])

    new_chain: list[np.ndarray] = []
    new_groups: list[tuple[int, float, tuple[float, ...]]] = []
    current = np.empty(0)
    for batch in batches:
        pending = np.setdiff1d(batch, current)
        # Points exactly on the domain boundary are anchors: they bound the
        # adjacent intervals, split none and need no completion of their own.
        split, anchors = _split_by_gaps(pending, current, domain)
        added = [anchors]
        stage = len(new_chain) + 1
        for lo, hi, pts in split:
            # one-sided splits first, then two-sided; the pole stays off the points
            found = _split_pole(pts, (lo, hi), eff, [0, len(pts), *range(1, len(pts))])
            if found is None:
                raise ValidationFailure(
                    f"stage {stage}: restriction to ({lo:.6g}, {hi:.6g}) admits no pole"
                )
            pole, sides = found
            for side in sides:
                done = complete_one_sided(side, pole, (lo, hi))
                new_groups.append((stage, pole, done))
                added.append(done)
        current = np.unique(np.concatenate([current, *added]))
        if split or not new_chain:
            new_chain.append(current)
    new_chain[-1] = current  # with the anchors of skipped batches
    if not np.isin(decomp.final_set, current).all():
        raise ValidationFailure("completion lost input points")
    return _assemble(new_chain, eff, domain, _GroupArrays.of(new_groups))


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

    Draw order: ``random_complete_decomposition`` draws a stage's fill flags
    first, one per interval left to right (after stage 1, when filling is
    random), then the values of each filled interval left to right: the
    pole, then the upper side's first distance and ``depth`` ratios, then
    the lower side's.
    """
    _check_integer("mu", mu, 1)
    _check_integer("depth", depth, 1)
    domain = _check_domain(domain)
    sign = np.array([1.0, -1.0])
    current = np.empty(0)
    chain: list[np.ndarray] = []
    stages, poles, points = [], [], []
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
        if not current.size:
            raise InvalidArgument(f"stage {stage} leaves the set empty")
        chain.append(current)
        # one group of ``depth`` points per side: upper, then lower, per interval
        stages.append(np.full(2 * len(pole), stage, dtype=np.int64))
        poles.append(np.repeat(pole, 2))
        points.append(pts.ravel())
    points = np.concatenate(points)
    groups = _GroupArrays(
        np.concatenate(stages), np.concatenate(poles), points, np.arange(0, len(points) + 1, depth)
    )
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
    and after stage 1 each interval filled with probability ``fill_probability``:
    a stage draws all its flags (filled iff flag <= probability), then the
    filled intervals' values, one generator call each.
    """
    _check_integer("depth", depth, 1)  # before it sizes the profile
    fill_probability = _positive_real("fill_probability", fill_probability, 1.0)
    side = [(0.55, 0.95)] + [(0.26, 0.49)] * depth
    low, high = np.array([(0.3, 0.7)] + side + side).T  # one interval's slots

    def profile(stage, lo, hi):
        keep = None
        if stage > 1 and fill_probability < 1.0:
            keep = np.flatnonzero(rng.random(len(lo)) <= fill_probability)
            lo, hi = lo[keep], hi[keep]
        n = len(lo)
        vals = rng.uniform(np.tile(low, n), np.tile(high, n)).reshape(n, len(low))
        pole = lo + (hi - lo) * vals[:, 0]
        return keep, pole, vals[:, 1:].reshape(n, 2, depth + 1)

    return staged_complete_decomposition(mu, depth, profile, domain)
