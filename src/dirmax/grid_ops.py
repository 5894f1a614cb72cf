"""Discrete directional maximal operators on sampled planar functions.

For a direction angle fraction s (unit vector e_s = (cos 2*pi*s, sin 2*pi*s))
and half-length delta, the basic building block is the centered line average

    A_{s,delta} f(x) = (1/2 delta) * integral_{-delta}^{delta} |f(x + t e_s)| dt,

realized by a composite trapezoid rule with bilinear interpolation off the
lattice and zero extension outside the grid.  The three maximal operators are
discrete suprema over one shared family of such averages, each a set of
(half-length delta, half-width w) candidates reduced by one engine:

    m0: the single candidate (1, 0);
    m1: (delta, 0) for dyadic delta in cfg.radii, plus |f| itself;
    m2: rectangles (delta, w) for delta in cfg.radii and w = delta / 2**j,
        j = 0..aspect_levels, or the degenerate w = 0, plus |f| itself.

A candidate (delta, w) is the line average along e_s of the perpendicular
column average of half-width w (w = 0: of |f|).  Per direction the engine
builds each ladder once and max-reduces every field into each output that
has it as a candidate.  m2's pass builds every field of m1 (its w = 0
ladder), of m0 (that ladder's delta = 1 level) and of m1 over the
perpendicular directions on the column ladder, so operator calls that share
one ``bank`` get all four from one pass, bit for bit the fields of separate
calls, as max gives the same bits in any order.

Every m2 rectangle value is a line average (along e_s) of a column field that
is itself one of the m1 candidates for the perpendicular set, so the pointwise
chain

    m0 <= m1 <= m2 <= m1 (m1 f over perpendicular directions)

holds candidate-by-candidate in the discretization, not just approximately
(see ``chain_check``).  This forces rectangles centered at the evaluation
point; off-center rectangles ("x anywhere inside", offsets in quarters of the
side lengths) are available through cfg.offset_steps but break the literal
chain by a bounded factor, exactly as in the continuum.

Long radii are computed by a dyadic cascade A_{2 delta}(x) =
(A_delta(x - delta e) + A_delta(x + delta e)) / 2 applied to the sampled
field, which keeps the per-direction cost logarithmic in the radius range;
radii with few nodes are computed by the direct composite rule (the
``direct_nodes_cap`` knob draws the line).  The cascade zero-extends the
intermediate field rather than f, so near the grid edge it undershoots the
direct rule, and a cascaded level whose shift reaches the grid side is 0.

Each line average is a stencil: the list of nonzero-weight lattice corners
(di, dj, w) that the composite rule's bilinear reads add, node by node.  An
operator call builds each (direction, half-length, segments) stencil once
and shares it between every ladder that needs it; no stencil outlives the
call, and no field outlives its direction (only the bank's max-reduced
grids outlive a call).  A ladder builds only the levels in use: a level
that is neither a candidate nor the predecessor of a cascaded level is
skipped, and every level built is bit for bit the one of the full ladder.

Every shift-add is bounded to the row band [r0, r1) where its source is
nonzero.  Only |f| is scanned for its band (one ``any(axis=1)`` per operator
call); every other field carries the hull of the output rows its adds
touched, down the ladder and into the max-reduction, where each candidate
is max-reduced into the result over its own band only.  This is exact, not
an approximation, because every engine field is built from ``np.abs`` and
zeros by adding w * source with w >= 0, so it is nonnegative and never
-0.0: a skipped row would only have received x + (+0.0) == x, and
max(x, +0.0) == x.  An all-zero field (say a cascaded level whose shift
passes the grid side) carries the empty band and costs no adds.

The same argument bounds every field to a column window [c0, c1), one per
operator call: the nonzero columns of |f| (one ``any(axis=0)``), widened on
each side by a proven bound R on how far any field of the call spreads
sideways (its directions' horizontal reach over the longest line and
widest column, plus one column per ladder level; see ``_column_window``),
clipped to the grid.  Every field and offset candidate is built in an array
of the window's width and max-reduced into the window of the full-size
output.  A full-grid field is exactly zero outside the window, so a read
there is the zero extension, each pixel inside gets the same sequence of
fl(out + fl(w * src)) and each pixel outside keeps x: bit for bit the
full-width result.  Once the window spans every column (wide supports, long
radii) it is the full grid, with no copy.

All operations are pure; fields are computed in a fixed summation order so
results are reproducible bit for bit.
"""

from __future__ import annotations

import functools
import itertools
import math
import os
import struct
import warnings
from dataclasses import dataclass, replace
from typing import Callable, Container, Optional, Sequence

import numpy as np

from .errors import InvalidArgument, TruncationError, _check_integer, _positive_real
from .kernels import bump_eval, bump_integral, vp_eval, BUMP_AMPLITUDE
from .lacunary import DirectionSet, perpendicular

__all__ = [
    "Grid2D",
    "OperatorConfig",
    "m0",
    "m1",
    "m2",
    "strong_maximal",
    "gamma_op",
    "gamma_kernel",
    "chain_check",
    "ChainReport",
    "direction_vector",
]

_GRID_MAGIC = b"GRD2"
_GRID_HEADER = 24  # magic, u32 width, u32 height, u32 reserved, f64 spacing


@dataclass(frozen=True)
class Grid2D:
    """A sampled function on a uniform planar grid.

    ``values[i, j]`` is the sample at x = (origin[0] + j * spacing,
    origin[1] + i * spacing); the first coordinate is horizontal.  The
    origin centers the grid on (0, 0).
    """

    values: np.ndarray
    spacing: float

    def __post_init__(self):
        v = np.asarray(self.values)
        if v.ndim != 2:
            raise InvalidArgument("grid values must be a 2-d array")
        if v.size == 0:
            raise InvalidArgument(f"grid has no samples ({v.shape[0]}x{v.shape[1]})")
        if v.dtype.kind not in "fc":
            v = v.astype(float)
        if not np.all(np.isfinite(v)):
            raise InvalidArgument("grid values must be finite")
        object.__setattr__(self, "values", v)
        _positive_real("spacing", self.spacing)

    @property
    def origin(self) -> tuple[float, float]:
        return (-0.5 * (self.width - 1) * self.spacing, -0.5 * (self.height - 1) * self.spacing)

    @property
    def width(self) -> int:
        return self.values.shape[1]

    @property
    def height(self) -> int:
        return self.values.shape[0]

    def with_values(self, values: np.ndarray) -> "Grid2D":
        return Grid2D(values, self.spacing)

    def abs(self) -> "Grid2D":
        return self.with_values(np.abs(self.values))

    def l2_norm(self) -> float:
        return float(np.sqrt(np.sum(np.abs(self.values) ** 2))) * self.spacing

    def coords(self) -> tuple[np.ndarray, np.ndarray]:
        """Meshgrid-free coordinate axes: (x1 per column, x2 per row)."""
        x1 = self.origin[0] + self.spacing * np.arange(self.width)
        x2 = self.origin[1] + self.spacing * np.arange(self.height)
        return x1, x2

    def interior_mask(self, margin: float) -> np.ndarray:
        """True where the point is at least ``margin`` from every grid edge."""
        x1, x2 = self.coords()
        ok1 = (x1 >= x1[0] + margin) & (x1 <= x1[-1] - margin)
        ok2 = (x2 >= x2[0] + margin) & (x2 <= x2[-1] - margin)
        return np.outer(ok2, ok1)

    # binary format: 16-byte header (magic "GRD2", u32 width, u32 height,
    # u32 reserved), then f64 spacing, then row-major f64 values; grids are
    # centered on load (the origin is a convention, not serialized).
    def save(self, path) -> None:
        v = np.real_if_close(self.values)
        if np.iscomplexobj(v):
            raise InvalidArgument("binary grid format stores real grids only")
        with open(path, "wb") as fh:
            fh.write(struct.pack("<4sIII", _GRID_MAGIC, self.width, self.height, 0))
            fh.write(struct.pack("<d", self.spacing))
            fh.write(np.ascontiguousarray(v, dtype="<f8").tobytes())

    @staticmethod
    def load(path) -> "Grid2D":
        with open(path, "rb") as fh:
            head = fh.read(_GRID_HEADER)
            if head[:4] != _GRID_MAGIC:
                raise InvalidArgument(f"{path}: not a GRD2 grid file")
            if len(head) != _GRID_HEADER:
                raise InvalidArgument(f"{path}: truncated GRD2 header")
            _, w, h, _, spacing = struct.unpack("<4sIIId", head)
            # the header's size is checked against the file before anything
            # of that size is read, so a forged header cannot force a huge read
            n_bytes = 8 * w * h
            size = os.fstat(fh.fileno()).st_size
            if size != _GRID_HEADER + n_bytes:
                raise InvalidArgument(
                    f"{path}: header declares a {w}x{h} grid "
                    f"({_GRID_HEADER + n_bytes} bytes) but the file has {size} bytes"
                )
            raw = fh.read(n_bytes)
        if len(raw) != n_bytes:
            raise InvalidArgument(f"{path}: truncated GRD2 data")
        data = np.frombuffer(raw, dtype="<f8").reshape(h, w)
        return Grid2D(data.copy(), spacing)

    @staticmethod
    def load_csv(path, spacing: float) -> "Grid2D":
        try:
            with warnings.catch_warnings():
                # an empty file is rejected below, as a grid with no samples
                warnings.filterwarnings("ignore", "loadtxt: input contained no data")
                data = np.loadtxt(path, delimiter=",", ndmin=2)
        except ValueError as exc:
            raise InvalidArgument(f"{path}: malformed CSV grid ({exc})") from None
        return Grid2D(data, spacing)


@dataclass(frozen=True)
class OperatorConfig:
    """Discretization of the sup over scales and the rectangle family.

    ``radii`` must be a dyadic ladder (each radius exactly twice the
    previous); ``samples_per_unit`` fixes the line-quadrature density;
    ``aspect_levels`` the number of dyadic width levels below each rectangle
    length; ``offset_steps`` 1 or 2 adds off-center rectangles at quarter-step
    offsets (0 keeps rectangles centered, which the discrete operator chain
    requires; beyond 2 a rectangle misses its point); ``direct_nodes_cap``
    bounds the node count of directly computed line averages before the
    dyadic cascade takes over.
    """

    radii: tuple[float, ...]
    samples_per_unit: int = 16
    aspect_levels: int = 3
    offset_steps: int = 0
    direct_nodes_cap: int = 129

    def __post_init__(self):
        radii = tuple(_positive_real("radii", r) for r in self.radii)
        if not radii:
            raise InvalidArgument("radii must be nonempty")
        for a, b in zip(radii, radii[1:]):
            if b != 2.0 * a:
                raise InvalidArgument(
                    f"radii must form a dyadic ladder, {b} != 2 * {a}"
                )
        object.__setattr__(self, "radii", radii)
        _check_integer("samples_per_unit", self.samples_per_unit, 1)
        _check_integer("aspect_levels", self.aspect_levels, 0)
        # offsets up to half a side keep x inside
        _check_integer("offset_steps", self.offset_steps, 0, 2)
        _check_integer("direct_nodes_cap", self.direct_nodes_cap, 1)

    @staticmethod
    def dyadic(base: float, levels: int, **kw) -> "OperatorConfig":
        return OperatorConfig(tuple(base * 2.0**k for k in range(levels)), **kw)

    def widths_for(self, length: float) -> tuple[float, ...]:
        """Dyadic half-widths for a rectangle of half-length ``length``.

        Includes the degenerate width 0 (the line average itself), which ties
        the thinnest level to the line quadrature so m1 <= m2 by construction.
        """
        return tuple(length / 2.0**j for j in range(self.aspect_levels + 1)) + (0.0,)


# ---------------------------------------------------------------------------
# quadrature engine
# ---------------------------------------------------------------------------


_EXACT_AXES = {0.0: (1.0, 0.0), 0.25: (0.0, 1.0), 0.5: (-1.0, 0.0), 0.75: (0.0, -1.0)}


def direction_vector(s: float) -> tuple[float, float]:
    """Unit vector (cos 2*pi*s, sin 2*pi*s), exact on the four axes."""
    key = s % 1.0
    if key in _EXACT_AXES:
        return _EXACT_AXES[key]
    a = 2.0 * math.pi * s
    return (math.cos(a), math.sin(a))


def _row_band(a: np.ndarray) -> tuple[int, int]:
    """The rows [r0, r1) that hold every nonzero entry of ``a``; (0, 0) if none."""
    rows = np.flatnonzero(a.any(axis=1))
    return (int(rows[0]), int(rows[-1]) + 1) if rows.size else (0, 0)


def _shift_add(
    out: np.ndarray, src: np.ndarray, corners: Sequence[tuple[int, int, float]],
    rows: tuple[int, int],
) -> tuple[int, int]:
    """out += w * translate(src) for each corner (di, dj, w) in turn, where
    translate reads src at (i+di, j+dj); returns the hull [lo, hi) of the
    output rows the adds touched, (0, 0) if none.

    Zero extension: out-of-range reads contribute nothing.  ``rows`` = (r0,
    r1) promises that src is zero outside its rows [r0, r1), so a corner adds
    only to the output rows reading them, [r0 - di, r1 - di).  That is bit
    for bit the full add when out holds no -0.0, as no engine field does
    (they are nonnegative sums started from zeros): each skipped
    row would only get x + (w * 0.0), which is x unless x is -0.0.  For a
    field started from zeros, the returned hull is therefore a row band of
    it that the next shift-add can be given.

    Both arrays must be C-contiguous and of the same shape: their flat views
    are taken once per call (``ValueError`` otherwise, since a flat view
    needs C order), and each corner's valid output rows form one run of the
    flattened array, updated by a single 1-D add.  In that run the |dj|
    columns between two rows read across a row boundary; they are saved
    before the add and restored after it.  Each pixel still gets
    fl(out + fl(w * src)) per corner, in corner order, so results match the
    2-D slice adds bit for bit.
    """
    h, wdt = out.shape
    o, s = out.reshape(-1, copy=False), src.reshape(-1, copy=False)
    r0, r1 = rows
    lo, hi = h, 0
    for di, dj, w in corners:
        i0, i1 = r0 - di, r1 - di
        if i0 < 0:
            i0 = 0
        if i1 > h:
            i1 = h
        if i0 >= i1 or dj >= wdt or -dj >= wdt:
            continue
        if i0 < lo:
            lo = i0
        if i1 > hi:
            hi = i1
        off = di * wdt + dj
        if dj >= 0:
            a, b = i0 * wdt, (i1 - 1) * wdt + wdt - dj
        else:
            a, b = i0 * wdt - dj, i1 * wdt
        wrap = None
        if dj and i1 - i0 > 1:
            wrap = out[i0 : i1 - 1, wdt - dj :] if dj > 0 else out[i0 + 1 : i1, :-dj]
            kept = wrap.copy()
        o[a:b] += w * s[a + off : b + off]
        if wrap is not None:
            wrap[...] = kept
    return (lo, hi) if lo < hi else (0, 0)


def _corners(cx: float, cy: float, w: float) -> list[tuple[int, int, float]]:
    """The nonzero-weight corners (di, dj, w') of a bilinear read at (cx, cy)
    grid units, weighted by w: sampling src there is adding them in order."""
    jx, fx = math.floor(cx), cx - math.floor(cx)
    iy, fy = math.floor(cy), cy - math.floor(cy)
    corners = (
        (iy, jx, w * (1 - fx) * (1 - fy)),
        (iy, jx + 1, w * fx * (1 - fy)),
        (iy + 1, jx, w * (1 - fx) * fy),
        (iy + 1, jx + 1, w * fx * fy),
    )
    return [c for c in corners if c[2] != 0.0]


def _stencil(
    e: tuple[float, float], delta: float, n_seg: int, spacing: float
) -> list[tuple[int, int, float]]:
    """The corners of the composite-trapezoid centered line average along e
    (half-length delta, n_seg segments): each node's bilinear corners, node
    by node from -delta to delta."""
    out = []
    step = 2.0 * delta / n_seg
    for k in range(n_seg + 1):
        t = -delta + k * step
        w = (0.5 if k in (0, n_seg) else 1.0) / n_seg
        out += _corners(t * e[0] / spacing, t * e[1] / spacing, w)
    return out


def _base_segments(delta: float, spu: int) -> int:
    return max(1, round(2.0 * delta * spu))


def _avg_field_ladder(
    src: np.ndarray, rows: tuple[int, int], e: tuple[float, float], radii: Sequence[float],
    wanted: Container[float], spu: int, direct_cap: int, stencil: Callable,
):
    """Yield (delta, field, band) for the levels of a dyadic ladder of
    centered line averages whose delta is ``wanted``.

    Level k has ``_base_segments(radii[0], spu) * 2**k`` segments, so the
    quadrature density is scale independent.  Levels whose node count stays
    at or below ``direct_cap`` apply the direct composite trapezoid rule to
    src; larger levels are built from the previous one by the two-point
    dyadic cascade.  A level is built only if it is wanted or a built cascade
    level needs it, and each built level is bit for bit the one of the full
    ladder, as its rule and source do not depend on the levels skipped.

    ``rows`` is src's row band; each field carries the hull of the rows its
    adds touched, which is the band its own cascade level is built over.
    For a nonnegative src every level is nonnegative and never -0.0.
    ``stencil(e, half_length, n_seg)`` gives a rule's corners (``_stencil``
    at the grid spacing); a caller that caches it shares each stencil
    between ladders.
    """
    n0 = _base_segments(radii[0], spu)
    build = [d in wanted for d in radii]
    for k in range(len(radii) - 1, 0, -1):
        if build[k] and n0 * 2**k + 1 > direct_cap:  # cascaded from level k - 1
            build[k - 1] = True
    for k, delta in enumerate(radii):
        if not build[k]:
            continue
        n_seg = n0 * 2**k
        if k == 0 or n_seg + 1 <= direct_cap:
            corners, base, base_rows = stencil(e, delta, n_seg), src, rows
        else:  # the one-segment rule over the previous level: nodes -+ delta / 2
            corners, base, base_rows = stencil(e, delta / 2.0, 1), fld, fld_rows
        fld = np.zeros(src.shape, src.dtype)
        fld_rows = _shift_add(fld, base, corners, base_rows)
        if delta in wanted:
            yield delta, fld, fld_rows


# ---------------------------------------------------------------------------
# public operators
# ---------------------------------------------------------------------------


def _column_ladder_radii(cfg: OperatorConfig) -> tuple[float, ...]:
    """Dyadic ladder of all rectangle half-widths, smallest positive first."""
    w_min = cfg.radii[0] / 2.0**cfg.aspect_levels
    return tuple(w_min * 2.0**k for k in range(cfg.aspect_levels + len(cfg.radii)))


def _column_window(
    a: np.ndarray, spacing: float, axes: Sequence, cfg: OperatorConfig, ops: Sequence
) -> tuple[int, int]:
    """The columns [c0, c1) outside which every field of a ``_sup`` call over
    a = |f| is zero: a's nonzero columns, widened on each side by a reach R
    and clipped to the grid; (0, 0) if a is all zero.  ``axes`` holds the
    pair (e, e_perp) of each direction, ``ops`` the call's ops.

    A bilinear read at x grid units moves columns by |dj| <= ceil(|x|), less
    than |x| + 1.  A direct level of half-length delta along e reads within
    delta |e_1| / spacing, and a cascaded level reads its predecessor within
    delta |e_1| / (2 spacing), so the reads down to a ladder's level delta
    sum to delta |e_1| / spacing, one read per level.  A rectangle field is
    a line level over a column level, and an offset is one more read, at
    |o1 e_1 + o2 e_perp_1| / spacing with |o1| <= steps delta / 2 and
    |o2| <= steps w / 2.  Hence, maximized over the call's directions,

        R = ceil((1 + steps/2) (delta_max |e_1| + w_max |e_perp_1|) / spacing)
            + (line-ladder levels) + (column-ladder levels) + 1

    bounds every field's spread; the last 1 absorbs the rounding of the node
    positions and of R itself.
    """
    c0, c1 = _row_band(a.T)
    if c0 == c1:
        return 0, 0
    d_max = max(d for pairs, _ in ops for d, _ in pairs)
    w_max = max(w for pairs, _ in ops for _, w in pairs)
    grow = 1.0 + max(steps for _, steps in ops) / 2.0
    reach = max(
        math.ceil(grow * (d_max * abs(e[0]) + w_max * abs(ep[0])) / spacing) for e, ep in axes
    ) + len(cfg.radii) + len(_column_ladder_radii(cfg)) + 1
    return max(0, c0 - reach), min(a.shape[1], c1 + reach)


def _sup(f: Grid2D, omega: DirectionSet, cfg: OperatorConfig, ops: Sequence) -> list[Grid2D]:
    """Max-reduce each op's candidates over every direction in one pass; one
    field per op, in order.  An op is (pairs, offset_steps): the pair
    (delta, w) is the line average along e_s, of half-length delta, of the
    column field of half-width w (delta = 0: the column field; w = 0: |f|).

    Per direction, one column ladder builds every positive half-width some op
    uses, and one ladder per half-width every half-length some op pairs with
    it, skipping the levels neither in use nor a cascade predecessor.  Each
    field is max-reduced into every op that has it as a candidate, over the
    row band its adds touched (exact, as every field is >= +0.0), and none
    outlives its direction.  The ladders of one direction share stencils.

    Every field lives in the column window [c0, c1) of ``_column_window``:
    |f| is sliced to it once (a view when it spans the grid), every ladder
    field and offset candidate has its width, and each is max-reduced into
    ``out[r0:r1, c0:c1]``.  Every full-grid field is zero outside the window,
    so each pixel inside gets the same fl(out + fl(w * src)) sequence and
    each one outside would only get x + (+0.0) and max(x, +0.0): the result
    is bit for bit that of full-width fields.
    """
    if len(omega) == 0:
        raise InvalidArgument("direction set must be nonempty")
    full = np.abs(f.values, order="C")  # the shift-add kernel needs C order
    outs = [full.copy() if (0.0, 0.0) in pairs else np.zeros(full.shape, full.dtype)
            for pairs, _ in ops]
    widths = {w for pairs, _ in ops for _, w in pairs if w > 0.0}
    lengths: dict = {}  # half-width -> the positive half-lengths paired with it
    for d, w in {p for pairs, _ in ops for p in pairs if p[0] > 0.0}:
        lengths.setdefault(w, set()).add(d)
    col_radii = _column_ladder_radii(cfg)
    stencil = functools.cache(functools.partial(_stencil, spacing=f.spacing))
    axes = [(direction_vector(s), direction_vector((s + 0.25) % 1.0)) for s in omega.values]
    c0, c1 = _column_window(full, f.spacing, axes, cfg, ops)
    src = np.ascontiguousarray(full[:, c0:c1])  # a view when it spans every column
    band = _row_band(src)

    def ladder(base, rows, e, radii, wanted):
        return _avg_field_ladder(
            base, rows, e, radii, wanted, cfg.samples_per_unit, cfg.direct_nodes_cap, stencil
        )

    def shifts(half: float, steps: int) -> list[float]:
        # quarter-step offsets of the full side (length 2 * half)
        n = steps if half else 0
        return [k * half / 2.0 for k in range(-n, n + 1)]

    def reduce(delta, w, fld, rows):
        for (pairs, steps), out in zip(ops, outs):
            if (delta, w) not in pairs:
                continue
            offsets = (itertools.product(shifts(delta, steps), shifts(w, steps)) if steps
                       else [(0, 0)])
            for o1, o2 in offsets:
                cand, (r0, r1) = fld, rows
                if o1 or o2:
                    cand = np.zeros(src.shape, src.dtype)
                    cx = (o1 * e[0] + o2 * ep[0]) / f.spacing
                    cy = (o1 * e[1] + o2 * ep[1]) / f.spacing
                    r0, r1 = _shift_add(cand, fld, _corners(cx, cy, 1.0), rows)
                box = out[r0:r1, c0:c1]
                np.maximum(box, cand[r0:r1], out=box)

    for e, ep in axes:
        columns = {0.0: (src, band)}
        for w, col, rows in ladder(src, band, ep, col_radii, widths):
            columns[w] = col, rows
            reduce(0.0, w, col, rows)
        for w, deltas in lengths.items():
            for delta, fld, rows in ladder(*columns[w], e, cfg.radii, deltas):
                reduce(delta, w, fld, rows)
    return [f.with_values(out) for out in outs]


def _maximal(op: str, f: Grid2D, omega: DirectionSet, cfg: OperatorConfig, bank) -> Grid2D:
    """The field of op (m0, m1 or m2), taken from ``bank`` when it holds it;
    otherwise one ``_sup`` pass, which also banks each reduction of the
    fields it builds that the bank lacks.  A key holds the operator, its
    directions and ladder parameters (and m2's rectangle family)."""
    col = _column_ladder_radii(cfg)
    point = frozenset({(0.0, 0.0)})
    rect = frozenset((d, w) for d in cfg.radii for w in cfg.widths_for(d))
    outputs = {  # name -> (directions, radii, pairs, offset steps)
        "m0": (omega, cfg.radii, frozenset({(1.0, 0.0)}), 0),
        "m1": (omega, cfg.radii, point | {(d, 0.0) for d in cfg.radii}, 0),
        "m2": (omega, cfg.radii, point | rect, cfg.offset_steps),
        "m1-perp": (perpendicular(omega), col, point | {(0.0, w) for w in col}, 0),
    }

    def key(name):  # m1-perp is m1, over other directions on another ladder
        directions, radii = outputs[name][:2]
        shape = (cfg.aspect_levels, cfg.offset_steps) if name == "m2" else ()
        return (name[:2], directions.values, radii, cfg.samples_per_unit,
                cfg.direct_nodes_cap, shape)

    names = [op]
    if bank is not None:
        if key(op) in bank:
            return bank[key(op)]
        more = {"m0": [], "m1": ["m0"], "m2": ["m1", "m0", "m1-perp"]}[op]
        names += [n for n in more if key(n) not in bank and (n != "m0" or 1.0 in cfg.radii)]
    fields = _sup(f, omega, cfg, [outputs[n][2:] for n in names])
    if bank is not None:
        bank.update(zip(map(key, names), fields))
    return fields[0]


def m0(f: Grid2D, omega: DirectionSet, cfg: Optional[OperatorConfig] = None, *,
       bank=None) -> Grid2D:
    """Unit-half-length directional average field, maximized over directions.

    The candidate (1, 0): the delta = 1 level of the config's ladder cut at 1
    (so m0 <= m1 sample by sample), or of the ladder (1.0,) when 1.0 is not a
    radius; without a config the density is one node per grid step.
    ``bank`` as for m2.
    """
    if f.spacing > 0.125:
        raise InvalidArgument("grid spacing must be <= 1/8 to resolve unit averages")
    if cfg is None:
        cfg = OperatorConfig((1.0,), samples_per_unit=max(1, round(1.0 / f.spacing)))
    elif 1.0 not in cfg.radii:
        cfg = replace(cfg, radii=(1.0,))
    return _maximal("m0", f, omega, cfg, bank)


def m1(f: Grid2D, omega: DirectionSet, cfg: OperatorConfig, *, bank=None) -> Grid2D:
    """Directional maximal field: sup over directions and dyadic radii.

    The candidates (delta, 0), delta in cfg.radii, and the degenerate
    zero-radius one (the sample itself): the continuum supremum runs over
    arbitrarily small half-lengths, which at grid resolution collapse to the
    point value.  The dyadic ladder then tracks the true supremum within a
    factor 2 (averages at comparable radii are 2-comparable).  ``bank`` as
    for m2.
    """
    return _maximal("m1", f, omega, cfg, bank)


def m2(f: Grid2D, omega: DirectionSet, cfg: OperatorConfig, *, bank=None) -> Grid2D:
    """Rectangle maximal field over the discretized slope-s rectangle family.

    The candidates (delta, w), w in cfg.widths_for(delta), and the sample
    itself: the centered line average (along e_s, radius delta) of the
    perpendicular column-average field at radius w; w = 0 degenerates to the
    plain line average.  cfg.offset_steps > 0 additionally evaluates
    off-center rectangles by shifting the same fields.

    ``bank``, a dict the caller keeps for one input grid, shares fields
    between calls: a call whose field it holds returns that, and any other
    call stores its field and every reduction its pass subsumes (m1, m0 and
    m1 over ``perpendicular(omega)`` on ``_column_ladder_radii(cfg)`` for
    m2; m0 for m1).  Only these max-reduced grids are kept, so
    ``chain_check``'s bank holds four.
    """
    return _maximal("m2", f, omega, cfg, bank)


def strong_maximal(f: Grid2D, cfg: OperatorConfig) -> Grid2D:
    """Maximal field over axis-parallel rectangles (slopes 0 and vertical)."""
    return m2(f, DirectionSet((0.0, 0.25)), cfg)


# ---------------------------------------------------------------------------
# smoothed directional operator
# ---------------------------------------------------------------------------

# integral of |V_r| over the line (scale invariant); 9.04 bounds the
# numerically evaluated value 9.037 from above
_VP_L1 = 9.04
_VP_TAIL = 16.0  # integral_{|u| > T} |V_r| <= 16 / (r T), from |V_r| <= 8/(r u^2)
_MAX_LOST_FRACTION = 1e-3  # largest kernel mass fraction gamma_op may lose


def _gamma_tail_fraction(
    r: float, h: float, alpha: float, lx: float, ly: float, spacing: float
) -> float:
    """Upper bound on the kernel mass fraction lost outside the sampled box.

    Splits the loss into the bump tail beyond |x1| > lx (at most
    O((h/lx)^3) of the bump mass, each unit carrying at most the full
    |V_r| mass) and the V tail beyond the box height, weighted by the bump
    profile across the box (the V factor at abscissa x1 loses at most
    16 / (r (ly - |alpha x1|)) there).
    """
    phi_total = bump_integral()
    t_phi = max(lx / h - 1.0, 1e-6)
    tail_phi = BUMP_AMPLITUDE * 2.0 * 4.0**4 / (3.0 * t_phi**3)
    x1 = np.arange(-lx, lx + spacing, spacing)
    w = bump_eval(h, x1) * spacing
    t_v = ly - abs(alpha) * np.abs(x1)
    tail_v = np.where(
        t_v > 0,
        np.minimum(_VP_L1, _VP_TAIL / (r * np.maximum(t_v, 1e-300))),
        _VP_L1,
    )
    lost = float(np.dot(w, tail_v)) + _VP_L1 * tail_phi
    total = 2.0 * math.pi * phi_total  # |integral of the kernel|, a lower bound
    return lost / total


def gamma_kernel(f: Grid2D, alpha: float, r: float, h: float) -> np.ndarray:
    """The sampled convolution kernel V_r(x2 - alpha x1) phi_h(x1) * spacing^2.

    Odd-sized, centered on the grid's sample lattice.
    """
    kh = 2 * (f.height // 2) + 1
    kw = 2 * (f.width // 2) + 1
    x1 = (np.arange(kw) - kw // 2) * f.spacing
    x2 = (np.arange(kh) - kh // 2) * f.spacing
    vr = vp_eval(r, x2[:, None] - alpha * x1[None, :])
    return vr * bump_eval(h, x1)[None, :] * f.spacing**2


def _convolve_same(a: np.ndarray, k: np.ndarray) -> np.ndarray:
    """Linear convolution of a real 2-d float64 ``a`` with ``k``, cropped to a's shape.

    The transformed axes are those where a is longer than 1 (both, for a
    single sample); each is zero-padded to the smallest size >= its full
    length with no prime factor above 5, and the unscaled inverse is
    multiplied by 1 / prod(sizes) once.  Sizes, axes and scaling are fixed
    because each changes the last bits; the tests pin them against an
    independent FFT convolution.
    """

    def padded(n: int) -> int:
        odd = (3**b * 5**c for b in range(n.bit_length()) for c in range(n.bit_length()))
        return min(p << ((n - 1) // p).bit_length() for p in odd)

    axes = tuple(ax for ax in (0, 1) if a.shape[ax] > 1) or (0, 1)
    s = [padded(a.shape[ax] + k.shape[ax] - 1) for ax in axes]
    spec = np.fft.rfftn(a, s, axes=axes) * np.fft.rfftn(k, s, axes=axes)
    full = np.fft.irfftn(spec, s, axes=axes, norm="forward") * (1.0 / math.prod(s))
    i, j = ((m - 1) // 2 for m in k.shape)
    return full[i : i + a.shape[0], j : j + a.shape[1]].copy()


def gamma_op(
    f: Grid2D, alpha: float, r: float, h: float, check_truncation: bool = True
) -> Grid2D:
    """Convolve f with the directional smoothing kernel V_r(x2 - alpha x1) phi_h(x1).

    Linear (zero-padded) convolution computed spectrally with numpy.fft, in
    float64; a complex grid's real and imaginary parts are convolved apart.
    When the estimated kernel mass outside the sampled box exceeds
    ``_MAX_LOST_FRACTION`` of the total, a TruncationError carrying the
    estimate is raised; enlarge the grid, raise r, or shrink h to pass the
    guard.
    """
    if not math.isfinite(alpha):
        raise InvalidArgument(f"alpha must be finite, got {alpha}")
    r, h = _positive_real("r", r), _positive_real("h", h)
    lx = 0.5 * (f.width - 1) * f.spacing
    ly = 0.5 * (f.height - 1) * f.spacing
    lost = _gamma_tail_fraction(r, h, alpha, lx, ly, f.spacing)
    if check_truncation and lost > _MAX_LOST_FRACTION:
        raise TruncationError(
            f"kernel loses an estimated {lost:.2e} of its mass outside the "
            f"grid (limit {_MAX_LOST_FRACTION:.1e}); enlarge the grid or "
            "increase r / decrease h",
            lost_fraction=lost,
        )
    kernel = gamma_kernel(f, alpha, r, h)
    v = f.values
    if np.iscomplexobj(v):
        out = _convolve_same(v.real.astype(float), kernel) + 1j * _convolve_same(
            v.imag.astype(float), kernel
        )
    else:
        out = _convolve_same(v.astype(float, copy=False), kernel)
    return f.with_values(out)


# ---------------------------------------------------------------------------
# the pointwise operator chain
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ChainReport:
    """Maximum pointwise violations of the operator chain, one per link."""

    m0_vs_m1: float
    m1_vs_m2: float
    m2_vs_composition: float
    fields: Optional[dict] = None

    @property
    def max_violation(self) -> float:
        return max(self.m0_vs_m1, self.m1_vs_m2, self.m2_vs_composition)


def chain_check(
    f: Grid2D, omega: DirectionSet, cfg: OperatorConfig, keep_fields: bool = False
) -> ChainReport:
    """Verify m0 <= m1 <= m2 <= m1 (m1 . perpendicular) pointwise.

    Uses the centered rectangle family (offsets disabled) and refines the
    inner maximal operator's ladder down to the thinnest rectangle width, so
    every rectangle candidate is dominated by the composition candidate built
    from the same column field.  Both sides of each link apply the same line
    operators, and fl(a + w * b) with w >= 0 is monotone, so any violation
    above exactly 0.0 indicates a broken discretization.
    """
    if 1.0 not in cfg.radii:
        raise InvalidArgument("chain_check needs 1.0 in cfg.radii for the m0 link")
    cfg_c = replace(cfg, offset_steps=0)
    # the inner sup refines down to the thinnest rectangle width, so every
    # column field of m2 is literally one of its candidates
    inner_cfg = replace(cfg_c, radii=_column_ladder_radii(cfg_c))
    # m2's pass builds every field of m0, m1 and the inner m1, which the
    # bank then returns; the composition's input is a new grid
    bank: dict = {}
    c = m2(f, omega, cfg_c, bank=bank)
    a = m0(f, omega, cfg_c, bank=bank)
    b = m1(f, omega, cfg_c, bank=bank)
    g = m1(f, perpendicular(omega), inner_cfg, bank=bank)
    d = m1(g, omega, cfg_c)
    v1 = float(np.max(a.values - b.values))
    v2 = float(np.max(b.values - c.values))
    v3 = float(np.max(c.values - d.values))
    fields = {"m0": a, "m1": b, "m2": c, "m1m1perp": d} if keep_fields else None
    return ChainReport(max(v1, 0.0), max(v2, 0.0), max(v3, 0.0), fields)
