"""Discrete directional maximal operators on sampled planar functions.

For a direction angle fraction s (unit vector e_s = (cos 2*pi*s, sin 2*pi*s))
and half-length delta, the basic building block is the centered line average

    A_{s,delta} f(x) = (1/2 delta) * integral_{-delta}^{delta} |f(x + t e_s)| dt,

realized by a composite trapezoid rule with bilinear interpolation off the
lattice and zero extension outside the grid.  The three maximal operators are
discrete suprema over one shared family of such averages:

    m0: fixed delta = 1;
    m1: sup over dyadic delta in cfg.radii;
    m2: sup over rectangles, realized as line averages of perpendicular
        column-average fields (length delta from cfg.radii, width
        delta / 2**j for j = 0..aspect_levels plus the degenerate width 0).

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

All operations are pure; fields are computed in a fixed summation order so
results are reproducible bit for bit.
"""

from __future__ import annotations

import math
import numbers
import os
import struct
from dataclasses import dataclass, field, replace
from typing import Optional, Sequence

import numpy as np
from scipy.signal import fftconvolve

from .errors import InvalidArgument, TruncationError
from .kernels import bump_eval, bump_integral, vp_eval, BUMP_AMPLITUDE
from .lacunary import DirectionSet, perpendicular

__all__ = [
    "Grid2D",
    "OperatorConfig",
    "directional_avg",
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
    default origin centers the grid on (0, 0).
    """

    values: np.ndarray
    spacing: float
    origin: tuple[float, float] = field(default=None)  # type: ignore[assignment]

    def __post_init__(self):
        v = np.asarray(self.values)
        if v.ndim != 2:
            raise InvalidArgument("grid values must be a 2-d array")
        if v.dtype.kind not in "fc":
            v = v.astype(float)
        if not np.all(np.isfinite(v)):
            raise InvalidArgument("grid values must be finite")
        object.__setattr__(self, "values", v)
        if not (self.spacing > 0) or not math.isfinite(self.spacing):
            raise InvalidArgument("spacing must be a positive real")
        if self.origin is None:
            h, w = v.shape
            object.__setattr__(
                self,
                "origin",
                (-0.5 * (w - 1) * self.spacing, -0.5 * (h - 1) * self.spacing),
            )

    @property
    def width(self) -> int:
        return self.values.shape[1]

    @property
    def height(self) -> int:
        return self.values.shape[0]

    def with_values(self, values: np.ndarray) -> "Grid2D":
        return Grid2D(values, self.spacing, self.origin)

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

    def save_csv(self, path) -> None:
        np.savetxt(path, self.values, delimiter=",")

    @staticmethod
    def load_csv(path, spacing: float) -> "Grid2D":
        try:
            data = np.loadtxt(path, delimiter=",")
        except ValueError as exc:
            raise InvalidArgument(f"{path}: malformed CSV grid ({exc})") from None
        return Grid2D(np.atleast_2d(data), spacing)


@dataclass(frozen=True)
class OperatorConfig:
    """Discretization of the sup over scales and the rectangle family.

    ``radii`` must be a dyadic ladder (each radius exactly twice the
    previous); ``samples_per_unit`` fixes the line-quadrature density;
    ``aspect_levels`` the number of dyadic width levels below each rectangle
    length; ``offset_steps`` > 0 adds off-center rectangles at quarter-step
    offsets (0 keeps rectangles centered, which the discrete operator chain
    requires); ``direct_nodes_cap`` bounds the node count of directly
    computed line averages before the dyadic cascade takes over.
    """

    radii: tuple[float, ...]
    samples_per_unit: int = 16
    aspect_levels: int = 3
    offset_steps: int = 0
    direct_nodes_cap: int = 129

    def __post_init__(self):
        radii = tuple(float(r) for r in self.radii)
        if not radii or any(not (r > 0 and math.isfinite(r)) for r in radii):
            raise InvalidArgument("radii must be positive reals")
        for a, b in zip(radii, radii[1:]):
            if b != 2.0 * a:
                raise InvalidArgument(
                    f"radii must form a dyadic ladder, {b} != 2 * {a}"
                )
        object.__setattr__(self, "radii", radii)
        if self.samples_per_unit < 1:
            raise InvalidArgument("samples_per_unit must be >= 1")
        if self.aspect_levels < 0 or self.offset_steps < 0:
            raise InvalidArgument("aspect_levels and offset_steps must be >= 0")
        cap = self.direct_nodes_cap
        if isinstance(cap, bool) or not isinstance(cap, numbers.Integral) or cap < 1:
            raise InvalidArgument(f"direct_nodes_cap must be a positive integer, got {cap!r}")

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


def _shift_add(out: np.ndarray, src: np.ndarray, di: int, dj: int, w: float) -> None:
    """out += w * translate(src) where translate reads src at (i+di, j+dj).

    Zero extension: out-of-range reads contribute nothing.

    Both arrays must be C-contiguous and of the same shape: the valid output
    rows form one run of the flattened array, which is updated by a single
    1-D add (``ValueError`` otherwise, since a flat view needs C order).  In
    that run the |dj| columns between two rows read across a row boundary;
    they are saved before the add and restored after it.  Each pixel still
    gets fl(out + fl(w * src)), so results match the 2-D slice add bit for
    bit.
    """
    if w == 0.0:
        return
    h, wdt = out.shape
    i0, i1 = max(0, -di), min(h, h - di)
    j0, j1 = max(0, -dj), min(wdt, wdt - dj)
    if i0 >= i1 or j0 >= j1:
        return
    if dj:
        wrap = out[i0 : i1 - 1, j1:] if dj > 0 else out[i0 + 1 : i1, :j0]
        kept = wrap.copy()
    a, b = i0 * wdt + j0, (i1 - 1) * wdt + j1
    off = di * wdt + dj
    out.reshape(-1, copy=False)[a:b] += w * src.reshape(-1, copy=False)[a + off : b + off]
    if dj:
        wrap[...] = kept


def _bilinear_shift_add(out, src, cx: float, cy: float, w: float) -> None:
    """out += w * (src sampled at lattice points shifted by (cx, cy) grid units)."""
    jx, fy_x = math.floor(cx), cx - math.floor(cx)
    iy, fy_y = math.floor(cy), cy - math.floor(cy)
    _shift_add(out, src, iy, jx, w * (1 - fy_x) * (1 - fy_y))
    _shift_add(out, src, iy, jx + 1, w * fy_x * (1 - fy_y))
    _shift_add(out, src, iy + 1, jx, w * (1 - fy_x) * fy_y)
    _shift_add(out, src, iy + 1, jx + 1, w * fy_x * fy_y)


def _trapezoid_field(
    src: np.ndarray, e: tuple[float, float], delta: float, n_seg: int, spacing: float
) -> np.ndarray:
    """Composite-trapezoid centered line average of the field, all pixels at once."""
    out = np.zeros_like(src)
    step = 2.0 * delta / n_seg
    for k in range(n_seg + 1):
        t = -delta + k * step
        w = (0.5 if k in (0, n_seg) else 1.0) / n_seg
        _bilinear_shift_add(out, src, t * e[0] / spacing, t * e[1] / spacing, w)
    return out


def _base_segments(delta: float, spu: int) -> int:
    return max(1, round(2.0 * delta * spu))


def _avg_field_ladder(
    src: np.ndarray,
    e: tuple[float, float],
    radii: Sequence[float],
    spacing: float,
    spu: int,
    direct_cap: int,
):
    """Yield (delta, field) for a dyadic ladder of centered line averages.

    Levels whose node count stays at or below ``direct_cap`` use the direct
    composite trapezoid rule; larger levels are built from the previous one by
    the two-point dyadic cascade.  The node count doubles with the radius, so
    the quadrature density is scale independent.
    """
    n0 = _base_segments(radii[0], spu)
    prev = None
    for k, delta in enumerate(radii):
        n_seg = n0 * 2**k
        if prev is None or n_seg + 1 <= direct_cap:
            fld = _trapezoid_field(src, e, delta, n_seg, spacing)
        else:
            half = delta / 2.0
            fld = np.zeros_like(src)
            _bilinear_shift_add(fld, prev, -half * e[0] / spacing, -half * e[1] / spacing, 0.5)
            _bilinear_shift_add(fld, prev, half * e[0] / spacing, half * e[1] / spacing, 0.5)
        prev = fld
        yield delta, fld


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


# ---------------------------------------------------------------------------
# public operators
# ---------------------------------------------------------------------------


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
    spu = samples_per_unit or max(1, round(1.0 / f.spacing))
    e = direction_vector(s)
    n_seg = _base_segments(delta, spu)
    ts = np.linspace(-delta, delta, n_seg + 1)
    w = np.full(n_seg + 1, 1.0 / n_seg)
    w[0] = w[-1] = 0.5 / n_seg
    vals = _bilinear_sample(f.abs(), x[0] + ts * e[0], x[1] + ts * e[1])
    return float(np.dot(w, vals))


def _require_directions(omega: DirectionSet) -> tuple[float, ...]:
    if len(omega) == 0:
        raise InvalidArgument("direction set must be nonempty")
    return omega.values


def m0(f: Grid2D, omega: DirectionSet, cfg: Optional[OperatorConfig] = None) -> Grid2D:
    """Unit-half-length directional average field, maximized over directions.

    The field is the delta = 1 level of the config's ladder cut at 1 (so m0 <=
    m1 sample by sample), or of the ladder (1.0,) when 1.0 is not a radius;
    without a config the density is one node per grid step.
    """
    dirs = _require_directions(omega)
    if f.spacing > 0.125:
        raise InvalidArgument("grid spacing must be <= 1/8 to resolve unit averages")
    if cfg is None:
        cfg = OperatorConfig((1.0,), samples_per_unit=max(1, round(1.0 / f.spacing)))
    ladder = tuple(r for r in cfg.radii if r <= 1.0) if 1.0 in cfg.radii else (1.0,)
    src = np.abs(f.values, order="C")  # the shift-add kernel needs C order
    out = np.zeros_like(src)
    for s in dirs:
        for delta, fld in _avg_field_ladder(
            src, direction_vector(s), ladder, f.spacing, cfg.samples_per_unit,
            cfg.direct_nodes_cap,
        ):
            if delta == 1.0:
                np.maximum(out, fld, out=out)
    return f.with_values(out)


def m1(f: Grid2D, omega: DirectionSet, cfg: OperatorConfig) -> Grid2D:
    """Directional maximal field: sup over directions and dyadic radii.

    The degenerate zero-radius candidate (the sample itself) is always
    included: the continuum supremum runs over arbitrarily small half-lengths,
    which at grid resolution collapse to the point value.  The dyadic ladder
    then tracks the true supremum within a factor 2 (averages at comparable
    radii are 2-comparable).
    """
    dirs = _require_directions(omega)
    src = np.abs(f.values, order="C")  # the shift-add kernel needs C order
    out = src.copy()
    for s in dirs:
        e = direction_vector(s)
        for _delta, fld in _avg_field_ladder(
            src, e, cfg.radii, f.spacing, cfg.samples_per_unit, cfg.direct_nodes_cap
        ):
            np.maximum(out, fld, out=out)
    return f.with_values(out)


def _column_ladder_radii(cfg: OperatorConfig) -> tuple[float, ...]:
    """Dyadic ladder of all rectangle half-widths, smallest positive first."""
    w_min = cfg.radii[0] / 2.0**cfg.aspect_levels
    levels = cfg.aspect_levels + len(cfg.radii)
    return tuple(w_min * 2.0**k for k in range(levels))


def _offsets(cfg: OperatorConfig, half: float) -> list[float]:
    if cfg.offset_steps == 0 or half == 0.0:
        return [0.0]
    # quarter-step offsets of the full side (length 2 * half)
    return [k * half / 2.0 for k in range(-cfg.offset_steps, cfg.offset_steps + 1)]


def m2(f: Grid2D, omega: DirectionSet, cfg: OperatorConfig) -> Grid2D:
    """Rectangle maximal field over the discretized slope-s rectangle family.

    A rectangle candidate of half-length a and half-width b is evaluated as
    the centered line average (along e_s, radius a) of the perpendicular
    column-average field at radius b; b = 0 degenerates to the plain line
    average.  cfg.offset_steps > 0 additionally evaluates off-center
    rectangles by shifting the same fields.
    """
    dirs = _require_directions(omega)
    src = np.abs(f.values, order="C")  # the shift-add kernel needs C order
    out = src.copy()
    col_radii = _column_ladder_radii(cfg)
    for s in dirs:
        e = direction_vector(s)
        ep = direction_vector((s + 0.25) % 1.0)
        columns: dict[float, np.ndarray] = {0.0: src}
        for wdt, fld in _avg_field_ladder(
            src, ep, col_radii, f.spacing, cfg.samples_per_unit, cfg.direct_nodes_cap
        ):
            columns[wdt] = fld
        for wdt, col in columns.items():
            # a width pairs only with lengths up to width * 2**aspect_levels;
            # truncating the ladder there saves the unused long levels
            if wdt == 0.0:
                ladder = cfg.radii
            else:
                top = wdt * 2.0**cfg.aspect_levels
                ladder = tuple(r for r in cfg.radii if r <= top)
            for delta, fld in _avg_field_ladder(
                col, e, ladder, f.spacing, cfg.samples_per_unit, cfg.direct_nodes_cap
            ):
                if wdt not in cfg.widths_for(delta):
                    continue
                for o1 in _offsets(cfg, delta):
                    for o2 in _offsets(cfg, wdt):
                        if o1 == 0.0 and o2 == 0.0:
                            np.maximum(out, fld, out=out)
                        else:
                            cand = np.zeros_like(src)
                            cx = (o1 * e[0] + o2 * ep[0]) / f.spacing
                            cy = (o1 * e[1] + o2 * ep[1]) / f.spacing
                            _bilinear_shift_add(cand, fld, cx, cy, 1.0)
                            np.maximum(out, cand, out=out)
    return f.with_values(out)


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


def gamma_op(
    f: Grid2D,
    alpha: float,
    r: float,
    h: float,
    check_truncation: bool = True,
    max_lost_fraction: float = 1e-3,
) -> Grid2D:
    """Convolve f with the directional smoothing kernel V_r(x2 - alpha x1) phi_h(x1).

    Linear (zero-padded) convolution computed spectrally.  When the estimated
    kernel mass outside the sampled box exceeds ``max_lost_fraction`` of the
    total, a TruncationError carrying the estimate is raised; enlarge the
    grid, raise r, or shrink h to pass the guard.
    """
    if not (r > 0 and h > 0):
        raise InvalidArgument("r and h must be positive")
    lx = 0.5 * (f.width - 1) * f.spacing
    ly = 0.5 * (f.height - 1) * f.spacing
    lost = _gamma_tail_fraction(r, h, alpha, lx, ly, f.spacing)
    if check_truncation and lost > max_lost_fraction:
        raise TruncationError(
            f"kernel loses an estimated {lost:.2e} of its mass outside the "
            f"grid (limit {max_lost_fraction:.1e}); enlarge the grid or "
            "increase r / decrease h",
            lost_fraction=lost,
        )
    kernel = gamma_kernel(f, alpha, r, h)
    out = fftconvolve(f.values, kernel, mode="same")
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
    from the same column field.  Violations are then pure floating-point
    noise; anything above 1e-9 indicates a broken discretization.
    """
    if 1.0 not in cfg.radii:
        raise InvalidArgument("chain_check needs 1.0 in cfg.radii for the m0 link")
    cfg_c = replace(cfg, offset_steps=0)
    # the inner sup refines down to the thinnest rectangle width, so every
    # column field of m2 is literally one of its candidates
    inner_cfg = replace(cfg_c, radii=_column_ladder_radii(cfg_c))
    a = m0(f, omega, cfg_c)
    b = m1(f, omega, cfg_c)
    c = m2(f, omega, cfg_c)
    g = m1(f, perpendicular(omega), inner_cfg)
    d = m1(g, omega, cfg_c)
    v1 = float(np.max(a.values - b.values))
    v2 = float(np.max(b.values - c.values))
    v3 = float(np.max(c.values - d.values))
    fields = {"m0": a, "m1": b, "m2": c, "m1m1perp": d} if keep_fields else None
    return ChainReport(max(v1, 0.0), max(v2, 0.0), max(v3, 0.0), fields)
