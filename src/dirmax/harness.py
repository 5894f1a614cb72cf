"""Empirical operator-norm scaling of the directional maximal operators.

The discrete L2 operator norm of m0/m1/m2 over a direction set is bounded
below by max_f ||op f||_2 / ||f||_2 over a finite family of test functions.
The classical stressor is a small disk: its maximal function decays like
radius/|x| along every direction that aims a segment through the disk, so N
well-separated directions light up an area growing like log N and the norm
ratio grows like sqrt(log N).  The harness measures these ratios over

  * uniformly spread direction sets of size N (expected sqrt(log N) growth
    for m1, log N for m2), and
  * staged complete lacunary constructions of order mu (expected sqrt(mu)
    growth for m1),

and fits the measured ratios against the candidate growth laws.

Test-function generation is deterministic: every random draw flows from a
counter-based generator keyed by (seed, label), so sweep rows are
reproducible independently of execution order.
"""

from __future__ import annotations

import math
import time
import warnings
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

import numpy as np

from .errors import InvalidArgument
from .grid_ops import Grid2D, OperatorConfig, direction_vector, m0, m1, m2
from .lacunary import DirectionSet, LacunaryDecomposition, staged_complete_decomposition

__all__ = [
    "TestFunctionSpec",
    "SweepRow",
    "SweepResult",
    "generate",
    "measure_ratio",
    "sweep_N",
    "sweep_mu",
    "fit_growth",
    "uniform_directions",
    "staged_lacunary_directions",
    "dedupe_angles",
]


@dataclass(frozen=True)
class TestFunctionSpec:
    """Recipe for one deterministic test function.

    kinds: disk(radius), annulus(inner, outer), needle_bundle(count, length,
    width, angles?), random_bumps(count, scale, seed), hot_pixel().
    Lengths are in multiples of the grid spacing, so specs scale with the
    grid they are rendered on.
    """

    __test__ = False  # not a pytest class despite the name

    kind: str
    radius: float = 4.0
    inner: float = 8.0
    outer: float = 16.0
    count: int = 8
    length: float = 0.0  # 0 = quarter of the grid extent
    width: float = 1.5
    scale: float = 8.0
    seed: int = 0
    angles: tuple[float, ...] = ()

    _KINDS = ("disk", "annulus", "needle_bundle", "random_bumps", "hot_pixel")

    def __post_init__(self):
        if self.kind not in self._KINDS:
            raise InvalidArgument(f"unknown test function kind {self.kind!r}")

    def label(self) -> str:
        return self.kind


def _rng_for(spec_seed: int, stream: int) -> np.random.Generator:
    # counter-based: independent streams keyed by (seed, stream)
    return np.random.Generator(np.random.Philox(key=(spec_seed, stream)))


def generate(spec: TestFunctionSpec, width: int, height: int, spacing: float) -> Grid2D:
    """Render a test-function spec on a grid; deterministic for a given spec."""
    if width < 2 or height < 2 or spacing <= 0:
        raise InvalidArgument("grid dimensions must be positive")
    g = Grid2D(np.zeros((height, width)), spacing)
    x1, x2 = g.coords()
    xx = x1[None, :]
    yy = x2[:, None]
    sp = spacing
    if spec.kind == "disk":
        r = spec.radius * sp
        if r <= 0:
            raise InvalidArgument("disk radius must be positive")
        vals = (xx**2 + yy**2 <= r * r).astype(float)
    elif spec.kind == "annulus":
        r0, r1 = spec.inner * sp, spec.outer * sp
        if not 0 <= r0 < r1:
            raise InvalidArgument("annulus needs 0 <= inner < outer")
        rr = xx**2 + yy**2
        vals = ((rr >= r0 * r0) & (rr <= r1 * r1)).astype(float)
    elif spec.kind == "needle_bundle":
        if spec.count < 1:
            raise InvalidArgument("needle count must be >= 1")
        angles = spec.angles or tuple(
            0.5 * k / spec.count for k in range(spec.count)
        )
        half_len = (spec.length or 0.25 * min(width, height)) * sp / 2.0
        half_w = max(spec.width * sp / 2.0, 0.5 * sp)
        vals = np.zeros((height, width))
        for s in angles:
            e = direction_vector(s)
            u = xx * e[0] + yy * e[1]
            v = -xx * e[1] + yy * e[0]
            vals = np.maximum(vals, ((np.abs(u) <= half_len) & (np.abs(v) <= half_w)).astype(float))
    elif spec.kind == "random_bumps":
        if spec.count < 1:
            raise InvalidArgument("bump count must be >= 1")
        rng = _rng_for(spec.seed, 0)
        lx = 0.35 * width * sp
        ly = 0.35 * height * sp
        vals = np.zeros((height, width))
        for _ in range(spec.count):
            cx, cy = rng.uniform(-lx, lx), rng.uniform(-ly, ly)
            sig = rng.uniform(0.5, 1.0) * spec.scale * sp
            amp = rng.uniform(0.5, 1.0)
            vals += amp * np.exp(-((xx - cx) ** 2 + (yy - cy) ** 2) / (2 * sig * sig))
    else:  # hot_pixel
        vals = np.zeros((height, width))
        vals[height // 2, width // 2] = 1.0
    out = g.with_values(vals)
    if out.l2_norm() == 0.0:
        raise InvalidArgument(f"{spec.kind} spec renders to a zero-norm grid")
    return out


# ---------------------------------------------------------------------------
# direction families
# ---------------------------------------------------------------------------


def uniform_directions(n: int) -> DirectionSet:
    """n distinct lines uniformly spread in angle: s_i = i / (2n).

    Nested across n | m (every direction of the n-set appears in the m-set),
    so measured ratios are monotone along dyadic refinements.
    """
    if n < 1:
        raise InvalidArgument("n must be >= 1")
    return DirectionSet(tuple(i / (2.0 * n) for i in range(n)))


def staged_lacunary_directions(
    mu: int,
    depth: int = 4,
    domain: tuple[float, float] = (0.0, 1.0),
) -> LacunaryDecomposition:
    """``staged_complete_decomposition`` with a fixed profile: pole at the
    interval midpoint, first distance 3/4 of the cap, every ratio 7/16 (the
    strict lacunarity inequality excludes the nominal gap 1/2 itself), every
    interval filled.
    """
    return staged_complete_decomposition(
        mu,
        depth,
        pole=lambda lo, hi: 0.5 * (lo + hi),
        first=lambda cap: 0.75 * cap,
        ratio=lambda: 7.0 / 16.0,
        domain=domain,
    )


def dedupe_angles(
    values: Sequence[float],
    resolution: float,
    keep: Sequence[float] = (),
) -> tuple[float, ...]:
    """Thin a direction family to a given angular resolution.

    Keeps every angle in ``keep`` plus a greedy left-to-right subset of
    ``values`` pairwise separated by at least ``resolution``.  Passing the
    previous sweep stage's survivors as ``keep`` makes successive thinned
    families nested.
    """
    out = sorted(set(keep))
    for v in sorted(values):
        import bisect

        i = bisect.bisect_left(out, v)
        near = []
        if i > 0:
            near.append(out[i - 1])
        if i < len(out):
            near.append(out[i])
        if all(abs(v - u) >= resolution for u in near):
            out.insert(i, v)
    return tuple(out)


# ---------------------------------------------------------------------------
# ratio measurement and sweeps
# ---------------------------------------------------------------------------

_OPS = {"m0": m0, "m1": m1, "m2": m2}


def _apply_op(op: str, f: Grid2D, omega: DirectionSet, cfg: OperatorConfig) -> Grid2D:
    if op not in _OPS:
        raise InvalidArgument(f"unknown operator {op!r}")
    return _OPS[op](f, omega, cfg)


def measure_ratio(
    omega: DirectionSet,
    family: Sequence[TestFunctionSpec],
    op: str,
    cfg: OperatorConfig,
    width: int = 256,
    height: int = 256,
    spacing: float = 1.0 / 32,
) -> tuple[float, Optional[TestFunctionSpec]]:
    """Max over the family of ||op(f)||_2 / ||f||_2 (a certified lower bound
    on the discrete operator norm) and the spec achieving it."""
    if not family:
        raise InvalidArgument("family must be nonempty")
    best, best_spec = 0.0, None
    for spec in family:
        f = generate(spec, width, height, spacing)
        nf = f.l2_norm()
        if nf == 0.0:
            warnings.warn(f"skipping zero-norm test function {spec}")
            continue
        ratio = _apply_op(op, f, omega, cfg).l2_norm() / nf
        if ratio > best:
            best, best_spec = ratio, spec
    return best, best_spec


@dataclass(frozen=True)
class SweepRow:
    label: float  # N or mu
    operator: str
    max_ratio: float
    argmax_spec: Optional[TestFunctionSpec]
    runtime_ms: int
    n_directions: int = 0


@dataclass(frozen=True)
class SweepResult:
    mode: str  # "N" | "mu"
    rows: tuple[SweepRow, ...]

    def ratios(self, operator: str) -> list[tuple[float, float]]:
        return [(r.label, r.max_ratio) for r in self.rows if r.operator == operator]

    @staticmethod
    def reference_columns(mode: str, label: float) -> dict:
        logv = math.log2(max(label, 2.0))
        return {
            "ref_sqrt_log": math.sqrt(logv),
            "ref_log": logv,
            "ref_sqrt_mu": math.sqrt(label),
            "ref_mu": label,
        }

    def to_csv(self) -> str:
        lines = [
            "label,operator,max_ratio,ref_sqrt_log,ref_log,ref_sqrt_mu,ref_mu,runtime_ms"
        ]
        for r in self.rows:
            ref = self.reference_columns(self.mode, r.label)
            lines.append(
                f"{r.label:g},{r.operator},{r.max_ratio:.10g},"
                f"{ref['ref_sqrt_log']:.10g},{ref['ref_log']:.10g},"
                f"{ref['ref_sqrt_mu']:.10g},{ref['ref_mu']:.10g},{r.runtime_ms}"
            )
        return "\n".join(lines) + "\n"

    def to_json(self) -> dict:
        return {
            "mode": self.mode,
            "rows": [
                {
                    "label": r.label,
                    "operator": r.operator,
                    "max_ratio": r.max_ratio,
                    "runtime_ms": r.runtime_ms,
                    "n_directions": r.n_directions,
                    **self.reference_columns(self.mode, r.label),
                }
                for r in self.rows
            ],
        }


def _spread_subset(values: tuple[float, ...], k: int) -> tuple[float, ...]:
    if len(values) <= k:
        return values
    idx = sorted({round(i * (len(values) - 1) / (k - 1)) for i in range(k)})
    return tuple(values[i] for i in idx)


def _default_family(kinds: Iterable[str], angles: tuple[float, ...], seed: int):
    out = []
    for kind in kinds:
        if kind == "disk":
            out.append(TestFunctionSpec("disk", radius=3.0))
        elif kind == "annulus":
            out.append(TestFunctionSpec("annulus", inner=6.0, outer=12.0))
        elif kind == "needles":
            # short thin needles spread across the direction set stress the
            # mid radii hardest
            use = _spread_subset(angles, 64)
            out.append(
                TestFunctionSpec(
                    "needle_bundle", count=max(len(use), 1), angles=use,
                    width=1.0, length=32.0,
                )
            )
        elif kind == "random":
            out.append(TestFunctionSpec("random_bumps", count=6, seed=seed))
        elif kind == "hot_pixel":
            out.append(TestFunctionSpec("hot_pixel"))
        else:
            raise InvalidArgument(f"unknown family kind {kind!r}")
    return out


def _sweep_cfg(spacing: float, size: int) -> OperatorConfig:
    """Dyadic radii from about four grid steps up to max(1, grid extent / 2).

    The ladder is snapped to pass exactly through 1.0 so the unit-length
    operator is one of the candidates; long radii are built by the dyadic
    cascade (small direct cap), keeping the per-direction cost logarithmic.
    """
    base = 4.0 * spacing
    k = 0
    while base * 2.0**k < 1.0:
        k += 1
    base = 1.0 / 2.0**k  # snap so the ladder passes exactly through 1.0
    top = max(1.0, size * spacing / 2.0)
    levels = k + 1 + max(0, math.ceil(math.log2(top)))
    return OperatorConfig.dyadic(
        base,
        levels,
        samples_per_unit=round(1.0 / spacing),
        aspect_levels=2,
        direct_nodes_cap=9,
    )


def sweep_N(
    ns: Sequence[int],
    family_kinds: Sequence[str] = ("disk", "needles", "random"),
    ops: Sequence[str] = ("m0", "m1", "m2"),
    size: int = 512,
    seed: int = 0,
) -> SweepResult:
    """Measure norm-ratio growth over uniformly spread N-direction sets.

    The grid spacing scales like 1/(8N) so neighbouring directions stay
    resolved along unit-scale segments; radii span two grid steps up to half
    the grid extent.
    """
    if any(b <= a for a, b in zip(ns, ns[1:])):
        raise InvalidArgument("direction counts must be increasing")
    rows = []
    for n in ns:
        spacing = 1.0 / (8.0 * n)
        omega = uniform_directions(n)
        cfg = _sweep_cfg(spacing, size)
        family = _default_family(family_kinds, omega.values, seed)
        for op in ops:
            t0 = time.perf_counter()
            ratio, arg = measure_ratio(omega, family, op, cfg, size, size, spacing)
            ms = int(1000 * (time.perf_counter() - t0))
            rows.append(SweepRow(float(n), op, ratio, arg, ms, len(omega)))
    return SweepResult("N", tuple(rows))


def sweep_mu(
    mus: Sequence[int],
    gap: float = 0.5,
    family_kinds: Sequence[str] = ("disk", "needles", "random"),
    ops: Sequence[str] = ("m1",),
    size: int = 512,
    seed: int = 0,
    depth: int = 2,
) -> SweepResult:
    """Measure norm-ratio growth over staged complete lacunary slope sets.

    Directions are the slopes of the order-mu construction converted to
    angles and thinned to the grid's angular resolution; the thinned families
    are nested across mu so ratios are monotone.  ``gap`` is fixed by the
    construction (see staged_lacunary_directions).

    ``depth`` = 2 keeps the construction's stage structure resolvable: a grid
    of side n distinguishes only ~n/4 directions over its own extent, and
    deeper completions merely add sub-resolution duplicates that flatten the
    measured ratios while sqrt(mu) keeps growing.
    """
    if gap != 0.5:
        raise InvalidArgument("the staged construction realizes gap 1/2 only")
    if any(b <= a for a, b in zip(mus, mus[1:])):
        raise InvalidArgument("orders must be increasing")
    rows = []
    size = int(size)
    spacing = 4.0 / size
    cfg = _sweep_cfg(spacing, size)
    resolution = spacing / (4.0 * (size * spacing) / 2.0)
    kept: tuple[float, ...] = ()
    for mu in mus:
        decomp = staged_lacunary_directions(mu, depth=depth)
        angles = DirectionSet.from_slopes(decomp.final_set).values
        kept = dedupe_angles(angles, resolution, keep=kept)
        omega = DirectionSet(kept)
        family = _default_family(family_kinds, omega.values, seed)
        for op in ops:
            t0 = time.perf_counter()
            ratio, arg = measure_ratio(omega, family, op, cfg, size, size, spacing)
            ms = int(1000 * (time.perf_counter() - t0))
            rows.append(SweepRow(float(mu), op, ratio, arg, ms, len(omega)))
    return SweepResult("mu", tuple(rows))


_MODELS = {
    "sqrt_log": lambda x: math.sqrt(math.log2(x)) if x > 1 else 0.0,
    "log": lambda x: math.log2(x) if x > 1 else 0.0,
    "sqrt_mu": math.sqrt,
    "mu": float,
}


def fit_growth(
    result: SweepResult, model: str, operator: str = "m1"
) -> tuple[float, float]:
    """Least-squares coefficient c for ratio ~ c * model(label), with RMS residual."""
    if model not in _MODELS:
        raise InvalidArgument(f"unknown model {model!r}")
    pts = result.ratios(operator)
    if len(pts) < 3:
        raise InvalidArgument("need at least 3 rows to fit")
    mvals = np.array([_MODELS[model](x) for x, _ in pts])
    rvals = np.array([r for _, r in pts])
    denom = float(np.dot(mvals, mvals))
    if denom == 0.0 or not np.isfinite(denom):
        raise InvalidArgument("degenerate model values for these labels")
    c = float(np.dot(mvals, rvals) / denom)
    res = float(np.sqrt(np.mean((rvals - c * mvals) ** 2)))
    return c, res
