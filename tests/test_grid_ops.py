"""Discrete maximal operators: quadrature, chain, and smoothing kernel."""

import functools
import itertools
import math
import struct
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
import scipy.signal
from hypothesis import example, given, settings, strategies as st

from dirmax.errors import InvalidArgument, TruncationError
from dirmax.grid_ops import (
    ChainReport,
    Grid2D,
    OperatorConfig,
    _avg_field_ladder,
    _base_segments,
    _column_ladder_radii,
    _row_band,
    _shift_add,
    _stencil,
    chain_check,
    direction_vector,
    gamma_kernel,
    gamma_op,
    m0,
    m1,
    m2,
    strong_maximal,
)
from dirmax.kernels import bump_eval, bump_integral, vp_eval
from dirmax.lacunary import DirectionSet, perpendicular
from oracles import _bilinear_sample, directional_avg


def smooth_grid(seed: int, n: int = 65, spacing: float = 1 / 16) -> Grid2D:
    rng = np.random.default_rng(seed)
    half = 0.5 * (n - 1) * spacing
    x = np.linspace(-half, half, n)
    f = np.zeros((n, n))
    for _ in range(6):
        cx, cy = rng.uniform(-0.6 * half, 0.6 * half, 2)
        s = rng.uniform(0.1, 0.4)
        f += rng.uniform(0.3, 1.0) * np.exp(
            -((x[None, :] - cx) ** 2 + (x[:, None] - cy) ** 2) / (2 * s * s)
        )
    return Grid2D(f, spacing)


def hot_pixel_grid(n: int = 65, spacing: float = 1 / 8) -> Grid2D:
    v = np.zeros((n, n))
    v[n // 2, n // 2] = 1.0
    return Grid2D(v, spacing)


CFG = OperatorConfig.dyadic(0.25, 3)  # radii 0.25, 0.5, 1.0


class TestGrid2D:
    def test_rejects_non_finite(self):
        with pytest.raises(InvalidArgument):
            Grid2D(np.array([[1.0, np.nan]]), 1.0)

    def test_l2_norm_matches_definition(self):
        g = Grid2D(np.full((4, 4), 2.0), 0.5)
        assert g.l2_norm() == pytest.approx(math.sqrt(16 * 4.0) * 0.5)

    def test_binary_roundtrip_bitwise(self, tmp_path):
        g = smooth_grid(0)
        p = tmp_path / "g.grd"
        g.save(p)
        g2 = Grid2D.load(p)
        assert g2.spacing == g.spacing
        assert np.array_equal(g2.values, g.values)

    def test_binary_header_layout(self, tmp_path):
        g = Grid2D(np.zeros((3, 5)), 0.25)
        p = tmp_path / "g.grd"
        g.save(p)
        raw = p.read_bytes()
        assert raw[:4] == b"GRD2"
        assert int.from_bytes(raw[4:8], "little") == 5
        assert int.from_bytes(raw[8:12], "little") == 3
        assert len(raw) == 16 + 8 + 8 * 15

    @pytest.mark.parametrize("text, shape", [("1\n2\n3\n", (3, 1)), ("1,2,3\n", (1, 3))],
                             ids=["one-column", "one-row"])
    def test_csv_single_column_or_row_keeps_its_shape(self, tmp_path, text, shape):
        p = tmp_path / "g.csv"
        p.write_text(text)
        g = Grid2D.load_csv(p, 0.125)
        assert g.values.shape == shape
        assert g.values.ravel().tolist() == [1.0, 2.0, 3.0]

    def test_csv_roundtrip(self, tmp_path):
        g = smooth_grid(1, n=9)
        p = tmp_path / "g.csv"
        np.savetxt(p, g.values, delimiter=",")
        g2 = Grid2D.load_csv(p, g.spacing)
        np.testing.assert_allclose(g2.values, g.values, rtol=1e-12)

    def test_load_rejects_truncated_file(self, tmp_path):
        p = tmp_path / "g.grd"
        smooth_grid(0, n=9).save(p)
        raw = p.read_bytes()
        for cut in (len(raw) - 5, 20):
            p.write_bytes(raw[:cut])
            with pytest.raises(InvalidArgument):
                Grid2D.load(p)

    def test_load_rejects_grid_without_samples(self, tmp_path):
        p = tmp_path / "g.grd"
        p.write_bytes(struct.pack("<4sIIId", b"GRD2", 0, 7, 0, 0.125))
        with pytest.raises(InvalidArgument, match="no samples"):
            Grid2D.load(p)
        with pytest.raises(InvalidArgument, match="no samples"):
            Grid2D(np.zeros((3, 0)), 0.125)

    def test_load_rejects_forged_header_before_allocating(self, tmp_path):
        p = tmp_path / "g.grd"
        for side in (2048, 0xFFFFFFFF):  # claims 32 MB, then about 147 EB
            p.write_bytes(struct.pack("<4sIIId", b"GRD2", side, side, 0, 0.125) + bytes(64))
            tracemalloc.start()
            try:
                with pytest.raises(InvalidArgument, match="header declares"):
                    Grid2D.load(p)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 2**20


def _slice_shift_add(out, src, di, dj, w):
    """The 2-D slice add the row-band kernel replaced: the slow reference."""
    if w == 0.0:
        return
    h, wdt = out.shape
    i0, i1 = max(0, -di), min(h, h - di)
    j0, j1 = max(0, -dj), min(wdt, wdt - dj)
    if i0 >= i1 or j0 >= j1:
        return
    out[i0:i1, j0:j1] += w * src[i0 + di : i1 + di, j0 + dj : j1 + dj]


class TestShiftAdd:
    @given(
        h=st.integers(1, 40),
        wdt=st.integers(1, 40),
        di=st.integers(-50, 50),
        dj=st.integers(-50, 50),
        w=st.one_of(st.just(0.0), st.floats(-4.0, 4.0)),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(h=7, wdt=5, di=1, dj=5, w=0.5, seed=0)  # |dj| == W
    @example(h=7, wdt=5, di=-2, dj=-9, w=0.5, seed=0)  # |dj| > W
    @example(h=7, wdt=5, di=7, dj=1, w=0.5, seed=0)  # |di| == H
    @example(h=7, wdt=5, di=-3, dj=0, w=0.5, seed=0)  # no wrapped columns
    @example(h=7, wdt=5, di=1, dj=-2, w=0.0, seed=0)
    @example(h=1, wdt=1, di=0, dj=0, w=1.5, seed=0)
    @settings(max_examples=400, deadline=None)
    def test_matches_slice_reference_bitwise(self, h, wdt, di, dj, w, seed):
        rng = np.random.default_rng(seed)
        src = rng.standard_normal((h, wdt))
        ref = rng.standard_normal((h, wdt))
        out = ref.copy()
        _slice_shift_add(ref, src, di, dj, w)
        _shift_add(out, src, [(di, dj, w)], (0, h))
        assert out.tobytes() == ref.tobytes()

    @given(
        h=st.integers(1, 30),
        wdt=st.integers(1, 30),
        di=st.integers(-40, 40),
        dj=st.integers(-40, 40),
        w=st.one_of(st.just(0.0), st.floats(0.0, 4.0)),
        band=st.tuples(st.integers(0, 30), st.integers(0, 30)),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(h=7, wdt=5, di=1, dj=2, w=0.5, band=(3, 3), seed=0)  # empty band
    @example(h=7, wdt=5, di=4, dj=1, w=0.5, band=(1, 4), seed=0)  # shifted off the top
    @example(h=7, wdt=5, di=-5, dj=-1, w=0.5, band=(3, 7), seed=0)  # off the bottom
    @example(h=7, wdt=5, di=-1, dj=3, w=0.5, band=(0, 2), seed=0)  # touches row 0
    @example(h=7, wdt=5, di=1, dj=-2, w=0.5, band=(5, 7), seed=0)  # touches row h
    @example(h=7, wdt=5, di=0, dj=0, w=1.0, band=(0, 7), seed=0)  # every row
    @settings(max_examples=400, deadline=None)
    def test_band_matches_slice_reference_bitwise(self, h, wdt, di, dj, w, band, seed):
        # a nonnegative source that is zero outside its rows [r0, r1), and an
        # output with zeros but no -0.0: the invariants of every engine field
        r0 = min(band[0], h)
        r1 = min(max(band[1], r0), h)
        rng = np.random.default_rng(seed)
        src = rng.uniform(0.0, 1.0, (h, wdt)) * (rng.uniform(size=(h, wdt)) < 0.3)
        src[:r0] = 0.0
        src[r1:] = 0.0
        before = rng.uniform(0.0, 1.0, (h, wdt)) * (rng.uniform(size=(h, wdt)) < 0.5)
        ref = before.copy()
        _slice_shift_add(ref, src, di, dj, w)
        for rows in ((r0, r1), _row_band(src)):
            out = before.copy()
            lo, hi = _shift_add(out, src, [(di, dj, w)], rows)
            assert out.tobytes() == ref.tobytes(), rows
            # the returned hull holds every row the add changed
            assert out[:lo].tobytes() == before[:lo].tobytes()
            assert out[hi:].tobytes() == before[hi:].tobytes()

    def test_row_band(self):
        a = np.zeros((6, 4))
        assert _row_band(a) == (0, 0)
        a[2, 3] = a[4, 0] = 0.5
        assert _row_band(a) == (2, 5)
        a[0, 1] = a[5, 2] = 1.0
        assert _row_band(a) == (0, 6)

    def test_rejects_fortran_order(self):
        out = np.asfortranarray(np.zeros((4, 6)))
        with pytest.raises(ValueError):
            _shift_add(out, np.ones((4, 6)), [(1, 1, 1.0)], (0, 4))


class TestDirectionalAvg:
    def test_constant_field(self):
        g = Grid2D(np.ones((65, 65)), 1 / 8)
        assert directional_avg(g, 0.1, 0.5, (0.0, 0.0)) == pytest.approx(1.0, abs=1e-12)

    def test_half_plane_symmetry(self):
        # indicator of the upper half plane, centered on the boundary line
        n, sp = 129, 1 / 16
        half = 0.5 * (n - 1) * sp
        y = np.linspace(-half, half, n)
        col = (y > 0).astype(float)
        col[y == 0] = 0.5  # symmetric boundary row
        vals = np.repeat(col[:, None], n, axis=1)
        g = Grid2D(vals, sp)
        assert directional_avg(g, 0.0, 1.0, (0.0, 0.5)) == pytest.approx(1.0, abs=1e-9)
        assert directional_avg(g, 0.0, 1.0, (0.0, -0.5)) == pytest.approx(0.0, abs=1e-9)
        assert directional_avg(g, 0.25, 1.0, (0.0, 0.0)) == pytest.approx(0.5, abs=1e-9)

    def test_oversampled_oracle(self):
        g = smooth_grid(2)
        osc = float(g.values.max() - g.values.min())
        rng = np.random.default_rng(0)
        for _ in range(20):
            s = rng.uniform(0, 1)
            delta = rng.uniform(0.2, 1.0)
            x = tuple(rng.uniform(-0.8, 0.8, 2))
            coarse = directional_avg(g, s, delta, x)
            fine = directional_avg(g, s, delta, x, samples_per_unit=160)
            assert abs(coarse - fine) <= 1e-3 * osc

    def test_rejects_nonpositive_delta(self):
        with pytest.raises(InvalidArgument):
            directional_avg(smooth_grid(0), 0.0, 0.0, (0, 0))

    @pytest.mark.parametrize("spu", [0, -2])
    def test_rejects_nonpositive_samples_per_unit(self, spu):
        with pytest.raises(InvalidArgument, match="samples_per_unit must be >= 1"):
            directional_avg(smooth_grid(0), 0.1, 0.5, (0, 0), samples_per_unit=spu)


class TestM0:
    def test_constant(self):
        g = Grid2D(np.ones((65, 65)), 1 / 8)
        out = m0(g, DirectionSet((0.0, 0.11, 0.25)), CFG)
        c = 32
        assert out.values[c, c] == pytest.approx(1.0, abs=1e-12)

    def test_singleton_matches_directional_avg(self):
        g = smooth_grid(3)
        out = m0(g, DirectionSet((0.07,)))
        i, j = 30, 36
        x = (g.origin[0] + j * g.spacing, g.origin[1] + i * g.spacing)
        assert out.values[i, j] == pytest.approx(
            directional_avg(g, 0.07, 1.0, x), abs=1e-9
        )

    def test_four_fold_symmetry_on_radial_input(self):
        n, sp = 129, 1 / 16
        half = 0.5 * (n - 1) * sp
        x = np.linspace(-half, half, n)
        rr = x[None, :] ** 2 + x[:, None] ** 2
        g = Grid2D(np.exp(-rr), sp)
        out = m0(g, DirectionSet((0.0, 0.25, 0.5, 0.75)), CFG).values
        assert float(np.max(np.abs(out - np.rot90(out)))) < 1e-6

    def test_coarse_grid_rejected(self):
        with pytest.raises(InvalidArgument):
            m0(Grid2D(np.ones((8, 8)), 0.5), DirectionSet((0.0,)))

    def test_empty_directions_rejected(self):
        with pytest.raises(InvalidArgument):
            m0(smooth_grid(0), DirectionSet(()))


def _ref_bilinear_shift_add(out, src, cx, cy, w, add=_slice_shift_add):
    """out += w * (src sampled at lattice points shifted by (cx, cy) grid
    units), one 2-D slice add per corner: the slow reference."""
    jx, fy_x = math.floor(cx), cx - math.floor(cx)
    iy, fy_y = math.floor(cy), cy - math.floor(cy)
    add(out, src, iy, jx, w * (1 - fy_x) * (1 - fy_y))
    add(out, src, iy, jx + 1, w * fy_x * (1 - fy_y))
    add(out, src, iy + 1, jx, w * (1 - fy_x) * fy_y)
    add(out, src, iy + 1, jx + 1, w * fy_x * fy_y)


def _ref_trapezoid_field(src, e, delta, n_seg, spacing, add=_slice_shift_add):
    """Reference: the composite-trapezoid centered line average, node by node
    over all rows."""
    out = np.zeros_like(src)
    step = 2.0 * delta / n_seg
    for k in range(n_seg + 1):
        t = -delta + k * step
        w = (0.5 if k in (0, n_seg) else 1.0) / n_seg
        _ref_bilinear_shift_add(out, src, t * e[0] / spacing, t * e[1] / spacing, w, add)
    return out


def _ref_avg_field_ladder(src, e, radii, spacing, spu, direct_cap):
    """Reference: every level of the dyadic ladder, direct up to the node
    cap and cascaded from the previous level past it."""
    for k, delta in enumerate(radii):
        n_seg = _base_segments(radii[0], spu) * 2**k
        if k == 0 or n_seg + 1 <= direct_cap:
            fld = _ref_trapezoid_field(src, e, delta, n_seg, spacing)
        else:  # the one-segment rule over the previous level: nodes -+ delta / 2
            fld = _ref_trapezoid_field(fld, e, delta / 2.0, 1, spacing)
        yield delta, fld


def _two_branch_m0(f: Grid2D, omega: DirectionSet, cfg=None) -> np.ndarray:
    """Reference: m0 with a ladder branch for 1.0 in the radii and a direct
    trapezoid branch otherwise."""
    src = np.abs(f.values, order="C")
    out = np.zeros_like(src)
    for s in omega.values:
        e = direction_vector(s)
        if cfg is not None and 1.0 in cfg.radii:
            ladder = [r for r in cfg.radii if r <= 1.0]
            for delta, fld in _ref_avg_field_ladder(
                src, e, ladder, f.spacing, cfg.samples_per_unit, cfg.direct_nodes_cap
            ):
                if delta == 1.0:
                    np.maximum(out, fld, out=out)
        else:
            spu = cfg.samples_per_unit if cfg else max(1, round(1.0 / f.spacing))
            fld = _ref_trapezoid_field(src, e, 1.0, _base_segments(1.0, spu), f.spacing)
            np.maximum(out, fld, out=out)
    return out


class TestOperatorConfig:
    @pytest.mark.parametrize("cap", [0, -3, 9.0, 2.5, True, "9", None])
    def test_direct_nodes_cap_must_be_positive_integer(self, cap):
        with pytest.raises(InvalidArgument, match="direct_nodes_cap"):
            OperatorConfig((1.0,), direct_nodes_cap=cap)

    @pytest.mark.parametrize("cap", [1, 9, np.int64(129)])
    def test_direct_nodes_cap_accepts_positive_integers(self, cap):
        assert OperatorConfig((1.0,), direct_nodes_cap=cap).direct_nodes_cap == cap


class TestM0Reference:
    # the delta = 1 level has 33 nodes: direct under the default cap 129,
    # cascaded under cap 9
    CONFIGS = {
        "direct-unit-level": OperatorConfig.dyadic(0.25, 3),
        "cascaded-unit-level": OperatorConfig.dyadic(0.25, 4, direct_nodes_cap=9),
        "no-unit-radius": OperatorConfig.dyadic(0.3, 3, samples_per_unit=12),
        "no-config": None,
    }

    @pytest.mark.parametrize("name", list(CONFIGS))
    @pytest.mark.parametrize("seed", [0, 1])
    def test_matches_two_branch_reference_bitwise(self, name, seed):
        cfg = self.CONFIGS[name]
        rng = np.random.default_rng(seed)
        f = Grid2D(rng.standard_normal((40, 52)), 1 / 8)
        omega = DirectionSet((0.0, 0.25, *rng.uniform(0, 1, 3)))
        got = m0(f, omega, cfg).values
        assert got.tobytes() == _two_branch_m0(f, omega, cfg).tobytes()


def _loop_m1(f: Grid2D, omega: DirectionSet, cfg: OperatorConfig) -> np.ndarray:
    """Reference: m1 as its own loop over directions and the radius ladder."""
    src = np.abs(f.values, order="C")
    out = src.copy()
    for s in omega.values:
        e = direction_vector(s)
        for _delta, fld in _ref_avg_field_ladder(
            src, e, cfg.radii, f.spacing, cfg.samples_per_unit, cfg.direct_nodes_cap
        ):
            np.maximum(out, fld, out=out)
    return out


def _loop_offsets(cfg: OperatorConfig, half: float) -> list[float]:
    if cfg.offset_steps == 0 or half == 0.0:
        return [0.0]
    return [k * half / 2.0 for k in range(-cfg.offset_steps, cfg.offset_steps + 1)]


def _loop_m2(f: Grid2D, omega: DirectionSet, cfg: OperatorConfig) -> np.ndarray:
    """Reference: m2 as its own loop over directions, column widths, lengths
    and offsets."""
    src = np.abs(f.values, order="C")
    out = src.copy()
    col_radii = _column_ladder_radii(cfg)
    for s in omega.values:
        e = direction_vector(s)
        ep = direction_vector((s + 0.25) % 1.0)
        columns = {0.0: src}
        for wdt, fld in _ref_avg_field_ladder(
            src, ep, col_radii, f.spacing, cfg.samples_per_unit, cfg.direct_nodes_cap
        ):
            columns[wdt] = fld
        for wdt, col in columns.items():
            if wdt == 0.0:
                ladder = cfg.radii
            else:
                top = wdt * 2.0**cfg.aspect_levels
                ladder = tuple(r for r in cfg.radii if r <= top)
            for delta, fld in _ref_avg_field_ladder(
                col, e, ladder, f.spacing, cfg.samples_per_unit, cfg.direct_nodes_cap
            ):
                if wdt not in cfg.widths_for(delta):
                    continue
                for o1 in _loop_offsets(cfg, delta):
                    for o2 in _loop_offsets(cfg, wdt):
                        if o1 == 0.0 and o2 == 0.0:
                            np.maximum(out, fld, out=out)
                        else:
                            cand = np.zeros_like(src)
                            cx = (o1 * e[0] + o2 * ep[0]) / f.spacing
                            cy = (o1 * e[1] + o2 * ep[1]) / f.spacing
                            _ref_bilinear_shift_add(cand, fld, cx, cy, 1.0)
                            np.maximum(out, cand, out=out)
    return out


@st.composite
def operator_cases(draw, unit_radius=None, offsets=True):
    """A small sparse signed grid, a direction set and an operator config.

    The support is a random scatter, a hot pixel in a corner, a block
    touching one edge, or two blobs with zero rows between them.

    ``unit_radius`` True puts 1.0 in the radii, False keeps it out, None
    draws either.
    """
    levels = draw(st.integers(1, 3))
    if unit_radius is None:
        unit_radius = draw(st.booleans())
    if unit_radius:
        base = 2.0 ** -draw(st.integers(0, levels - 1))
    else:
        base = draw(st.sampled_from([0.15, 0.3, 0.375]))
    cfg = OperatorConfig.dyadic(
        base,
        levels,
        samples_per_unit=draw(st.sampled_from([4, 8, 16])),
        aspect_levels=draw(st.integers(0, 3)),
        offset_steps=draw(st.integers(0, 2)) if offsets else 0,
        direct_nodes_cap=draw(st.sampled_from([1, 2, 5, 9, 17, 33, 129])),
    )
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    h, w = shape = (draw(st.integers(6, 18)), draw(st.integers(6, 18)))
    support = draw(st.sampled_from(["scatter", "corner", "edge", "blobs"]))
    values = np.zeros(shape)
    if support == "scatter":
        values = rng.standard_normal(shape) * (rng.uniform(size=shape) < 0.3)
    elif support == "corner":  # one hot pixel in a corner
        values[draw(st.sampled_from([0, h - 1])), draw(st.sampled_from([0, w - 1]))] = 1.5
    elif support == "edge":  # a block touching one edge
        k = draw(st.integers(1, 3))
        block = draw(st.sampled_from(
            [np.s_[:k, 2:], np.s_[h - k :, : w - 2], np.s_[1:, :k], np.s_[: h - 1, w - k :]]
        ))
        values[block] = rng.standard_normal(values[block].shape)
    elif support == "blobs":  # two blobs with zero rows between them
        a, b = draw(st.integers(0, h // 2 - 2)), draw(st.integers(h // 2 + 1, h - 1))
        values[a, draw(st.integers(0, w - 1))] = -2.0
        values[b : b + 2, :3] = rng.standard_normal((min(2, h - b), 3))
    axes = draw(st.lists(st.sampled_from([0.0, 0.25, 0.5, 0.75]), max_size=2))
    others = draw(st.lists(st.floats(0.0, 1.0, exclude_max=True), max_size=2))
    omega = DirectionSet(tuple(axes + others) or (0.0,))
    return Grid2D(values, 1 / 8), omega, cfg


class TestLoopReferences:
    """The operators match their former per-operator loops, built node by
    node over all rows, bit for bit."""

    @given(case=operator_cases())
    @settings(max_examples=40, deadline=None)
    def test_m0_matches_two_branch_reference(self, case):
        f, omega, cfg = case
        assert m0(f, omega, cfg).values.tobytes() == _two_branch_m0(f, omega, cfg).tobytes()

    @given(case=operator_cases())
    @settings(max_examples=40, deadline=None)
    def test_m1_matches_loop_reference(self, case):
        f, omega, cfg = case
        assert m1(f, omega, cfg).values.tobytes() == _loop_m1(f, omega, cfg).tobytes()

    @given(case=operator_cases())
    @settings(max_examples=80, deadline=None)
    def test_m2_matches_loop_reference(self, case):
        f, omega, cfg = case
        assert m2(f, omega, cfg).values.tobytes() == _loop_m2(f, omega, cfg).tobytes()

    @given(case=operator_cases())
    @settings(max_examples=40, deadline=None)
    def test_strong_maximal_matches_loop_reference(self, case):
        f, _omega, cfg = case
        axes = DirectionSet((0.0, 0.25))
        assert strong_maximal(f, cfg).values.tobytes() == _loop_m2(f, axes, cfg).tobytes()


@st.composite
def ladder_cases(draw):
    """A random sparse nonnegative grid and its row band, a direction (an
    axis or not), a dyadic ladder, a sampling density and a node cap of 1, 9
    or 129, on the spacing 1/8."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shape = (draw(st.integers(4, 20)), draw(st.integers(4, 20)))
    fill = draw(st.sampled_from([0.02, 0.1, 0.4]))
    src = rng.uniform(0.0, 1.0, shape) * (rng.uniform(size=shape) < fill)
    s = draw(st.one_of(
        st.sampled_from([0.0, 0.25, 0.5, 0.75]), st.floats(0.0, 1.0, exclude_max=True)
    ))
    base = draw(st.sampled_from([0.125, 0.25, 0.3]))
    radii = tuple(base * 2.0**k for k in range(draw(st.integers(1, 4))))
    spu = draw(st.sampled_from([4, 8, 16]))
    cap = draw(st.sampled_from([1, 9, 129]))
    return src, direction_vector(s), radii, spu, cap


class TestLadderEngine:
    """Per-call stencils, carried row bands and skipped ladder levels."""

    SPACING = 1 / 8

    def _ladder(self, src, e, radii, wanted, spu, cap):
        stencil = functools.partial(_stencil, spacing=self.SPACING)
        return list(_avg_field_ladder(src, _row_band(src), e, radii, wanted, spu, cap, stencil))

    @given(case=ladder_cases())
    @settings(max_examples=60, deadline=None)
    def test_carried_bands_hold_every_nonzero_row(self, case):
        src, e, radii, spu, cap = case
        ref = _ref_avg_field_ladder(src, e, radii, self.SPACING, spu, cap)
        for (delta, fld, (r0, r1)), (d_ref, f_ref) in zip(
            self._ladder(src, e, radii, set(radii), spu, cap), ref, strict=True
        ):
            assert delta == d_ref
            assert fld.tobytes() == f_ref.tobytes()
            assert not fld[:r0].any() and not fld[r1:].any(), (delta, r0, r1)

    @given(case=ladder_cases(), cascade=st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_stencils_list_the_per_node_corners(self, case, cascade):
        src, e, radii, spu, _cap = case
        delta, n_seg = (radii[0] / 2.0, 1) if cascade else (
            radii[-1], _base_segments(radii[0], spu) * 2 ** (len(radii) - 1)
        )
        added = []

        def record(out, src, di, dj, w):
            if w != 0.0:
                added.append((di, dj, w))

        _ref_trapezoid_field(src, e, delta, n_seg, self.SPACING, add=record)
        got = _stencil(e, delta, n_seg, self.SPACING)
        assert [c[:2] for c in got] == [c[:2] for c in added]
        assert np.array([c[2] for c in got]).tobytes() == np.array(
            [c[2] for c in added]
        ).tobytes()

    @given(case=ladder_cases(), data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_skipping_ladder_matches_full_ladder(self, case, data):
        src, e, radii, spu, cap = case
        wanted = data.draw(st.sets(st.sampled_from(radii)))
        full = {d: (fld, rows) for d, fld, rows in self._ladder(src, e, radii, set(radii), spu, cap)}
        got = self._ladder(src, e, radii, wanted, spu, cap)
        assert [d for d, _, _ in got] == [d for d in radii if d in wanted]
        for delta, fld, rows in got:
            assert fld.tobytes() == full[delta][0].tobytes()
            assert rows == full[delta][1]

    @pytest.mark.parametrize("cap, built", [(129, 1), (9, 3)])
    def test_builds_only_levels_in_use(self, cap, built):
        # m0 under the (0.25, 0.5, 1.0) ladder at 16 samples per unit: the
        # 33-node unit level is direct under cap 129, and under cap 9 it is
        # cascaded from both levels below it
        rules = []

        def stencil(e, delta, n_seg):
            rules.append((delta, n_seg))
            return _stencil(e, delta, n_seg, 1 / 16)

        src = np.abs(smooth_grid(0).values)
        e = direction_vector(0.1)
        list(_avg_field_ladder(src, _row_band(src), e, (0.25, 0.5, 1.0), {1.0}, 16, cap, stencil))
        assert len(rules) == built


@st.composite
def bank_cases(draw):
    """An ``operator_cases`` grid, whose direction set also gets an axis or a
    value with its perpendicular, under a config with cascaded levels
    (node cap 9) or only direct ones (cap 129), and m2 offsets 0 or 1."""
    f, omega, cfg = draw(operator_cases(offsets=False))
    s = draw(st.floats(0.0, 1.0, exclude_max=True))
    if draw(st.booleans()):
        extra = (draw(st.sampled_from([0.0, 0.25, 0.5, 0.75])),)
    else:
        extra = (s, (s + 0.25) % 1.0)
    cfg = replace(cfg, direct_nodes_cap=draw(st.sampled_from([9, 129])),
                  offset_steps=draw(st.integers(0, 1)))
    return f, DirectionSet(omega.values + extra), cfg


class TestBank:
    """Operators that share one field bank give the fields of separate calls."""

    @given(case=bank_cases())
    @settings(max_examples=40, deadline=None)
    def test_every_call_order_matches_separate_calls(self, case):
        f, omega, cfg = case
        inner = replace(cfg, radii=_column_ladder_radii(cfg))
        calls = {
            "m0": lambda bank: m0(f, omega, cfg, bank=bank),
            "m1": lambda bank: m1(f, omega, cfg, bank=bank),
            "m2": lambda bank: m2(f, omega, cfg, bank=bank),
            "m1-perp": lambda bank: m1(f, perpendicular(omega), inner, bank=bank),
        }
        want = {name: call(None).values.tobytes() for name, call in calls.items()}
        for order in itertools.permutations(calls):
            bank: dict = {}
            for name in order:
                assert calls[name](bank).values.tobytes() == want[name], (order, name)
                assert calls[name](bank).values.tobytes() == want[name], (order, name)

    @given(case=bank_cases())
    # a set closed under perpendicular whose column ladder is its own radii:
    # m1 over perpendicular(omega) is m1 itself, one field under one key
    @example(case=(Grid2D(np.arange(36.0).reshape(6, 6) % 5 - 2, 0.125),
                   DirectionSet((0.0, 0.25, 0.5, 0.75)),
                   OperatorConfig((0.15,), samples_per_unit=4, aspect_levels=0,
                                  offset_steps=0, direct_nodes_cap=9)))
    @settings(max_examples=20, deadline=None)
    def test_m2_pass_banks_the_other_three(self, case):
        f, omega, cfg = case
        bank: dict = {}
        m2(f, omega, cfg, bank=bank)
        held = dict(bank)
        inner = replace(cfg, radii=_column_ladder_radii(cfg))
        same = perpendicular(omega).values == omega.values and inner.radii == cfg.radii
        assert len(held) == 3 - same + (1.0 in cfg.radii)
        got = [m1(f, omega, cfg, bank=bank), m1(f, perpendicular(omega), inner, bank=bank)]
        if 1.0 in cfg.radii:
            got.append(m0(f, omega, cfg, bank=bank))
        assert bank == held
        assert all(any(g is h for h in held.values()) for g in got)

    def test_chain_check_fields_match_separate_calls(self):
        f, omega = smooth_grid(3), DirectionSet((0.0, 0.1, 0.35))
        fields = chain_check(f, omega, CFG, keep_fields=True).fields
        for name, op in (("m0", m0), ("m1", m1), ("m2", m2)):
            assert fields[name].values.tobytes() == op(f, omega, CFG).values.tobytes()


class TestCascadeAccuracy:
    """Away from the edge a cascaded level is the direct level up to the
    bilinear interpolation error, level by level."""

    @given(
        base=st.sampled_from([0.125, 0.25]),
        levels=st.integers(2, 3),
        spu=st.sampled_from([4, 8, 16]),
        s=st.floats(0.0, 1.0, exclude_max=True),
        coef=st.tuples(st.floats(0.0, 2.0), st.floats(0.0, 2.0), st.floats(-1.0, 1.0)),
        center=st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)),
    )
    @settings(max_examples=40, deadline=None)
    def test_cascade_matches_direct_within_interpolation_error(
        self, base, levels, spu, s, coef, center
    ):
        # f = 1 + a u^2 + b v^2 + c sqrt(ab) u v >= 1, (u, v) = x - center.
        # Bilinear interpolation reproduces u v, so it errs by at most
        # E = h^2 (a + b) / 4 on f and on any average of translates of f.  A
        # direct level errs by at most E against the exact trapezoid rule,
        # and a cascaded level k by (k + 1) E: each cascade step averages two
        # interpolated reads of the level below, at -+ half its length.
        a, b, c = coef
        h = 1 / 16
        g = Grid2D(np.zeros((64, 64)), h)
        x1, x2 = g.coords()
        u, v = x1[None, :] - center[0], x2[:, None] - center[1]
        src = 1.0 + a * u * u + b * v * v + c * math.sqrt(a * b) * u * v
        radii = tuple(base * 2.0**k for k in range(levels))
        e = direction_vector(s)
        stencil = functools.partial(_stencil, spacing=h)

        def ladder(cap):
            return _avg_field_ladder(src, _row_band(src), e, radii, set(radii), spu, cap, stencil)

        # every read of level k stays inside once x is radii[k] + (k + 2) h
        # from the edge (one extra cell per bilinear step)
        err = h * h * (a + b) / 4
        for k, ((_, casc, _), (_, direct, _)) in enumerate(zip(ladder(1), ladder(10**6))):
            inside = g.interior_mask(radii[k] + (k + 2) * h)
            gap = np.abs(casc - direct)[inside]
            assert gap.size and float(gap.max()) <= (k + 2) * err + 1e-12 * float(src.max())


class TestM1:
    def test_constant(self):
        g = Grid2D(np.ones((65, 65)), 1 / 8)
        out = m1(g, DirectionSet((0.0, 0.2)), CFG)
        assert out.values[32, 32] == pytest.approx(1.0, abs=1e-12)

    def test_dominates_m0_with_unit_radius(self):
        g = smooth_grid(4)
        om = DirectionSet((0.0, 0.13, 0.31))
        a = m0(g, om, CFG).values
        b = m1(g, om, CFG).values
        assert float(np.max(a - b)) <= 0.0

    def test_dominates_point_values(self):
        g = hot_pixel_grid()
        out = m1(g, DirectionSet((0.1,)), CFG).values
        assert out[32, 32] >= 1.0

    def test_hot_pixel_decay_against_direct_oracle(self):
        # along the ray through the pixel the sup picks the smallest radius
        # reaching back to it; cross-check against the direct trapezoid rule
        g = hot_pixel_grid(n=129, spacing=1 / 8)
        out = m1(g, DirectionSet((0.0,)), CFG).values
        c = 64
        for dist_px in (2, 6, 14):
            x1 = dist_px * g.spacing
            expected = max(
                directional_avg(g, 0.0, delta, (x1, 0.0)) for delta in CFG.radii
            )
            assert out[c, c + dist_px] == pytest.approx(expected, rel=1e-9)

    def test_monotone_in_directions(self):
        g = smooth_grid(5)
        small = DirectionSet((0.05, 0.3))
        large = DirectionSet((0.05, 0.18, 0.3, 0.44))
        a = m1(g, small, CFG).values
        b = m1(g, large, CFG).values
        assert float(np.max(a - b)) <= 0.0

    def test_sublinear_and_homogeneous(self):
        f, g = smooth_grid(6), smooth_grid(7)
        om = DirectionSet((0.0, 0.37))
        both = m1(Grid2D(f.values + g.values, f.spacing), om, CFG).values
        split = m1(f, om, CFG).values + m1(g, om, CFG).values
        assert float(np.max(both - split)) <= 1e-12
        scaled = m1(Grid2D(2.0 * f.values, f.spacing), om, CFG).values
        assert np.array_equal(scaled, 2.0 * m1(f, om, CFG).values)

    def test_l2_ratio_finite_and_monotone(self):
        g = smooth_grid(8)
        ratios = []
        for k in (1, 2, 4):
            om = DirectionSet(tuple(i / (2 * k) for i in range(k)))
            ratios.append(m1(g, om, CFG).l2_norm() / g.l2_norm())
        assert all(np.isfinite(ratios))
        assert ratios == sorted(ratios)


def _brute_force_m2(f: Grid2D, s: float, cfg: OperatorConfig, x, spu: int = 64):
    """Independent dense-quadrature rectangle search (centered family).

    Each rectangle's tensor trapezoid node grid is sampled bilinearly at once.
    """
    e = direction_vector(s)
    ep = direction_vector((s + 0.25) % 1.0)
    absf = f.abs()

    def trapezoid(half: float):
        if half == 0.0:
            return np.array([0.0]), np.array([1.0])
        n = max(2, round(2 * half * spu))
        w = np.full(n + 1, 1.0 / n)
        w[0] = w[-1] = 0.5 / n
        return np.linspace(-half, half, n + 1), w

    best = 0.0
    for a in cfg.radii:
        us, wu = trapezoid(a)
        for b in cfg.widths_for(a):
            vs, wv = trapezoid(b)
            px = x[0] + us[:, None] * e[0] + vs[None, :] * ep[0]
            py = x[1] + us[:, None] * e[1] + vs[None, :] * ep[1]
            best = max(best, float(wu @ _bilinear_sample(absf, px, py) @ wv))
    return best


class TestM2:
    def test_constant(self):
        g = Grid2D(np.ones((65, 65)), 1 / 8)
        out = m2(g, DirectionSet((0.0, 0.2)), CFG)
        assert out.values[32, 32] == pytest.approx(1.0, abs=1e-12)

    def test_dominates_m1(self):
        g = smooth_grid(9)
        om = DirectionSet((0.02, 0.26, 0.4))
        a = m1(g, om, CFG).values
        b = m2(g, om, CFG).values
        assert float(np.max(a - b)) <= 0.0

    def test_square_indicator_against_brute_force(self):
        # indicator of an axis-parallel square; compare the m2 field against
        # an independent dense rectangle search over the same family
        n, sp = 65, 1 / 8
        half = 0.5 * (n - 1) * sp
        x = np.linspace(-half, half, n)
        side = 0.75
        vals = (
            (np.abs(x[None, :]) <= side / 2) & (np.abs(x[:, None]) <= side / 2)
        ).astype(float)
        g = Grid2D(vals, sp)
        cfg = OperatorConfig.dyadic(0.5, 2, aspect_levels=2)
        out = m2(g, DirectionSet((0.0,)), cfg).values
        c = n // 2
        for dist_px in (4, 8):
            got = out[c, c + int(side / 2 / sp) + dist_px]
            x_pt = (side / 2 + dist_px * sp, 0.0)
            ref = _brute_force_m2(g, 0.0, cfg, x_pt)
            assert got == pytest.approx(ref, rel=0.10)

    def test_offset_family_dominates_centered(self):
        g = smooth_grid(10)
        om = DirectionSet((0.12,))
        centered = m2(g, om, CFG).values
        from dataclasses import replace

        offs = m2(g, om, replace(CFG, offset_steps=2)).values
        assert float(np.max(centered - offs)) <= 1e-12


class TestMemoryOrder:
    @pytest.mark.parametrize("op", [m0, m1, m2])
    def test_fortran_input_gives_identical_bits(self, op):
        a = np.random.default_rng(5).uniform(0, 1, (37, 52))
        om = DirectionSet((0.03, 0.17, 0.31, 0.62))
        c = op(Grid2D(a, 1 / 16), om, CFG).values
        f = op(Grid2D(np.asfortranarray(a), 1 / 16), om, CFG).values
        assert f.tobytes() == c.tobytes()


class TestStrongMaximal:
    def test_constant(self):
        g = Grid2D(np.ones((65, 65)), 1 / 8)
        assert strong_maximal(g, CFG).values[32, 32] == pytest.approx(1.0, abs=1e-12)

    def test_equals_axis_pair_m2(self):
        g = smooth_grid(11)
        a = strong_maximal(g, CFG).values
        b = m2(g, DirectionSet((0.0, 0.25)), CFG).values
        assert np.array_equal(a, b)

    def test_below_iterated_composition(self):
        axes = DirectionSet((0.0, 0.25))
        inner_cfg = OperatorConfig(
            tuple(CFG.radii[0] / 2.0**CFG.aspect_levels * 2.0**k
                  for k in range(CFG.aspect_levels + len(CFG.radii))),
            samples_per_unit=CFG.samples_per_unit,
        )
        for g in (smooth_grid(12), hot_pixel_grid()):
            comp = m1(m1(g, perpendicular(axes), inner_cfg), axes, CFG).values
            assert float(np.max(strong_maximal(g, CFG).values - comp)) <= 1e-9


class TestChain:
    def test_constant_no_violations(self):
        g = Grid2D(np.ones((65, 65)), 1 / 8)
        rep = chain_check(g, DirectionSet((0.0, 0.11, 0.25, 0.4)), CFG)
        assert rep.max_violation <= 1e-9

    def test_hot_pixel_no_violations(self):
        rep = chain_check(hot_pixel_grid(), DirectionSet((0.0, 0.11, 0.25, 0.4)), CFG)
        assert rep.max_violation <= 1e-9

    def test_random_suite_no_violations(self):
        rng = np.random.default_rng(0)
        for trial in range(5):
            g = smooth_grid(100 + trial)
            om = DirectionSet(tuple(rng.uniform(0, 1, 8)))
            rep = chain_check(g, om, CFG)
            assert rep.max_violation <= 1e-9, (trial, rep)

    @given(case=operator_cases(unit_radius=True, offsets=False))
    @settings(max_examples=80, deadline=None)
    def test_random_configs_exactly_zero(self, case):
        # every link compares fields built by the same line operator, and
        # fl(a + w * b) with w >= 0 is monotone, so domination is exact
        f, omega, cfg = case
        assert chain_check(f, omega, cfg).max_violation == 0.0

    def test_requires_unit_radius(self):
        with pytest.raises(InvalidArgument):
            chain_check(smooth_grid(0), DirectionSet((0.0,)),
                        OperatorConfig.dyadic(0.25, 2))


class TestGamma:
    def test_constant_input_gives_kernel_mass(self):
        n, sp = 128, 1 / 8
        g = Grid2D(np.ones((n, n)), sp)
        out = gamma_op(g, 0.2, r=1024.0, h=0.125)
        mass = float(gamma_kernel(g, 0.2, 1024.0, 0.125).sum())
        c = n // 2
        assert out.values[c, c] == pytest.approx(mass, rel=1e-3)

    def test_resolved_kernel_mass_matches_continuum(self):
        # with the kernel resolved (spacing << 1/r) and generous padding the
        # sampled mass approaches (integral V_r)(integral phi) = 2 pi int(phi)
        g = Grid2D(np.ones((512, 512)), 1 / 32)
        mass = float(gamma_kernel(g, 0.0, 4.0, 0.5).sum())
        assert mass == pytest.approx(2 * math.pi * bump_integral(), rel=0.03)

    def test_truncation_guard(self):
        g = Grid2D(np.ones((64, 64)), 1 / 8)
        with pytest.raises(TruncationError) as ei:
            gamma_op(g, 0.3, r=4.0, h=1.0)
        assert ei.value.lost_fraction > 1e-3

    def test_separable_oracle_at_zero_slope(self):
        rng = np.random.default_rng(1)
        f = rng.standard_normal((64, 64))
        g = Grid2D(f, 1 / 16)
        out = gamma_op(g, 0.0, 1024.0, 0.125, check_truncation=False)
        col = vp_eval(1024.0, (np.arange(65) - 32) * g.spacing) * g.spacing
        row = bump_eval(0.125, (np.arange(65) - 32) * g.spacing) * g.spacing
        sep = scipy.signal.fftconvolve(
            scipy.signal.fftconvolve(f, col[:, None], mode="same"),
            row[None, :],
            mode="same",
        )
        assert float(np.max(np.abs(out.values - sep))) < 1e-10

    def test_small_h_converges_to_pure_column_smoothing(self):
        # as h shrinks the operator approaches the pure vertical V_r
        # smoothing times int(phi); the bump's polynomial tails make the
        # rate linear-ish in h, so assert monotone convergence down to the
        # resolved limit h = one grid step
        n, sp = 128, 1 / 16
        x = np.linspace(-4, 4, n)
        f = np.exp(-(x[None, :] ** 2 + x[:, None] ** 2))
        g = Grid2D(f, sp)
        col = vp_eval(2048.0, (np.arange(n + 1) - n // 2) * sp) * sp
        oracle = scipy.signal.fftconvolve(f, col[:, None], mode="same") * bump_integral()
        scale = float(np.max(np.abs(oracle)))
        errs = []
        for h in (8 * sp, 4 * sp, 2 * sp, sp):
            out = gamma_op(g, 0.0, 2048.0, h, check_truncation=False)
            errs.append(float(np.max(np.abs(out.values - oracle))) / scale)
        assert errs == sorted(errs, reverse=True)
        assert errs[-1] < 0.06

    def test_spectral_identity(self):
        # the output's transform is exactly the kernel transform times fhat
        # on the padded lattice (linear convolution identity)
        rng = np.random.default_rng(2)
        f = rng.standard_normal((48, 48))
        g = Grid2D(f, 1 / 16)
        ker = gamma_kernel(g, 0.35, 2048.0, 0.125)
        out = gamma_op(g, 0.35, 2048.0, 0.125, check_truncation=False)
        n = f.shape[0] + ker.shape[0] - 1
        m = f.shape[1] + ker.shape[1] - 1
        full = np.fft.ifft2(
            np.fft.fft2(f, (n, m)) * np.fft.fft2(ker, (n, m))
        ).real
        r0 = (ker.shape[0] - 1) // 2
        c0 = (ker.shape[1] - 1) // 2
        same = full[r0 : r0 + 48, c0 : c0 + 48]
        assert float(np.max(np.abs(out.values - same))) < 1e-6

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(1, 70), st.integers(1, 70), st.sampled_from([0.0, 0.3, -0.9, 2.5]),
        st.sampled_from([4.0, 1024.0]), st.booleans(), st.integers(0, 2**32 - 1),
    )
    @example(1, 1, 0.3, 4.0, False, 0)
    @example(67, 61, 0.3, 4.0, False, 0)  # prime sides: padded to 5-smooth sizes
    @example(49, 1, 0.9, 1024.0, True, 1)  # a single column: one transformed axis
    @example(1, 59, -0.9, 4.0, False, 2)
    def test_bits_match_scipy_fftconvolve(self, rows, cols, alpha, r, fortran, seed):
        v = np.random.default_rng(seed).standard_normal((rows, cols))
        f = Grid2D(np.asfortranarray(v) if fortran else v, 1 / 16)
        out = gamma_op(f, alpha, r, 0.5, check_truncation=False).values
        ref = scipy.signal.fftconvolve(v, gamma_kernel(f, alpha, r, 0.5), mode="same")
        assert out.dtype == ref.dtype and out.tobytes() == ref.tobytes()

    def test_float32_grid_is_convolved_in_float64(self):
        v = np.random.default_rng(4).standard_normal((33, 47))
        f = Grid2D(v.astype(np.float32), 1 / 16)
        out = gamma_op(f, 0.3, 4.0, 0.5, check_truncation=False).values
        ref = scipy.signal.fftconvolve(
            v.astype(np.float32).astype(float), gamma_kernel(f, 0.3, 4.0, 0.5), mode="same"
        )
        assert out.tobytes() == ref.tobytes()

    def test_complex_grid_matches_scipy_to_rounding(self):
        # real and imaginary parts are convolved apart, so the result differs
        # from scipy's complex transform at rounding level only
        rng = np.random.default_rng(5)
        v = rng.standard_normal((33, 47)) + 1j * rng.standard_normal((33, 47))
        f = Grid2D(v, 1 / 16)
        out = gamma_op(f, 0.3, 4.0, 0.5, check_truncation=False).values
        ref = scipy.signal.fftconvolve(v, gamma_kernel(f, 0.3, 4.0, 0.5), mode="same")
        assert np.iscomplexobj(out)
        assert float(np.max(np.abs(out - ref))) <= 1e-14 * float(np.max(np.abs(ref)))

    def test_linearity(self):
        rng = np.random.default_rng(3)
        f = Grid2D(rng.standard_normal((64, 64)), 1 / 16)
        g = Grid2D(rng.standard_normal((64, 64)), 1 / 16)
        a, b = 2.0, -0.5
        lhs = gamma_op(
            Grid2D(a * f.values + b * g.values, 1 / 16), 0.2, 1024.0, 0.125,
            check_truncation=False,
        ).values
        rhs = (
            a * gamma_op(f, 0.2, 1024.0, 0.125, check_truncation=False).values
            + b * gamma_op(g, 0.2, 1024.0, 0.125, check_truncation=False).values
        )
        assert float(np.max(np.abs(lhs - rhs))) < 1e-10
