"""Discrete maximal operators: quadrature, chain, and smoothing kernel."""

import math
import struct
import tracemalloc

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
    _shift_add,
    _trapezoid_field,
    chain_check,
    direction_vector,
    directional_avg,
    gamma_kernel,
    gamma_op,
    m0,
    m1,
    m2,
    strong_maximal,
)
from dirmax.kernels import bump_eval, bump_integral, vp_eval
from dirmax.lacunary import DirectionSet, perpendicular


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

    def test_csv_roundtrip(self, tmp_path):
        g = smooth_grid(1, n=9)
        p = tmp_path / "g.csv"
        g.save_csv(p)
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
        _shift_add(out, src, di, dj, w)
        assert out.tobytes() == ref.tobytes()

    def test_rejects_fortran_order(self):
        out = np.asfortranarray(np.zeros((4, 6)))
        with pytest.raises(ValueError):
            _shift_add(out, np.ones((4, 6)), 1, 1, 1.0)


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


def _two_branch_m0(f: Grid2D, omega: DirectionSet, cfg=None) -> np.ndarray:
    """Reference: m0 with a ladder branch for 1.0 in the radii and a direct
    trapezoid branch otherwise."""
    src = np.abs(f.values, order="C")
    out = np.zeros_like(src)
    for s in omega.values:
        e = direction_vector(s)
        if cfg is not None and 1.0 in cfg.radii:
            ladder = [r for r in cfg.radii if r <= 1.0]
            for delta, fld in _avg_field_ladder(
                src, e, ladder, f.spacing, cfg.samples_per_unit, cfg.direct_nodes_cap
            ):
                if delta == 1.0:
                    np.maximum(out, fld, out=out)
        else:
            spu = cfg.samples_per_unit if cfg else max(1, round(1.0 / f.spacing))
            fld = _trapezoid_field(src, e, 1.0, _base_segments(1.0, spu), f.spacing)
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
    """Independent dense-quadrature rectangle search (centered family)."""
    e = direction_vector(s)
    ep = direction_vector((s + 0.25) % 1.0)
    best = 0.0
    for a in cfg.radii:
        for b in cfg.widths_for(a):
            nu = max(2, round(2 * a * spu))
            us = np.linspace(-a, a, nu + 1)
            wu = np.full(nu + 1, 1.0 / nu)
            wu[0] = wu[-1] = 0.5 / nu
            if b == 0.0:
                vs = np.array([0.0])
                wv = np.array([1.0])
            else:
                nv = max(2, round(2 * b * spu))
                vs = np.linspace(-b, b, nv + 1)
                wv = np.full(nv + 1, 1.0 / nv)
                wv[0] = wv[-1] = 0.5 / nv
            total = 0.0
            for u, cu in zip(us, wu):
                px = x[0] + u * e[0] + vs * ep[0]
                py = x[1] + u * e[1] + vs * ep[1]
                vals = [
                    directional_avg(f, 0.0, 1e-9, (qx, qy), samples_per_unit=1)
                    for qx, qy in zip(px, py)
                ]
                total += cu * float(np.dot(wv, vals))
            best = max(best, total)
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
