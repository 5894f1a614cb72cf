"""Strips, overlap bounds, multipliers, band containment, domination."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dirmax.errors import InvalidArgument, PreconditionViolation
from dirmax.grid_ops import Grid2D, OperatorConfig
from dirmax.lacunary import (
    LacunaryDecomposition,
    RankInterval,
    binary_decomposition,
    random_complete_decomposition,
)
from dirmax.sectors import (
    MAX_POLE_STRIP_OVERLAP,
    MAX_TOP_OVERLAP,
    STRIP_HALF_WIDTH,
    ContainmentReport,
    FrequencyBand,
    Sector,
    Strip,
    domination_ratio,
    max_overlap,
    max_overlap_with_argmax,
    sector_multiplier,
    strip_decomposition_report,
    strip_multiplier_energy,
    support_containment_check,
    validate_pole_gap_chain,
    _block_sweep,
    _insort_sweep,
    _region_mask,
    _strip_arrays,
    _sweep_max,
)
from oracles import overlap_count, random_pole_gap_chain, strip_contains, sweep_max_bisect
from test_lacunary import REFERENCE_CORPUS


def random_field(seed: int, n: int = 64, spacing: float = 1 / 8) -> Grid2D:
    rng = np.random.default_rng(seed)
    half = 0.5 * (n - 1) * spacing
    x = np.linspace(-half, half, n)
    f = np.zeros((n, n))
    for _ in range(5):
        cx, cy = rng.uniform(-0.5 * half, 0.5 * half, 2)
        s = rng.uniform(0.2, 0.8)
        f += rng.uniform(0.3, 1.0) * np.exp(
            -((x[None, :] - cx) ** 2 + (x[:, None] - cy) ** 2) / (2 * s * s)
        )
    return Grid2D(f, spacing)


class TestStrip:
    def test_contains_basic(self):
        s = Strip(0.0, 1.0, 0.5)
        assert strip_contains(s, (2.0, 1.0))
        assert not strip_contains(s, (0.5, 0.25))  # x1 below threshold

    def test_slab_bound(self):
        s = Strip(0.0, 0.1, 0.05)
        assert not strip_contains(s, (20.0, 6.1))  # |6.1 - 1| = 5.1 > 5
        assert strip_contains(s, (20.0, 5.9))

    def test_min_x1_exact(self):
        assert Strip(0.25, 0.75, 0.5).min_x1 == 2.0

    def test_membership_constant_along_center_ray(self):
        s = Strip(0.2, 0.4, 0.3)
        for x1 in (s.min_x1 * 1.001, 10.0, 1e4):
            assert strip_contains(s, (x1, 0.3 * x1))

    def test_center_outside_rejected(self):
        with pytest.raises(InvalidArgument):
            Strip(0.0, 1.0, 1.5)

    def test_point_and_mask_share_the_edges(self):
        # x1 = min_x1 is outside (strict), |x2 - c x1| = half_width inside (closed)
        s = Strip(0.0, 0.5, 0.25)
        pts = [(2.0, 0.5), (4.0, 6.0), (4.0, -4.0), (4.0, 6.5), (2.0 * (1 + 1e-15), 0.5)]
        x1 = np.array([p[0] for p in pts])
        x2 = np.array([p[1] for p in pts])
        want = [False, True, True, False, True]
        assert [strip_contains(s, p) for p in pts] == want
        assert _region_mask(s, x1, x2).tolist() == want


class TestOverlap:
    def test_order_one_no_pole_strips(self):
        d = random_complete_decomposition(np.random.default_rng(0), 1)
        nl, nt = overlap_count(d, (100.0, 50.0))
        assert nl <= 1

    def test_randomized_bounds(self):
        rng = np.random.default_rng(7)
        worst = (0, 0)
        for _ in range(60):
            mu = int(rng.integers(1, 9))
            d = random_complete_decomposition(rng, mu)
            nl, nt = max_overlap(d)
            worst = (max(worst[0], nl), max(worst[1], nt))
        assert worst[0] <= MAX_POLE_STRIP_OVERLAP
        assert worst[1] <= MAX_TOP_OVERLAP

    def test_sampled_never_exceeds_exact(self):
        rng = np.random.default_rng(3)
        d = random_complete_decomposition(rng, 5)
        nl, nt, al, at = max_overlap_with_argmax(d)
        best = (0, 0)
        for _ in range(5000):
            x1 = 10.0 ** rng.uniform(-1, 5)
            sigma = rng.uniform(-0.3, 1.3)
            c = overlap_count(d, (x1, sigma * x1 + rng.uniform(-6, 6)))
            best = (max(best[0], c[0]), max(best[1], c[1]))
        assert best[0] <= nl and best[1] <= nt
        # a dense log-lattice for mu <= 4: x1 log-spaced up to 1e3, where the
        # x2 step (sigma step times x1) stays under the slab half-width
        for mu in range(1, 5):
            d = random_complete_decomposition(rng, mu)
            nl, nt = max_overlap(d)
            for x1 in np.logspace(-0.5, 3.0, 36):
                for sigma in np.linspace(-0.1, 1.1, 241):
                    c = overlap_count(d, (x1, sigma * x1))
                    assert c[0] <= nl and c[1] <= nt

    def test_binary_decomposition_reported(self):
        # bisection decompositions are not complete; the pole-strip bound
        # still holds empirically, while the top-rank endpoint count may
        # exceed the complete-set constant (quasi-uniform gap runs)
        pts = np.sort(np.random.default_rng(0).uniform(0, 1, 256))
        d = binary_decomposition(pts)
        nl, nt = max_overlap(d, require_poles=False)
        assert nl <= MAX_POLE_STRIP_OVERLAP

    def test_poleless_raises_by_default(self):
        rng = np.random.default_rng(1)
        d = random_complete_decomposition(rng, 4, fill_probability=0.35)
        if all(j.pole is not None for j in d.rank_intervals if j.rank < d.order):
            pytest.skip("random draw filled everything")
        with pytest.raises(InvalidArgument):
            max_overlap(d)
        max_overlap(d, require_poles=False)  # and the escape hatch works

    def test_point_outside_half_plane_rejected(self):
        d = random_complete_decomposition(np.random.default_rng(2), 2)
        with pytest.raises(InvalidArgument):
            overlap_count(d, (-1.0, 0.0))


def _numpy_sweep_max(tau, centers):
    """The per-activation numpy sweep that the bisect sweep replaced: the
    slow reference."""
    if len(tau) == 0:
        return 0, (1.0, 0.0)
    order = np.argsort(tau, kind="stable")
    tau, centers = tau[order], centers[order]
    best, arg = 0, (float(tau[0]) * 2.0, float(centers[0]) * 2.0 * tau[0])
    active = np.empty(len(tau))
    n_act = 0
    for t, c in zip(tau, centers):
        pos = int(np.searchsorted(active[:n_act], c))
        active[pos + 1 : n_act + 1] = active[pos:n_act].copy()
        active[pos] = c
        n_act += 1
        x1 = t * (1.0 + 1e-12)
        width = 2.0 * STRIP_HALF_WIDTH / x1
        arr = active[:n_act]
        lo = int(np.searchsorted(arr, c - width, side="left"))
        hi = int(np.searchsorted(arr, c + width, side="right"))
        if hi - lo <= best:
            continue
        cut = int(np.searchsorted(arr, c, side="right"))
        starts = arr[lo:cut]
        ends = starts + width
        cnts = (
            np.searchsorted(arr, ends, side="right")
            - np.searchsorted(arr, starts, side="left")
        )
        cnts = np.where(ends >= c, cnts, 0)
        k = int(np.argmax(cnts))
        if cnts[k] > best:
            best = int(cnts[k])
            arg = (x1, (starts[k] + 0.5 * width) * x1)
    return best, arg


def _hex(result):
    best, arg = result
    return best, [float(v).hex() for v in arg]


def _assert_matches_bisect(tau, centers):
    """``_sweep_max``, and each of its two implementations on its own, give
    the count and witness bits of the one-activation-at-a-time oracle."""
    want = _hex(sweep_max_bisect(tau, centers))
    assert _hex(_sweep_max(tau, centers)) == want
    order = np.argsort(tau, kind="stable")
    assert _hex(_insort_sweep(tau[order], centers[order])) == want
    assert _hex(_block_sweep(tau[order], centers[order])) == want


def _random_strips(n, seed, tau_scale, ties):
    rng = np.random.default_rng(seed)
    tau = tau_scale * rng.uniform(0.5, 20.0, n)
    centers = rng.uniform(-1.0, 1.0, n)
    if ties:  # repeated thresholds and centers
        tau = np.round(tau, 0) + 1.0
        centers = np.round(centers, 1)
    return tau, centers


class TestSweepMax:
    @given(
        n=st.integers(0, 120),
        seed=st.integers(0, 2**32 - 1),
        tau_scale=st.sampled_from([1.0, 30.0, 1e3]),
        ties=st.booleans(),
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_numpy_reference_exactly(self, n, seed, tau_scale, ties):
        tau, centers = _random_strips(n, seed, tau_scale, ties)
        _assert_matches_bisect(tau, centers)
        best, arg = _sweep_max(tau, centers)
        ref_best, ref_arg = _numpy_sweep_max(tau, centers)
        assert best == ref_best
        assert [float(v) for v in arg] == [float(v) for v in ref_arg]

    @given(
        n=st.integers(0, 3000),
        seed=st.integers(0, 2**32 - 1),
        tau_scale=st.sampled_from([1.0, 30.0, 1e3]),
        ties=st.booleans(),
    )
    @settings(max_examples=40, deadline=None)
    def test_large_sets_match_the_bisect_sweep(self, n, seed, tau_scale, ties):
        _assert_matches_bisect(*_random_strips(n, seed, tau_scale, ties))

    @pytest.mark.parametrize("ties", [False, True])
    def test_crowded_windows_match(self, ties):
        # at tau_scale 1 nearly every center lies in every window, so a block's
        # windows hold more entries than the array sweep expands at once
        _assert_matches_bisect(*_random_strips(2000, 11, 1.0, ties))

    def test_window_edges_are_closed(self):
        # two strips whose centers are exactly one window width apart are
        # both counted (|sigma - center| <= 5 / x1 is a closed condition)
        t = 3.0
        width = 2.0 * STRIP_HALF_WIDTH / (t * (1.0 + 1e-12))
        tau, centers = np.array([t, t]), np.array([0.0, width])
        _assert_matches_bisect(tau, centers)
        assert _sweep_max(tau, centers) == _numpy_sweep_max(tau, centers)
        assert _sweep_max(tau, centers)[0] == 2

    @pytest.mark.parametrize(
        "mu, depth",
        [(mu, 1) for mu in range(1, 9)] + [(mu, depth) for depth in (2, 3, 4) for mu in range(1, 5)],
    )
    def test_random_complete_decompositions_match(self, mu, depth):
        d = random_complete_decomposition(np.random.default_rng(3), mu, depth)
        tau_l, cen_l, tau_t, cen_t = _strip_arrays(d, True)
        _assert_matches_bisect(tau_l, cen_l)
        _assert_matches_bisect(tau_t, cen_t)

    def test_decompositions_match_numpy_reference(self):
        rng = np.random.default_rng(3)
        for mu in range(1, 9):
            d = random_complete_decomposition(rng, mu)
            tau_l, cen_l, tau_t, cen_t = _strip_arrays(d, True)
            for tau, cen in ((tau_l, cen_l), (tau_t, cen_t)):
                assert _sweep_max(tau, cen) == _numpy_sweep_max(tau, cen)

    @pytest.mark.parametrize("n", [2, 3, 50, 700, 4096])
    def test_binary_decompositions_match(self, n):
        d = binary_decomposition(np.random.default_rng(n).uniform(0.0, 1.0, n))
        tau_l, cen_l, tau_t, cen_t = _strip_arrays(d, False)
        _assert_matches_bisect(tau_l, cen_l)
        _assert_matches_bisect(tau_t, cen_t)


class TestDepthThreeWitness:
    """At depth >= 2 the top-rank count exceeds ``MAX_TOP_OVERLAP``, and
    which count the constant 12 bounds is still open.  The seed-28 set is the
    worst witness found; it stays pinned until that is settled."""

    @staticmethod
    def _decomposition():
        return random_complete_decomposition(np.random.default_rng(28), 4, 3)

    def test_pinned_counts_and_witness(self):
        d = self._decomposition()
        n_low, n_top, _, arg_top = max_overlap_with_argmax(d)
        assert (n_low, n_top) == (9, 16)
        assert [float(v).hex() for v in arg_top] == [
            "0x1.663e3cd888c1dp+14",  # x1 = 22927.55941976245
            "0x1.e7fbcac555695p+13",
        ]
        assert overlap_count(d, arg_top)[1] == 16  # 16 endpoint strips hold the witness

    @pytest.mark.xfail(strict=True, reason="open: the depth-3 top-rank count is 16 > 12")
    def test_top_rank_bound(self):
        assert max_overlap(self._decomposition())[1] <= MAX_TOP_OVERLAP


def _strip_arrays_loop(decomp, require_poles):
    """The per-interval loop that the masks replaced: the slow reference."""
    mu = decomp.order
    poles = np.asarray(sorted(decomp.poles))
    tau_low, centers = [], []
    top_tau, top_centers = [], []
    for j in decomp.rank_intervals:
        if j.rank <= mu - 1:
            if j.pole is None:
                if require_poles:
                    raise InvalidArgument(
                        f"rank-{j.rank} interval ({j.lo}, {j.hi}) has no pole; "
                        "overlap needs a complete decomposition "
                        "(to skip such intervals, pass require_poles=False, or "
                        "--skip-poleless to dirmax overlap)"
                    )
                continue
            tau_low.append(1.0 / j.width)
            centers.append(j.pole)
        if j.rank == mu:
            if len(poles):
                k = int(np.searchsorted(poles, j.lo, side="right"))
                if k < len(poles) and poles[k] < j.hi:
                    continue
            top_tau.extend((1.0 / j.width, 1.0 / j.width))
            top_centers.extend((j.lo, j.hi))
    return tuple(np.asarray(a) for a in (tau_low, centers, top_tau, top_centers))


class TestStripArrays:
    @pytest.mark.parametrize("name", REFERENCE_CORPUS)
    def test_matches_loop_reference(self, name):
        d = REFERENCE_CORPUS[name]()
        require = True
        try:
            ref = _strip_arrays_loop(d, require)
        except InvalidArgument as exc:
            with pytest.raises(InvalidArgument) as err:
                _strip_arrays(d, require)
            assert str(err.value) == str(exc)
            # skipping poleless intervals matters only where the default raises
            require = False
            ref = _strip_arrays_loop(d, require)
        got = _strip_arrays(d, require)
        assert [a.dtype for a in got] == [a.dtype for a in ref]
        assert [[v.hex() for v in a.tolist()] for a in got] == [
            [v.hex() for v in a.tolist()] for a in ref
        ]

    def test_building_and_sweeping_construct_no_rank_interval(self, monkeypatch):
        def refuse(self):
            raise AssertionError("a RankInterval was constructed")

        monkeypatch.setattr(RankInterval, "__post_init__", refuse)
        d = random_complete_decomposition(np.random.default_rng(0), 6, 2)
        max_overlap_with_argmax(d)
        overlap_count(d, (100.0, 50.0))
        strip_multiplier_energy(d, random_field(0, n=16))
        LacunaryDecomposition.from_json(d.to_json())
        max_overlap(binary_decomposition(np.linspace(0, 1, 50)), require_poles=False)
        with pytest.raises(AssertionError):
            d.rank_intervals  # the edge still builds (and validates) objects


class TestSectorMultiplier:
    def test_full_plane_identity(self):
        f = random_field(0)
        sector = Sector(-1e9, 1e9)
        out = sector_multiplier(f, sector)
        # everything except the xi1 <= 0 half... use a strip-free check via
        # complement pair instead: S and its complement sum to f
        comp = f.values - out.values
        back = sector_multiplier(f, sector).values + comp
        assert float(np.max(np.abs(back - f.values))) < 1e-12

    def test_partition_of_unity(self):
        f = random_field(1)
        s = Strip(0.1, 0.6, 0.3)
        a = sector_multiplier(f, s).values
        fhat = np.fft.fft2(f.values)
        comp = np.fft.ifft2(fhat) - a  # complement projection
        assert float(np.max(np.abs(a + comp - f.values))) < 1e-12

    @settings(max_examples=60, deadline=None)
    @given(
        region=st.one_of(
            st.builds(lambda lo, w, t: Strip(lo, lo + w, lo + t * w),
                      st.floats(-3, 3), st.floats(0.05, 4), st.floats(0.05, 0.95)),
            st.builds(lambda lo, w: Sector(lo, lo + w), st.floats(-3, 3), st.floats(0.01, 6)),
        ),
        height=st.integers(2, 40),
        width=st.integers(2, 40),
        spacing=st.sampled_from([1 / 8, 1 / 2, 1.0]),
        seed=st.integers(0, 2**16),
    )
    def test_idempotent(self, region, height, width, spacing, seed):
        f = Grid2D(np.random.default_rng(seed).standard_normal((height, width)), spacing)
        once = sector_multiplier(f, region)
        twice = sector_multiplier(once, region)
        scale = float(np.max(np.abs(f.values)))
        assert float(np.max(np.abs(twice.values - once.values))) <= 1e-12 * scale

    def test_parseval_split(self):
        f = random_field(3)
        s = Strip(0.0, 1.0, 0.5)
        a = sector_multiplier(f, s)
        b = f.values - a.values
        na2 = float(np.sum(np.abs(a.values) ** 2)) * f.spacing**2
        nb2 = float(np.sum(np.abs(b) ** 2)) * f.spacing**2
        cross = float(np.real(np.sum(a.values * np.conj(b)))) * f.spacing**2
        total = f.l2_norm() ** 2
        assert na2 + nb2 + 2 * cross == pytest.approx(total, rel=1e-10)
        assert abs(cross) < 1e-10 * total  # orthogonal projection

    def test_self_adjoint(self):
        f, g = random_field(4), random_field(5)
        s = Strip(0.2, 0.8, 0.5)
        tf = sector_multiplier(f, s).values
        tg = sector_multiplier(g, s).values
        lhs = np.sum(tf * np.conj(g.values))
        rhs = np.sum(f.values * np.conj(tg))
        assert abs(lhs - rhs) < 1e-10 * abs(lhs + 1)

    def test_sector_region(self):
        f = random_field(6)
        out = sector_multiplier(f, Sector(0.0, 1.0))
        assert out.values.dtype.kind == "c"
        again = sector_multiplier(out, Sector(0.0, 1.0))
        assert float(np.max(np.abs(again.values - out.values))) < 1e-12


class TestStripEnergy:
    def test_orthogonality_bound(self):
        rng = np.random.default_rng(0)
        for trial in range(5):
            d = random_complete_decomposition(rng, int(rng.integers(2, 6)))
            f = random_field(100 + trial)
            total, denom, cmax = strip_multiplier_energy(d, f)
            assert cmax <= MAX_POLE_STRIP_OVERLAP
            assert total <= MAX_POLE_STRIP_OVERLAP * denom * (1 + 0.05)

    def test_energy_matches_per_strip_sums(self):
        d = random_complete_decomposition(np.random.default_rng(1), 3)
        f = random_field(7)
        total, denom, _ = strip_multiplier_energy(d, f)
        acc = 0.0
        for j in d.rank_intervals:
            if j.rank <= d.order - 1 and j.pole is not None:
                tf = sector_multiplier(f, Strip(j.lo, j.hi, j.pole))
                acc += tf.l2_norm() ** 2
        assert acc == pytest.approx(total, rel=1e-10)
        assert denom == pytest.approx(f.l2_norm() ** 2, rel=1e-12)


class TestPoleGapChains:
    def test_hand_built_chain(self):
        chain = [
            RankInterval(0.0, 1.0, 1, 0.5),
            RankInterval(0.36, 0.44, 2, None),
        ]
        validate_pole_gap_chain(chain)  # dist 0.06 in [0.04, 0.08]
        rep = support_containment_check(chain, theta=0.4, R=1e4)
        assert rep.m == 2
        assert rep.all_contained
        assert rep.checks[0].corner_margin == pytest.approx(1.5, abs=1e-9)

    def test_violating_chain_identified(self):
        chain = [
            RankInterval(0.0, 1.0, 1, 0.5),
            RankInterval(0.3, 0.45, 2, None),  # dist 0.05 < 0.075
        ]
        with pytest.raises(PreconditionViolation, match="k=1"):
            validate_pole_gap_chain(chain)

    def test_small_r_vacuous(self):
        chain = [RankInterval(0.0, 1.0, 1, None)]
        rep = support_containment_check(chain, theta=0.5, R=1.0)
        assert rep.m == 0
        assert rep.checks == ()

    def test_randomized_containment(self):
        rng = np.random.default_rng(11)
        margins = []
        for _ in range(100):
            n = int(rng.integers(1, 7))
            chain = random_pole_gap_chain(rng, n)
            last = chain[-1]
            theta = last.lo + (last.hi - last.lo) * rng.random()
            rep = support_containment_check(chain, theta, R=10.0 ** rng.uniform(1, 6))
            assert rep.all_contained
            margins.extend(c.corner_margin for c in rep.checks)
        assert margins and min(margins) > 0.0

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_corner_margin_is_the_band_minimum(self, seed):
        # the slab margin is concave and the band convex: no point of a 64 x 64
        # lattice of the band falls below the corners, beyond rounding
        rng = np.random.default_rng(seed)
        chain = random_pole_gap_chain(rng, int(rng.integers(1, 7)))
        last = chain[-1]
        theta = last.lo + (last.hi - last.lo) * rng.random()
        rep = support_containment_check(chain, theta, R=10.0 ** rng.uniform(1, 6))
        for c in rep.checks:
            assert c.contained == (c.corner_margin >= 0)
            half = c.band.bump_halfwidth
            x1 = np.linspace(c.band.xi1_lo, c.band.xi1_hi, 64)
            x2 = theta * x1 + np.linspace(-half, half, 64)[:, None]
            lattice = float(np.min(c.strip.half_width - np.abs(x2 - c.strip.center * x1)))
            assert lattice >= c.corner_margin - 1e-9 * max(1.0, abs(c.corner_margin))

    def test_theta_outside_rejected(self):
        chain = random_pole_gap_chain(np.random.default_rng(0), 3)
        with pytest.raises(InvalidArgument):
            support_containment_check(chain, theta=-5.0, R=100.0)


CFG = OperatorConfig.dyadic(0.125, 7, samples_per_unit=16)  # reach 8 >= grid diameter


class TestDomination:
    def test_equal_slopes_finite(self):
        f = random_field(8, n=96, spacing=1 / 16)
        r = domination_ratio(f, 0.3, 0.3, r=2048.0, h=1 / 16, cfg=CFG)
        assert np.isfinite(r) and r > 0

    def test_constant_input_tracks_kernel_mass(self):
        from dirmax.grid_ops import gamma_kernel

        g = Grid2D(np.ones((96, 96)), 1 / 16)
        alpha, beta, rr, h = 0.25, 0.3, 2048.0, 1 / 16
        r = domination_ratio(g, alpha, beta, r=rr, h=h, cfg=CFG)
        mass = float(gamma_kernel(g, alpha, rr, h).sum())
        est = mass / (h * rr * abs(alpha - beta) + 1.0)
        assert np.isfinite(r)
        assert 0.5 * est <= r <= 2.0 * est

    def test_no_growth_in_normalized_parameter(self):
        # the normalized ratio must not grow along the sweep; in fact the
        # un-normalized ratio stays nearly constant, so the normalized one
        # decays like 1/(h r |a-b| + 1)
        f = random_field(9, n=96, spacing=1 / 16)
        beta, h, r = 0.1, 1 / 16, 2048.0
        ratios = []
        for target in (0.0, 1.0, 10.0, 100.0):
            alpha = beta + target / (h * r)
            ratios.append(domination_ratio(f, alpha, beta, r, h, CFG))
        assert max(ratios) <= 1.5 * ratios[0]
        unnormalized = [
            r_ * (t + 1.0) for r_, t in zip(ratios, (0.0, 1.0, 10.0, 100.0))
        ]
        assert max(unnormalized) <= 1.5 * min(unnormalized)

    def test_rejects_out_of_range_slopes(self):
        f = random_field(10)
        with pytest.raises(InvalidArgument):
            domination_ratio(f, 1.5, 0.5, 8.0, 1.0, CFG)


# For the strip-decomposition checks the kernel must be spectrally resolved
# (2R below the lattice Nyquist) and the bump scale h = 1 so its transform
# width fits the +-5 strips: coarse wide grids, small R.
CFG5 = OperatorConfig.dyadic(0.5, 7, samples_per_unit=4)


def wide_field(seed: int, n: int = 256, spacing: float = 0.25) -> Grid2D:
    rng = np.random.default_rng(seed)
    half = 0.5 * (n - 1) * spacing
    x = np.linspace(-half, half, n)
    f = np.zeros((n, n))
    for _ in range(5):
        cx, cy = rng.uniform(-0.5 * half, 0.5 * half, 2)
        s = rng.uniform(1.0, 4.0)
        f += rng.uniform(0.3, 1.0) * np.exp(
            -((x[None, :] - cx) ** 2 + (x[:, None] - cy) ** 2) / (2 * s * s)
        )
    return Grid2D(f, spacing)


class TestStripDecomposition:
    def test_single_interval_chain(self):
        f = wide_field(11)
        chain = [RankInterval(0.1, 0.9, 1, None)]
        rep = strip_decomposition_report(f, chain, theta=0.5, R=5.0, cfg=CFG5, h=1.0)
        assert np.isfinite(rep.max_ratio)

    def test_constant_input(self):
        g = Grid2D(np.ones((256, 256)), 0.25)
        chain = [RankInterval(0.1, 0.9, 1, None)]
        rep = strip_decomposition_report(g, chain, theta=0.5, R=5.0, cfg=CFG5, h=1.0)
        assert np.isfinite(rep.max_ratio)

    @pytest.mark.parametrize(
        "n, theta, message",
        [(3, -5.0, "theta must lie in the last interval"),
         (3, 5.0, "theta must lie in the last interval"), (0, 0.5, "chain must be nonempty")],
    )
    def test_rejected_as_by_the_containment_check(self, n, theta, message):
        # both read their strips off the chain the same way
        chain = random_pole_gap_chain(np.random.default_rng(0), n) if n else []
        g = Grid2D(np.ones((8, 8)), 0.25)
        for check in (lambda: support_containment_check(chain, theta, R=100.0),
                      lambda: strip_decomposition_report(g, chain, theta, R=5.0, cfg=CFG5)):
            with pytest.raises(InvalidArgument, match=f"^{message}$"):
                check()

    def test_randomized_stability(self):
        rng = np.random.default_rng(12)
        ratios = []
        for trial in range(8):
            chain = random_pole_gap_chain(rng, int(rng.integers(1, 5)))
            last = chain[-1]
            theta = last.lo + (last.hi - last.lo) * rng.random()
            f = wide_field(200 + trial)
            rep = strip_decomposition_report(
                f, chain, theta, R=float(rng.uniform(4.5, 6.0)), cfg=CFG5, h=1.0
            )
            ratios.append(rep.max_ratio)
        med = float(np.median(ratios))
        assert max(ratios) <= 3.0 * med
