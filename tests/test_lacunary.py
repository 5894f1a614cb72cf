"""Lacunary sequences, decompositions, completions."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dirmax.errors import InvalidArgument, PreconditionViolation, ValidationFailure
from dirmax.lacunary import (
    CompleteLacunarySpec,
    DirectionSet,
    LacunarySequence,
    RATIO_HI,
    RATIO_LO,
    _assemble,
    _StageGroup,
    adjacent_intervals,
    binary_decomposition,
    build_decomposition,
    check_lacunary,
    complete_decomposition,
    complete_one_sided,
    infer_pole,
    perpendicular,
    random_complete_decomposition,
)


class TestCheckLacunary:
    def test_halving_sequence(self):
        assert check_lacunary([1, 0.5, 0.25, 0.125], pole=0.0, gap=0.6)

    def test_strictness_at_exact_ratio(self):
        assert not check_lacunary([1, 0.5, 0.25], pole=0.0, gap=0.5)

    def test_interior_pole_by_hand(self):
        # |0.7-0.6| < 0.5*|0.9-0.6| and |0.62-0.6| < 0.5*|0.7-0.6|
        assert check_lacunary([0.9, 0.7, 0.62], pole=0.6, gap=0.5)

    def test_pole_on_non_final_point_fails(self):
        assert not check_lacunary([1, 0.5, 0.25], pole=0.5, gap=0.9)

    def test_pole_on_final_point_passes(self):
        assert check_lacunary([1, 0.5, 0.25], pole=0.25, gap=0.9)

    def test_rejects_bad_gap(self):
        with pytest.raises(InvalidArgument):
            check_lacunary([1, 0.5], 0.0, 1.0)
        with pytest.raises(InvalidArgument):
            check_lacunary([1, 0.5], 0.0, 0.0)

    def test_rejects_non_finite(self):
        with pytest.raises(InvalidArgument):
            check_lacunary([1.0, math.inf], 0.0, 0.5)

    @given(
        st.integers(0, 6),
        st.sampled_from([0.5, 2.0, -1.0, 8.0, -0.25]),
    )
    @settings(max_examples=100, deadline=None)
    def test_affine_invariance_exact_scalings(self, seed, c):
        # scaling by powers of two (and sign) is exact in floating point,
        # so the combinatorial gate is invariant under v -> c v
        rng = np.random.default_rng(seed)
        pts = np.cumprod(rng.uniform(0.2, 0.49, 5)) + 0.1
        pole = 0.1
        gap = 0.5
        base = check_lacunary(pts, pole, gap)
        assert check_lacunary(c * pts, c * pole, gap) == base


class TestInferPole:
    def test_halving_sequence_has_pole_zero_feasible(self):
        pts = [1, 0.5, 0.25, 0.125]
        assert check_lacunary(pts, 0.0, 0.6)
        p = infer_pole(pts, 0.6)
        assert p is not None and check_lacunary(pts, p, 0.6)
        # nearest-to-the-points convention returns the last element
        assert p == 0.125

    def test_slow_decay_infeasible(self):
        # distances 1-p, 0.9-p, 0.8-p cannot halve twice for any pole below;
        # brute force over a fine grid of poles on the convergence side agrees
        pts = [1.0, 0.9, 0.8]
        assert infer_pole(pts, 0.5) is None
        grid = np.linspace(-50, 0.8, 200001)
        assert not any(check_lacunary(pts, p, 0.5) for p in grid)

    def test_singleton_any_pole(self):
        assert infer_pole([0.5], 0.5) == 0.5
        assert check_lacunary([0.5], 0.0, 0.5)

    def test_non_monotone_rejected(self):
        with pytest.raises(InvalidArgument):
            infer_pole([0.1, 0.5, 0.3], 0.5)

    def test_within_restriction(self):
        pts = [1, 0.5, 0.25]
        p = infer_pole(pts, 0.6, within=(0.0, 0.3))
        assert p is not None and 0.0 <= p <= 0.3
        assert check_lacunary(pts, p, 0.6)

    @given(st.integers(0, 500))
    @settings(max_examples=80, deadline=None)
    def test_restriction_keeps_pole_in_window(self, seed):
        # restrictions of a lacunary sequence stay lacunary with a pole in
        # the (closed) restriction window
        rng = np.random.default_rng(seed)
        pole = rng.uniform(-1, 1)
        d = np.cumprod(rng.uniform(0.2, 0.49, 8)) * rng.uniform(1, 5)
        pts = pole + d  # decreasing toward the pole
        lo = rng.uniform(pole, pts[-1])
        kept = [p for p in pts if p > lo]
        if len(kept) == 0:
            return
        p = infer_pole(kept, 0.5, within=(lo, kept[0] + 1e-9))
        assert p is not None
        assert check_lacunary(kept, p, 0.5)


class TestAdjacentIntervals:
    def test_single_point(self):
        assert adjacent_intervals([0.5], (0, 1)) == [(0, 0.5), (0.5, 1)]

    def test_two_points(self):
        assert adjacent_intervals([0.2, 0.7], (0, 1)) == [(0, 0.2), (0.2, 0.7), (0.7, 1)]

    def test_empty_set(self):
        assert adjacent_intervals([], (0, 1)) == [(0, 1)]

    def test_boundary_points_collapse_gaps(self):
        assert adjacent_intervals([0.0, 1.0], (0, 1)) == [(0.0, 1.0)]

    def test_outside_domain_rejected(self):
        with pytest.raises(InvalidArgument):
            adjacent_intervals([1.5], (0, 1))


def _laminar(intervals) -> bool:
    for i in intervals:
        for j in intervals:
            if i.rank == j.rank and (i.lo, i.hi) != (j.lo, j.hi):
                if not (i.hi <= j.lo or j.hi <= i.lo):
                    return False
            if i.rank > j.rank:
                nested = j.lo <= i.lo and i.hi <= j.hi
                disjoint = i.hi <= j.lo or j.hi <= i.lo
                if not (nested or disjoint):
                    return False
    return True


class TestBuildDecomposition:
    def test_single_stage(self):
        d = build_decomposition([[0, 1]], 0.5)
        assert d.order == 1
        assert d.intervals_of_rank(1) == d.rank_intervals

    def test_two_stage_single_point(self):
        d = build_decomposition([[0, 1], [0, 0.5, 1]], 0.5)
        assert d.order == 2
        (r1,) = d.intervals_of_rank(1)
        assert (r1.lo, r1.hi, r1.pole) == (0.0, 1.0, 0.5)

    def test_three_stage_dyadic(self):
        d = build_decomposition(
            [[0, 1], [0, 0.5, 1], [0, 0.25, 0.5, 0.75, 1]], 0.5
        )
        assert d.order == 3
        assert {(j.lo, j.hi): j.pole for j in d.intervals_of_rank(2)} == {
            (0.0, 0.5): 0.25,
            (0.5, 1.0): 0.75,
        }
        assert _laminar(d.rank_intervals)

    def test_not_nested_rejected(self):
        with pytest.raises(InvalidArgument):
            build_decomposition([[0, 1], [0.25, 0.5]], 0.5)

    def test_infeasible_group_rejected(self):
        # four uniformly spaced points in one gap admit no gap-1/4 pole,
        # one-sided or split
        with pytest.raises(ValidationFailure):
            build_decomposition([[0, 1], [0, 0.2, 0.4, 0.6, 0.8, 1]], 0.25)

    def test_roundtrip_json(self, tmp_path):
        d = build_decomposition([[0, 1], [0, 0.5, 1]], 0.5)
        p = tmp_path / "d.json"
        d.save(p)
        d2 = d.load(p)
        assert d2.chain == d.chain
        assert d2.rank_intervals == d.rank_intervals
        assert d2.poles == d.poles


class TestBinaryDecomposition:
    def test_order_bound_n7(self):
        pts = np.random.default_rng(0).uniform(0, 1, 7)
        d = binary_decomposition(pts)
        assert d.order <= int(math.log2(7)) + 2

    def test_two_points(self):
        d = binary_decomposition([0.3, 0.9])
        assert d.order == 1
        assert d.final_set == (0.3, 0.9)

    def test_single_point_trivial(self):
        assert binary_decomposition([0.5]).order == 1

    def test_empty_rejected(self):
        with pytest.raises(InvalidArgument):
            binary_decomposition([])

    def test_order_bound_random_1000(self):
        for seed in range(20):
            pts = np.random.default_rng(seed).uniform(0, 1, 1000)
            d = binary_decomposition(pts)
            n = len(set(pts.tolist()))
            assert d.order <= int(math.log2(n)) + 2

    @given(st.integers(2, 600), st.integers(0, 10**6))
    @settings(max_examples=60, deadline=None)
    def test_order_bound_property(self, n, seed):
        pts = np.random.default_rng(seed).uniform(0, 1, n)
        d = binary_decomposition(pts)
        m = len(set(pts.tolist()))
        assert d.order <= int(math.log2(m)) + 2

    def test_laminar_family(self):
        pts = np.random.default_rng(3).uniform(0, 1, 60)
        d = binary_decomposition(pts)
        assert _laminar(d.rank_intervals)


class TestCompleteOneSided:
    def test_already_complete_unchanged(self):
        seq = LacunarySequence((0.6, 0.2, 0.06), 0.0, 0.4)
        spec = complete_one_sided(seq, (-1, 1))
        assert spec.points == (0.6, 0.2, 0.06)
        assert spec.side == "one-side-decreasing"

    def test_prepends_to_reach_half_gap(self):
        seq = LacunarySequence((0.1,), 0.0, 0.4)
        spec = complete_one_sided(seq, (0, 1))
        assert 0.1 in spec.points
        assert spec.points[0] >= 0.5
        d = [abs(v) for v in spec.points]
        assert all(RATIO_LO <= y / x < RATIO_HI for x, y in zip(d, d[1:]))

    def test_exact_half_ratio_impossible(self):
        seq = LacunarySequence((0.6, 0.3), 0.0, 0.6)
        with pytest.raises(PreconditionViolation):
            complete_one_sided(seq, (0, 1))

    def test_sparse_ratios_bridged(self):
        seq = LacunarySequence((0.5, 0.01), 0.0, 0.4)  # ratio 0.02 needs bridging
        spec = complete_one_sided(seq, (0, 1))
        assert {0.5, 0.01} <= set(spec.points)

    def test_output_validates_invariants(self):
        # CompleteLacunarySpec's constructor enforces the window and the
        # half-gap condition; a broken profile must be rejected
        with pytest.raises(ValidationFailure):
            CompleteLacunarySpec((0, 1), 0.0, "one-side-decreasing", (0.8, 0.41))

    def test_pole_outside_interval_rejected(self):
        seq = LacunarySequence((0.6, 0.2), 0.0, 0.4)
        with pytest.raises(InvalidArgument):
            complete_one_sided(seq, (0.1, 1))

    @given(st.integers(0, 400))
    @settings(max_examples=60, deadline=None)
    def test_random_completion_invariants(self, seed):
        rng = np.random.default_rng(seed)
        pole = rng.uniform(0.2, 0.8)
        n = int(rng.integers(1, 6))
        d = np.cumprod(rng.uniform(0.05, 0.49, n)) * (1 - pole) * rng.uniform(0.1, 0.9)
        seq = LacunarySequence(tuple(pole + x for x in d), pole, 0.5)
        spec = complete_one_sided(seq, (0.0, 1.0))
        assert set(seq.points) <= set(spec.points)


class TestCompleteDecomposition:
    def test_dyadic_tail_completion(self):
        chain = [tuple(2.0**-k for k in range(11))]
        d = build_decomposition(chain, 0.5, domain=(0, 2))
        c = complete_decomposition(d)
        assert set(chain[0]) <= set(c.final_set)
        assert c.order == 1
        assert _laminar(c.rank_intervals)

    def test_trivial_singleton_unchanged(self):
        d = build_decomposition([[0.5]], 0.5)
        assert complete_decomposition(d) is d

    def test_wide_gap_reindexes(self):
        d = build_decomposition([[0.0, 1.0], [0.0, 0.7, 1.0]], 0.8)
        c = complete_decomposition(d)
        assert c.order <= 4 * d.order  # ceil(1/log2(1/0.8)) = 4
        assert {0.0, 0.7, 1.0} <= set(c.final_set)

    def test_multi_stage(self):
        d = build_decomposition(
            [[0.03125, 1], [0.03125, 0.0625, 0.125, 0.25, 0.5, 1]], 0.5
        )
        c = complete_decomposition(d)
        assert set(d.final_set) <= set(c.final_set)
        assert _laminar(c.rank_intervals)
        # every completed stage group satisfies the complete profile
        for g in c.groups:
            dd = [abs(v - g.pole) for v in g.points]
            assert all(RATIO_LO <= y / x < RATIO_HI for x, y in zip(dd, dd[1:]))


class TestRandomComplete:
    def test_all_low_rank_intervals_poled(self):
        rng = np.random.default_rng(0)
        for mu in (1, 2, 4, 6):
            d = random_complete_decomposition(rng, mu)
            assert all(
                j.pole is not None for j in d.rank_intervals if j.rank <= d.order - 1
            )
            assert _laminar(d.rank_intervals)

    def test_groups_are_complete_profiles(self):
        rng = np.random.default_rng(1)
        d = random_complete_decomposition(rng, 3, depth=3)
        for g in d.groups:
            dd = [abs(v - g.pole) for v in g.points]
            assert dd[0] > 0
            assert all(RATIO_LO <= y / x < RATIO_HI for x, y in zip(dd, dd[1:]))


def decomposition_bits(d):
    """Everything a decomposition holds, as exact text: JSON plus stage groups."""
    groups = [(g.stage, g.pole.hex(), [v.hex() for v in g.points]) for g in d.groups]
    return json.dumps(d.to_json(), sort_keys=True), groups


def _random_stage_loop(rng, mu, depth=1, domain=(0.0, 1.0), fill_probability=1.0):
    """Reference: the random complete construction as its own stage loop."""
    a0, b0 = domain
    current, chain, groups = [], [], []
    for stage in range(1, mu + 1):
        gaps = adjacent_intervals(current, domain) if current else [(a0, b0)]
        new_pts = []
        for lo, hi in gaps:
            if stage > 1 and fill_probability < 1.0 and rng.random() > fill_probability:
                continue
            pole = lo + (hi - lo) * rng.uniform(0.3, 0.7)
            for sign, cap in ((1.0, hi - pole), (-1.0, pole - lo)):
                d = cap * rng.uniform(0.55, 0.95)
                pts = []
                for _ in range(depth):
                    pts.append(pole + sign * d)
                    d *= rng.uniform(0.26, 0.49)
                groups.append(_StageGroup(stage, pole, tuple(pts)))
                new_pts.extend(pts)
        current = sorted(set(current) | set(new_pts))
        chain.append(tuple(current))
    return _assemble(chain, 0.5, domain, groups)


class TestRandomCompleteReference:
    @pytest.mark.parametrize("fill", [1.0, 0.35])
    @pytest.mark.parametrize("depth", [1, 2, 3])
    @pytest.mark.parametrize("mu", range(1, 7))
    def test_matches_stage_loop_bitwise(self, mu, depth, fill):
        for seed in (0, 1):
            got = random_complete_decomposition(
                np.random.default_rng(seed), mu, depth, fill_probability=fill
            )
            ref = _random_stage_loop(
                np.random.default_rng(seed), mu, depth, fill_probability=fill
            )
            assert decomposition_bits(got) == decomposition_bits(ref)

    def test_domain_and_generator_state(self):
        rng_a, rng_b = np.random.default_rng(7), np.random.default_rng(7)
        got = random_complete_decomposition(rng_a, 3, 2, (-2.0, 5.0), 0.5)
        ref = _random_stage_loop(rng_b, 3, 2, (-2.0, 5.0), 0.5)
        assert decomposition_bits(got) == decomposition_bits(ref)
        # the builder drew exactly as many numbers as the stage loop
        assert rng_a.random() == rng_b.random()


class TestPerpendicular:
    def test_axes(self):
        assert perpendicular(DirectionSet((0.0,))).values == (0.25,)
        assert perpendicular(DirectionSet((0.125,))).values == (0.375,)

    def test_involution_mod_half(self):
        om = DirectionSet((0.0, 0.1, 0.33, 0.49))
        twice = perpendicular(perpendicular(om))
        assert twice.canonical_lines() == om.canonical_lines()
