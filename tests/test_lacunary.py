"""Lacunary sequences, decompositions, completions."""

import json
import math
from bisect import bisect_right

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dirmax.errors import InvalidArgument, PreconditionViolation, ValidationFailure
from dirmax.harness import staged_lacunary_directions
from dirmax.lacunary import (
    CompleteLacunarySpec,
    DirectionSet,
    LacunaryDecomposition,
    LacunarySequence,
    RATIO_HI,
    RATIO_LO,
    RankInterval,
    _assemble,
    _split_by_gaps,
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

    def test_set_outside_domain_rejected(self):
        with pytest.raises(InvalidArgument, match="set must be contained in the domain"):
            build_decomposition([[0.1, 0.9]], 0.5, domain=(0.2, 0.3))

    @pytest.mark.parametrize(
        "chain, domain",
        [([[0.1, math.nan]], None), ([[0.1, math.inf]], (0.0, 1.0)), ([[0.5]], (1.0, 0.0))],
        ids=["nan", "inf", "reversed-domain"],
    )
    def test_non_finite_points_and_empty_domain_rejected(self, chain, domain):
        with pytest.raises(InvalidArgument):
            build_decomposition(chain, 0.5, domain=domain)

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


def _completion_corpus():
    """Name -> zero-argument builder of a decomposition to complete."""
    out = {}
    for seed in range(5):
        for mu in (1, 2, 3):
            for depth in (1, 2):
                for fill in (1.0, 0.35):
                    out[f"random-{seed}-mu{mu}-depth{depth}-fill{fill}"] = (
                        lambda s=seed, m=mu, d=depth, f=fill: random_complete_decomposition(
                            np.random.default_rng(s), m, d, fill_probability=f
                        )
                    )
    for mu in (1, 2, 3):
        out[f"staged-mu{mu}"] = lambda mu=mu: staged_lacunary_directions(mu, depth=2)
    for gap in (0.3, 0.5, 0.8):
        for n in (2, 3, 7, 60, 200):
            out[f"binary-{n}-gap{gap}"] = lambda n=n, g=gap: binary_decomposition(
                np.random.default_rng(n).uniform(0, 1, n), g
            )
        out[f"binary-0.4-0.6-gap{gap}"] = lambda g=gap: binary_decomposition([0.4, 0.6], g)
    chains = {
        "dyadic": ([tuple(2.0**-k for k in range(11))], 0.5, (0.0, 2.0)),
        "two-stage": ([[0.03125, 1], [0.03125, 0.0625, 0.125, 0.25, 0.5, 1]], 0.5, None),
        "three-stage": ([[0, 1], [0, 0.5, 1], [0, 0.25, 0.5, 0.75, 1]], 0.5, None),
        "wide-gap": ([[0.0, 1.0], [0.0, 0.7, 1.0]], 0.8, None),
        "anchors-only": ([[0.4, 0.6]], 0.9, None),
    }
    for name, args in chains.items():
        out[f"chain-{name}"] = lambda args=args: build_decomposition(*args)
    return out


COMPLETION_CORPUS = _completion_corpus()


class TestCompletionPaths:
    @pytest.mark.parametrize("name", COMPLETION_CORPUS)
    def test_in_memory_and_loaded_complete_alike(self, name):
        d = COMPLETION_CORPUS[name]()
        loaded = LacunaryDecomposition.from_json(json.loads(json.dumps(d.to_json())))
        got = complete_decomposition(d)
        assert json.dumps(got.to_json()) == json.dumps(complete_decomposition(loaded).to_json())
        assert set(d.final_set) <= set(got.final_set)

    @pytest.mark.xfail(strict=True, raises=ValidationFailure,
                       reason="a pole 1e-9 |J| from a point: bridging loses precision")
    def test_pole_next_to_a_point(self):
        complete_decomposition(random_complete_decomposition(np.random.default_rng(38), 4, 2))


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


BIT_GENERATORS = [np.random.PCG64, np.random.Philox, np.random.MT19937, np.random.SFC64]

small_profiles = dict(
    seed=st.integers(0, 2**32 - 1),
    mu=st.integers(1, 4),
    depth=st.integers(1, 2),
    fill=st.floats(0.0, 1.0, exclude_min=True),
)


class TestRandomCompleteProperties:
    @pytest.mark.parametrize("bit_generator", BIT_GENERATORS, ids=lambda b: b.__name__)
    @settings(max_examples=30, deadline=None)
    @given(**small_profiles)
    def test_matches_stage_loop_on_every_bit_generator(
        self, bit_generator, seed, mu, depth, fill
    ):
        rng_a = np.random.Generator(bit_generator(seed))
        rng_b = np.random.Generator(bit_generator(seed))
        got = random_complete_decomposition(rng_a, mu, depth, fill_probability=fill)
        ref = _random_stage_loop(rng_b, mu, depth, fill_probability=fill)
        assert decomposition_bits(got) == decomposition_bits(ref)
        # the generator is left where the stage loop left it
        assert rng_a.random() == rng_b.random()

    @settings(max_examples=60, deadline=None)
    @given(**small_profiles)
    def test_random_json_round_trip(self, seed, mu, depth, fill):
        d = random_complete_decomposition(
            np.random.default_rng(seed), mu, depth, fill_probability=fill
        )
        text = json.dumps(d.to_json(), sort_keys=True)
        back = LacunaryDecomposition.from_json(json.loads(text))
        assert json.dumps(back.to_json(), sort_keys=True) == text

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=300))
    def test_binary_json_round_trip(self, points):
        d = binary_decomposition(points)
        text = json.dumps(d.to_json(), sort_keys=True)
        back = LacunaryDecomposition.from_json(json.loads(text))
        assert json.dumps(back.to_json(), sort_keys=True) == text


def _assign_poles_loop(chain, domain, groups):
    """The per-gap loop that the array tagging replaced: the slow reference."""
    mu = len(chain)
    by_stage = {}
    for g in groups:
        by_stage.setdefault(g.stage, []).append(g.pole)
    stage_poles = [(s, sorted(ps)) for s, ps in sorted(by_stage.items())]
    intervals = []
    for k in range(1, mu + 1):
        gaps = adjacent_intervals(chain[k - 1], domain)
        assigned = [None] * len(gaps)
        if k <= mu - 1:
            los = [g[0] for g in gaps]
            remaining = len(gaps)
            for _stage, ps in stage_poles:
                if remaining == 0:
                    break
                for p in ps:
                    i = bisect_right(los, p) - 1
                    if 0 <= i and assigned[i] is None and gaps[i][0] < p < gaps[i][1]:
                        assigned[i] = p
                        remaining -= 1
        intervals.extend(
            RankInterval(lo, hi, k, pole) for (lo, hi), pole in zip(gaps, assigned)
        )
    return tuple(intervals)


def _corpus_builders():
    """Name -> zero-argument builder; every call builds the same decomposition."""
    out = {}
    for mu in range(1, 8):
        for depth in (1, 2):
            for fill in (1.0, 0.35):
                out[f"random-mu{mu}-depth{depth}-fill{fill}"] = (
                    lambda mu=mu, depth=depth, fill=fill: random_complete_decomposition(
                        np.random.default_rng(mu), mu, depth, fill_probability=fill
                    )
                )
    for n in (1, 2, 3, 7, 60, 257):
        out[f"binary-{n}"] = lambda n=n: binary_decomposition(
            np.random.default_rng(n).uniform(0, 1, n)
        )
    chains = {
        "dyadic": ([tuple(2.0**-k for k in range(11))], 0.5, (0.0, 2.0)),
        "two-stage": ([[0.03125, 1], [0.03125, 0.0625, 0.125, 0.25, 0.5, 1]], 0.5, None),
        "wide-gap": ([[0.0, 1.0], [0.0, 0.7, 1.0]], 0.8, None),
    }
    for name, args in chains.items():
        out[f"complete-{name}"] = lambda args=args: complete_decomposition(
            build_decomposition(*args)
        )
    for mu in (1, 3, 5):
        out[f"staged-mu{mu}"] = lambda mu=mu: staged_lacunary_directions(mu, depth=2)
    return out


# Decompositions on which the array code is checked against the loops it
# replaced: random complete, binary, completed and staged constructions.
REFERENCE_CORPUS = _corpus_builders()


def interval_hex(intervals):
    """Rank intervals as exact text, from RankInterval objects."""
    return [
        (j.lo.hex(), j.hi.hex(), j.rank, None if j.pole is None else float(j.pole).hex())
        for j in intervals
    ]


def array_hex(d):
    """A decomposition's interval arrays as exact text, in stored order."""
    cols = (d.lo.tolist(), d.hi.tolist(), d.rank.tolist(), d.pole.tolist())
    return [
        (a.hex(), b.hex(), k, None if math.isnan(p) else p.hex()) for a, b, k, p in zip(*cols)
    ]


class TestRankArrays:
    @pytest.mark.parametrize("name", REFERENCE_CORPUS)
    def test_matches_loop_reference(self, name):
        d = REFERENCE_CORPUS[name]()
        got = array_hex(d)
        assert got == interval_hex(_assign_poles_loop(d.chain, d.domain, d.groups))
        assert d.rank.dtype == np.int64
        assert not any(a.flags.writeable for a in (d.lo, d.hi, d.rank, d.pole))
        # the edge objects carry the same numbers
        assert interval_hex(d.rank_intervals) == got
        # JSON floats round-trip exactly, so equal text means equal arrays
        text = json.dumps(d.to_json())
        assert json.dumps(LacunaryDecomposition.from_json(json.loads(text)).to_json()) == text

    def test_intervals_of_rank(self):
        d = REFERENCE_CORPUS["random-mu3-depth1-fill1.0"]()
        for k in range(1, 4):
            assert d.intervals_of_rank(k) == tuple(j for j in d.rank_intervals if j.rank == k)
        assert d.intervals_of_rank(4) == ()

    def test_from_json_validates_every_interval(self):
        data = REFERENCE_CORPUS["random-mu2-depth1-fill1.0"]().to_json()
        cases = [
            ({"lo": 0.5, "hi": 0.5}, InvalidArgument), ({"rank": 0}, InvalidArgument),
            ({"rank": 1.5}, InvalidArgument), ({"rank": True}, InvalidArgument),
            ({"rank": 10**400}, InvalidArgument), ({"rank": None}, InvalidArgument),
            ({"rank": "1"}, InvalidArgument), ({"lo": "0.1"}, InvalidArgument),
            ({"hi": None}, InvalidArgument), ({"pole": "0.5"}, InvalidArgument),
            ({"pole": 2.0}, ValidationFailure), ({"pole": math.nan}, ValidationFailure),
        ]
        for bad, error in cases:
            broken = json.loads(json.dumps(data))
            broken["rank_intervals"][1].update(bad)
            with pytest.raises((InvalidArgument, ValidationFailure)) as info:
                LacunaryDecomposition.from_json(broken)
            assert info.type is error, bad

    def test_from_json_rejects_forged_rank_intervals(self):
        data = random_complete_decomposition(np.random.default_rng(0), 4).to_json()
        data["rank_intervals"] = data["rank_intervals"][:5] * 31
        with pytest.raises(InvalidArgument, match="ranks 1..4 in order"):
            LacunaryDecomposition.from_json(data)

    @pytest.mark.parametrize(
        "edit, message",
        [
            ("reverse", "ranks 1..3 in order"),
            ("drop-last", "ranks 1..3 in order"),
            ("swap-rank-2", "rank-2 intervals"),
            ("shrink-top", "rank-3 intervals"),
            ("tag-top", "top-rank"),
            ("retag-foreign", "not one of the poles"),
        ],
    )
    def test_from_json_checks_intervals_against_chain(self, edit, message):
        data = REFERENCE_CORPUS["random-mu3-depth1-fill1.0"]().to_json()
        rows = data["rank_intervals"]
        assert [r["rank"] for r in rows[2:5]] == [1, 2, 2]
        top = rows[-1]
        mid = 0.5 * (top["lo"] + top["hi"])
        if edit == "reverse":
            rows.reverse()
        elif edit == "drop-last":
            rows.pop()
        elif edit == "swap-rank-2":
            rows[3], rows[4] = rows[4], rows[3]
        elif edit == "shrink-top":
            top["lo"] = mid
        elif edit == "tag-top":
            top["pole"] = mid
        else:
            # still strictly inside each interval, but no pole of the file
            for r in rows:
                if r["pole"] is not None:
                    r["pole"] = r["lo"] + 1e-9 * (r["hi"] - r["lo"])
        with pytest.raises(InvalidArgument, match=message):
            LacunaryDecomposition.from_json(data)

    def test_from_json_rejects_non_nested_chain(self):
        chain = [[0.5], [0.3]]
        rows = [{"lo": lo, "hi": hi, "rank": k, "pole": None}
                for k, s in enumerate(chain, 1) for lo, hi in adjacent_intervals(s, (0, 1))]
        data = {"gap": 0.5, "chain": chain, "rank_intervals": rows, "domain": [0, 1]}
        with pytest.raises(InvalidArgument, match="chain is not nested at stage 1"):
            LacunaryDecomposition.from_json(data)

    def test_from_json_rejects_chain_outside_domain(self):
        data = REFERENCE_CORPUS["random-mu2-depth1-fill1.0"]().to_json()
        data["chain"][0].append(1.5)
        with pytest.raises(InvalidArgument, match="contained in the domain"):
            LacunaryDecomposition.from_json(data)

    @pytest.mark.parametrize(
        "key, value",
        [("poles", ["a"]), ("poles", [float("nan")]), ("domain", ["x", 1.0]),
         ("domain", [0.0]), ("domain", [1.0, 0.0]), ("domain", [0.0, float("inf")])],
    )
    def test_from_json_rejects_malformed_poles_and_domain(self, key, value):
        data = REFERENCE_CORPUS["random-mu2-depth1-fill1.0"]().to_json()
        data[key] = value
        with pytest.raises(InvalidArgument):
            LacunaryDecomposition.from_json(data)

    def test_from_json_converts_poles_and_domain_to_floats(self):
        data = REFERENCE_CORPUS["random-mu2-depth1-fill1.0"]().to_json()
        poles = tuple(data["poles"])
        # the same numbers as text: every pole tag must still be one of them
        data["poles"] = [repr(p) for p in poles]
        data["domain"] = [0, 1]
        d = LacunaryDecomposition.from_json(data)
        assert d.poles == poles and d.domain == (0.0, 1.0)
        assert all(type(v) is float for v in d.poles + d.domain)
        # without the key, the poles are the distinct interval tags
        del data["poles"]
        tags = {j.pole for j in d.rank_intervals if j.pole is not None}
        assert LacunaryDecomposition.from_json(data).poles == tuple(sorted(tags))


def _split_by_gaps_loop(points, current, domain):
    """The per-gap rescan that the single searchsorted replaced: the slow reference."""
    split = []
    for lo, hi in adjacent_intervals(current, domain):
        pts = sorted(p for p in points if lo < p < hi)
        if pts:
            split.append((lo, hi, pts))
    placed = {p for _, _, pts in split for p in pts}
    return split, [p for p in points if p not in placed]


class TestSplitByGaps:
    @pytest.mark.parametrize("seed", range(40))
    def test_matches_per_gap_scan(self, seed):
        rng = np.random.default_rng(seed)
        domain = (-1.0, 2.0)
        grid = rng.uniform(*domain, 12)
        pool = np.concatenate((grid, domain))  # boundary points in the draws
        current = np.unique(rng.choice(pool, int(rng.integers(0, 8))))
        points = np.unique(np.concatenate((
            rng.choice(pool, int(rng.integers(0, 10))), rng.uniform(*domain, 5)
        )))
        got = _split_by_gaps(points, current, domain)
        assert got == _split_by_gaps_loop(points.tolist(), current.tolist(), domain)


class TestPerpendicular:
    def test_axes(self):
        assert perpendicular(DirectionSet((0.0,))).values == (0.25,)
        assert perpendicular(DirectionSet((0.125,))).values == (0.375,)

    def test_involution_mod_half(self):
        om = DirectionSet((0.0, 0.1, 0.33, 0.49))
        twice = perpendicular(perpendicular(om))
        assert twice.canonical_lines() == om.canonical_lines()
