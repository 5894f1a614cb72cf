"""Acceptance suite: one test per release criterion, one PASS line each.

Every tolerance is pinned here; tests print the measured values so a log of
this module documents the run.  Run with ``pytest tests/test_acceptance.py -v -s``.
"""

import math
import time

import numpy as np
import pytest

from dirmax.grid_ops import Grid2D, OperatorConfig, chain_check
from dirmax.harness import (
    TestFunctionSpec,
    generate,
    sweep_N,
    sweep_mu,
)
from dirmax.kernels import fejer_eval, fejer_from_vp, vp_transform
from dirmax.lacunary import (
    DirectionSet,
    binary_decomposition,
    random_complete_decomposition,
)
from dirmax.sectors import (
    MAX_POLE_STRIP_OVERLAP,
    MAX_TOP_OVERLAP,
    domination_ratio,
    max_overlap,
    strip_multiplier_energy,
    support_containment_check,
)

from oracles import random_pole_gap_chain
from test_kernels import vp_transform_quadrature


def _report(name: str, elapsed: float, budget: float, detail: str) -> None:
    print(f"\nACCEPTANCE {name}: PASS in {elapsed:.1f}s (budget {budget:.0f}s) - {detail}")


def test_bisection_order_bound_bulk():
    """200 random slope sets, N in {2..4096}: order <= floor(log2 N) + 2."""
    budget = 10.0
    t0 = time.perf_counter()
    rng = np.random.default_rng(2024)
    worst_slack = math.inf
    for trial in range(200):
        n = int(rng.integers(2, 4097))
        pts = rng.uniform(0.0, 1.0, n)
        d = binary_decomposition(pts)
        bound = int(math.log2(len(set(pts.tolist())))) + 2
        assert d.order <= bound, (trial, n, d.order, bound)
        worst_slack = min(worst_slack, bound - d.order)
    elapsed = time.perf_counter() - t0
    assert elapsed < budget
    _report("bisection-order", elapsed, budget,
            f"200/200 within floor(log2 N)+2, min slack {worst_slack}")


def test_strip_overlap_bounds_randomized():
    """1000 random complete decompositions (mu <= 8): exact maxima <= (40, 12)."""
    budget = 60.0
    t0 = time.perf_counter()
    rng = np.random.default_rng(7)
    worst = (0, 0)
    for _ in range(1000):
        mu = int(rng.integers(1, 9))
        d = random_complete_decomposition(rng, mu)
        nl, nt = max_overlap(d)
        worst = (max(worst[0], nl), max(worst[1], nt))
        assert nl <= MAX_POLE_STRIP_OVERLAP
        assert nt <= MAX_TOP_OVERLAP
    elapsed = time.perf_counter() - t0
    assert elapsed < budget
    _report("strip-overlap", elapsed, budget,
            f"empirical maxima {worst} <= ({MAX_POLE_STRIP_OVERLAP}, {MAX_TOP_OVERLAP})")


def test_vp_transform_quadrature_match():
    """Quadrature of V_r against exp(i x xi) matches the trapezoid profile."""
    budget = 5.0
    t0 = time.perf_counter()
    worst = 0.0
    for r in (0.1, 1.0, 10.0):
        for xi in (0.0, 0.5 * r, r, 1.5 * r, 2.0 * r, 3.0 * r):
            err = abs(vp_transform_quadrature(r, xi) - vp_transform(r, xi))
            worst = max(worst, err)
            assert err <= 1e-6, (r, xi, err)
    elapsed = time.perf_counter() - t0
    assert elapsed < budget
    _report("vp-transform", elapsed, budget, f"max |quad - profile| = {worst:.2e} <= 1e-6")


def test_fejer_series_truncation():
    """Depth-25 partial sums of the dyadic expansion reach K_r to 1e-9 * r."""
    budget = 5.0
    t0 = time.perf_counter()
    xs = np.linspace(-50.0, 50.0, 10_000)
    worst = 0.0
    for r in (0.5, 1.0, 2.0):
        err = np.abs(fejer_from_vp(r, xs, 25) - fejer_eval(r, xs))
        worst = max(worst, float(err.max()) / r)
        assert float(err.max()) <= 1e-9 * r
    elapsed = time.perf_counter() - t0
    assert elapsed < budget
    _report("fejer-series", elapsed, budget, f"max err/r = {worst:.2e} <= 1e-9")


def test_pointwise_operator_chain():
    """m0 <= m1 <= m2 <= m1 m1_perp with slack 1e-9 on 50 random pairs."""
    budget = 300.0
    t0 = time.perf_counter()
    cfg = OperatorConfig.dyadic(0.25, 3, samples_per_unit=16)
    rng = np.random.default_rng(11)
    worst = 0.0
    for trial in range(50):
        kind = ("random_bumps", "disk", "needle_bundle", "hot_pixel")[trial % 4]
        if kind == "needle_bundle":
            spec = TestFunctionSpec(kind, count=5, seed=trial, width=2.0,
                                    angles=tuple(rng.uniform(0, 1, 5)))
        elif kind == "disk":
            spec = TestFunctionSpec(kind, radius=float(rng.uniform(3, 20)))
        else:
            spec = TestFunctionSpec(kind, count=6, seed=trial, scale=10.0)
        f = generate(spec, 256, 256, 1 / 16)
        omega = DirectionSet(tuple(rng.uniform(0, 1, int(rng.integers(3, 9)))))
        rep = chain_check(f, omega, cfg)
        worst = max(worst, rep.max_violation)
        assert rep.max_violation <= 1e-9, (trial, rep)
    elapsed = time.perf_counter() - t0
    assert elapsed < budget
    _report("operator-chain", elapsed, budget,
            f"50/50 pairs, max violation {worst:.2e} <= 1e-9")


def test_band_strip_containment():
    """100 random pole-gap chains: band corners inside strips, positive margin."""
    budget = 10.0
    t0 = time.perf_counter()
    rng = np.random.default_rng(5)
    min_margin = math.inf
    checked = 0
    for _ in range(100):
        n = int(rng.integers(1, 7))
        chain = random_pole_gap_chain(rng, n)
        last = chain[-1]
        theta = last.lo + (last.hi - last.lo) * rng.random()
        rep = support_containment_check(chain, theta, R=10.0 ** rng.uniform(1, 6))
        assert rep.all_contained
        for c in rep.checks:
            assert c.corner_margin > 0.0
            min_margin = min(min_margin, c.corner_margin)
            checked += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < budget
    _report("band-containment", elapsed, budget,
            f"100/100 chains, {checked} bands, min corner margin {min_margin:.3f} > 0")


def test_smoothing_domination_stability():
    """Normalized smoothing/maximal ratios: no growth along the h r |a-b| sweep
    and cross-function stability at every sweep point."""
    budget = 600.0
    t0 = time.perf_counter()
    cfg = OperatorConfig.dyadic(0.125, 8, samples_per_unit=16)  # reach 16 = grid extent
    beta, h, r = 0.1, 0.125, 1024.0
    targets = (0.0, 1.0, 10.0, 100.0)
    ratios = np.zeros((20, len(targets)))
    for i in range(20):
        f = generate(TestFunctionSpec("random_bumps", count=6, seed=100 + i,
                                      scale=10.0), 256, 256, 1 / 16)
        for j, tgt in enumerate(targets):
            alpha = beta + tgt / (h * r)
            ratios[i, j] = domination_ratio(f, alpha, beta, r, h, cfg,
                                            interior_margin=4.0)
    # no growth in the normalized ratio along the sweep
    for i in range(20):
        assert ratios[i].max() <= 1.5 * ratios[i, 0], (i, ratios[i])
    # stability across functions at each sweep point
    spread = 0.0
    for j in range(len(targets)):
        med = float(np.median(ratios[:, j]))
        assert float(ratios[:, j].max()) <= 3.0 * med, (j, ratios[:, j])
        spread = max(spread, float(ratios[:, j].max()) / med)
    elapsed = time.perf_counter() - t0
    assert elapsed < budget
    _report("smoothing-domination", elapsed, budget,
            f"80 evals, no growth (max/t0 <= 1.5), per-target max/median <= {spread:.2f} <= 3")


def test_norm_growth_scaling():
    """m1 ratio stays within a factor 2 of its anchor after sqrt(mu) and
    sqrt(log2 N) normalization; m2's N-growth is reported alongside."""
    budget = 1800.0
    t0 = time.perf_counter()

    res_mu = sweep_mu([1, 2, 3, 4, 5, 6], ops=("m1",), size=512, seed=0)
    mu_norm = [(lbl, r / math.sqrt(lbl)) for lbl, r in res_mu.ratios("m1")]
    anchor_mu = mu_norm[0][1]
    for lbl, v in mu_norm:
        assert 0.5 * anchor_mu <= v <= 2.0 * anchor_mu, (lbl, v, anchor_mu)

    res_n = sweep_N([4, 16, 64, 256], ops=("m1",), size=512, seed=0)
    n_norm = [(lbl, r / math.sqrt(math.log2(lbl))) for lbl, r in res_n.ratios("m1")]
    anchor_n = n_norm[0][1]
    for lbl, v in n_norm:
        assert 0.5 * anchor_n <= v <= 2.0 * anchor_n, (lbl, v, anchor_n)

    res_m2 = sweep_N([4, 16, 64, 256], family_kinds=("disk",), ops=("m2",),
                     size=512, seed=0)
    m2_pairs = res_m2.ratios("m2")
    m2_track = [r / math.log2(n) for n, r in m2_pairs]

    elapsed = time.perf_counter() - t0
    assert elapsed < budget
    _report(
        "norm-scaling", elapsed, budget,
        "mu-normalized m1 in [{:.3f}, {:.3f}] vs anchor {:.3f}; "
        "N-normalized m1 in [{:.3f}, {:.3f}] vs anchor {:.3f}; "
        "m2/log2N = {}".format(
            min(v for _, v in mu_norm), max(v for _, v in mu_norm), anchor_mu,
            min(v for _, v in n_norm), max(v for _, v in n_norm), anchor_n,
            [round(v, 3) for v in m2_track],
        ),
    )


def test_strip_multiplier_orthogonality():
    """sum_J ||T_{S_{p_J}(J)} f||^2 <= 40 * 1.05 * ||f||^2 on 20 random pairs."""
    budget = 300.0
    t0 = time.perf_counter()
    rng = np.random.default_rng(3)
    worst = 0.0
    for trial in range(20):
        mu = int(rng.integers(2, 7))
        d = random_complete_decomposition(rng, mu)
        f = generate(TestFunctionSpec("random_bumps", count=5, seed=300 + trial,
                                      scale=6.0), 128, 128, 1 / 8)
        total, denom, cmax = strip_multiplier_energy(d, f)
        frac = total / (MAX_POLE_STRIP_OVERLAP * denom)
        worst = max(worst, frac)
        assert cmax <= MAX_POLE_STRIP_OVERLAP
        assert total <= MAX_POLE_STRIP_OVERLAP * denom * 1.05, (trial, total, denom)
    elapsed = time.perf_counter() - t0
    assert elapsed < budget
    _report("strip-orthogonality", elapsed, budget,
            f"20/20 pairs, worst energy fraction {worst:.3f} of the 40x bound")
