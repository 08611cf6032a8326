"""Area estimation, Chernoff sizing, and the three power optimizers."""

import itertools
import math
import random

import numpy as np
import pytest

from coveragekit.errors import BudgetExceeded
from coveragekit.geometry import Point2, Rect
from coveragekit.optimizer import (Bounds, OptResult, RhcParams, SamplingPlan,
                                   estimate_area, exhaustive_search,
                                   grid_rule_samples, nelder_mead, objective,
                                   post_process, random_hill_climb,
                                   required_samples, sample_points,
                                   sweep_power)
from coveragekit.sinr_model import PowerVector, SinrEvaluator, SinrScenario

from sinr_reference import reference_mask, sinr_max_covered_mask

UNIT = Rect(0.0, 0.0, 1.0, 1.0)


def scen(sites, powers, alpha=2.0, beta=1.0, noise=1e-3):
    return SinrScenario(tuple(Point2(*q) for q in sites), PowerVector.of(powers),
                        alpha, beta, noise, UNIT)


def random_scenario(rng, n, alpha=2.0, beta=1.0, noise=1e-3):
    sites = [(rng.random(), rng.random()) for _ in range(n)]
    powers = [rng.uniform(0.5, 5.0) for _ in range(n)]
    return scen(sites, powers, alpha=alpha, beta=beta, noise=noise)


def test_estimate_area_extremes():
    s = scen([(0.5, 0.5)], [10.0], beta=1e9)
    assert estimate_area(s, s.powers, SamplingPlan.grid(20, 20)) == 0.0
    s2 = scen([(0.5, 0.5)], [1e6], beta=1.0)
    assert estimate_area(s2, s2.powers, SamplingPlan.grid(20, 20)) == 1.0


def test_estimate_area_grid_deterministic_and_random_seeded():
    rng = random.Random(1)
    s = random_scenario(rng, 5)
    g1 = estimate_area(s, s.powers, SamplingPlan.grid(40, 40))
    g2 = estimate_area(s, s.powers, SamplingPlan.grid(40, 40))
    assert g1 == g2
    r1 = estimate_area(s, s.powers, SamplingPlan.random(400, seed=5))
    r2 = estimate_area(s, s.powers, SamplingPlan.random(400, seed=5))
    assert r1 == r2
    r3 = estimate_area(s, s.powers, SamplingPlan.random(400, seed=6))
    assert r1 != r3 or abs(r1 - g1) < 0.2  # different seed, different points


def test_grid_vs_random_agreement():
    rng = random.Random(42)
    ok = 0
    trials = 60
    for t in range(trials):
        s = random_scenario(rng, 5, beta=0.8)
        g = estimate_area(s, s.powers, SamplingPlan.grid(40, 40))
        r = estimate_area(s, s.powers, SamplingPlan.random(400, seed=t))
        if g == 0.0:
            ok += 1 if r < 0.05 else 0
        elif abs(r - g) <= 0.15 * g:
            ok += 1
    assert ok >= 0.85 * trials


def test_required_samples_reference_values():
    assert required_samples(0.15, 0.1, 1.0) == 400
    assert required_samples(0.15, 0.1, 0.5) == 799
    assert grid_rule_samples(0.15, 0.1, 1.0) == 1600


def test_required_samples_validation():
    with pytest.raises(ValueError):
        required_samples(0.0, 0.1, 1.0)
    with pytest.raises(ValueError):
        required_samples(0.15, 0.1, 1.5)


def test_exhaustive_single_level():
    rng = random.Random(3)
    s = random_scenario(rng, 3)
    b = Bounds.uniform(3, 1.0, 100.0)
    res = exhaustive_search(s, b, 1, SamplingPlan.grid(10, 10))
    assert res.evaluations == 1
    assert res.best_power.values == (1.0, 1.0, 1.0)


def test_exhaustive_monotone_single_transmitter():
    s = scen([(0.5, 0.5)], [1.0], beta=2.0, noise=1e-3)
    b = Bounds.uniform(1, 0.0, 100.0)
    res = exhaustive_search(s, b, 2, SamplingPlan.grid(20, 20))
    zero_area = estimate_area(s, PowerVector.of([0.0]), SamplingPlan.grid(20, 20))
    if res.best_area > zero_area:
        assert res.best_power.values == (100.0,)
    else:
        assert res.best_power.values == (0.0,)


def test_exhaustive_two_sites_enumerates_four():
    rng = random.Random(7)
    s = random_scenario(rng, 2, beta=1.2)
    b = Bounds.uniform(2, 0.0, 50.0)
    plan = SamplingPlan.grid(15, 15)
    res = exhaustive_search(s, b, 2, plan)
    assert res.evaluations == 4
    # brute force over the same four vectors
    best = max(itertools.product([0.0, 50.0], repeat=2),
               key=lambda v: (estimate_area(s, PowerVector.of(v), plan), -sum(v)))
    assert estimate_area(s, res.best_power, plan) == \
        estimate_area(s, PowerVector.of(best), plan)


def test_exhaustive_minimum_total_power_among_maximizers():
    rng = random.Random(11)
    s = random_scenario(rng, 3, beta=1.0)
    b = Bounds.uniform(3, 0.0, 80.0)
    plan = SamplingPlan.grid(12, 12)
    res = exhaustive_search(s, b, 3, plan)
    axes = [0.0, 40.0, 80.0]
    best_area = res.best_area
    cheapest = min(sum(v) for v in itertools.product(axes, repeat=3)
                   if estimate_area(s, PowerVector.of(v), plan) == best_area)
    assert res.total_power == pytest.approx(cheapest)


def test_exhaustive_budget():
    rng = random.Random(5)
    s = random_scenario(rng, 8)
    b = Bounds.uniform(8, 0.0, 10.0)
    with pytest.raises(BudgetExceeded):
        exhaustive_search(s, b, 10, SamplingPlan.grid(5, 5), budget=10**6)


def test_rhc_monotone_single_transmitter_reaches_top():
    s = scen([(0.5, 0.5)], [1.0], beta=5.0, noise=1e-2)
    b = Bounds.uniform(1, 0.0, 100.0)
    params = RhcParams.defaults(s.alpha)
    res = random_hill_climb(s, b, params, SamplingPlan.grid(25, 25), seed=3)
    base = estimate_area(s, PowerVector.of([0.0]), SamplingPlan.grid(25, 25))
    assert res.best_area >= base
    # monotone landscape: the climb should end well up the ramp
    assert res.best_area == estimate_area(s, res.best_power, SamplingPlan.grid(25, 25))


def test_rhc_trace_monotone_and_reproducible():
    rng = random.Random(19)
    s = random_scenario(rng, 3, beta=1.5)
    b = Bounds.uniform(3, 0.0, 100.0)
    params = RhcParams.defaults(s.alpha)
    plan = SamplingPlan.grid(20, 20)
    r1 = random_hill_climb(s, b, params, plan, seed=7)
    r2 = random_hill_climb(s, b, params, plan, seed=7)
    assert r1.best_power.values == r2.best_power.values
    assert r1.trace == r2.trace
    areas = [a for _, a in r1.trace]
    assert all(b2 > a2 for a2, b2 in zip(areas, areas[1:])) or len(areas) == 1
    assert r1.best_area == estimate_area(s, r1.best_power, plan)


def test_nelder_mead_quadratic_objective():
    def objective(p: tuple[float, ...]) -> float:
        return -sum((v - 50.0) ** 2 for v in p)

    b = Bounds.uniform(3, 0.0, 100.0)
    res = nelder_mead(objective, b, restarts=3, seed=11)
    for v in res.best_power.values:
        assert abs(v - 50.0) < 0.5


def test_nelder_mead_constant_objective():
    def objective(p: tuple[float, ...]) -> float:
        return 0.25

    b = Bounds.uniform(2, 0.0, 10.0)
    res = nelder_mead(objective, b, restarts=1, seed=2)
    assert res.best_area == 0.25
    assert res.evaluations < 50  # converges immediately on flat spread


def test_three_way_optimizer_crosscheck_small():
    # the reference comparison pipeline post-processes the direct-search
    # outputs (the climb can only add power, so silencing needs the floor pass)
    rng = random.Random(23)
    s = random_scenario(rng, 3, beta=1.2)
    b = Bounds.uniform(3, 0.0, 100.0)
    plan = SamplingPlan.grid(40, 40)
    ex = exhaustive_search(s, b, 5, plan)
    rhc = random_hill_climb(s, b, RhcParams.defaults(s.alpha), plan, seed=1)
    rhc = post_process(s, rhc.best_power, b.p_min, plan)
    nm = nelder_mead(lambda p: estimate_area(s, p, plan), b, restarts=10, seed=1)
    nm = post_process(s, nm.best_power, b.p_min, plan)
    assert rhc.best_area >= ex.best_area - 0.01
    assert nm.best_area >= ex.best_area - 0.01


def test_post_process_keeps_input_when_no_gain():
    s = scen([(0.3, 0.5), (0.7, 0.5)], [5.0, 5.0], beta=0.4, noise=1e-3)
    plan = SamplingPlan.grid(20, 20)
    v = PowerVector.of([5.0, 5.0])
    res = post_process(s, v, PowerVector.of([0.0, 0.0]), plan)
    assert res.best_area >= estimate_area(s, v, plan)


def test_post_process_zeroes_pure_interferer():
    # site 1 sits between two useful sites with beta high enough that its own
    # coverage is nil: silencing it can only help
    s = scen([(0.2, 0.5), (0.5, 0.5), (0.8, 0.5)], [3.0, 3.0, 3.0],
             beta=2.5, noise=1e-3)
    plan = SamplingPlan.grid(40, 40)
    v = PowerVector.of([3.0, 3.0, 3.0])
    res = post_process(s, v, PowerVector.of([0.0, 0.0, 0.0]), plan)
    assert res.best_area >= estimate_area(s, v, plan)
    if res.best_area > estimate_area(s, v, plan):
        assert 0.0 in res.best_power.values


def test_post_process_single_site_two_evaluations():
    s = scen([(0.5, 0.5)], [2.0], beta=1.0)
    plan = SamplingPlan.grid(10, 10)
    res = post_process(s, PowerVector.of([2.0]), PowerVector.of([0.0]), plan)
    assert res.evaluations == 2


def test_sweep_power_nondecreasing_with_noise():
    rng = random.Random(33)
    s = random_scenario(rng, 6, beta=1.0, noise=1e-3)
    b = Bounds.uniform(6, 0.0, 100.0)
    curve = sweep_power(s, b, 12, SamplingPlan.grid(30, 30))
    areas = [a for _, a in curve]
    assert all(b2 >= a2 - 1e-12 for a2, b2 in zip(areas, areas[1:]))


def test_threads_env_var_same_result(monkeypatch):
    rng = random.Random(2)
    s = random_scenario(rng, 4)
    plan = SamplingPlan.grid(30, 30)
    base = estimate_area(s, s.powers, plan)
    monkeypatch.setenv("COVERAGE_KIT_THREADS", "4")
    assert estimate_area(s, s.powers, plan) == base


def test_estimate_area_interleaved_keys_match_fresh_samples():
    """Neighbouring calls differ in one of alpha, a site, the window offset,
    the random plan's seed, or the power of a site sitting on a grid sample,
    so a cached sample or distance power reused under the wrong key shows.
    The reference builds its sample points afresh for every call."""
    rng = random.Random(21)
    base = random_scenario(rng, 4, beta=0.8)
    moved = SinrScenario((Point2(0.9, 0.1),) + base.sites[1:], base.powers,
                         base.alpha, base.beta, base.noise, UNIT)
    shifted = SinrScenario(base.sites, base.powers, base.alpha, base.beta,
                           base.noise, Rect(0.25, 0.0, 1.25, 1.0))
    steep = SinrScenario(base.sites, base.powers, 4.0, base.beta, base.noise, UNIT)
    # (4.5/8, 2.5/8) is exactly a sample of the 8x8 grid
    on_site = scen([(0.5625, 0.3125), (0.2, 0.8), (0.6, 0.35)], [3.0, 1.0, 1.0],
                   beta=2.0, noise=0.5)
    grid, r1, r2, g8 = (SamplingPlan.grid(16, 16), SamplingPlan.random(300, seed=1),
                        SamplingPlan.random(300, seed=2), SamplingPlan.grid(8, 8))
    zero = PowerVector.of([0.0, 1.0, 1.0])
    cases = [(base, base.powers, grid), (steep, base.powers, grid),
             (base, base.powers, grid), (moved, base.powers, grid),
             (base, base.powers, grid), (shifted, base.powers, grid),
             (base, base.powers, r1), (base, base.powers, r2),
             (on_site, on_site.powers, g8), (on_site, zero, g8),
             (base, base.powers, r1)]
    got = [estimate_area(s, p, plan) for s, p, plan in cases]
    for (s, p, plan), area in zip(cases, got):
        pts = sample_points(s.window, plan)
        assert area == int(sinr_max_covered_mask(s, pts, p).sum()) / len(pts)
    assert all(a != b for a, b in zip(got, got[1:])), got


def test_rhc_never_leaves_bounds(monkeypatch):
    rng = random.Random(77)
    s = random_scenario(rng, 3, beta=1.3)
    b = Bounds(PowerVector.of([5.0, 0.0, 2.0]), PowerVector.of([50.0, 80.0, 60.0]))
    seen = []
    original = SinrEvaluator.__call__

    def spy(self, p):
        seen.append(tuple(p))
        return original(self, p)

    monkeypatch.setattr(SinrEvaluator, "__call__", spy)
    res = random_hill_climb(s, b, RhcParams(scale_factor=0.1, max_iterations=300),
                            SamplingPlan.grid(10, 10), seed=5)
    assert len(seen) == res.computed > 1
    for vec in seen:
        for v, lo, hi in zip(vec, b.p_min.values, b.p_max.values):
            assert lo - 1e-12 <= v <= hi + 1e-12


def test_exhaustive_enumeration_order_is_nondecreasing_total_power(monkeypatch):
    import coveragekit.optimizer as opt
    rng = random.Random(13)
    s = random_scenario(rng, 3, beta=1.0)
    b = Bounds.uniform(3, 0.0, 30.0)
    totals = []
    original = opt._CachedObjective.__call__

    def spy(self, values):
        totals.append(sum(values))
        return original(self, values)

    monkeypatch.setattr(opt._CachedObjective, "__call__", spy)
    exhaustive_search(s, b, 3, SamplingPlan.grid(8, 8))
    assert len(totals) == 27
    assert all(b2 >= a2 - 1e-12 for a2, b2 in zip(totals, totals[1:]))


def reference_area(s, p, plan):
    pts = sample_points(s.window, plan)
    return int(reference_mask(s, pts, p).sum()) / len(pts)


def test_exhaustive_prefix_folding_equals_per_vector_evaluation():
    """Every area the prefix fold gives equals a fresh evaluation of its
    vector and the site-major reference, with one level, with zero levels,
    and with a site whose bounds coincide (so vectors repeat)."""
    rng = random.Random(29)
    s = random_scenario(rng, 3, alpha=3.0, beta=0.9)
    plan = SamplingPlan.grid(12, 9)
    for axes in ([[0.0, 2.5, 7.0], [1.0, 0.0], [0.0, 3.0, 6.0, 9.0]],
                 [[4.0], [4.0], [4.0]],
                 [[0.0, 0.0], [5.0, 5.0, 5.0], [0.0, 1.0]],
                 [[0.0], [0.0], [0.0, 8.0]],
                 [[3.0, 3.0], [0.0, 6.0], [2.0, 2.0]]):
        got = objective(s, plan).product(axes)
        vectors = list(itertools.product(*axes))
        assert len(got) == len(vectors)
        for v, a in zip(vectors, got):
            assert a == objective(s, plan)(v) == reference_area(s, v, plan)
    single = random_scenario(rng, 1)
    assert objective(single, plan).product([[0.0, 1.0, 4.0]]) == \
        [reference_area(single, [v], plan) for v in (0.0, 1.0, 4.0)]


def reference_exhaustive(s, b, levels, plan):
    """The scan of the earlier ``exhaustive_search``: every vector evaluated
    on its own, in nondecreasing total power."""
    axes = [[lo] if levels == 1 else [lo + (hi - lo) * k / (levels - 1)
                                      for k in range(levels)]
            for lo, hi in zip(b.p_min.values, b.p_max.values)]
    vectors = sorted(itertools.product(*axes), key=lambda v: (sum(v), v))
    best_vec, best_area, trace = vectors[0], -1.0, []
    for calls, vec in enumerate(vectors, 1):
        a = reference_area(s, vec, plan)
        if a > best_area:
            best_vec, best_area = vec, a
            trace.append((calls, a))
    return best_vec, best_area, len(vectors), trace, len(set(vectors))


def test_exhaustive_search_matches_per_vector_scan():
    rng = random.Random(31)
    plan = SamplingPlan.grid(10, 10)
    cases = [(random_scenario(rng, 3, beta=1.2), Bounds.uniform(3, 0.0, 20.0), 4),
             (random_scenario(rng, 3, beta=0.7), Bounds.uniform(3, 0.0, 20.0), 1),
             (random_scenario(rng, 3, beta=1.0),
              Bounds(PowerVector.of([0.0, 3.0, 1.0]), PowerVector.of([9.0, 3.0, 1.0])), 3)]
    for s, b, levels in cases:
        res = exhaustive_search(s, b, levels, plan)
        best_vec, best_area, calls, trace, distinct = reference_exhaustive(s, b, levels, plan)
        assert res.best_power.values == best_vec
        assert (res.best_area, res.evaluations, res.trace) == (best_area, calls, trace)
        assert res.computed == distinct


def test_bound_evaluation_allocates_less_than_one_sample_row():
    import tracemalloc
    rng = random.Random(43)
    s = random_scenario(rng, 10)
    plan = SamplingPlan.grid(64, 64)
    ev = objective(s, plan)
    ev(tuple(rng.uniform(0.0, 10.0) for _ in range(10)))  # warm-up
    p = tuple(rng.uniform(0.0, 10.0) for _ in range(10))
    tracemalloc.start()
    try:
        ev(p)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * 64 * 64, peak
