"""SINR evaluation, capture regions, star-convexity, quasi-convexity."""

import math
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from coveragekit.errors import BudgetExceeded, Singularity
from coveragekit.geometry import Point2, Rect
from coveragekit.sinr_model import (MAX_SAMPLE_PAIRS, PowerVector, SinrEvaluator,
                                    SinrScenario, _cell_centers, _path_loss, capture_grid,
                                    capture_transmitter, is_covered,
                                    ratio_profile, ray_coverage_profile)

from sinr_reference import _path_loss as _reference_path_loss
from sinr_reference import _site_major_rx, reference_capture, reference_mask
from sinr_reference import sinr_at, sinr_max_covered_mask, weighted_capture_oracle

UNIT = Rect(0.0, 0.0, 1.0, 1.0)


def scen(sites, powers, alpha=2.0, beta=1.0, noise=1e-3, window=UNIT):
    return SinrScenario(tuple(Point2(*s) for s in sites), PowerVector.of(powers),
                        alpha, beta, noise, window)


def test_single_site_sinr_is_signal_over_noise():
    s = scen([(0.5, 0.5)], [1.0], alpha=2.0, noise=1e-3)
    x = Point2(0.5 + 1.0, 0.5)  # distance 1 (outside window is fine for math)
    assert sinr_at(s, x, 0) == pytest.approx(1000.0)


def test_two_sites_symmetric_point():
    s = scen([(0.0, 0.5), (1.0, 0.5)], [1.0, 1.0], noise=0.0)
    x = Point2(0.5, 0.5)
    assert sinr_at(s, x, 0) == pytest.approx(1.0)
    assert sinr_at(s, x, 1) == pytest.approx(1.0)


def test_hand_evaluated_ratio():
    s = scen([(0.0, 0.0), (1.0, 0.0)], [1.0, 1.0], alpha=2.0, noise=0.0,
             window=Rect(-0.5, -0.5, 0.5, 0.5))
    x = Point2(0.25, 0.0)
    # d0 = 0.25, d1 = 0.75: R0 = 16, R1 = 16/9 -> SINR0 = 9
    assert sinr_at(s, x, 0) == pytest.approx(9.0)


def test_singularity_on_transmitter():
    s = scen([(0.5, 0.5)], [1.0])
    with pytest.raises(Singularity):
        sinr_at(s, Point2(0.5, 0.5), 0)


def test_scenario_validation():
    with pytest.raises(ValueError):
        scen([(0.5, 0.5)], [1.0], alpha=1.5)
    with pytest.raises(ValueError):
        scen([(0.5, 0.5)], [1.0], noise=0.0)  # single site needs noise
    with pytest.raises(ValueError):
        scen([(0.5, 0.5)], [1.0], window=Rect(0, 0, 2, 1))  # area != 1


def test_capture_equals_euclidean_for_equal_powers():
    rng = random.Random(4)
    for alpha in (2.0, 3.0, 4.0):
        sites = [(rng.random(), rng.random()) for _ in range(8)]
        s = scen(sites, [3.0] * 8, alpha=alpha, noise=1e-4)
        for _ in range(2000):
            x = Point2(rng.random(), rng.random())
            d = [math.dist((x.x, x.y), p) for p in sites]
            order = sorted(range(8), key=lambda i: d[i])
            if d[order[1]] - d[order[0]] < 1e-9:
                continue
            assert capture_transmitter(s, x) == order[0]


def test_capture_unequal_powers_hand_case():
    s = scen([(0.0, 0.0), (10.0, 0.0)], [16.0, 1.0], alpha=2.0, noise=0.0,
             window=Rect(0, 0, 1, 1))
    assert capture_transmitter(s, Point2(7.0, 0.0)) == 0  # 7/4 < 3/1
    # x = 8: exact tie 8/4 == 2/1, smallest id wins
    assert capture_transmitter(s, Point2(8.0, 0.0)) == 0


def test_capture_matches_weighted_voronoi_rule():
    rng = random.Random(12)
    for alpha in (2.0, 3.0, 4.0):
        sites = [(rng.random(), rng.random()) for _ in range(6)]
        powers = [rng.uniform(0.5, 20.0) for _ in range(6)]
        s = scen(sites, powers, alpha=alpha, noise=1e-3)
        mism = 0
        for _ in range(2000):
            x = Point2(rng.random(), rng.random())
            w = [math.dist((x.x, x.y), p) * powers[i] ** (-1.0 / alpha)
                 for i, p in enumerate(sites)]
            order = sorted(range(6), key=lambda i: w[i])
            if w[order[1]] - w[order[0]] < 1e-9:
                continue
            got = capture_transmitter(s, x)
            assert got == weighted_capture_oracle(s, x)
            if got != order[0]:
                mism += 1
        assert mism == 0


def test_is_covered_thresholds():
    s = scen([(0.5, 0.5)], [10.0], beta=1.0, noise=1e-3)
    assert is_covered(s, Point2(0.6, 0.5))
    big_beta = scen([(0.5, 0.5)], [10.0], beta=1e9, noise=1e-3)
    assert not is_covered(big_beta, Point2(0.9, 0.9))
    # midpoint of two equal sites, zero noise: SINR is exactly 1; the area
    # estimation convention counts threshold equality as covered
    mid = scen([(0.0, 0.5), (1.0, 0.5)], [1.0, 1.0], beta=1.0, noise=0.0)
    assert is_covered(mid, Point2(0.5, 0.5))
    # a powered site on the point: covered whatever beta asks
    assert is_covered(big_beta, Point2(0.5, 0.5))
    # no site powered: nothing covered
    dark = scen([(0.5, 0.5), (0.2, 0.2)], [0.0, 0.0])
    assert not is_covered(dark, Point2(0.9, 0.9))
    # no noise and the only other site unpowered: no interference at all
    alone = scen([(0.0, 0.5), (1.0, 0.5)], [1.0, 0.0], beta=1e9, noise=0.0)
    assert is_covered(alone, Point2(0.3, 0.5))


def test_scale_invariance_of_sinr():
    rng = random.Random(9)
    sites = [(rng.random(), rng.random()) for _ in range(5)]
    powers = [rng.uniform(0.1, 5.0) for _ in range(5)]
    s1 = scen(sites, powers, noise=1e-3)
    for k in (0.25, 3.0, 1e4):
        s2 = SinrScenario(s1.sites, PowerVector.of([p * k for p in powers]),
                          s1.alpha, s1.beta, s1.noise * k, s1.window)
        for _ in range(200):
            x = Point2(rng.random(), rng.random())
            t = rng.randrange(5)
            if math.dist((x.x, x.y), sites[t]) < 1e-6:
                continue
            assert sinr_at(s1, x, t) == pytest.approx(sinr_at(s2, x, t), rel=1e-12)


def test_ray_profile_extremes():
    # a negligible threshold keeps the whole capture cell covered: the ray
    # from an isolated transmitter is covered end to end
    s_low = scen([(0.25, 0.5)], [1.0], beta=1e-9, noise=1e-6)
    prof = ray_coverage_profile(s_low, 0, (1.0, 0.0), 16)
    assert all(prof)
    s_high = scen([(0.5, 0.5), (0.52, 0.52)], [1.0, 1.0], beta=1e9, noise=1e-6)
    prof = ray_coverage_profile(s_high, 0, (1.0, 0.0), 16)
    assert not any(prof[1:])  # the first sample hugs the singular transmitter


def test_ray_profile_checks_the_sample_budget(monkeypatch):
    # 100 sites x (MAX_SAMPLE_PAIRS / 100 + 1) samples exceed the sample
    # budget: refused before any distance row
    monkeypatch.setattr("coveragekit.sinr_model._path_loss", None)
    s = scen([((i + 0.5) / 10, (j + 0.5) / 10) for i in range(10) for j in range(10)],
             [1.0] * 100)
    with pytest.raises(BudgetExceeded):
        ray_coverage_profile(s, 0, (1.0, 0.0), MAX_SAMPLE_PAIRS // 100 + 1)


def is_prefix(bits):
    seen_false = False
    for b in bits:
        if b:
            if seen_false:
                return False
        else:
            seen_false = True
    return True


def test_ray_profiles_are_prefixes_for_equal_powers():
    rng = random.Random(99)
    for alpha in (2.0, 3.0, 4.0):
        for beta in (0.5, 1.0, 2.0, 8.0):
            sites = [(rng.random(), rng.random()) for _ in range(8)]
            s = scen(sites, [1.0] * 8, alpha=alpha, beta=beta, noise=1e-3)
            for k in range(16):
                ang = 2 * math.pi * k / 16 + 0.01
                t = rng.randrange(8)
                prof = ray_coverage_profile(s, t, (math.cos(ang), math.sin(ang)), 48)
                assert is_prefix(prof), (alpha, beta, t, ang)


def sign_changes(vals, tol=1e-12):
    diffs = [b - a for a, b in zip(vals, vals[1:])]
    signs = [d for d in diffs if abs(d) > tol]
    changes = 0
    for a, b in zip(signs, signs[1:]):
        if a < 0 < b:
            changes += 1
        if a > 0 > b:
            return math.inf  # a maximum: never allowed
    return changes


def test_ratio_profile_symmetric_line_is_constant():
    prof = ratio_profile(Point2(0, 1), Point2(0, -1),
                         (Point2(0, 0), (1.0, 0.0)), 64)
    assert all(v == pytest.approx(1.0) for v in prof)


def test_ratio_profile_parallel_bisector_case():
    prof = ratio_profile(Point2(0, 1), Point2(0, 3),
                         (Point2(0, 0), (1.0, 0.0)), 129)
    # f = (x^2+1)/(x^2+9): interior minimum at x = 0, rising on both flanks
    m = min(range(len(prof)), key=lambda i: prof[i])
    assert 0 < m < len(prof) - 1
    assert prof[m] == pytest.approx(1.0 / 9.0, rel=1e-3)
    assert sign_changes(prof) <= 1


def test_ratio_profile_quasi_convex_random():
    rng = random.Random(31)
    for _ in range(300):
        t = Point2(rng.uniform(-3, 3), rng.uniform(-3, 3))
        u = Point2(rng.uniform(-3, 3), rng.uniform(-3, 3))
        if math.dist((t.x, t.y), (u.x, u.y)) < 1e-3:
            continue
        origin = Point2(rng.uniform(-3, 3), rng.uniform(-3, 3))
        ang = rng.uniform(0, 2 * math.pi)
        prof = ratio_profile(t, u, (origin, (math.cos(ang), math.sin(ang))), 200)
        assert sign_changes(prof, tol=1e-11) <= 1


def test_alpha_power_preserves_minima_positions():
    rng = random.Random(77)
    for _ in range(50):
        t = Point2(rng.uniform(-2, 2), rng.uniform(-2, 2))
        u = Point2(rng.uniform(-2, 2), rng.uniform(-2, 2))
        if math.dist((t.x, t.y), (u.x, u.y)) < 1e-2:
            continue
        origin = Point2(rng.uniform(-2, 2), rng.uniform(-2, 2))
        ang = rng.uniform(0, 2 * math.pi)
        prof = ratio_profile(t, u, (origin, (math.cos(ang), math.sin(ang))), 120)
        for alpha in (2.0, 3.0, 4.0):
            powered = [v ** (alpha / 2.0) for v in prof]
            assert np.argmin(prof) == np.argmin(powered)


def test_vectorized_mask_matches_scalar():
    rng = random.Random(8)
    sites = [(rng.random(), rng.random()) for _ in range(6)]
    powers = [rng.uniform(0.1, 4.0) for _ in range(6)]
    s = scen(sites, powers, alpha=3.0, beta=1.5, noise=1e-3)
    pts = np.array([[rng.random(), rng.random()] for _ in range(500)])
    # an unpowered site on the centre of cell 20 of an 8x8 grid: the other
    # two sites decide that sample, in both rules
    centres = (np.arange(8) + 0.5) / 8.0
    grid = np.array([[x, y] for y in centres for x in centres])
    off_site = scen([(0.5625, 0.3125), (0.2, 0.8), (0.6, 0.35)], [0.0, 1.0, 1.0],
                    beta=2.0, noise=0.5)
    assert tuple(grid[20]) == (0.5625, 0.3125)
    for sc, samples in ((s, pts), (off_site, grid)):
        mask = sinr_max_covered_mask(sc, samples)
        for k in range(len(samples)):
            assert mask[k] == is_covered(sc, Point2(samples[k, 0], samples[k, 1]))
    assert is_covered(off_site, Point2(0.5625, 0.3125))


def test_capture_grid_shape_and_values():
    s = scen([(0.25, 0.5), (0.75, 0.5)], [1.0, 1.0], noise=1e-3)
    grid = capture_grid(s, 8, 4)
    assert grid.shape == (4, 8)
    assert set(np.unique(grid)) <= {0, 1}
    assert grid[:, :3].max() == 0  # left third captured by the left site
    assert grid[:, -3:].min() == 1


def fold_cases():
    """(scenario, samples, powers) triples on which the site fold must equal
    the site-major reference exactly."""
    rng = random.Random(41)
    cases = []
    for alpha in (2.0, 3.0, 4.0):
        for n in (1, 2, 5, 12):
            s = scen([(rng.random(), rng.random()) for _ in range(n)],
                     [rng.uniform(0.1, 9.0) for _ in range(n)], alpha=alpha,
                     beta=rng.choice([0.3, 1.0, 2.5]), noise=rng.choice([1e-3, 0.5]))
            for size in (2, 3, 8, 257):
                pts = np.array([[rng.random(), rng.random()] for _ in range(size)])
                zeroed = [0.0 if rng.random() < 0.4 else v for v in s.powers.values]
                for p in (s.powers.values, zeroed, [0.0] * n):
                    cases.append((s, pts, p))
            cases.append((s, _cell_centers(UNIT, 16, 12), s.powers.values))
    # (4.5/8, 2.5/8) is exactly a sample of the 8x8 grid: powered, then not
    grid8 = _cell_centers(UNIT, 8, 8)
    on_site = scen([(0.5625, 0.3125), (0.2, 0.8), (0.6, 0.35)], [3.0, 1.0, 1.0],
                   alpha=3.0, beta=2.0, noise=0.5)
    for p in ([3.0, 1.0, 1.0], [0.0, 1.0, 1.0], [0.0, 0.0, 0.0], [2.0, 0.0, 0.0]):
        cases.append((on_site, grid8, p))
    # zero noise: a lone powered site covers everything it reaches
    for n in (2, 6):
        s = scen([(rng.random(), rng.random()) for _ in range(n)], [1.0] * n,
                 beta=1.0, noise=0.0)
        for p in ([1.0] * n, [2.0] + [0.0] * (n - 1), [0.0] * n):
            cases.append((s, grid8, p))
    return cases


def test_site_fold_equals_site_major_reference():
    for s, pts, p in fold_cases():
        want = reference_mask(s, pts, p)
        got = sinr_max_covered_mask(s, pts, PowerVector.of(p))
        assert got.dtype == bool and np.array_equal(got, want), (s, p)
        ev = SinrEvaluator(s, _path_loss(s.sites, s.alpha, pts))
        assert ev(tuple(p)) == ev(np.asarray(p)) == int(want.sum()) / len(pts)
        assert np.array_equal(ev.capture(p), reference_capture(s, pts, p))
    with pytest.raises(ValueError):
        ev(tuple(p) + (1.0,))


def test_site_fold_single_sample_sums_in_site_order():
    """On one sample numpy's axis-0 sum is pairwise (n >= 8); the fold adds
    the receive powers in site order, as ``is_covered``'s ``sum(rx)`` does."""
    rng = random.Random(5)
    for _ in range(300):
        n = rng.randint(8, 16)
        s = scen([(rng.random(), rng.random()) for _ in range(n)],
                 [rng.uniform(0.0, 5.0) for _ in range(n)], beta=rng.uniform(0.05, 0.6))
        pt = np.array([[rng.random(), rng.random()]])
        rx = _site_major_rx(s.powers.as_array(), *_reference_path_loss(s.sites, s.alpha, pt))
        rx = rx[:, 0].tolist()
        denom = sum(rx) - max(rx) + s.noise
        want = max(rx) > 0.0 and (denom <= 0.0 or max(rx) >= s.beta * denom)
        assert sinr_max_covered_mask(s, pt).tolist() == [want]


def test_capture_grid_matches_argmax_reference():
    rng = random.Random(17)
    for n in (1, 3, 9):
        powers = [rng.choice([0.0, rng.uniform(0.2, 4.0)]) for _ in range(n)]
        s = scen([(rng.random(), rng.random()) for _ in range(n)], powers, alpha=3.0)
        want = reference_capture(s, _cell_centers(UNIT, 20, 7), powers).reshape(7, 20)
        assert np.array_equal(capture_grid(s, 20, 7), want)
    # ties at every sample: two coincident equal sites, and an all-zero vector
    twin = scen([(0.3, 0.3), (0.3, 0.3), (0.7, 0.6)], [1.0, 1.0, 0.0])
    assert np.array_equal(capture_grid(twin, 9, 9),
                          reference_capture(twin, _cell_centers(UNIT, 9, 9),
                                            [1.0, 1.0, 0.0]).reshape(9, 9))
    dark = scen([(0.3, 0.3), (0.7, 0.6)], [0.0, 0.0])
    assert not capture_grid(dark, 5, 5).any()


def _criterion_5_scenarios():
    """The six scenarios of acceptance criterion 5 (seed 505), drawn as it
    draws them: per alpha in 2, 3, 4, nine sites at equal powers 2 and at
    uniform(0.5, 30) powers, then its 10,000 sample points (skipped here)."""
    rng = random.Random(505)
    out = []
    for alpha in (2.0, 3.0, 4.0):
        sites = [(rng.random(), rng.random()) for _ in range(9)]
        powers = [rng.uniform(0.5, 30.0) for _ in range(9)]
        for _ in range(2 * 10000):
            rng.random()
        out += [scen(sites, [2.0] * 9, alpha=alpha), scen(sites, powers, alpha=alpha)]
    return out


def test_capture_grid_equals_the_scalar_capture_at_every_cell_centre():
    # the capture rule has two routines: ``capture_grid`` (an evaluator over
    # a raster) and the scalar ``capture_transmitter``, which stays scalar
    # because a one-point evaluator made criterion 5 4.7x slower; they agree
    # wherever the two largest receive powers are more than 1e-9 apart
    checked = 0
    for s in _criterion_5_scenarios():
        grid = capture_grid(s, 64, 64).ravel().tolist()
        for (x, y), got in zip(_cell_centers(s.window, 64, 64).tolist(), grid):
            rx = sorted(p / math.hypot(x - q.x, y - q.y) ** s.alpha
                        for p, q in zip(s.powers.values, s.sites))
            if rx[-1] - rx[-2] <= 1e-9 * rx[-1]:
                continue
            checked += 1
            assert capture_transmitter(s, Point2(x, y)) == got, (s.alpha, x, y)
    assert checked >= 24000


# Powers for the filter property: unpowered sites, ordinary powers, and
# powers whose receive powers leave the filter's range, which must fall
# back whole: 1e-300 underflows float32, 1e90 overflows it, and near 1e37
# one receive power fits float32 while a sum of them overflows.
FILTER_POWERS = st.one_of(st.just(0.0), st.floats(0.01, 100.0),
                          st.sampled_from([1e-300, 1e90]), st.floats(1e36, 1e38))


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(alpha=st.sampled_from([2.0, 3.0, 4.0]), beta=st.sampled_from([0.3, 1.0, 1.5, 2.5]),
       noise=st.sampled_from([0.0, 1e-3, 0.5, 1000.0]),
       sites=st.lists(st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)), min_size=2, max_size=8),
       data=st.data())
def test_filtered_mask_equals_reference_mask(alpha, beta, noise, sites, data):
    n = len(sites)
    vectors = data.draw(st.lists(st.lists(FILTER_POWERS, min_size=n, max_size=n),
                                 min_size=1, max_size=4))
    s = scen(sites, [1.0] * n, alpha=alpha, beta=beta, noise=noise)
    pts = np.vstack([_cell_centers(UNIT, 12, 12), np.array(sites)])  # the last n on the sites
    ev = SinrEvaluator(s, _path_loss(s.sites, s.alpha, pts))
    assert np.array_equal(ev.mask([1.0] * n), reference_mask(s, pts, [1.0] * n))
    for p in vectors:
        assert np.array_equal(ev.mask(p), reference_mask(s, pts, p)), p
    # the first mask was exact and whole; every later one was filtered, its
    # band taking the exact fold, or fell back whole on the range check
    c = ev.counts
    assert c["whole"] == 1 + c["range_fallbacks"]
    assert (c["decided"] + c["band"]) / len(pts) + c["range_fallbacks"] == len(vectors)


def _bisect_to_boundary(covered, lo: float, hi: float) -> tuple[float, float]:
    """Shrink [lo, hi], covered at lo and not at hi, to adjacent floats."""
    while True:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            return lo, hi
        lo, hi = (mid, hi) if covered(mid) else (lo, mid)


def test_samples_on_the_coverage_boundary_take_the_exact_fold():
    rng = random.Random(23)
    powers = [rng.uniform(0.5, 5.0) for _ in range(6)]
    s = scen([(rng.random(), rng.random()) for _ in range(6)], powers,
             alpha=3.0, beta=1.5, noise=0.5)
    pts = []
    for site in s.sites:
        for k in range(12):
            dx, dy = math.cos(0.1 + k * math.pi / 6), math.sin(0.1 + k * math.pi / 6)

            def covered(t):
                return reference_mask(s, np.array([[site.x + t * dx, site.y + t * dy]]), powers)[0]
            if covered(1e-6) and not covered(2.0):
                for t in _bisect_to_boundary(covered, 1e-6, 2.0):
                    pts.append((site.x + t * dx, site.y + t * dy))
    pts = np.array(pts + [(q.x, q.y) for q in s.sites])  # and the sites themselves
    want = reference_mask(s, pts, powers)
    assert len(pts) >= 100 and 0 < want.sum() < len(pts)
    ev = SinrEvaluator(s, _path_loss(s.sites, s.alpha, pts))
    assert np.array_equal(ev.mask(powers), want)  # the first mask: exact and whole
    assert ev.counts == {"decided": 0, "band": 0, "whole": 1, "range_fallbacks": 0}
    assert np.array_equal(ev.mask(powers), want)
    assert ev.counts["band"] > 0
    assert ev.counts["whole"] == 1


def test_each_evaluator_fills_its_own_gain_rows_and_counts_only_its_own_masks():
    rng = random.Random(31)
    s = scen([(rng.random(), rng.random()) for _ in range(5)], [1.0] * 5,
             alpha=3.0, beta=1.5, noise=0.01)
    pts = _cell_centers(UNIT, 16, 16)
    dpow = _path_loss(s.sites, s.alpha, pts)
    vectors = [[rng.uniform(0.5, 5.0) for _ in range(5)] for _ in range(3)]
    first = SinrEvaluator(s, dpow)
    for p in vectors:
        first.mask(p)  # the second and third run the filter on first's gain rows
    second = SinrEvaluator(s, dpow)
    assert np.array_equal(second.mask(vectors[-1]), reference_mask(s, pts, vectors[-1]))
    # second's first mask is exact and whole: it does not inherit first's rows
    assert second.counts == {"decided": 0, "band": 0, "whole": 1, "range_fallbacks": 0}
    assert first.counts["whole"] == 1
    assert first.counts["decided"] + first.counts["band"] == 2 * len(pts)
    assert np.array_equal(second.mask(vectors[0]), reference_mask(s, pts, vectors[0]))
    assert second.counts["decided"] + second.counts["band"] == len(pts)
    assert first.counts["decided"] + first.counts["band"] == 2 * len(pts)
