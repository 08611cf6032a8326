"""SINR evaluation, capture regions, star-convexity, quasi-convexity."""

import math
import random

import numpy as np
import pytest

from coveragekit.errors import Singularity
from coveragekit.geometry import Point2, Rect
from coveragekit.sinr_model import (PowerVector, SinrScenario, capture_grid,
                                    capture_transmitter, is_covered,
                                    ratio_profile, ray_coverage_profile,
                                    sinr_at, sinr_max_covered_mask,
                                    weighted_capture_oracle)

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
