"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Criterion 9 (rise-then-fall coverage under a uniform power sweep) is
implemented exactly as stated and is expected to fail: with positive noise,
every point's best SINR is strictly increasing in a common power factor, so
the covered set only grows along the ramp and an interior maximum cannot
strictly exceed the upper endpoint.  The check is kept honest rather than
weakened; see its docstring.
"""

import math
import random
import time

import numpy as np
import pytest

from coveragekit.errors import DuplicateSite
from coveragekit.geometry import Disk, Point2, Rect, arc_polygon_area
from coveragekit.dynamic_coverage import (DynamicCoverage, Treap, lift,
                                          traverse_shuffle, treap_insert)
from coveragekit.optimizer import (Bounds, RhcParams, SamplingPlan,
                                   estimate_area, exhaustive_search,
                                   nelder_mead, post_process,
                                   random_hill_climb, required_samples,
                                   sweep_power)
from coveragekit.protocol_coverage import (ProtocolTransmitter,
                                           compute_coverage_map,
                                           coverage_area,
                                           find_interference_bound,
                                           region_area)
from coveragekit.sinr_model import (PowerVector, SinrScenario,
                                    capture_transmitter, ratio_profile,
                                    ray_coverage_profile)
from oracles import grid_protocol_areas, pairwise_interference_exists

UNIT = Rect(0.0, 0.0, 1.0, 1.0)


def report(num: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {num:02d}: {'PASS' if ok else 'FAIL'} - {detail}")


def random_protocol_instance(rng, n, window, margin=2.3):
    txs = []
    for _ in range(n):
        ir = rng.uniform(0.6, 2.2)
        tr = rng.uniform(0.4, 1.0) * ir
        txs.append(ProtocolTransmitter(
            Point2(rng.uniform(window.x0 + margin, window.x1 - margin),
                   rng.uniform(window.y0 + margin, window.y1 - margin)), tr, ir))
    return txs


def test_c01_static_oracle_equivalence():
    """50 random instances, n <= 20: map area within 0.5% of the window area
    of a 1000x1000 membership grid over the reduced transmitter set."""
    rng = random.Random(101)
    win = Rect(0.0, 0.0, 14.0, 14.0)
    t0 = time.perf_counter()
    worst = 0.0
    for trial in range(50):
        txs = random_protocol_instance(rng, rng.randint(2, 20), win)
        cov = compute_coverage_map(txs, win)
        kept = [i for i in range(len(txs)) if i not in cov.diagram.hidden]
        total, _ = grid_protocol_areas(txs, win, n=1000, active=kept)
        diff = abs(coverage_area(cov) - total)
        worst = max(worst, diff)
        assert diff <= 0.005 * win.area(), f"trial {trial}: diff {diff}"
    elapsed = time.perf_counter() - t0
    ok = elapsed < 60.0
    report(1, ok, f"worst area gap {worst:.4f} (tol {0.005 * win.area():.3f}), "
                  f"{elapsed:.1f}s")
    assert ok, f"criterion 1 runtime {elapsed:.1f}s exceeds 60s"


def test_c02_runtime_scaling():
    """Doubling experiment: fitted time exponent of the static build must
    stay at most 1.25, rejecting quadratic growth."""
    rng = random.Random(202)
    t0 = time.perf_counter()
    sizes = [256, 512, 1024, 2048, 4096, 8192]
    times = []
    for n in sizes:
        win = Rect(0.0, 0.0, 100.0, 100.0)
        spread = 100.0 / math.sqrt(n)
        txs = []
        for _ in range(n):
            ir = rng.uniform(0.5, 1.5) * spread
            txs.append(ProtocolTransmitter(
                Point2(rng.uniform(0.3, 99.7), rng.uniform(0.3, 99.7)),
                max(1e-4, rng.uniform(0.5, 1.0) * ir), ir))
        reps = 2 if n <= 1024 else 1
        best = math.inf
        for _ in range(reps):
            t1 = time.perf_counter()
            compute_coverage_map(txs, win)
            best = min(best, time.perf_counter() - t1)
        times.append(best)
    logs_n = np.log([float(s) for s in sizes])
    logs_t = np.log(times)
    slope = np.polyfit(logs_n, logs_t, 1)[0]
    elapsed = time.perf_counter() - t0
    ok = slope <= 1.25 and elapsed < 300.0
    report(2, ok, f"fitted exponent {slope:.3f} over n=256..8192, {elapsed:.1f}s")
    assert slope <= 1.25, f"fitted exponent {slope:.3f} exceeds 1.25"
    assert elapsed < 300.0


def region_areas_of(cov):
    return {p: region_area(cov, p) for p in cov.regions}


def test_c03_dynamic_equivalence():
    """200 random inserts/deletes (with nested radii that park and revive
    hidden disks); every intermediate map matches a static rebuild within
    1e-6 relative area per region."""
    rng = random.Random(303)
    win = Rect(0.0, 0.0, 10.0, 10.0)
    dc = DynamicCoverage(win, seed=99)
    live: list[int] = []
    t0 = time.perf_counter()
    parked_seen = revived_seen = 0
    for step in range(200):
        roll = rng.random()
        if live and roll < 0.32:
            victim = live.pop(rng.randrange(len(live)))
            rep = dc.delete_transmitter(victim)
            revived_seen += sum(1 for kind, _ in rep.hidden_events
                                if kind == "revived")
        else:
            if live and roll > 0.85:
                host = dc.transmitters[live[rng.randrange(len(live))]]
                loc = Point2(host.location.x + 0.02, host.location.y + 0.01)
                ir = max(0.25, host.int_radius * 0.45)
                t = ProtocolTransmitter(loc, 0.7 * ir, ir)
            else:
                ir = rng.uniform(0.5, 2.4)
                t = ProtocolTransmitter(
                    Point2(rng.uniform(0.4, 9.6), rng.uniform(0.4, 9.6)),
                    rng.uniform(0.5, 1.0) * ir, ir)
            try:
                rep = dc.insert_transmitter(t)
            except DuplicateSite:  # the nested branch can repeat a host's disk
                continue
            live.append(rep.site)
            parked_seen += sum(1 for kind, _ in rep.hidden_events
                               if kind == "parked")
        # full static rebuild of the registered set
        sids = sorted(dc.transmitters)
        if not sids:
            assert dc.regions == {}
            continue
        static = compute_coverage_map([dc.transmitters[s] for s in sids], win)
        dyn = dc.regions
        for k, sid in enumerate(sids):
            a_dyn = sum(arc_polygon_area(ap) for ap in dyn[sid])
            a_st = region_area(static, k)
            scale = max(a_st, a_dyn, 1e-9)
            assert abs(a_dyn - a_st) <= 1e-6 * scale + 1e-9, \
                f"step {step} site {sid}: dynamic {a_dyn} static {a_st}"
    elapsed = time.perf_counter() - t0
    ok = elapsed < 120.0 and parked_seen > 0 and revived_seen > 0
    report(3, ok, f"200 ops matched static rebuilds; {parked_seen} parks, "
                  f"{revived_seen} revivals, {elapsed:.1f}s")
    assert parked_seen > 0 and revived_seen > 0, "script never exercised hiding"
    assert elapsed < 120.0, f"criterion 3 runtime {elapsed:.1f}s exceeds 120s"


@pytest.mark.slow
def test_c04_treap_and_shuffle_expectations():
    """Treap mean node depth at n=4096 stays below 3 ln n over 100 seeds;
    traverse cost grows sublinearly (mean visits ratio 8192:512 <= 2)."""
    depth_means = []
    for seed in range(100):
        rng = random.Random(seed)
        t = Treap()
        for k in rng.sample(range(10 ** 7), 4096):
            t = treap_insert(t, k, rng.random())
        d = t.depths()
        depth_means.append(sum(d) / len(d))
    mean_depth = sum(depth_means) / len(depth_means)
    bound = 3.0 * math.log(4096)
    assert mean_depth <= bound, f"treap mean depth {mean_depth} > {bound}"

    def probe_cost(n, seed, probes=24):
        rng = random.Random(seed)
        win = Rect(0.0, 0.0, 100.0, 100.0)
        dc = DynamicCoverage(win, seed=seed)
        spread = 100.0 / math.sqrt(n)
        while len(dc.cells) < n:
            dc.insert_transmitter(ProtocolTransmitter(
                Point2(rng.uniform(0.5, 99.5), rng.uniform(0.5, 99.5)),
                0.6 * spread, spread))
        visits = []
        for _ in range(probes):
            d = Disk(Point2(rng.uniform(1, 99), rng.uniform(1, 99)),
                     rng.uniform(0.1, 1.0) * spread)
            traverse_shuffle(dc, lift(d))
            visits.append(dc.last_traverse_visits)
        assert dc.traverse_fallbacks == 0
        return sum(visits) / len(visits)

    small = []
    big = []
    for seed in range(50):
        small.append(probe_cost(512, 1000 + seed))
        big.append(probe_cost(8192, 2000 + seed))
    ratio = (sum(big) / len(big)) / (sum(small) / len(small))
    ok = mean_depth <= bound and ratio <= 2.0
    report(4, ok, f"treap mean depth {mean_depth:.2f} (bound {bound:.2f}); "
                  f"traverse visit ratio {ratio:.3f} (bound 2.0)")
    assert ratio <= 2.0, f"traverse cost ratio {ratio} exceeds 2.0"


def test_c05_capture_region_lemmas():
    """Capture transmitter equals the Euclidean nearest site for equal
    powers, and the weight-scaled nearest site otherwise, off tie
    boundaries, for alpha in {2, 3, 4}."""
    rng = random.Random(505)
    mismatches = 0
    checked = 0
    for alpha in (2.0, 3.0, 4.0):
        sites = [(rng.random(), rng.random()) for _ in range(9)]
        eq = SinrScenario(tuple(Point2(*p) for p in sites),
                          PowerVector.of([2.0] * 9), alpha, 1.0, 1e-3, UNIT)
        powers = [rng.uniform(0.5, 30.0) for _ in range(9)]
        uneq = SinrScenario(tuple(Point2(*p) for p in sites),
                            PowerVector.of(powers), alpha, 1.0, 1e-3, UNIT)
        for _ in range(10000):
            x = Point2(rng.random(), rng.random())
            d = [math.dist((x.x, x.y), p) for p in sites]
            order = sorted(range(9), key=lambda i: d[i])
            if d[order[1]] - d[order[0]] > 1e-9:
                checked += 1
                if capture_transmitter(eq, x) != order[0]:
                    mismatches += 1
            w = [d[i] * powers[i] ** (-1.0 / alpha) for i in range(9)]
            worder = sorted(range(9), key=lambda i: w[i])
            if w[worder[1]] - w[worder[0]] > 1e-9:
                checked += 1
                if capture_transmitter(uneq, x) != worder[0]:
                    mismatches += 1
    ok = mismatches == 0
    report(5, ok, f"{checked} capture checks across alpha in 2,3,4; "
                  f"{mismatches} mismatches")
    assert mismatches == 0


def is_prefix(bits):
    seen_false = False
    for b in bits:
        if b and seen_false:
            return False
        if not b:
            seen_false = True
    return True


def test_c06_star_convexity_and_quasi_convexity():
    """Equal-power ray profiles are prefixes for every (alpha, beta) cell;
    distance-ratio profiles never change difference sign more than once."""
    rng = random.Random(606)
    bad_rays = 0
    total_rays = 0
    for scen_i in range(20):
        sites = [(rng.random(), rng.random()) for _ in range(8)]
        for alpha in (2.0, 3.0, 4.0):
            for beta in (0.5, 1.0, 2.0, 8.0):
                s = SinrScenario(tuple(Point2(*p) for p in sites),
                                 PowerVector.of([1.0] * 8), alpha, beta,
                                 1e-3, UNIT)
                for k in range(64):
                    ang = 2 * math.pi * (k + 0.37) / 64
                    t = k % 8
                    prof = ray_coverage_profile(
                        s, t, (math.cos(ang), math.sin(ang)), 40)
                    total_rays += 1
                    if not is_prefix(prof):
                        bad_rays += 1
    assert bad_rays == 0, f"{bad_rays}/{total_rays} rays not prefix-shaped"

    bad_profiles = 0
    for _ in range(1000):
        t = Point2(rng.uniform(-3, 3), rng.uniform(-3, 3))
        u = Point2(rng.uniform(-3, 3), rng.uniform(-3, 3))
        if math.dist((t.x, t.y), (u.x, u.y)) < 1e-3:
            continue
        origin = Point2(rng.uniform(-3, 3), rng.uniform(-3, 3))
        ang = rng.uniform(0, 2 * math.pi)
        prof = ratio_profile(t, u, (origin, (math.cos(ang), math.sin(ang))), 160)
        diffs = [b - a for a, b in zip(prof, prof[1:])]
        signs = [d for d in diffs if abs(d) > 1e-11]
        changes = 0
        okp = True
        for a, b in zip(signs, signs[1:]):
            if a < 0 < b:
                changes += 1
            if a > 0 > b:
                okp = False
        if not okp or changes > 1:
            bad_profiles += 1
    ok = bad_rays == 0 and bad_profiles == 0
    report(6, ok, f"{total_rays} rays all prefixes; "
                  f"{bad_profiles} quasi-convexity violations in 1000 lines")
    assert bad_profiles == 0


def _half_coverage_scenario():
    """Random 5-site scenario with beta tuned so the fine-grid area is ~0.5."""
    rng = random.Random(707)
    sites = tuple(Point2(rng.random(), rng.random()) for _ in range(5))
    powers = PowerVector.of([rng.uniform(1.0, 4.0) for _ in range(5)])
    lo, hi = 1e-3, 1e3
    plan = SamplingPlan.grid(200, 200)
    for _ in range(50):
        beta = math.sqrt(lo * hi)
        s = SinrScenario(sites, powers, 2.0, beta, 1e-3, UNIT)
        a = estimate_area(s, powers, plan)
        if a > 0.5:
            lo = beta
        else:
            hi = beta
        if 0.45 <= a <= 0.55:
            return s, a
    return s, a


def test_c07_chernoff_sizing_and_guarantee():
    """Reference sample count is exactly 400; random sampling with the bound
    for a 0.4 coverage floor hits the 15% band around a ~0.5 grid truth in
    at least 88% of 500 trials."""
    assert required_samples(0.15, 0.1, 1.0) == 400
    s, c_hat = _half_coverage_scenario()
    n = required_samples(0.15, 0.1, 0.4)
    hits = 0
    for trial in range(500):
        est = estimate_area(s, s.powers, SamplingPlan.random(n, seed=trial))
        if abs(est - c_hat) <= 0.15 * c_hat:
            hits += 1
    rate = hits / 500.0
    ok = rate >= 0.88
    report(7, ok, f"required_samples=400 exact; {n} samples hit the band "
                  f"in {rate:.1%} of 500 trials (floor 88%)")
    assert rate >= 0.88


def test_c08_optimizer_crosscheck():
    """RHC and Nelder-Mead (each followed by the floor post-pass, as in the
    reference comparisons) reach exhaustive(k=5) minus at most 0.01 on ten
    3-transmitter scenarios; exhaustive returns the cheapest maximizer."""
    rng = random.Random(808)
    plan = SamplingPlan.grid(40, 40)
    b = Bounds.uniform(3, 0.0, 100.0)
    worst_rhc = worst_nm = 0.0
    for trial in range(10):
        sites = tuple(Point2(rng.random(), rng.random()) for _ in range(3))
        s = SinrScenario(sites, PowerVector.of([0.0] * 3), 2.0,
                         rng.uniform(1.0, 2.5), 1e-3, UNIT)
        ex = exhaustive_search(s, b, 5, plan)
        # order property: the reported assignment is the cheapest maximizer
        levels = [0.0, 25.0, 50.0, 75.0, 100.0]
        import itertools
        cheapest = min(sum(v) for v in itertools.product(levels, repeat=3)
                       if estimate_area(s, PowerVector.of(v), plan) == ex.best_area)
        assert ex.total_power == pytest.approx(cheapest)

        rhc = random_hill_climb(s, b, RhcParams.defaults(s.alpha), plan,
                                seed=trial)
        rhc = post_process(s, rhc.best_power, b.p_min, plan)
        nm = nelder_mead(lambda p: estimate_area(s, p, plan), b,
                         restarts=10, seed=trial)
        nm = post_process(s, nm.best_power, b.p_min, plan)
        worst_rhc = max(worst_rhc, ex.best_area - rhc.best_area)
        worst_nm = max(worst_nm, ex.best_area - nm.best_area)
        assert rhc.best_area >= ex.best_area - 0.01, \
            f"trial {trial}: rhc {rhc.best_area} vs exhaustive {ex.best_area}"
        assert nm.best_area >= ex.best_area - 0.01, \
            f"trial {trial}: nm {nm.best_area} vs exhaustive {ex.best_area}"
    report(8, True, f"10 scenarios; worst gap rhc {worst_rhc:.4f}, "
                    f"nm {worst_nm:.4f} (tol 0.01); exhaustive power-minimal")


def test_c09_interference_limited_regime():
    """Target: a 20-level uniform power sweep whose coverage curve has an
    interior maximum strictly above both endpoints.

    This cannot occur: for any fixed sample set and positive noise,
    SINR(x,t) = P*A/(P*B + N0) is strictly increasing in the common power P
    at every point, so the covered set grows monotonically along the ramp
    and the curve's maximum sits at the upper endpoint.  The assertion is
    kept as stated rather than weakened; the rise-then-fall shape in the
    reference experiments comes from comparing differently shaped
    assignments at increasing total power, not from scaling one vector.
    """
    rng = random.Random(909)
    sites = tuple(Point2(rng.random(), rng.random()) for _ in range(10))
    s = SinrScenario(sites, PowerVector.of([0.0] * 10), 2.0, 2.0, 1e-3, UNIT)
    b = Bounds.uniform(10, 0.0, 100.0)
    curve = sweep_power(s, b, 20, SamplingPlan.grid(40, 40))
    areas = [a for _, a in curve]
    interior_max = max(areas[1:-1])
    ok = interior_max > areas[0] and interior_max > areas[-1]
    report(9, ok, f"uniform sweep endpoints {areas[0]:.3f}/{areas[-1]:.3f}, "
                  f"interior max {interior_max:.3f} (monotone by construction)")
    assert ok, ("interior maximum does not exceed both endpoints: uniform "
                "sweeps are monotone in the common power when noise > 0")


def test_c10_epsilon_closeness_gadget():
    """The interference-bound detector on the collinear gadget (tx radius
    gap/3, interference radius 2*gap/3) agrees with the pairwise |ai - aj| <
    gap oracle on existence, over 100 random real sequences."""
    rng = random.Random(1010)
    agreements = 0
    for trial in range(100):
        n = rng.randint(4, 28)
        gap = rng.uniform(0.5, 2.5)
        values = []
        while len(values) < n:
            v = rng.uniform(0.0, 40.0)
            if all(abs(v - u) > 1e-9 for u in values):
                values.append(v)
        pad = gap + 1.0
        win = Rect(min(values) - pad, -pad, max(values) + pad, pad)
        txs = [ProtocolTransmitter(Point2(v, 0.0), gap / 3.0, 2.0 * gap / 3.0)
               for v in values]
        cov = compute_coverage_map(txs, win)
        found = find_interference_bound(cov) is not None
        expect = any(abs(a - b2) < gap for i, a in enumerate(values)
                     for b2 in values[i + 1:])
        assert found == expect, f"trial {trial}: found={found} expect={expect}"
        agreements += 1
    report(10, True, f"{agreements}/100 gadget instances agree with the "
                     f"pairwise oracle")
