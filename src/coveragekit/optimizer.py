"""Coverage-area estimation and transmit-power optimization.

The objective is the estimated covered fraction of the unit-area window,
computed over a grid or a seeded random sample.  The number of random samples
for a target accuracy comes from the Chernoff bound; comparisons between
optimizers use the deterministic grid.

Three searches are provided: exhaustive enumeration over power levels in
nondecreasing total-power order (so the first maximizer found is also the
cheapest), a bidirectional random hill climb, and Nelder-Mead with restarts.
Each evaluates one bound ``objective``, which builds its own read-only
distance powers for the plan's sample and caches values per exact power
vector (``evaluations`` counts queries, cached or not).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .errors import BudgetExceeded
from .sinr_model import (PowerVector, SinrEvaluator, SinrScenario, _cell_centers, _path_loss,
                         check_sample_budget)


@dataclass(frozen=True)
class SamplingPlan:
    """How to sample the window: deterministic grid or seeded random points."""
    kind: str  # "grid" | "random"
    grid_dims: Optional[tuple[int, int]] = None
    sample_count: Optional[int] = None
    seed: Optional[int] = None

    def __post_init__(self):
        if self.kind == "grid":
            if not self.grid_dims or self.grid_dims[0] < 2 or self.grid_dims[1] < 2:
                raise ValueError("grid plans need grid_dims >= (2, 2)")
        elif self.kind == "random":
            if not self.sample_count or self.sample_count < 1:
                raise ValueError("random plans need sample_count >= 1")
        else:
            raise ValueError(f"unknown sampling kind {self.kind!r}")

    @staticmethod
    def grid(nx: int, ny: int) -> "SamplingPlan":
        return SamplingPlan("grid", grid_dims=(nx, ny))

    @staticmethod
    def random(count: int, seed: int = 0) -> "SamplingPlan":
        return SamplingPlan("random", sample_count=count, seed=seed)


@dataclass(frozen=True)
class Bounds:
    p_min: PowerVector
    p_max: PowerVector

    def __post_init__(self):
        if len(self.p_min) != len(self.p_max):
            raise ValueError("bound vectors must have equal length")
        for lo, hi in zip(self.p_min.values, self.p_max.values):
            if not (0.0 <= lo <= hi):
                raise ValueError("need 0 <= p_min <= p_max componentwise")

    @staticmethod
    def uniform(n: int, lo: float, hi: float) -> "Bounds":
        return Bounds(PowerVector.of([lo] * n), PowerVector.of([hi] * n))


@dataclass
class OptResult:
    best_power: PowerVector
    best_area: float
    evaluations: int
    trace: list[tuple[int, float]]
    total_power: float
    computed: int = 0  # distinct vectors evaluated; for the manifest only
    counts: dict = field(default_factory=dict)  # the evaluator's filter counts; likewise

    def to_dict(self) -> dict:
        return {"best_power": list(self.best_power.values),
                "best_area": self.best_area,
                "evaluations": self.evaluations,
                "trace": [[i, a] for i, a in self.trace],
                "total_power": self.total_power}


def sample_points(window, plan: SamplingPlan) -> np.ndarray:
    if plan.kind == "grid":
        return _cell_centers(window, *plan.grid_dims)
    pts = np.random.default_rng(plan.seed).random((plan.sample_count, 2))
    return pts * (window.width, window.height) + (window.x0, window.y0)


def objective(s: SinrScenario, plan: SamplingPlan) -> SinrEvaluator:
    """Covered fraction of the window as a function of the powers, on the plan's sample."""
    check_sample_budget(len(s.sites), math.prod(plan.grid_dims) if plan.kind == "grid"
                        else plan.sample_count)
    return SinrEvaluator(s, _path_loss(s.sites, s.alpha, sample_points(s.window, plan)))


def estimate_area(s: SinrScenario, p, plan: SamplingPlan) -> float:
    """Fraction of the sample whose best SINR reaches the threshold under
    powers p (a PowerVector or its values)."""
    return objective(s, plan)(p.values if isinstance(p, PowerVector) else p)


def required_samples(epsilon: float, delta: float, c_lower: float) -> int:
    """Chernoff sample count: smallest n with n > 3 ln(2/delta) / (eps^2 C),
    taking the caller's lower bound for the unknown coverage fraction C."""
    if not (0.0 < epsilon < 1.0 and 0.0 < delta < 1.0 and 0.0 < c_lower <= 1.0):
        raise ValueError("epsilon, delta in (0,1); c_lower in (0,1]")
    return math.ceil(3.0 * math.log(2.0 / delta) / (epsilon * epsilon * c_lower))


def grid_rule_samples(epsilon: float, delta: float, c_lower: float) -> int:
    """Grid sizing thumb rule: four times the random-sample requirement."""
    return 4 * required_samples(epsilon, delta, c_lower)


class _CachedObjective:
    """Counts logical evaluations; computes each exact vector once.  Keeps
    the first vector of the largest area, the trace of (calls, area) at each
    strict improvement, and for an evaluator ``fn`` its filter counts."""

    def __init__(self, fn: Callable[[tuple[float, ...]], float]):
        self._fn = fn
        self._cache = {}
        self.calls = 0
        self.computed = 0
        self.best: Optional[tuple[float, ...]] = None
        self.best_area = -math.inf
        self.trace: list[tuple[int, float]] = []

    def __call__(self, values) -> float:
        self.calls += 1
        key = tuple(values.tolist() if isinstance(values, np.ndarray) else values)
        area = self._cache.get(key)
        if area is None:
            area = self._cache[key] = self._fn(key)
            self.computed += 1
        if area > self.best_area:
            self.best, self.best_area = key, area
            self.trace.append((self.calls, area))
        return area

    def result(self) -> OptResult:
        pv = PowerVector.of(self.best)
        return OptResult(pv, self.best_area, self.calls, self.trace, pv.total(), self.computed,
                         dict(getattr(self._fn, "counts", {})))


def exhaustive_search(s: SinrScenario, b: Bounds, levels: int, plan: SamplingPlan,
                      budget: int = 10 ** 6) -> OptResult:
    """Evaluate every per-site power level vector in nondecreasing total
    power; first vector attaining the maximum area wins, so the returned
    assignment uses minimum total power among the maximizers (value ties at
    equal total power break lexicographically)."""
    if levels < 1:
        raise ValueError("need at least one level")
    n = len(b.p_min)
    if levels ** n > budget:
        raise BudgetExceeded(f"{levels}^{n} exceeds the {budget} evaluation budget")
    axes = [[lo] if levels == 1 else [lo + (hi - lo) * k / (levels - 1) for k in range(levels)]
            for lo, hi in zip(b.p_min.values, b.p_max.values)]
    ev = _CachedObjective(objective(s, plan))
    for vec in sorted(itertools.product(*axes), key=lambda v: (sum(v), v)):
        ev(vec)  # the cache absorbs the repeats of a site with p_min == p_max
    return ev.result()


# The hill climb's reference configuration: increments start at 0.01 of each
# power range and grow or shrink by 1 + 0.05 per unit of path-loss exponent,
# growing by 1 + 2 * that after the first 100 attempts of a plateau, and a
# plateau holds at most 2000 attempts.
_RHC_SCALE = 0.05
_RHC_STEP = 0.01
_RHC_PLATEAU = 2000
_RHC_FAST_AFTER = 100


def random_hill_climb(s: SinrScenario, b: Bounds, plan: SamplingPlan, seed: int) -> OptResult:
    """Bidirectional random hill climb from the lower power bound.

    Odd attempts stretch the random increment, even attempts shrink it.  A
    plateau of attempts starts afresh from the first increments after every
    improvement; the search ends with the first plateau that reaches its
    last attempt, whether or not that attempt improved.  Candidates are
    clamped into the bounds.
    """
    rng = np.random.default_rng(seed)
    lo = b.p_min.as_array()
    hi = b.p_max.as_array()
    n = len(lo)
    ev = _CachedObjective(objective(s, plan))
    best = lo.copy()
    best_area = ev(best)
    scale = _RHC_SCALE * s.alpha
    grow, fast_grow = 1.0 + scale, 1.0 + 2.0 * scale
    attempt = 0
    while attempt < _RHC_PLATEAU:  # until a plateau runs to its last attempt
        shrink = stretch = _RHC_STEP * (hi - lo)
        for attempt in range(1, _RHC_PLATEAU + 1):
            if attempt % 2 == 0:
                shrink = shrink / grow
                cand = best + rng.random(n) * shrink
            else:
                stretch = stretch * (fast_grow if attempt > _RHC_FAST_AFTER else grow)
                cand = best + rng.random(n) * stretch
            cand = np.minimum(np.maximum(cand, lo), hi)
            area = ev(cand)
            if area > best_area:
                best, best_area = cand, area
                break
    return ev.result()


# Nelder-Mead stops a restart after this many iterations, or once the
# simplex's best and worst values differ by less than the tolerance.
_NM_ITERATIONS = 500
_NM_F_TOL = 1e-6


def nelder_mead(objective: Callable[[tuple[float, ...]], float], b: Bounds,
                restarts: int, seed: int) -> OptResult:
    """Simplex maximization of a function of the powers' float tuple, with
    reflection 1, expansion 2, contraction and shrink 0.5; candidates are
    clamped into the bounds.  Each restart begins from a fresh random vector
    and the best vertex over all restarts wins.
    """
    if restarts < 1:
        raise ValueError("need at least one restart")
    rng = np.random.default_rng(seed)
    lo = b.p_min.as_array()
    hi = b.p_max.as_array()
    n = len(lo)
    ev = _CachedObjective(objective)
    for _ in range(restarts):
        x0 = lo + rng.random(n) * (hi - lo)
        simplex = [x0]
        span = 0.25 * (hi - lo)
        for i in range(n):
            v = x0.copy()
            v[i] = v[i] + span[i] if v[i] + span[i] <= hi[i] else v[i] - span[i]
            simplex.append(v)
        fvals = [ev(v) for v in simplex]
        for _ in range(_NM_ITERATIONS):
            order = sorted(range(n + 1), key=lambda i: -fvals[i])
            simplex = [simplex[i] for i in order]
            fvals = [fvals[i] for i in order]
            if fvals[0] - fvals[-1] < _NM_F_TOL:
                break
            centroid = np.add.reduce(simplex[:-1], axis=0) / n
            away = centroid - simplex[-1]

            def along(t):
                return np.minimum(np.maximum(centroid + t * away, lo), hi)

            refl = along(1.0)
            f_refl = ev(refl)
            if f_refl > fvals[0]:
                expa = along(2.0)
                f_expa = ev(expa)
                if f_expa > f_refl:
                    simplex[-1], fvals[-1] = expa, f_expa
                else:
                    simplex[-1], fvals[-1] = refl, f_refl
            elif f_refl > fvals[-2]:
                simplex[-1], fvals[-1] = refl, f_refl
            else:
                cont = along(0.5 if f_refl > fvals[-1] else -0.5)
                f_cont = ev(cont)
                if f_cont > max(f_refl, fvals[-1]):
                    simplex[-1], fvals[-1] = cont, f_cont
                else:
                    for i in range(1, n + 1):
                        simplex[i] = simplex[0] + 0.5 * (simplex[i] - simplex[0])
                        fvals[i] = ev(simplex[i])
    return ev.result()


def post_process(s: SinrScenario, v: PowerVector, p_min: PowerVector,
                 plan: SamplingPlan) -> OptResult:
    """Try forcing the i smallest powers down to their minimum, i = 1..|T|.

    Returns the best of the input and the |T| floored candidates (never worse
    than the input).  With a zero floor the sites left at positive power form
    a sufficient transmitter subset.
    """
    ev = _CachedObjective(objective(s, plan))
    base = np.asarray(v.values, dtype=float)
    ev(base)
    order = sorted(range(len(base)), key=lambda i: (base[i], i))
    floors = p_min.as_array()
    for i in range(1, len(base) + 1):
        cand = base.copy()
        for idx in order[:i]:
            cand[idx] = floors[idx]
        ev(cand)
    return ev.result()


def sweep_power(s: SinrScenario, b: Bounds, levels: int,
                plan: SamplingPlan) -> list[tuple[float, float]]:
    """``power_ramp`` of the plan's objective."""
    return power_ramp(objective(s, plan), b, levels)


def power_ramp(area: Callable[[tuple[float, ...]], float], b: Bounds,
               levels: int) -> list[tuple[float, float]]:
    """(total power, ``area`` of the powers' float tuple) at ``levels`` even
    steps of the uniform ramp from p_min to p_max.  With positive noise the
    covered set only grows along it, so the curve is nondecreasing."""
    if levels < 2:
        raise ValueError("need at least two levels")
    lo = b.p_min.as_array()
    hi = b.p_max.as_array()
    out = []
    for k in range(levels):
        pv = PowerVector.of(lo + (hi - lo) * k / (levels - 1))
        out.append((pv.total(), area(pv.values)))
    return out
