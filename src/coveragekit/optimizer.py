"""Coverage-area estimation and transmit-power optimization.

The objective is the estimated covered fraction of the unit-area window,
computed over a grid or a seeded random sample.  The number of random samples
for a target accuracy comes from the Chernoff bound; comparisons between
optimizers use the deterministic grid.

Three searches are provided: exhaustive enumeration over power levels in
nondecreasing total-power order (so the first maximizer found is also the
cheapest), a bidirectional random hill climb, and Nelder-Mead with restarts.
Each evaluates one bound ``objective``, whose distance powers are built once
per (sites, alpha, window, plan), caching values per exact power vector
(``evaluations`` counts queries, cached or not); exhaustive search folds each
prefix of levels once.  No thread setting changes a result.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import BudgetExceeded
from .sinr_model import (PowerVector, SinrEvaluator, SinrScenario, _cell_centers,
                         _path_loss)


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


@dataclass(frozen=True)
class RhcParams:
    """Random-hill-climb knobs; defaults follow the reference configuration
    (scale factor 0.05 per unit of path-loss exponent, step 0.01, 2000
    attempts per plateau, increment speed-up after 100 attempts)."""
    scale_factor: float
    step_size: float = 0.01
    max_iterations: int = 2000
    scale_up_incr: int = 100

    def __post_init__(self):
        if min(self.scale_factor, self.step_size) <= 0:
            raise ValueError("scale_factor and step_size must be positive")
        if min(self.max_iterations, self.scale_up_incr) <= 0:
            raise ValueError("iteration counts must be positive")

    @staticmethod
    def defaults(alpha: float) -> "RhcParams":
        return RhcParams(scale_factor=0.05 * alpha)


@dataclass
class OptResult:
    best_power: PowerVector
    best_area: float
    evaluations: int
    trace: list[tuple[int, float]]
    total_power: float
    computed: int = 0  # distinct vectors evaluated; for the manifest only

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


# Most sites x sample points (entries of one float64 array) an estimate may
# hold; larger plans raise BudgetExceeded before any sample is allocated.
MAX_SAMPLE_PAIRS = 10 ** 7


@functools.lru_cache(maxsize=1)
def _gains(sites, alpha: float, window, plan: SamplingPlan) -> np.ndarray:
    """``_path_loss`` of the plan's sample points; its callers share and only read it."""
    points = math.prod(plan.grid_dims) if plan.kind == "grid" else plan.sample_count
    if len(sites) * points > MAX_SAMPLE_PAIRS:
        raise BudgetExceeded(f"{len(sites)} sites x {points} samples exceed {MAX_SAMPLE_PAIRS}")
    return _path_loss(sites, alpha, sample_points(window, plan))


def objective(s: SinrScenario, plan: SamplingPlan) -> SinrEvaluator:
    """Covered fraction of the window as a function of the powers, on the plan's sample."""
    return SinrEvaluator(s, _gains(tuple(s.sites), s.alpha, s.window, plan))


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
    """Counts logical evaluations; computes each exact vector once (``known``
    ones ahead).  Keeps the first vector of the largest area, and the trace
    of (calls, area) at each strict improvement."""

    def __init__(self, fn: Callable[[tuple[float, ...]], float],
                 known: Optional[dict[tuple[float, ...], float]] = None):
        self._fn = fn
        self._cache = {} if known is None else known
        self.calls = 0
        self.computed = len(self._cache)
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
        return OptResult(pv, self.best_area, self.calls, self.trace, pv.total(), self.computed)


def exhaustive_search(s: SinrScenario, b: Bounds, levels: int,
                      plan: Optional[SamplingPlan] = None,
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
    plan = plan or SamplingPlan.grid(40, 40)
    axes = []
    for lo, hi in zip(b.p_min.values, b.p_max.values):
        if levels == 1:
            axes.append([lo])
        else:
            axes.append([lo + (hi - lo) * k / (levels - 1) for k in range(levels)])
    distinct = [list(dict.fromkeys(axis)) for axis in axes]  # p_min == p_max repeats
    areas = dict(zip(itertools.product(*distinct), objective(s, plan).product(distinct)))
    ev = _CachedObjective(areas.__getitem__, areas)
    for vec in sorted(itertools.product(*axes), key=lambda v: (sum(v), v)):
        ev(vec)
    return ev.result()


def random_hill_climb(s: SinrScenario, b: Bounds, params: RhcParams,
                      plan: SamplingPlan, seed: int) -> OptResult:
    """Bidirectional random hill climb from the lower power bound.

    Odd attempts stretch the random increment (scaled up further after
    ``scale_up_incr`` attempts), even attempts shrink it; the inner loop
    restarts with fresh increments after every improvement and the search
    stops when a full plateau of ``max_iterations`` attempts brings none.
    Candidates are clamped into the bounds.
    """
    rng = np.random.default_rng(seed)
    lo = b.p_min.as_array()
    hi = b.p_max.as_array()
    n = len(lo)
    ev = _CachedObjective(objective(s, plan))
    best = lo.copy()
    best_area = ev(best)
    while True:
        attempts = 0
        scale_up = 1.0 + params.scale_factor
        scale_down = 1.0 + params.scale_factor
        shrink = params.step_size * (hi - lo)
        stretch = params.step_size * (hi - lo)
        improved = False
        while attempts < params.max_iterations and not improved:
            attempts += 1
            if attempts > params.scale_up_incr:
                scale_up = 1.0 + 2.0 * params.scale_factor
            if attempts % 2 == 0:
                shrink = shrink / scale_down
                cand = best + rng.random(n) * shrink
            else:
                stretch = stretch * scale_up
                cand = best + rng.random(n) * stretch
            cand = np.clip(cand, lo, hi)
            area = ev(cand)
            if area > best_area:
                best_area = area
                best = cand
                improved = True
        if attempts >= params.max_iterations:
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
            centroid = np.mean(simplex[:-1], axis=0)
            worst = simplex[-1]
            refl = np.clip(centroid + (centroid - worst), lo, hi)
            f_refl = ev(refl)
            if f_refl > fvals[0]:
                expa = np.clip(centroid + 2.0 * (centroid - worst), lo, hi)
                f_expa = ev(expa)
                if f_expa > f_refl:
                    simplex[-1], fvals[-1] = expa, f_expa
                else:
                    simplex[-1], fvals[-1] = refl, f_refl
            elif f_refl > fvals[-2]:
                simplex[-1], fvals[-1] = refl, f_refl
            else:
                if f_refl > fvals[-1]:
                    cont = np.clip(centroid + 0.5 * (centroid - worst), lo, hi)
                else:
                    cont = np.clip(centroid - 0.5 * (centroid - worst), lo, hi)
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
    """Coverage along the uniform ramp from p_min to p_max.

    Returns (total power, estimated area) per level.  With positive noise the
    covered set only grows along this ramp, so the curve is nondecreasing.
    """
    if levels < 2:
        raise ValueError("need at least two levels")
    lo = b.p_min.as_array()
    hi = b.p_max.as_array()
    area = objective(s, plan)
    out = []
    for k in range(levels):
        pv = PowerVector.of(lo + (hi - lo) * k / (levels - 1))
        out.append((pv.total(), area(pv.values)))
    return out
