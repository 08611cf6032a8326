"""The benchmark's workloads: static-map, dynamic-churn and sinr-optimize.

Each workload makes its inputs from the seed in ``setup`` (outside the timed
region), runs closed-loop rounds of user-visible operations through the
program's public entry points, and checks the outputs afterwards.  An
operation that raises or exits non-zero, or whose output fails its check,
counts as failed.

Why these three: the program has three engines and each workload drives one
of them while bypassing the other two, so a change to one engine should
move one workload and leave the others flat.

* static-map: ``build-map --svg`` through the CLI on n = 2048 transmitters
  (the generator of acceptance check c02).  Power frames dominate, built
  once for the map and once more for the SVG.  No dynamic or SINR code runs.
* dynamic-churn: 1000 inserts into ``DynamicCoverage``, one full read, then
  rounds of delete-random-sites (until one visible site is gone),
  insert-as-many-fresh-ones, read ``region_areas``.
  Deletes re-probe parked disks, inserts walk the history, reads re-run the
  geometry booleans for the few dirty sites.  No power frames, no CLI.
* sinr-optimize: ``optimize rhc`` and ``optimize nm`` (10 transmitters) and
  ``optimize exhaustive --levels 6`` (4 transmitters, 1296 vectors), each
  with ``--post-process``, on a 64x64 grid.  RHC re-queries cached vectors,
  exhaustive never does.  No geometry code runs.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
import statistics
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Optional

import oracles
from speed import SpeedProbe

HERE = Path(__file__).resolve().parent


@dataclass
class Op:
    kind: str
    raw: float  # wall seconds as measured, less the probes taken during it
    start: float
    round: int  # -1 for the prologue
    completed: bool = True  # returned normally (exit code 0 for the CLI)
    ok: bool = True  # completed and its output passed the check
    seconds: float = 0.0  # ``raw`` scaled to the reference machine speed


class Ops:
    """Closed-loop recorder: one caller, each call timed on its own, less
    the machine-speed probes taken during it (see ``speed.py``)."""

    def __init__(self, tracer=None) -> None:
        self.probe = SpeedProbe()
        self.items: list[Op] = []
        self.errors: list[str] = []
        self.wrong = 0
        self.round = -1
        self.step = -1  # picks the round's inputs; a traced run repeats each
        self.tracer = tracer
        self.traced = False

    def run(self, kind: str, fn, *args) -> tuple[Any, bool]:
        if self.tracer is not None:
            self.tracer.op_id = len(self.items)
        busy = self.probe.busy
        t0 = time.perf_counter()
        try:
            out, ok = fn(*args), True
        except Exception as e:  # the benchmark keeps going and reports it
            out, ok = None, False
            self.errors.append(f"{kind}: {e!r}")
        raw = time.perf_counter() - t0 - (self.probe.busy - busy)
        self.items.append(Op(kind, raw, t0, self.round, ok, ok))
        return out, ok

    def finish(self, exponent: float) -> None:
        """Scale every op's time by the probes around it."""
        for o in self.items:
            o.seconds = o.raw * self.probe.scale(o.start, o.start + o.raw, exponent)

    def fail(self, index: int, why: str, wrong: bool = True,
             completed: bool = True) -> None:
        """Mark an op as failed: its output was ``wrong``, it did not
        ``complete`` (a non-zero exit code), or its check could not run."""
        op = self.items[index]
        if op.ok:
            op.ok = False
            op.completed = completed
            self.wrong += int(wrong)
            self.errors.append(f"{op.kind} #{index}: {why}")

    def seconds(self, kind: str) -> list[float]:
        """Times of the completed ops of one kind; a failed call's time to
        failure says little about the operation, failures are counted."""
        return [o.seconds for o in self.items if o.kind == kind and o.completed]


def median(xs: list[float]) -> float:
    return statistics.median(xs) if xs else 0.0


def percentile(xs: list[float], q: float) -> float:
    """Nearest-rank percentile, q in (0, 100]."""
    if not xs:
        return 0.0
    s = sorted(xs)
    return s[max(0, math.ceil(q / 100.0 * len(s)) - 1)]


def quiet_cli(ck, argv: list[str]) -> int:
    """Run the CLI in-process with its console output discarded."""
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        return ck.cli_io.cli(argv)


def protocol_tx(rng: random.Random, spread: float) -> dict:
    """One transmitter from c02's generator (100x100 window)."""
    ir = rng.uniform(0.5, 1.5) * spread
    return {"x": rng.uniform(0.3, 99.7), "y": rng.uniform(0.3, 99.7),
            "tx_radius": max(1e-4, rng.uniform(0.5, 1.0) * ir), "int_radius": ir}


WINDOW = {"x0": 0.0, "y0": 0.0, "x1": 100.0, "y1": 100.0}


def protocol_scenario(rng: random.Random, n: int) -> dict:
    spread = 100.0 / math.sqrt(n)
    return {"model": "protocol", "window": WINDOW,
            "transmitters": [protocol_tx(rng, spread) for _ in range(n)]}


class StaticMap:
    name = "static-map"
    ROUND_S = 6.0  # one build-map command
    SPEED_EXPONENT = 1.0  # see speed.py
    # Rounds cycle through this many scenarios, so a scenario the program
    # fails on costs a share of a run's operations, not all of them.
    SCENARIOS = 6
    # Membership grid for the area check: 2000^2 cell centres over 100x100.
    # The tolerance is a share of the window area (1.0 area unit): the grid
    # estimate stayed within 0.19 of the map on seeds 0, 1 and 3, while a
    # missing or doubled region (about 1-10 area units each) exceeds it.
    GRID = 2000
    AREA_TOL = 1e-4

    def setup(self, ck, seed: int, tiny: bool, work: Path) -> None:
        self.work = work
        rng = random.Random(seed)
        self.scenarios = [protocol_scenario(rng, 48 if tiny else 2048)
                          for _ in range(self.SCENARIOS)]
        self.paths = [work / f"static-{k}.scenario.json" for k in range(self.SCENARIOS)]
        for path, sc in zip(self.paths, self.scenarios):
            path.write_text(json.dumps(sc), encoding="utf-8")
        self.outputs: list[tuple[int, int, bytes]] = []
        warm = work / "warmup.scenario.json"
        warm.write_text(json.dumps(protocol_scenario(random.Random(seed + 1), 64)),
                        encoding="utf-8")
        quiet_cli(ck, ["build-map", str(warm), "--out", str(work / "warmup.result.json"),
                       "--svg", str(work / "warmup.svg")])

    def prologue(self, ck, ops: Ops) -> None:
        pass

    def round(self, ck, ops: Ops) -> None:
        k = ops.step % self.SCENARIOS
        res = self.work / "static.result.json"
        rc, ok = ops.run("build_map", quiet_cli, ck, [
            "build-map", str(self.paths[k]), "--out", str(res),
            "--svg", str(self.work / "static.svg")])
        if not ok:
            return
        if rc != 0:
            ops.fail(len(ops.items) - 1, f"exit code {rc}", wrong=False,
                     completed=False)
            return
        raw = res.read_bytes()
        self.outputs.append((len(ops.items) - 1, k, raw))
        if ops.traced:
            ops.tracer.count("arcs", json.loads(raw).get("total_arcs", 0))

    def check(self, ck, ops: Ops, corrupt: bool) -> str:
        """Per scenario: the first output against a membership grid and a
        lower hull, later outputs byte for byte against the first."""
        if corrupt and self.outputs:
            idx, k, raw = self.outputs[-1]
            bad = json.loads(raw)
            bad["total_area"] *= 1.5
            self.outputs[-1] = (idx, k, json.dumps(bad).encode())
        tol = self.AREA_TOL * 100.0 * 100.0
        first: dict[int, tuple[bytes, Optional[str]]] = {}
        gaps = []

        def judge(k: int, raw: bytes) -> Optional[str]:
            txs = self.scenarios[k]["transmitters"]
            hidden = oracles.hidden_sites(txs)
            active = [i for i in range(len(txs)) if i not in hidden]
            grid = oracles.grid_covered_area(txs, WINDOW, active, self.GRID)
            try:
                out = json.loads(raw)
                area, removed = float(out["total_area"]), set(out["removed_sites"])
            except (ValueError, KeyError, TypeError) as e:
                return f"unreadable result: {e!r}"
            gaps.append(abs(area - grid))
            if removed != hidden:
                return f"{len(removed)} removed sites, lower hull says {len(hidden)}"
            if gaps[-1] > tol:
                return f"total_area {area:.4f} vs grid {grid:.4f}"
            return None

        for idx, k, raw in self.outputs:
            if k not in first:
                first[k] = (raw, judge(k, raw))
            ref, why = first[k]
            if why is not None:
                ops.fail(idx, why)
            elif raw != ref:
                ops.fail(idx, "result differs from the first run of the same input")
        return (f"{len(first)} scenarios; largest |total_area - grid| "
                f"{max(gaps, default=0.0):.4f} (tol {tol})")

    def headline(self, ops: Ops) -> list[tuple[str, float, str]]:
        return [("build_map_s", median(ops.seconds("build_map")), "s")]

    def gauges(self) -> dict[str, float]:
        return {}


class DynamicChurn:
    name = "dynamic-churn"
    ROUND_S = 1.25  # dominated by the visible delete
    SPEED_EXPONENT = 1.4
    REL_TOL = 1e-6  # c03's tolerance

    def setup(self, ck, seed: int, tiny: bool, work: Path) -> None:
        self.ck = ck
        self.seed = seed
        n = 40 if tiny else 1000
        self.spread = 100.0 / math.sqrt(n)
        self.rng = random.Random(seed)  # drives the churn after the fill too
        self.fill = [self._tx(protocol_tx(self.rng, self.spread)) for _ in range(n)]
        self.live: list[int] = []
        self.txs: dict[int, Any] = {}
        self.last_read: Optional[tuple[int, dict]] = None
        self.dc = None
        wrng = random.Random(seed + 1)
        dc = self._new_structure(seed + 1)
        sites = [dc.insert_transmitter(self._tx(protocol_tx(wrng, self.spread))).site
                 for _ in range(30)]
        dc.delete_transmitter(sites[0])
        dc.region_areas()

    def _tx(self, d: dict):
        pc, g = self.ck.protocol_coverage, self.ck.geometry
        return pc.ProtocolTransmitter(g.Point2(d["x"], d["y"]), d["tx_radius"],
                                      d["int_radius"])

    def _new_structure(self, seed: int):
        return self.ck.dynamic_coverage.DynamicCoverage(
            self.ck.geometry.Rect(0.0, 0.0, 100.0, 100.0), seed=seed)

    def _insert(self, ops: Ops, t) -> None:
        rep, ok = ops.run("insert", self.dc.insert_transmitter, t)
        if ok:
            self.live.append(rep.site)
            self.txs[rep.site] = t

    def _read(self, ops: Ops, kind: str) -> None:
        areas, ok = ops.run(kind, self.dc.region_areas)
        if ok:
            self.last_read = (len(ops.items) - 1, areas)

    def prologue(self, ck, ops: Ops) -> None:
        self.dc = self._new_structure(self.seed)
        for t in self.fill:
            self._insert(ops, t)
        self._read(ops, "regions_full")

    def round(self, ck, ops: Ops) -> None:
        """Delete random live sites until one that held a cell is gone,
        insert as many fresh ones, read.  About 29 % of the sites are parked
        (hidden) and leave in ~0.03 ms without touching the lattice, so every
        round has exactly one visible delete and a random number of hidden
        ones, and the round time does not depend on the draw of victims."""
        deleted = 0
        while True:
            victim = self.live.pop(self.rng.randrange(len(self.live)))
            t = self.txs.pop(victim)
            rep, ok = ops.run("delete", self.dc.delete_transmitter, victim)
            if not ok:
                self.live.append(victim)
                self.txs[victim] = t
                break
            deleted += 1
            ops.items[-1].kind = "delete_hidden" if rep.redundant else "delete_visible"
            if not rep.redundant:
                break
        for _ in range(deleted):
            self._insert(ops, self._tx(protocol_tx(self.rng, self.spread)))
        self._read(ops, "regions")

    def check(self, ck, ops: Ops, corrupt: bool) -> str:
        if self.last_read is None:
            return "no read to check"
        idx, areas = self.last_read
        areas = dict(areas)
        sids = sorted(self.live)
        if corrupt:
            areas[sids[0]] += 1.0
        if sorted(areas) != sids:
            ops.fail(idx, "read does not cover exactly the registered sites")
            return "site sets differ"
        try:
            cov = ck.protocol_coverage.compute_coverage_map(
                [self.txs[s] for s in sids], ck.geometry.Rect(0.0, 0.0, 100.0, 100.0))
        except Exception as e:
            ops.fail(idx, f"static rebuild for the check raised {e!r}", wrong=False)
            return "static rebuild raised"
        bad = 0
        for k, sid in enumerate(sids):
            a_st = ck.protocol_coverage.region_area(cov, k)
            a_dyn = areas[sid]
            if abs(a_dyn - a_st) > self.REL_TOL * max(a_st, a_dyn, 1e-9) + 1e-9:
                bad += 1
        if bad:
            ops.fail(idx, f"{bad} of {len(sids)} regions differ from a static rebuild")
        return f"last read: {bad} of {len(sids)} regions differ from a static rebuild"

    def headline(self, ops: Ops) -> list[tuple[str, float, str]]:
        ins = [1e3 * s for s in ops.seconds("insert")]
        return [("insert_ms_p50", median(ins), "ms"),
                ("insert_ms_p99", percentile(ins, 99), "ms"),
                ("delete_ms_p50", 1e3 * median(ops.seconds("delete_visible")), "ms"),
                ("regions_ms_p50", 1e3 * median(ops.seconds("regions")), "ms")]

    def gauges(self) -> dict[str, float]:
        shuffle = getattr(self.dc, "shuffle", None)
        return {"history_nodes": len(getattr(shuffle, "nodes", ())),
                "parked": len(getattr(self.dc, "hidden", ()))}


class SinrOptimize:
    name = "sinr-optimize"
    ROUND_S = 6.0  # rhc, nm and exhaustive
    SPEED_EXPONENT = 0.7
    POOL = 32  # scenarios with a recorded seed-commit best_area each
    BASELINE = HERE / "sinr_baseline.json"
    AREA_SLACK = 0.01  # c08's tolerance
    # transmitters for rhc/nm, for exhaustive, grid side, exhaustive levels
    SIZES = (10, 4, 64, 6)
    TINY_SIZES = (3, 2, 12, 3)
    METHODS = (("rhc", "big"), ("nm", "big"), ("exhaustive", "small"))

    @staticmethod
    def argv(method: str, path: Path, index: int, levels: int) -> list[str]:
        """``optimize`` arguments; rhc and nm take the scenario index as seed."""
        extra = ["--levels", str(levels)] if method == "exhaustive" \
            else ["--seed", str(index)]
        return ["optimize", method, str(path), *extra, "--post-process"]

    @staticmethod
    def scenario(index: int, n: int, grid: int) -> dict:
        rng = random.Random(f"sinr-{n}-{index}")
        return {"model": "sinr", "window": {"x0": 0.0, "y0": 0.0, "x1": 1.0, "y1": 1.0},
                "alpha": 2.0, "beta": 1.5, "noise": 1000.0,
                "transmitters": [{"x": rng.random(), "y": rng.random(), "power": 0.0}
                                 for _ in range(n)],
                "bounds": {"p_min": [0.0] * n, "p_max": [100.0] * n},
                "sampling": {"kind": "grid", "grid_dims": [grid, grid]}}

    def setup(self, ck, seed: int, tiny: bool, work: Path) -> None:
        self.work = work
        # tiny runs use other inputs, so they have no recorded baseline
        self.baseline = None if tiny else json.loads(self.BASELINE.read_text())
        self.sizes = self.TINY_SIZES if tiny else self.SIZES
        n_big, n_small, grid, _ = self.sizes
        self.order = random.Random(seed).sample(range(self.POOL), self.POOL)
        self.paths: dict[tuple[str, int], Path] = {}
        self.scenarios: dict[Path, dict] = {}
        for k in range(self.POOL):
            for tag, n in (("big", n_big), ("small", n_small)):
                p = work / f"sinr-{tag}-{k}.scenario.json"
                self.scenarios[p] = self.scenario(k, n, grid)
                p.write_text(json.dumps(self.scenarios[p]), encoding="utf-8")
                self.paths[(tag, k)] = p
        self.outputs: list[tuple[int, str, int, Path, bytes]] = []
        warm = work / "warmup.scenario.json"
        warm.write_text(json.dumps(self.scenario(0, 2, 8)), encoding="utf-8")
        quiet_cli(ck, ["optimize", "exhaustive", str(warm), "--levels", "2",
                       "--post-process", "--out", str(work / "warmup.result.json")])

    def prologue(self, ck, ops: Ops) -> None:
        pass

    def round(self, ck, ops: Ops) -> None:
        k = self.order[ops.step % self.POOL]
        for method, tag in self.METHODS:
            res = self.work / f"sinr-{method}.result.json"
            path = self.paths[(tag, k)]
            rc, ok = ops.run(f"optimize_{method}", quiet_cli, ck, [
                *self.argv(method, path, k, self.sizes[3]), "--out", str(res)])
            if not ok:
                continue
            if rc != 0:
                ops.fail(len(ops.items) - 1, f"exit code {rc}", wrong=False,
                         completed=False)
                continue
            self.outputs.append((len(ops.items) - 1, method, k, path, res.read_bytes()))

    def check(self, ck, ops: Ops, corrupt: bool) -> str:
        sm, g = ck.sinr_model, ck.geometry
        for j, (idx, method, k, path, raw) in enumerate(self.outputs):
            try:
                out = json.loads(raw)
                area, powers = float(out["best_area"]), out["best_power"]
            except (ValueError, KeyError, TypeError) as e:
                ops.fail(idx, f"unreadable result: {e!r}")
                continue
            if corrupt and j == len(self.outputs) - 1:
                area += 0.5
            sc = self.scenarios[path]
            nx, ny = sc["sampling"]["grid_dims"]
            base = sm.SinrScenario(
                tuple(g.Point2(t["x"], t["y"]) for t in sc["transmitters"]),
                sm.PowerVector.of([0.0] * len(sc["transmitters"])),
                sc["alpha"], sc["beta"], sc["noise"], g.Rect(0.0, 0.0, 1.0, 1.0))
            scalar = oracles.scalar_sinr_area(base, sm.PowerVector.of(powers), nx, ny)
            if area != scalar:
                ops.fail(idx, f"{method} best_area {area} but the scalar predicate "
                              f"gives {scalar}")
            elif self.baseline is not None and \
                    area < self.baseline[method][k] - self.AREA_SLACK:
                ops.fail(idx, f"{method} best_area {area} below the recorded "
                              f"{self.baseline[method][k]} - {self.AREA_SLACK}")
        return f"{len(self.outputs)} best_area values re-evaluated by the scalar predicate"

    def headline(self, ops: Ops) -> list[tuple[str, float, str]]:
        return [(f"optimize_{m}_s", median(ops.seconds(f"optimize_{m}")), "s")
                for m in ("rhc", "nm", "exhaustive")]

    def gauges(self) -> dict[str, float]:
        return {}


WORKLOADS = {w.name: w for w in (StaticMap, DynamicChurn, SinrOptimize)}
