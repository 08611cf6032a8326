"""Scenario files, result serialization, SVG rendering, and the CLI.

Scenario files are JSON: a ``model`` ("protocol" or "sinr"), a ``window``
rectangle, a ``transmitters`` list (radii for the protocol model, powers for
SINR), and, for SINR, ``alpha``/``beta``/``noise`` plus optional ``bounds``
and ``sampling`` blocks.  Results are JSON, traces are CSV, drawings are SVG.

Every run also writes a manifest (command, input hash, seed, parameters,
version, wall time) next to the result file; results themselves contain no
timing, so re-running with the same seed reproduces them byte for byte.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Optional, Sequence

from . import __version__
from .errors import BudgetExceeded, DuplicateSite, ModelError, ParseError
from .geometry import (ArcPolygon, CircularArc, Disk, Point2, Rect, Segment)
from .optimizer import (Bounds, RhcParams, SamplingPlan,
                        estimate_area, exhaustive_search, grid_rule_samples,
                        nelder_mead, post_process, random_hill_climb,
                        required_samples, sweep_power)
from .power_diagram import PowerDiagram, power_frame
from .protocol_coverage import (CoverageMap, ProtocolTransmitter,
                                compute_coverage_map, coverage_area,
                                find_interference_bound, region_area)
from .sinr_model import PowerVector, SinrScenario, capture_grid
from .dynamic_coverage import DynamicCoverage


@dataclass(frozen=True)
class TransmitterSpec:
    x: float
    y: float
    tx_radius: Optional[float] = None
    int_radius: Optional[float] = None
    power: Optional[float] = None

    def to_dict(self) -> dict:
        out: dict[str, Any] = {"x": self.x, "y": self.y}
        if self.tx_radius is not None:
            out["tx_radius"] = self.tx_radius
        if self.int_radius is not None:
            out["int_radius"] = self.int_radius
        if self.power is not None:
            out["power"] = self.power
        return out


@dataclass(frozen=True)
class ScenarioFile:
    model: str
    window: Rect
    transmitters: tuple[TransmitterSpec, ...]
    alpha: Optional[float] = None
    beta: Optional[float] = None
    noise: Optional[float] = None
    bounds: Optional[tuple[tuple[float, ...], tuple[float, ...]]] = None
    sampling: Optional[SamplingPlan] = None
    seed: Optional[int] = None

    def protocol_transmitters(self) -> list[ProtocolTransmitter]:
        return [ProtocolTransmitter(Point2(t.x, t.y), t.tx_radius, t.int_radius)
                for t in self.transmitters]

    def sinr_scenario(self, powers: Optional[Sequence[float]] = None) -> SinrScenario:
        if powers is None:
            powers = [t.power if t.power is not None else 0.0
                      for t in self.transmitters]
        return SinrScenario(tuple(Point2(t.x, t.y) for t in self.transmitters),
                            PowerVector.of(powers), self.alpha, self.beta,
                            self.noise, self.window)

    def bounds_or_default(self) -> Bounds:
        if self.bounds is not None:
            return Bounds(PowerVector.of(self.bounds[0]),
                          PowerVector.of(self.bounds[1]))
        n = len(self.transmitters)
        return Bounds.uniform(n, 0.0, 100.0)

    def sampling_or_default(self) -> SamplingPlan:
        return self.sampling if self.sampling is not None \
            else SamplingPlan.grid(40, 40)

    def to_dict(self) -> dict:
        out: dict[str, Any] = {
            "model": self.model,
            "window": {"x0": self.window.x0, "y0": self.window.y0,
                       "x1": self.window.x1, "y1": self.window.y1},
            "transmitters": [t.to_dict() for t in self.transmitters],
        }
        for k in ("alpha", "beta", "noise", "seed"):
            v = getattr(self, k)
            if v is not None:
                out[k] = v
        if self.bounds is not None:
            out["bounds"] = {"p_min": list(self.bounds[0]),
                             "p_max": list(self.bounds[1])}
        if self.sampling is not None:
            sp: dict[str, Any] = {"kind": self.sampling.kind}
            if self.sampling.kind == "grid":
                sp["grid_dims"] = list(self.sampling.grid_dims)
            else:
                sp["sample_count"] = self.sampling.sample_count
                if self.sampling.seed is not None:
                    sp["seed"] = self.sampling.seed
            out["sampling"] = sp
        return out


def _need(obj: dict, key: str, path: str, kind=None):
    if key not in obj:
        raise ParseError(f"{path}{key}", "missing required field")
    v = obj[key]
    if kind is not None and not isinstance(v, kind):
        raise ParseError(f"{path}{key}", f"expected {kind}, got {type(v).__name__}")
    return v


def _num(obj: dict, key: str, path: str) -> float:
    v = _need(obj, key, path)
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise ParseError(f"{path}{key}", "expected a number")
    return float(v)


def _int(obj: dict, key: str, path: str) -> int:
    v = _need(obj, key, path)
    if isinstance(v, float) and v.is_integer():
        v = int(v)
    if isinstance(v, bool) or not isinstance(v, int):
        raise ParseError(f"{path}{key}", "expected an integer")
    return v


def parse_scenario(data: bytes | str) -> ScenarioFile:
    """Parse and validate a scenario; errors carry the offending field path."""
    if isinstance(data, bytes):
        try:
            data = data.decode("utf-8")
        except UnicodeDecodeError as e:
            raise ParseError("<file>", f"not UTF-8: {e}")
    try:
        raw = json.loads(data)
    except json.JSONDecodeError as e:
        raise ParseError("<file>", f"invalid JSON: {e}")
    if not isinstance(raw, dict):
        raise ParseError("<file>", "top level must be an object")

    model = _need(raw, "model", "", str)
    if model not in ("protocol", "sinr"):
        raise ParseError("model", f"unknown model {model!r}")
    wobj = _need(raw, "window", "", dict)
    wvals = {k: _num(wobj, k, "window.") for k in ("x0", "y0", "x1", "y1")}
    if not (wvals["x1"] > wvals["x0"] and wvals["y1"] > wvals["y0"]):
        raise ParseError("window", "rectangle must have positive extent")
    window = Rect(**wvals)

    txs_raw = _need(raw, "transmitters", "", list)
    if not txs_raw:
        raise ParseError("transmitters", "need at least one transmitter")
    specs = []
    for i, t in enumerate(txs_raw):
        path = f"transmitters[{i}]."
        if not isinstance(t, dict):
            raise ParseError(f"transmitters[{i}]", "expected an object")
        x = _num(t, "x", path)
        y = _num(t, "y", path)
        spec = TransmitterSpec(
            x=x, y=y,
            tx_radius=float(t["tx_radius"]) if "tx_radius" in t else None,
            int_radius=float(t["int_radius"]) if "int_radius" in t else None,
            power=float(t["power"]) if "power" in t else None)
        if model == "protocol":
            if spec.tx_radius is None:
                raise ParseError(path + "tx_radius", "protocol model needs radii")
            if spec.int_radius is None:
                raise ParseError(path + "int_radius", "protocol model needs radii")
            if spec.tx_radius <= 0:
                raise ModelError(f"transmitter {i}: transmission radius must be positive")
            if spec.tx_radius > spec.int_radius:
                raise ModelError(
                    f"transmitter {i}: transmission radius {spec.tx_radius} exceeds "
                    f"interference radius {spec.int_radius}")
        specs.append(spec)

    alpha = beta = noise = None
    bounds = None
    if model == "sinr":
        alpha = _num(raw, "alpha", "")
        beta = _num(raw, "beta", "")
        noise = _num(raw, "noise", "")
        if "bounds" in raw:
            bobj = _need(raw, "bounds", "", dict)
            p_min = _need(bobj, "p_min", "bounds.", list)
            p_max = _need(bobj, "p_max", "bounds.", list)
            if len(p_min) != len(specs) or len(p_max) != len(specs):
                raise ParseError("bounds", "bound vectors must match transmitter count")
            bounds = (tuple(float(v) for v in p_min),
                      tuple(float(v) for v in p_max))
        elif not all(t.power is not None for t in specs):
            raise ParseError("transmitters", "sinr model needs powers or bounds")

    sampling = None
    if "sampling" in raw:
        sobj = _need(raw, "sampling", "", dict)
        kind = _need(sobj, "kind", "sampling.", str)
        try:
            if kind == "grid":
                dims = _need(sobj, "grid_dims", "sampling.", list)
                sampling = SamplingPlan.grid(int(dims[0]), int(dims[1]))
            elif kind == "random":
                sampling = SamplingPlan.random(
                    int(_num(sobj, "sample_count", "sampling.")),
                    seed=_int(sobj, "seed", "sampling.") if "seed" in sobj else 0)
            else:
                raise ParseError("sampling.kind", f"unknown kind {kind!r}")
        except (ValueError, IndexError, TypeError) as e:
            raise ParseError("sampling", str(e))
    seed = _int(raw, "seed", "") if "seed" in raw else None
    return ScenarioFile(model=model, window=window, transmitters=tuple(specs),
                        alpha=alpha, beta=beta, noise=noise, bounds=bounds,
                        sampling=sampling, seed=seed)


# ---------------------------------------------------------------------------
# SVG rendering
# ---------------------------------------------------------------------------

_PALETTE = ["#4e79a7", "#f28e2b", "#59a14f", "#e15759", "#76b7b2", "#edc948",
            "#b07aa1", "#ff9da7", "#9c755f", "#bab0ac"]


def _fmt(v: float) -> str:
    return f"{v:.6f}"


class _Canvas:
    def __init__(self, window: Rect, pixels: float = 640.0):
        m = 0.05 * max(window.width, window.height)
        self.x0 = window.x0 - m
        self.y1 = window.y1 + m
        self.scale = pixels / max(window.width + 2 * m, window.height + 2 * m)
        self.w = (window.width + 2 * m) * self.scale
        self.h = (window.height + 2 * m) * self.scale

    def pt(self, x: float, y: float) -> tuple[float, float]:
        return ((x - self.x0) * self.scale, (self.y1 - y) * self.scale)

    def fmt_pt(self, x: float, y: float) -> str:
        px, py = self.pt(x, y)
        return f"{_fmt(px)},{_fmt(py)}"


def _svg_header(c: _Canvas) -> str:
    return (f'<svg xmlns="http://www.w3.org/2000/svg" '
            f'width="{_fmt(c.w)}" height="{_fmt(c.h)}" '
            f'viewBox="0 0 {_fmt(c.w)} {_fmt(c.h)}">\n')


def _circle_svg(c: _Canvas, d: Disk, style: str) -> str:
    px, py = c.pt(d.center.x, d.center.y)
    return (f'<circle cx="{_fmt(px)}" cy="{_fmt(py)}" '
            f'r="{_fmt(d.radius * c.scale)}" {style}/>\n')


def _arc_cmd(c: _Canvas, e: CircularArc) -> str:
    r = e.supporting_disk.radius * c.scale
    sweep = e.sweep()
    # split sweeps over half a turn so endpoints determine the arc
    parts = []
    n_parts = max(1, math.ceil(abs(sweep) / (0.75 * math.pi)))
    a = e.start_angle
    step = sweep / n_parts
    for _ in range(n_parts):
        a2 = a + step
        p = e.supporting_disk.point_at(a2)
        px, py = c.pt(p.x, p.y)
        # screen y grows downward, so a ccw sweep renders with flag 1
        flag = 1 if step > 0 else 0
        parts.append(f"A {_fmt(r)} {_fmt(r)} 0 0 {flag} {_fmt(px)} {_fmt(py)}")
        a = a2
    return " ".join(parts)


def _region_path(c: _Canvas, ap: ArcPolygon, color: str) -> str:
    def chain_d(chain: ArcPolygon) -> str:
        first = chain.edges[0].start_point
        px, py = c.pt(first.x, first.y)
        parts = [f"M {_fmt(px)} {_fmt(py)}"]
        for e in chain.edges:
            if isinstance(e, Segment):
                qx, qy = c.pt(e.end.x, e.end.y)
                parts.append(f"L {_fmt(qx)} {_fmt(qy)}")
            else:
                parts.append(_arc_cmd(c, e))
        parts.append("Z")
        return " ".join(parts)

    d = " ".join([chain_d(ap)] + [chain_d(h) for h in ap.holes])
    return (f'<path d="{d}" fill="{color}" fill-opacity="0.45" '
            f'fill-rule="evenodd" stroke="none"/>\n')


def render_svg(artifact) -> str:
    """Deterministic SVG for a power diagram, a coverage map, or a capture
    raster.  Interference disks solid, transmission disks dotted, diagram
    edges dashed, frame edges solid, regions shaded."""
    if isinstance(artifact, CoverageMap):
        return _render_coverage(artifact)
    if isinstance(artifact, PowerDiagram):
        return _render_diagram(artifact)
    if isinstance(artifact, CaptureRaster):
        return _render_capture(artifact)
    raise TypeError(f"cannot render {type(artifact).__name__}")


def _render_diagram(pd: PowerDiagram) -> str:
    c = _Canvas(pd.window)
    out = [_svg_header(c)]
    out.append(f'<rect x="0" y="0" width="{_fmt(c.w)}" height="{_fmt(c.h)}" '
               f'fill="white"/>\n')
    for sid in sorted(pd.cells):
        cell = pd.cells[sid]
        if cell is None:
            continue
        pts = " ".join(c.fmt_pt(p.x, p.y) for p in cell.vertices)
        out.append(f'<polygon points="{pts}" fill="none" stroke="#444444" '
                   f'stroke-width="1" stroke-dasharray="6,4"/>\n')
    for sid, d in enumerate(pd.sites):
        color = _PALETTE[sid % len(_PALETTE)]
        out.append(_circle_svg(c, d, f'fill="none" stroke="{color}" stroke-width="1.5"'))
        px, py = c.pt(d.center.x, d.center.y)
        out.append(f'<circle cx="{_fmt(px)}" cy="{_fmt(py)}" r="2.5" fill="{color}"/>\n')
    out.append("</svg>\n")
    return "".join(out)


def _render_coverage(cov: CoverageMap) -> str:
    pd = cov.diagram
    c = _Canvas(pd.window)
    out = [_svg_header(c)]
    out.append(f'<rect x="0" y="0" width="{_fmt(c.w)}" height="{_fmt(c.h)}" '
               f'fill="white"/>\n')
    # shaded regions first, then structure lines on top
    for sid in sorted(cov.regions):
        color = _PALETTE[sid % len(_PALETTE)]
        for ap in cov.regions[sid]:
            out.append(_region_path(c, ap, color))
    for sid in sorted(pd.cells):
        cell = pd.cells[sid]
        if cell is None:
            continue
        pts = " ".join(c.fmt_pt(p.x, p.y) for p in cell.vertices)
        out.append(f'<polygon points="{pts}" fill="none" stroke="#555555" '
                   f'stroke-width="1" stroke-dasharray="6,4"/>\n')
        for piece in power_frame(pd, sid).partitions.values():
            pts = " ".join(c.fmt_pt(p.x, p.y) for p in piece.vertices)
            out.append(f'<polygon points="{pts}" fill="none" stroke="#999999" '
                       f'stroke-width="0.6"/>\n')
    for sid, t in enumerate(cov.transmitters):
        color = _PALETTE[sid % len(_PALETTE)]
        out.append(_circle_svg(c, t.int_disk,
                               f'fill="none" stroke="{color}" stroke-width="1.5"'))
        out.append(_circle_svg(c, t.tx_disk,
                               f'fill="none" stroke="{color}" stroke-width="1.2" '
                               f'stroke-dasharray="1.5,2.5"'))
        px, py = c.pt(t.location.x, t.location.y)
        out.append(f'<circle cx="{_fmt(px)}" cy="{_fmt(py)}" r="2.5" fill="{color}"/>\n')
    out.append("</svg>\n")
    return "".join(out)


@dataclass(frozen=True)
class CaptureRaster:
    """Capture-transmitter ids over a window raster, for rendering."""
    window: Rect
    ids: tuple[tuple[int, ...], ...]  # row-major, ids[row][col]


def _render_capture(cr: CaptureRaster) -> str:
    c = _Canvas(cr.window)
    ny = len(cr.ids)
    nx = len(cr.ids[0])
    cw = cr.window.width / nx
    ch = cr.window.height / ny
    out = [_svg_header(c)]
    for j in range(ny):
        for i in range(nx):
            sid = cr.ids[j][i]
            color = _PALETTE[sid % len(_PALETTE)]
            x = cr.window.x0 + i * cw
            y = cr.window.y0 + (j + 1) * ch
            px, py = c.pt(x, y)
            out.append(f'<rect x="{_fmt(px)}" y="{_fmt(py)}" '
                       f'width="{_fmt(cw * c.scale)}" height="{_fmt(ch * c.scale)}" '
                       f'fill="{color}" fill-opacity="0.7"/>\n')
    out.append("</svg>\n")
    return "".join(out)


# ---------------------------------------------------------------------------
# manifests and output plumbing
# ---------------------------------------------------------------------------

@dataclass
class RunManifest:
    command: str
    input_hash: Optional[str]
    seed: Optional[int]
    parameters: dict
    tool_version: str = __version__
    wall_time: float = 0.0

    def to_dict(self) -> dict:
        return {"command": self.command, "input_hash": self.input_hash,
                "seed": self.seed, "parameters": self.parameters,
                "tool_version": self.tool_version, "wall_time": self.wall_time}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n",
                    encoding="utf-8")


def _write_outputs(out: Optional[str], default_stem: str, result: dict,
                   manifest: RunManifest) -> None:
    path = Path(out) if out else Path(default_stem + ".result.json")
    _write_json(path, result)
    if str(path).endswith(".result.json"):
        mpath = Path(str(path)[:-len(".result.json")] + ".manifest.json")
    else:
        mpath = Path(str(path) + ".manifest.json")
    _write_json(mpath, manifest.to_dict())
    print(f"wrote {path}")


def _write_trace_csv(path: Path, trace: list[tuple[int, float]]) -> None:
    with path.open("w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(["evaluation", "best_area"])
        for i, a in trace:
            w.writerow([i, f"{a:.10g}"])


# ---------------------------------------------------------------------------
# CLI commands
# ---------------------------------------------------------------------------

def _load_scenario(path: str) -> tuple[ScenarioFile, str]:
    data = Path(path).read_bytes()
    return parse_scenario(data), _sha256(data)


def _cmd_build_map(args) -> int:
    scen, digest = _load_scenario(args.scenario)
    if scen.model != "protocol":
        raise ModelError("build-map needs a protocol-model scenario")
    t0 = time.perf_counter()
    try:
        cov = compute_coverage_map(scen.protocol_transmitters(), scen.window)
    except DuplicateSite as e:
        raise ParseError("transmitters", str(e))
    bound = find_interference_bound(cov)
    result = {
        "total_area": coverage_area(cov),
        "region_areas": {str(p): region_area(cov, p) for p in sorted(cov.regions)},
        "removed_sites": sorted(cov.diagram.hidden),
        "total_arcs": cov.total_arcs(),
        "interference_bound_site": bound,
    }
    manifest = RunManifest("build-map", digest, scen.seed, {},
                           wall_time=time.perf_counter() - t0)
    _write_outputs(args.out, Path(args.scenario).stem, result, manifest)
    if args.svg:
        Path(args.svg).write_text(render_svg(cov), encoding="utf-8")
        print(f"wrote {args.svg}")
    print(f"covered area {result['total_area']:.6g} over {len(cov.regions)} sites")
    return 0


def _cmd_dynamic(args) -> int:
    raw = json.loads(Path(args.script).read_bytes())
    if not isinstance(raw, dict):
        raise ParseError("<file>", "top level must be an object")
    wobj = _need(raw, "window", "", dict)
    window = Rect(*(_num(wobj, k, "window.") for k in ("x0", "y0", "x1", "y1")))
    seed = _int(raw, "seed", "") if "seed" in raw else 0
    dc = DynamicCoverage(window, seed=seed)
    t0 = time.perf_counter()
    reports = []
    for k, op in enumerate(raw.get("ops", [])):
        path = f"ops[{k}]."
        if not isinstance(op, dict):
            raise ParseError(f"ops[{k}]", "expected an object")
        kind = op.get("op")
        if kind == "insert":
            t = ProtocolTransmitter(Point2(_num(op, "x", path), _num(op, "y", path)),
                                    _num(op, "tx_radius", path),
                                    _num(op, "int_radius", path))
            try:
                rep = dc.insert_transmitter(t)
            except DuplicateSite as e:
                raise ParseError(f"ops[{k}]", str(e))
        elif kind == "delete":
            rep = dc.delete_transmitter(_int(op, "site", path))
        else:
            raise ParseError(f"ops[{k}].op", f"unknown op {kind!r}")
        reports.append(rep.to_dict())
    areas = dc.region_areas()
    result = {"reports": reports,
              "final_region_areas": {str(k): v for k, v in sorted(areas.items())},
              "hidden": {str(k): v for k, v in sorted(dc.hidden.items())}}
    manifest = RunManifest("dynamic", _sha256(Path(args.script).read_bytes()),
                           seed, {"ops": len(reports)},
                           wall_time=time.perf_counter() - t0)
    _write_outputs(args.out, Path(args.script).stem, result, manifest)
    print(f"ran {len(reports)} updates; {len(dc.cells)} visible sites")
    return 0


def _cmd_estimate_area(args) -> int:
    scen, digest = _load_scenario(args.scenario)
    if scen.model != "sinr":
        raise ModelError("estimate-area needs a sinr-model scenario")
    s = scen.sinr_scenario()
    plan = scen.sampling_or_default()
    t0 = time.perf_counter()
    area = estimate_area(s, s.powers, plan)
    result = {"estimated_area": area,
              "plan": {"kind": plan.kind,
                       "grid_dims": list(plan.grid_dims) if plan.grid_dims else None,
                       "sample_count": plan.sample_count, "seed": plan.seed}}
    manifest = RunManifest("estimate-area", digest, scen.seed, {},
                           wall_time=time.perf_counter() - t0)
    _write_outputs(args.out, Path(args.scenario).stem, result, manifest)
    print(f"estimated covered fraction {area:.6g}")
    return 0


def _cmd_optimize(args) -> int:
    scen, digest = _load_scenario(args.scenario)
    if scen.model != "sinr":
        raise ModelError("optimize needs a sinr-model scenario")
    bounds = scen.bounds_or_default()
    plan = scen.sampling_or_default()
    base = scen.sinr_scenario([0.0] * len(scen.transmitters))
    seed = args.seed if args.seed is not None else (scen.seed or 0)
    t0 = time.perf_counter()
    if args.method == "exhaustive":
        res = exhaustive_search(base, bounds, args.levels, plan, budget=args.budget)
    elif args.method == "rhc":
        res = random_hill_climb(base, bounds, RhcParams.defaults(base.alpha),
                                plan, seed)
    else:
        res = nelder_mead(lambda p: estimate_area(base, p, plan), bounds,
                          restarts=args.restarts, seed=seed)
    if args.post_process:
        res = post_process(base, res.best_power, bounds.p_min, plan)
    result = res.to_dict()
    manifest = RunManifest(f"optimize-{args.method}", digest, seed,
                           {"levels": args.levels, "restarts": args.restarts,
                            "post_process": bool(args.post_process)},
                           wall_time=time.perf_counter() - t0)
    _write_outputs(args.out, Path(args.scenario).stem, result, manifest)
    if args.trace:
        _write_trace_csv(Path(args.trace), res.trace)
        print(f"wrote {args.trace}")
    print(f"{args.method}: best area {res.best_area:.6g} "
          f"with total power {res.total_power:.6g} "
          f"({res.evaluations} evaluations)")
    return 0


def _cmd_sweep_power(args) -> int:
    scen, digest = _load_scenario(args.scenario)
    if scen.model != "sinr":
        raise ModelError("sweep-power needs a sinr-model scenario")
    bounds = scen.bounds_or_default()
    plan = scen.sampling_or_default()
    base = scen.sinr_scenario([0.0] * len(scen.transmitters))
    t0 = time.perf_counter()
    curve = sweep_power(base, bounds, args.levels, plan)
    result = {"curve": [[p, a] for p, a in curve]}
    manifest = RunManifest("sweep-power", digest, scen.seed,
                           {"levels": args.levels},
                           wall_time=time.perf_counter() - t0)
    _write_outputs(args.out, Path(args.scenario).stem, result, manifest)
    if args.csv:
        with Path(args.csv).open("w", newline="", encoding="utf-8") as fh:
            w = csv.writer(fh)
            w.writerow(["total_power", "estimated_area"])
            for p, a in curve:
                w.writerow([f"{p:.10g}", f"{a:.10g}"])
        print(f"wrote {args.csv}")
    best = max(a for _, a in curve)
    print(f"swept {args.levels} levels; peak area {best:.6g}")
    return 0


def _cmd_render(args) -> int:
    scen, _ = _load_scenario(args.scenario)
    if scen.model == "protocol":
        if args.capture_grid:
            raise ModelError("capture rasters need a sinr-model scenario")
        cov = compute_coverage_map(scen.protocol_transmitters(), scen.window)
        svg = render_svg(cov)
    else:
        s = scen.sinr_scenario()
        n = args.capture_grid or 64
        grid = capture_grid(s, n, n)
        cr = CaptureRaster(scen.window,
                           tuple(tuple(int(v) for v in row) for row in grid))
        svg = render_svg(cr)
    Path(args.svg).write_text(svg, encoding="utf-8")
    print(f"wrote {args.svg}")
    return 0


def _cmd_sample_size(args) -> int:
    n = required_samples(args.epsilon, args.delta, args.c_lower)
    if args.grid:
        n = grid_rule_samples(args.epsilon, args.delta, args.c_lower)
    print(n)
    return 0


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="coveragekit",
                                 description="Interference-limited wireless "
                                             "coverage maps and optimization")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build-map", help="static protocol-model coverage map")
    p.add_argument("scenario")
    p.add_argument("--out")
    p.add_argument("--svg")
    p.set_defaults(fn=_cmd_build_map)

    p = sub.add_parser("dynamic", help="run an insert/delete script")
    p.add_argument("script")
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_dynamic)

    p = sub.add_parser("estimate-area", help="estimate SINR coverage area")
    p.add_argument("scenario")
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_estimate_area)

    p = sub.add_parser("optimize", help="optimize transmit powers")
    p.add_argument("method", choices=["rhc", "nm", "exhaustive"])
    p.add_argument("scenario")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--levels", type=int, default=5)
    p.add_argument("--restarts", type=int, default=10)
    p.add_argument("--budget", type=int, default=10 ** 6)
    p.add_argument("--post-process", action="store_true")
    p.add_argument("--out")
    p.add_argument("--trace")
    p.set_defaults(fn=_cmd_optimize)

    p = sub.add_parser("sweep-power", help="coverage along a uniform power ramp")
    p.add_argument("scenario")
    p.add_argument("--levels", type=int, default=20)
    p.add_argument("--csv")
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_sweep_power)

    p = sub.add_parser("render", help="render a scenario to SVG")
    p.add_argument("scenario")
    p.add_argument("--svg", required=True)
    p.add_argument("--capture-grid", type=int, default=0)
    p.set_defaults(fn=_cmd_render)

    p = sub.add_parser("sample-size", help="Chernoff sample-count bound")
    p.add_argument("--epsilon", type=float, required=True)
    p.add_argument("--delta", type=float, required=True)
    p.add_argument("--c-lower", type=float, default=1.0)
    p.add_argument("--grid", action="store_true")
    p.set_defaults(fn=_cmd_sample_size)
    return ap


def cli(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point: 0 on success, 2 on input errors, 3 on budget errors."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        return args.fn(args)
    except BudgetExceeded as e:
        print(f"error: {e}", file=sys.stderr)
        return 3
    except (ParseError, ModelError, FileNotFoundError, ValueError, KeyError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(cli())


if __name__ == "__main__":
    main()
