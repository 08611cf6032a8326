"""Scenario files, result serialization, SVG rendering, and the CLI.

Scenario files are JSON: a ``model`` ("protocol" or "sinr"), a ``window``
rectangle, a ``transmitters`` list (radii for the protocol model, powers for
SINR), and, for SINR, ``alpha``/``beta``/``noise`` plus optional ``bounds``
and ``sampling`` blocks, parsed straight into the engines' types; a refusal
names the field it refuses.  Results are JSON, traces are CSV, drawings SVG.

Every run also writes a manifest (command, input hash, seed, parameters,
version, wall time, and any per-operation timings and counters) next to the
result file; results themselves contain no timing, so re-running with the
same seed reproduces them byte for byte.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import json
import math
import os
import sys
import time
from dataclasses import asdict, dataclass, field
from itertools import islice
from pathlib import Path
from typing import Iterable, Iterator, Optional, Sequence

from . import __version__
from .errors import (BudgetExceeded, CoverageKitError, DuplicateSite, InvalidArgument,
                     ModelError, ParseError)
from .geometry import (FRAME_BLOCK, ArcPolygon, CircularArc, Disk, Point2, Rect, Segment,
                       arc_polygon_area)
from .optimizer import (MAX_SAMPLE_PAIRS, Bounds, RhcParams, SamplingPlan,
                        estimate_area, exhaustive_search, grid_rule_samples,
                        nelder_mead, objective, post_process, random_hill_climb,
                        required_samples, sweep_power)
from .power_diagram import PowerDiagram, frame_partitions
from .protocol_coverage import (CoverageMap, ProtocolTransmitter,
                                compute_coverage_map, find_interference_bound)
from .sinr_model import PowerVector, SinrScenario, capture_grid
from .dynamic_coverage import DynamicCoverage


@dataclass(frozen=True)
class ScenarioFile:
    """A scenario file as the engines' own types, built once by
    ``parse_scenario``: protocol ``transmitters``, or a ``sinr`` scenario
    with ``bounds`` (0..100 unless given); ``sampling`` is a 40x40 grid
    unless given.  A SINR transmitter without power is at 0 in ``sinr``,
    and ``unpowered`` names the first such field."""
    model: str
    window: Rect
    transmitters: tuple[ProtocolTransmitter, ...] = ()
    sinr: Optional[SinrScenario] = None
    unpowered: Optional[str] = None
    bounds: Optional[Bounds] = None
    sampling: SamplingPlan = SamplingPlan.grid(40, 40)
    seed: Optional[int] = None

    def coverage_map(self) -> CoverageMap:
        """The protocol-model map; the admission's refusals name ``transmitters``."""
        with _field("transmitters"):
            return compute_coverage_map(self.transmitters, self.window)

    def powered(self) -> SinrScenario:
        """``sinr``, for the commands that evaluate the file's own powers."""
        if self.unpowered:
            raise ParseError(self.unpowered, "missing required field")
        return self.sinr


@contextlib.contextmanager
def _field(path: str) -> Iterator[None]:
    """Report a refusal of what the body builds as a ParseError at ``path``,
    or at the file's field for the argument an ``InvalidArgument`` names
    (SinrScenario's ``sites`` and ``powers`` are ``transmitters``): the one
    place where the engine types' ValueErrors and the admission's
    ``DuplicateSite`` become input errors."""
    try:
        yield
    except (ValueError, DuplicateSite) as e:
        if isinstance(e, InvalidArgument):
            path = "transmitters" if e.name in ("sites", "powers") else e.name
        raise ParseError(path, str(e)) from None


def _need(obj: dict, key: str, path: str, kind=None):
    if key not in obj:
        raise ParseError(f"{path}{key}", "missing required field")
    v = obj[key]
    if kind is not None and not isinstance(v, kind):
        raise ParseError(f"{path}{key}", f"expected {kind}, got {type(v).__name__}")
    return v


def _object(v, path: str) -> dict:
    if not isinstance(v, dict):
        raise ParseError(path, "expected an object")
    return v


# Largest accepted magnitude: squares and products of two inputs stay finite.
_MAX_NUMBER = 1e100


def _number(v, field: str) -> float:
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise ParseError(field, "expected a number")
    if not abs(v) <= _MAX_NUMBER:  # also NaN and Infinity, which json reads
        raise ParseError(field, f"expected a finite number of magnitude at most {_MAX_NUMBER:g}")
    return float(v)


def _num(obj: dict, key: str, path: str) -> float:
    return _number(_need(obj, key, path), f"{path}{key}")


def _integer(v, field: str) -> int:
    if isinstance(v, float) and v.is_integer():
        v = int(v)
    if isinstance(v, bool) or not isinstance(v, int):
        raise ParseError(field, "expected an integer")
    return v


def _int(obj: dict, key: str, path: str) -> int:
    return _integer(_need(obj, key, path), f"{path}{key}")


def _json_object(data: bytes | str) -> dict:
    """The top-level JSON object of an input file."""
    if isinstance(data, bytes):
        try:
            data = data.decode("utf-8")
        except UnicodeDecodeError as e:
            raise ParseError("<file>", f"not UTF-8: {e}")
    try:
        raw = json.loads(data)
    except json.JSONDecodeError as e:
        raise ParseError("<file>", f"invalid JSON: {e}")
    return _object(raw, "<file>")


def _window(raw: dict) -> Rect:
    wobj = _need(raw, "window", "", dict)
    wvals = {k: _num(wobj, k, "window.") for k in ("x0", "y0", "x1", "y1")}
    with _field("window"):
        return Rect(**wvals)


def _transmitter(t: dict, path: str) -> ProtocolTransmitter:
    """The protocol-model transmitter of object ``t`` at ``path``, a scenario
    file's ``transmitters[i]`` or a ``dynamic`` insert's ``ops[k]``."""
    x, y, tx_radius, int_radius = (_num(t, k, f"{path}.")
                                   for k in ("x", "y", "tx_radius", "int_radius"))
    with _field(path):
        return ProtocolTransmitter(Point2(x, y), tx_radius, int_radius)


def _bounds(raw: dict, n: int) -> Bounds:
    bobj = _need(raw, "bounds", "", dict)
    vectors = {k: _need(bobj, k, "bounds.", list) for k in ("p_min", "p_max")}
    if any(len(vals) != n for vals in vectors.values()):
        raise ParseError("bounds", "bound vectors must match transmitter count")
    with _field("bounds"):
        return Bounds(*(PowerVector.of([_number(v, f"bounds.{k}[{i}]") for i, v in enumerate(vals)])
                        for k, vals in vectors.items()))


def _sampling(raw: dict) -> SamplingPlan:
    sobj = _need(raw, "sampling", "", dict)
    kind = _need(sobj, "kind", "sampling.", str)
    with _field("sampling"):
        if kind == "grid":
            dims = _need(sobj, "grid_dims", "sampling.", list)
            if len(dims) != 2:
                raise ParseError("sampling.grid_dims", "expected two integers")
            return SamplingPlan.grid(*(_integer(v, f"sampling.grid_dims[{i}]")
                                       for i, v in enumerate(dims)))
        if kind == "random":
            return SamplingPlan.random(
                _int(sobj, "sample_count", "sampling."),
                seed=_int(sobj, "seed", "sampling.") if "seed" in sobj else 0)
        return SamplingPlan(kind)  # which refuses the unknown kind


def parse_scenario(data: bytes | str) -> ScenarioFile:
    """Parse a scenario into the engines' types; errors carry the offending
    field path."""
    raw = _json_object(data)
    model = _need(raw, "model", "", str)
    if model not in ("protocol", "sinr"):
        raise ParseError("model", f"unknown model {model!r}")
    window = _window(raw)
    txs = [_object(t, f"transmitters[{i}]")
           for i, t in enumerate(_need(raw, "transmitters", "", list))]
    if model == "protocol":
        parts = {"transmitters": tuple(_transmitter(t, f"transmitters[{i}]")
                                       for i, t in enumerate(txs))}
    else:
        sites, powers = [], []
        for i, t in enumerate(txs):
            path = f"transmitters[{i}]."
            sites.append(Point2(_num(t, "x", path), _num(t, "y", path)))
            powers.append(_num(t, "power", path) if "power" in t else None)
        alpha, beta, noise = (_num(raw, k, "") for k in ("alpha", "beta", "noise"))
        unpowered = next((f"transmitters[{i}].power"
                          for i, p in enumerate(powers) if p is None), None)
        if "bounds" in raw:
            bounds = _bounds(raw, len(txs))
        elif unpowered:
            raise ParseError("transmitters", "sinr model needs powers or bounds")
        else:
            bounds = Bounds.uniform(len(txs), 0.0, 100.0)
        with _field("transmitters"):
            vector = PowerVector.of(0.0 if p is None else p for p in powers)
            sinr = SinrScenario(tuple(sites), vector, alpha, beta, noise, window)
        parts = {"sinr": sinr, "unpowered": unpowered, "bounds": bounds}
    if "sampling" in raw:
        parts["sampling"] = _sampling(raw)
    seed = _int(raw, "seed", "") if "seed" in raw else None
    return ScenarioFile(model, window, seed=seed, **parts)


# ---------------------------------------------------------------------------
# SVG rendering
# ---------------------------------------------------------------------------

_PALETTE = ["#4e79a7", "#f28e2b", "#59a14f", "#e15759", "#76b7b2", "#edc948",
            "#b07aa1", "#ff9da7", "#9c755f", "#bab0ac"]


def _fmt(v: float) -> str:
    return f"{v:.6f}"


_fmt_xy = "{:.6f},{:.6f}".format  # a point's two ``_fmt`` strings


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
        return _fmt_xy(*self.pt(x, y))


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
    """Deterministic SVG for a coverage map or a capture raster.  A map's
    interference disks solid, transmission disks dotted, cell edges dashed,
    frame edges solid, regions shaded; a raster's cells shaded by their
    capturing transmitter."""
    return "".join(_svg_parts(artifact, {}))


def _svg_parts(artifact, stats: dict) -> Iterator[str]:
    """``render_svg``'s text in parts, each drawn when it is taken.  A
    coverage map adds its frame counters to ``stats``."""
    if isinstance(artifact, CoverageMap):
        return _render_coverage(artifact, stats)
    if isinstance(artifact, CaptureRaster):
        return _render_capture(artifact)
    raise TypeError(f"cannot render {type(artifact).__name__}")


def _render_coverage(cov: CoverageMap, stats: dict) -> Iterator[str]:
    pd = cov.diagram
    c = _Canvas(pd.window)
    yield _svg_header(c)
    yield (f'<rect x="0" y="0" width="{_fmt(c.w)}" height="{_fmt(c.h)}" '
           f'fill="white"/>\n')
    # shaded regions first, then structure lines on top
    for sid in sorted(cov.regions):
        color = _PALETTE[sid % len(_PALETTE)]
        for ap in cov.regions[sid]:
            yield _region_path(c, ap, color)
    yield from _cells_and_frames(c, pd, stats)
    for sid, t in enumerate(cov.transmitters):
        color = _PALETTE[sid % len(_PALETTE)]
        yield _circle_svg(c, t.int_disk, f'fill="none" stroke="{color}" stroke-width="1.5"')
        yield _circle_svg(c, t.tx_disk, f'fill="none" stroke="{color}" stroke-width="1.2" '
                                        f'stroke-dasharray="1.5,2.5"')
        px, py = c.pt(t.location.x, t.location.y)
        yield f'<circle cx="{_fmt(px)}" cy="{_fmt(py)}" r="2.5" fill="{color}"/>\n'
    yield "</svg>\n"


def _cells_and_frames(c: _Canvas, pd: PowerDiagram, stats: dict) -> Iterator[str]:
    """Each cell's outline, then its frame pieces, row (p, q) for q
    ascending.  The frames are made ``FRAME_BLOCK`` owners at a time, and
    each block is formatted from its floats before the next is made; the
    blocks' row, cut and empty-piece counts are summed into ``stats``."""
    owners = [p for p in sorted(pd.cells) if pd.cells[p] is not None]
    stats.update(frame_rows=0, frame_cuts=0, frame_cuts_unchanged=0, frame_pieces_empty=0)
    for lo in range(0, len(owners), FRAME_BLOCK):
        block = owners[lo:lo + FRAME_BLOCK]
        frames = frame_partitions(pd, block)
        sizes = frames.sizes.tolist()
        stats["frame_rows"] += len(sizes)
        stats["frame_cuts"] += frames.cuts
        stats["frame_cuts_unchanged"] += frames.unchanged
        stats["frame_pieces_empty"] += sizes.count(0)
        pts = map(_fmt_xy, *(v.tolist() for v in c.pt(*frames.xy.T)))
        sizes = iter(sizes)
        for sid in block:
            cpts = " ".join(c.fmt_pt(p.x, p.y) for p in pd.cells[sid].vertices)
            yield (f'<polygon points="{cpts}" fill="none" stroke="#555555" '
                   f'stroke-width="1" stroke-dasharray="6,4"/>\n')
            for size in islice(sizes, len(pd.neighbors[sid])):
                if size:
                    yield (f'<polygon points="{" ".join(islice(pts, size))}" fill="none" '
                           f'stroke="#999999" stroke-width="0.6"/>\n')


@dataclass(frozen=True)
class CaptureRaster:
    """Capture-transmitter ids over a window raster, for rendering."""
    window: Rect
    ids: tuple[tuple[int, ...], ...]  # row-major, ids[row][col]


def _render_capture(cr: CaptureRaster) -> Iterator[str]:
    c = _Canvas(cr.window)
    ny = len(cr.ids)
    nx = len(cr.ids[0])
    cw = cr.window.width / nx
    ch = cr.window.height / ny
    yield _svg_header(c)
    for j in range(ny):
        for i in range(nx):
            sid = cr.ids[j][i]
            color = _PALETTE[sid % len(_PALETTE)]
            x = cr.window.x0 + i * cw
            y = cr.window.y0 + (j + 1) * ch
            px, py = c.pt(x, y)
            yield (f'<rect x="{_fmt(px)}" y="{_fmt(py)}" '
                   f'width="{_fmt(cw * c.scale)}" height="{_fmt(ch * c.scale)}" '
                   f'fill="{color}" fill-opacity="0.7"/>\n')
    yield "</svg>\n"


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
    stats: dict = field(default_factory=dict)  # per-operation timings, counters

    def to_dict(self) -> dict:
        return {"command": self.command, "input_hash": self.input_hash,
                "seed": self.seed, "parameters": self.parameters,
                "tool_version": self.tool_version, "wall_time": self.wall_time,
                "stats": self.stats}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n",
                    encoding="utf-8")


def _output_paths(out: Optional[str], default_stem: str) -> tuple[Path, Path]:
    """The result file and its manifest beside it."""
    path = Path(out) if out else Path(default_stem + ".result.json")
    if str(path).endswith(".result.json"):
        return path, Path(str(path)[:-len(".result.json")] + ".manifest.json")
    return path, Path(str(path) + ".manifest.json")


def _write_outputs(out: Optional[str], default_stem: str, result: dict,
                   manifest: RunManifest) -> None:
    path, mpath = _output_paths(out, default_stem)
    _write_json(path, result)
    _write_json(mpath, manifest.to_dict())
    print(f"wrote {path}")


_SVG_BLOCK = 2048  # SVG parts joined per write: bounds the text held at once


@contextlib.contextmanager
def _svg_file(path: str, parts: Iterator[str]) -> Iterator[None]:
    """Draw ``parts`` into a temporary file beside ``path``, writing them in
    joined blocks; after the body, move it onto ``path``.  If the drawing or
    the body fails, the temporary file is removed and ``path`` is untouched."""
    target = Path(path).resolve()
    tmp = target.with_name(f".{target.name}.{os.getpid()}.tmp")
    try:
        with tmp.open("w", encoding="utf-8") as fh:
            while block := list(islice(parts, _SVG_BLOCK)):
                fh.write("".join(block))
        yield
        os.replace(tmp, target)
    finally:
        tmp.unlink(missing_ok=True)
    print(f"wrote {path}")


def _write_csv(path: str, header: list[str], rows: Iterable[Sequence]) -> None:
    with Path(path).open("w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)
    print(f"wrote {path}")


def _refuse_output_path(args, option: str, path: Optional[str]) -> None:
    """Refuse a ``path`` for ``option`` that is the run's own result or
    manifest path, which writing it would replace; called before any work."""
    outputs = _output_paths(args.out, Path(args.scenario).stem)
    if path and Path(path).resolve() in [p.resolve() for p in outputs]:
        raise ParseError(option, f"{path} is the result or the manifest path")


# ---------------------------------------------------------------------------
# CLI commands
# ---------------------------------------------------------------------------

def _load_scenario(args, model: Optional[str] = None) -> tuple[ScenarioFile, str]:
    """The command's scenario and its digest; a command that computes one
    ``model`` refuses the other."""
    data = Path(args.scenario).read_bytes()
    scen = parse_scenario(data)
    if model and scen.model != model:
        raise ModelError(f"{args.command} needs a {model}-model scenario")
    return scen, _sha256(data)


def _cmd_build_map(args) -> int:
    _refuse_output_path(args, "--svg", args.svg)
    scen, digest = _load_scenario(args, "protocol")
    t0 = time.perf_counter()
    cov = scen.coverage_map()
    bound = find_interference_bound(cov)
    # each chain integrated once, summed in coverage_area's and region_area's order
    areas = {p: [arc_polygon_area(ap) for ap in chains] for p, chains in cov.regions.items()}
    result = {
        "total_area": sum(a for chain_areas in areas.values() for a in chain_areas),
        "region_areas": {str(p): sum(areas[p]) for p in sorted(areas)},
        "removed_sites": sorted(cov.diagram.hidden),
        "total_arcs": cov.total_arcs(),
        "interference_bound_site": bound,
    }
    manifest = RunManifest("build-map", digest, scen.seed, {},
                           wall_time=time.perf_counter() - t0,
                           stats={"hidden": len(cov.diagram.hidden),
                                  "edges": cov.diagram.edge_count(), **cov.stats})
    # the drawing adds its frame counters to the manifest before it is written
    with (_svg_file(args.svg, _svg_parts(cov, manifest.stats)) if args.svg
          else contextlib.nullcontext()):
        _write_outputs(args.out, Path(args.scenario).stem, result, manifest)
    print(f"covered area {result['total_area']:.6g} over {len(cov.regions)} sites")
    return 0


def _cmd_dynamic(args) -> int:
    data = Path(args.script).read_bytes()
    raw = _json_object(data)
    window = _window(raw)
    seed = _int(raw, "seed", "") if "seed" in raw else 0
    dc = DynamicCoverage(window, seed=seed)
    t0 = time.perf_counter()
    reports = []
    ops = raw.get("ops", [])
    if not isinstance(ops, list):
        raise ParseError("ops", "expected a list")
    for k, op in enumerate(ops):
        path = f"ops[{k}]"
        kind = _object(op, path).get("op")
        if kind == "insert":
            tx = _transmitter(op, path)
            with _field(path):
                rep = dc.insert_transmitter(tx)
        elif kind == "delete":
            site = _int(op, "site", f"{path}.")
            if site not in dc.transmitters:
                raise ParseError(f"{path}.site", f"site {site} not present")
            rep = dc.delete_transmitter(site)
        else:
            raise ParseError(f"{path}.op", f"unknown op {kind!r}")
        reports.append(rep)
    areas = dc.region_areas()
    result = {"reports": [rep.to_dict() for rep in reports],
              "final_region_areas": {str(k): v for k, v in sorted(areas.items())},
              "hidden": {str(k): v for k, v in sorted(dc.hidden.items())}}
    stats = {"op_wall_times": [rep.wall_time for rep in reports],
             "traverse_fallbacks": dc.traverse_fallbacks,
             "revival_tests": dc.revival_tests, "climb_steps": dc.climb_steps}
    manifest = RunManifest("dynamic", _sha256(data),
                           seed, {"ops": len(reports)},
                           wall_time=time.perf_counter() - t0, stats=stats)
    _write_outputs(args.out, Path(args.script).stem, result, manifest)
    print(f"ran {len(reports)} updates; {len(dc.cells)} visible sites")
    return 0


def _cmd_estimate_area(args) -> int:
    scen, digest = _load_scenario(args, "sinr")
    s, plan = scen.powered(), scen.sampling
    t0 = time.perf_counter()
    area = estimate_area(s, s.powers, plan)
    result = {"estimated_area": area, "plan": asdict(plan)}
    manifest = RunManifest("estimate-area", digest, scen.seed, {},
                           wall_time=time.perf_counter() - t0)
    _write_outputs(args.out, Path(args.scenario).stem, result, manifest)
    print(f"estimated covered fraction {area:.6g}")
    return 0


def _cmd_optimize(args) -> int:
    _refuse_output_path(args, "--trace", args.trace)
    scen, digest = _load_scenario(args, "sinr")
    # the searches read the scenario's layout and constants, not its powers
    base, bounds, plan = scen.sinr, scen.bounds, scen.sampling
    seed = args.seed if args.seed is not None else (scen.seed or 0)
    t0 = time.perf_counter()
    if args.method == "exhaustive":
        res = exhaustive_search(base, bounds, args.levels, plan, budget=args.budget)
    elif args.method == "rhc":
        res = random_hill_climb(base, bounds, RhcParams.defaults(base.alpha),
                                plan, seed)
    else:
        res = nelder_mead(objective(base, plan), bounds,
                          restarts=args.restarts, seed=seed)
    stats = {"search": {"calls": res.evaluations, "computed": res.computed}}
    if args.post_process:
        res = post_process(base, res.best_power, bounds.p_min, plan)
        stats["post_process"] = {"calls": res.evaluations, "computed": res.computed}
    result = res.to_dict()
    manifest = RunManifest(f"optimize-{args.method}", digest, seed,
                           {"levels": args.levels, "restarts": args.restarts,
                            "post_process": bool(args.post_process)},
                           wall_time=time.perf_counter() - t0, stats=stats)
    _write_outputs(args.out, Path(args.scenario).stem, result, manifest)
    if args.trace:
        _write_csv(args.trace, ["evaluation", "best_area"],
                   ([i, f"{a:.10g}"] for i, a in res.trace))
    print(f"{args.method}: best area {res.best_area:.6g} "
          f"with total power {res.total_power:.6g} "
          f"({res.evaluations} evaluations)")
    return 0


def _cmd_sweep_power(args) -> int:
    _refuse_output_path(args, "--csv", args.csv)
    scen, digest = _load_scenario(args, "sinr")
    t0 = time.perf_counter()
    curve = sweep_power(scen.sinr, scen.bounds, args.levels, scen.sampling)
    result = {"curve": [[p, a] for p, a in curve]}
    manifest = RunManifest("sweep-power", digest, scen.seed,
                           {"levels": args.levels},
                           wall_time=time.perf_counter() - t0,
                           stats={"calls": len(curve), "computed": len(curve)})
    _write_outputs(args.out, Path(args.scenario).stem, result, manifest)
    if args.csv:
        _write_csv(args.csv, ["total_power", "estimated_area"],
                   ([f"{p:.10g}", f"{a:.10g}"] for p, a in curve))
    best = max(a for _, a in curve)
    print(f"swept {args.levels} levels; peak area {best:.6g}")
    return 0


def _cmd_render(args) -> int:
    n = args.capture_grid
    if n is not None and n < 1:
        raise ParseError("--capture-grid", f"{n} is not a positive raster size")
    scen, _ = _load_scenario(args)
    if scen.model == "protocol":
        if n is not None:
            raise ModelError("capture rasters need a sinr-model scenario")
        artifact = scen.coverage_map()
    else:
        s = scen.powered()
        n = 64 if n is None else n
        if len(s.sites) * n * n > MAX_SAMPLE_PAIRS:
            raise BudgetExceeded(f"{len(s.sites)} sites x {n}x{n} raster cells "
                                 f"exceed {MAX_SAMPLE_PAIRS}")
        grid = capture_grid(s, n, n)
        artifact = CaptureRaster(s.window,
                                 tuple(tuple(int(v) for v in row) for row in grid))
    with _svg_file(args.svg, _svg_parts(artifact, {})):
        pass  # the drawing is the command's only output
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
    p.add_argument("--capture-grid", type=int, default=None)
    p.set_defaults(fn=_cmd_render)

    p = sub.add_parser("sample-size", help="Chernoff sample-count bound")
    p.add_argument("--epsilon", type=float, required=True)
    p.add_argument("--delta", type=float, required=True)
    p.add_argument("--c-lower", type=float, default=1.0)
    p.add_argument("--grid", action="store_true")
    p.set_defaults(fn=_cmd_sample_size)
    return ap


def cli(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point: 0 on success, 3 on budget errors, 2 on input errors and
    every other ``CoverageKitError`` (a diagram the engine rejects too)."""
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
    except (CoverageKitError, OSError, ValueError, KeyError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(cli())


if __name__ == "__main__":
    main()
