"""Scenario parsing, serialization round-trips, SVG output, CLI runs."""

import argparse
import ast
import hashlib
import inspect
import itertools
import json
import math
import os
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from coveragekit.cli_io import (CaptureRaster, ScenarioFile, cli,
                                parse_scenario, render_svg)
from coveragekit.dynamic_coverage import DynamicCoverage
from coveragekit import cli_io, geometry, optimizer, power_diagram, protocol_coverage, sinr_model
from coveragekit.errors import DuplicateSite, ParseError
from coveragekit.geometry import Point2, Rect
from coveragekit.power_diagram import build, frame_partitions
from coveragekit.protocol_coverage import ProtocolTransmitter, compute_coverage_map
from coveragekit.optimizer import Bounds, SamplingPlan
from coveragekit.sinr_model import PowerVector, SinrScenario, capture_grid
from coveragekit.geometry import Disk, boolean_rows
from cli_reference import scenario_to_dict

PROTOCOL_SCENARIO = {
    "model": "protocol",
    "window": {"x0": -5.0, "y0": -5.0, "x1": 5.0, "y1": 5.0},
    "transmitters": [
        {"x": -1.5, "y": 0.0, "tx_radius": 1.0, "int_radius": 1.5},
        {"x": 1.5, "y": 0.0, "tx_radius": 1.0, "int_radius": 1.5},
    ],
}

SINR_SCENARIO = {
    "model": "sinr",
    "window": {"x0": 0.0, "y0": 0.0, "x1": 1.0, "y1": 1.0},
    "alpha": 2.0, "beta": 1.0, "noise": 1e-3,
    "transmitters": [
        {"x": 0.3, "y": 0.5, "power": 2.0},
        {"x": 0.7, "y": 0.5, "power": 2.0},
    ],
    "bounds": {"p_min": [0.0, 0.0], "p_max": [100.0, 100.0]},
    "sampling": {"kind": "grid", "grid_dims": [20, 20]},
    "seed": 7,
}


def refusal(make, *args, **kwargs) -> str:
    """The reason ``make`` gives for refusing its arguments."""
    with pytest.raises(ValueError) as err:
        make(*args, **kwargs)
    return str(err.value)


def test_parse_minimal_protocol():
    scen = parse_scenario(json.dumps(PROTOCOL_SCENARIO))
    assert scen.model == "protocol"
    assert len(scen.transmitters) == 2
    assert scen.transmitters[0] == ProtocolTransmitter(Point2(-1.5, 0.0), 1.0, 1.5)


def test_parse_rejects_tx_over_int():
    bad = json.loads(json.dumps(PROTOCOL_SCENARIO))
    bad["transmitters"][1]["tx_radius"] = 9.0
    with pytest.raises(ParseError) as err:
        parse_scenario(json.dumps(bad))
    assert err.value.path == "transmitters[1]"
    assert err.value.reason == refusal(ProtocolTransmitter, Point2(1.5, 0.0), 9.0, 1.5)


def test_parse_missing_alpha_names_field():
    bad = json.loads(json.dumps(SINR_SCENARIO))
    del bad["alpha"]
    with pytest.raises(ParseError) as err:
        parse_scenario(json.dumps(bad))
    assert err.value.path == "alpha"


def test_parse_bad_json_and_bad_fields():
    with pytest.raises(ParseError):
        parse_scenario(b"{nope")
    bad = json.loads(json.dumps(PROTOCOL_SCENARIO))
    bad["window"]["x1"] = -99.0
    with pytest.raises(ParseError) as err:
        parse_scenario(json.dumps(bad))
    assert "window" in err.value.path


def test_roundtrip_identity():
    for fixture in (PROTOCOL_SCENARIO, SINR_SCENARIO):
        scen = parse_scenario(json.dumps(fixture))
        again = parse_scenario(json.dumps(scenario_to_dict(scen)))
        assert again == scen


def test_sinr_scenario_construction():
    scen = parse_scenario(json.dumps(SINR_SCENARIO))
    s = scen.sinr
    assert s.alpha == 2.0
    assert s.powers.values == (2.0, 2.0)
    assert scen.bounds.p_max.values == (100.0, 100.0)
    assert scen.sampling == SamplingPlan.grid(20, 20)
    # the defaults are resolved while parsing
    plain = {k: v for k, v in SINR_SCENARIO.items() if k not in ("bounds", "sampling")}
    scen = parse_scenario(json.dumps(plain))
    assert scen.bounds == Bounds.uniform(2, 0.0, 100.0)
    assert scen.sampling == SamplingPlan.grid(40, 40)


def test_render_one_transmitter_single_shaded_path():
    cov = compute_coverage_map(
        [ProtocolTransmitter(Point2(0, 0), 1.0, 1.5)], Rect(-5, -5, 5, 5))
    svg = render_svg(cov)
    assert svg.count("<path ") == 1
    assert svg.startswith("<svg ")


def test_render_two_site_diagram_has_dashed_edge():
    # the coverage map draws its diagram's cell outlines dashed
    cov = compute_coverage_map([ProtocolTransmitter(Point2(-2, 0), 0.8, 1.0),
                                ProtocolTransmitter(Point2(2, 0), 0.8, 1.0)], Rect(-5, -5, 5, 5))
    svg = render_svg(cov)
    assert svg.count('stroke-dasharray="6,4"') == 2


def test_render_deterministic_across_reconstruction():
    def make():
        cov = compute_coverage_map(
            [ProtocolTransmitter(Point2(float(i) - 3.0, 0.4 * i), 0.8, 1.2)
             for i in range(8)], Rect(-6, -6, 6, 6))
        return render_svg(cov)

    assert make() == make()


def test_render_capture_raster():
    cr = CaptureRaster(Rect(0, 0, 1, 1), ((0, 1), (1, 0)))
    svg = render_svg(cr)
    assert svg.count("<rect ") == 4


def test_cli_sample_size(capsys):
    assert cli(["sample-size", "--epsilon", "0.15", "--delta", "0.1",
                "--c-lower", "1"]) == 0
    printed = capsys.readouterr().out
    assert printed.strip() == "400"
    # the ``python -m coveragekit`` entry point prints the same
    package_root = Path(cli_io.__file__).resolve().parents[1]
    run = subprocess.run([sys.executable, "-m", "coveragekit", "sample-size", "--epsilon",
                          "0.15", "--delta", "0.1", "--c-lower", "1"],
                         capture_output=True, text=True, timeout=60,
                         env=dict(os.environ, PYTHONPATH=str(package_root)))
    assert (run.returncode, run.stdout) == (0, printed)
    assert cli(["sample-size", "--epsilon", "0.15", "--delta", "0.1",
                "--c-lower", "1", "--grid"]) == 0
    assert capsys.readouterr().out.strip() == "1600"


def test_cli_build_map(tmp_path, capsys):
    scen = tmp_path / "two.scenario.json"
    scen.write_text(json.dumps(PROTOCOL_SCENARIO))
    out = tmp_path / "two.result.json"
    svg = tmp_path / "two.svg"
    rc = cli(["build-map", str(scen), "--out", str(out), "--svg", str(svg)])
    assert rc == 0
    result = json.loads(out.read_text())
    assert result["total_area"] > 0
    assert svg.exists()
    manifest = json.loads((tmp_path / "two.manifest.json").read_text())
    assert manifest["command"] == "build-map"
    assert manifest["tool_version"]


def test_cli_build_map_counters_in_manifest_only(tmp_path):
    scen = tmp_path / "s.json"
    doc = json.loads(json.dumps(PROTOCOL_SCENARIO))
    doc["transmitters"] += [{"x": 0.0, "y": 2.0, "tx_radius": 0.8, "int_radius": 1.2},
                            {"x": -1.5, "y": 0.0, "tx_radius": 0.2, "int_radius": 0.3}]
    scen.write_text(json.dumps(doc))
    assert cli(["build-map", str(scen), "--out", str(tmp_path / "a.result.json")]) == 0
    assert cli(["build-map", str(scen), "--out", str(tmp_path / "b.result.json"),
                "--svg", str(tmp_path / "b.svg")]) == 0
    assert (tmp_path / "a.result.json").read_bytes() == (tmp_path / "b.result.json").read_bytes()
    plain = json.loads((tmp_path / "a.manifest.json").read_text())["stats"]
    drawn = json.loads((tmp_path / "b.manifest.json").read_text())["stats"]
    pd = build([Disk(Point2(t["x"], t["y"]), t["int_radius"]) for t in doc["transmitters"]],
               Rect(-5.0, -5.0, 5.0, 5.0))
    assert pd.hidden == {3}  # concentric with site 0, and smaller
    visible = [p for p in pd.cells if pd.cells[p] is not None]
    txs = [Disk(Point2(t["x"], t["y"]), t["tx_radius"]) for t in doc["transmitters"]]
    batch = boolean_rows([pd.cells[p] for p in visible], [txs[p] for p in visible],
                         [[pd.sites[q] for q in sorted(pd.neighbors[p])] for p in visible],
                         pd.eps)
    assert plain == {"diagram_route": "hull", "hidden": 1, "edges": pd.edge_count(),
                     "boolean_sites": len(visible),
                     "boolean_empty": batch.empty, "boolean_pieces": batch.pieces,
                     "boolean_chains": sum(1 + len(ap.holes) for c in batch.chains for ap in c)}
    assert plain["boolean_chains"] > 0 and plain["boolean_pieces"] >= plain["boolean_chains"]
    rows = sum(len(pd.neighbors[p]) for p in pd.cells if pd.cells[p] is not None)
    frames = frame_partitions(pd, visible)
    assert drawn == {**plain, "frame_rows": rows, "frame_cuts": frames.cuts,
                     "frame_cuts_unchanged": frames.unchanged,
                     "frame_pieces_empty": frames.sizes.tolist().count(0)}
    assert drawn["frame_cuts"] >= drawn["frame_cuts_unchanged"] and rows == 6
    assert "stats" not in json.loads((tmp_path / "b.result.json").read_text())


def route_scenario(route: str) -> dict:
    """64 transmitters in a 100 x 100 window whose lift takes ``route``:
    a road (centres on one line), a ring of equal disks (cocircular
    centres, a coplanar lift) or random sites."""
    rng = random.Random(1)
    if route == "line":
        sites = [(rng.uniform(1.0, 99.0), 50.0, rng.uniform(0.8, 2.4)) for _ in range(64)]
    elif route == "plane":
        sites = [(50.0 + 30.0 * math.cos(math.pi * k / 32),
                  50.0 + 30.0 * math.sin(math.pi * k / 32), 3.0) for k in range(64)]
    else:
        sites = [(rng.uniform(1.0, 99.0), rng.uniform(1.0, 99.0), rng.uniform(4.0, 12.0))
                 for _ in range(64)]
    return {"model": "protocol", "window": {"x0": 0.0, "y0": 0.0, "x1": 100.0, "y1": 100.0},
            "transmitters": [{"x": x, "y": y, "tx_radius": 0.7 * r, "int_radius": r}
                             for x, y, r in sites]}


@pytest.mark.parametrize("route", ["hull", "line", "plane"])
def test_cli_build_map_reports_the_diagram_route_in_the_manifest(tmp_path, route):
    # Qhull rejects the flat lifts of a road and a ring; the manifest says
    # which route read the neighbours instead, and the result does not
    doc = route_scenario(route)
    scen = tmp_path / "s.json"
    scen.write_text(json.dumps(doc))
    assert cli(["build-map", str(scen), "--out", str(tmp_path / "s.result.json")]) == 0
    stats = json.loads((tmp_path / "s.manifest.json").read_text())["stats"]
    assert stats["diagram_route"] == route
    cov = parse_scenario(json.dumps(doc)).coverage_map()
    assert cov.diagram.route == route
    result = json.loads((tmp_path / "s.result.json").read_text())
    assert result["removed_sites"] == sorted(cov.diagram.hidden)
    assert "diagram_route" not in json.dumps(result)


@pytest.mark.parametrize("svg", ["r.result.json", "r.manifest.json"])
def test_cli_build_map_refuses_an_svg_path_that_is_an_output(tmp_path, capsys, monkeypatch,
                                                             svg):
    scen = tmp_path / "s.json"
    scen.write_text(json.dumps(PROTOCOL_SCENARIO))
    monkeypatch.chdir(tmp_path)
    capsys.readouterr()
    # the same file, named relative to the working directory and absolutely
    assert cli(["build-map", "s.json", "--out", "r.result.json", "--svg", str(tmp_path / svg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: --svg: ") and err.count("\n") == 1, err
    assert sorted(f.name for f in tmp_path.iterdir()) == ["s.json"]  # refused before any work


@pytest.mark.parametrize("target", ["r.result.json", "r.manifest.json", "s.manifest.json"])
@pytest.mark.parametrize("command", [["optimize", "rhc", "s.json", "--trace"],
                                     ["sweep-power", "s.json", "--csv"]], ids=["trace", "csv"])
def test_cli_trace_and_csv_refuse_a_path_that_is_an_output(tmp_path, capsys, monkeypatch,
                                                           command, target):
    (tmp_path / "s.json").write_text(json.dumps(SINR_SCENARIO))
    monkeypatch.chdir(tmp_path)
    capsys.readouterr()
    # with --out, or with the default output paths beside the working directory
    out = [] if target.startswith("s.") else ["--out", "r.result.json"]
    assert cli([*command, str(tmp_path / target), *out]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {command[-1]}: ") and err.count("\n") == 1, err
    assert sorted(f.name for f in tmp_path.iterdir()) == ["s.json"]  # refused before any work


def path_options() -> list[tuple[str, argparse.ArgumentParser, str]]:
    """(command, its parser, option) for every option of the CLI's parser
    that takes a path: one value of no type and no choices."""
    commands = next(a for a in cli_io._build_parser()._actions
                    if isinstance(a, argparse._SubParsersAction)).choices
    return [(name, p, opt) for name, p in commands.items() for a in p._actions
            if a.option_strings and a.nargs is None and a.type is None and a.choices is None
            for opt in a.option_strings]


DYNAMIC_SCRIPT = {"window": PROTOCOL_SCENARIO["window"],
                  "ops": [dict(t, op="insert") for t in PROTOCOL_SCENARIO["transmitters"]]}
INPUTS = {"build-map": PROTOCOL_SCENARIO, "render": PROTOCOL_SCENARIO, "dynamic": DYNAMIC_SCRIPT}


def collisions():
    """Each path option naming the command's input, and each ``--out``
    whose manifest is the input: (command, parser, option, input, path)."""
    for command, parser, option in path_options():
        yield pytest.param(command, parser, option, "s.json", "s.json", id=f"{command} {option}")
        if option == "--out":
            for out in ("r.result.json", "r"):
                yield pytest.param(command, parser, option, "r.manifest.json", out,
                                   id=f"{command} --out {out}")


@pytest.mark.parametrize("command, parser, option, source, target", collisions())
def test_cli_refuses_an_output_path_that_names_its_input(tmp_path, capsys, monkeypatch,
                                                         command, parser, option, source,
                                                         target):
    """Every path option of every command (taken from the parser, so a later
    one is covered too) naming the command's input, or an ``--out`` whose
    manifest is the input, is refused before any work: exit 2, one ``error:``
    line naming the option, the input's bytes unchanged and no file written."""
    monkeypatch.chdir(tmp_path)
    data = json.dumps(INPUTS.get(command, SINR_SCENARIO)).encode()
    (tmp_path / source).write_bytes(data)
    argv = [command]
    for a in parser._actions:
        if not a.option_strings:
            argv.append(a.choices[0] if a.choices else source)
        elif a.required and option not in a.option_strings:
            argv += [a.option_strings[0], "other.out"]
    capsys.readouterr()
    assert cli([*argv, option, str(tmp_path / target)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {option}: ") and err.count("\n") == 1, err
    assert (tmp_path / source).read_bytes() == data
    assert [f.name for f in tmp_path.iterdir()] == [source]


def c02_scenario(n: int, seed: int = 202) -> dict:
    """A protocol scenario from c02's generator (100x100 window)."""
    rng, spread = random.Random(seed), 100.0 / math.sqrt(n)
    txs = []
    for _ in range(n):
        ir = rng.uniform(0.5, 1.5) * spread
        x, y = rng.uniform(0.3, 99.7), rng.uniform(0.3, 99.7)
        txs.append({"x": x, "y": y, "tx_radius": max(1e-4, rng.uniform(0.5, 1.0) * ir),
                    "int_radius": ir})
    return {"model": "protocol", "window": {"x0": 0.0, "y0": 0.0, "x1": 100.0, "y1": 100.0},
            "transmitters": txs}


def test_cli_build_map_svg_stays_within_a_fixed_memory_peak(tmp_path):
    # the SVG (2.4 MB here) is streamed and the frames made a block at a time;
    # holding the whole document and every frame row peaked at 12.0 MB
    import tracemalloc
    small, scen = tmp_path / "small.json", tmp_path / "s.json"
    small.write_text(json.dumps(c02_scenario(64)))
    scen.write_text(json.dumps(c02_scenario(2048)))
    out = ["--out", str(tmp_path / "r.result.json"), "--svg", str(tmp_path / "r.svg")]
    assert cli(["build-map", str(small), *out]) == 0  # lazy imports outside the trace
    tracemalloc.start()
    try:
        assert cli(["build-map", str(scen), *out]) == 0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (tmp_path / "r.svg").stat().st_size > 2_000_000
    assert peak <= 9_500_000, peak


def test_cli_svg_files_equal_render_svg(tmp_path, monkeypatch):
    """What ``--svg`` streams is ``render_svg``'s text, whatever the write
    and frame block sizes: a coverage map (``build-map`` and ``render``) and a
    capture raster (``render``)."""
    doc = c02_scenario(40)
    scen, sinr = tmp_path / "s.json", tmp_path / "sinr.json"
    scen.write_text(json.dumps(doc))
    sinr.write_text(json.dumps(SINR_SCENARIO))
    cov = parse_scenario(json.dumps(doc)).coverage_map()
    s = parse_scenario(json.dumps(SINR_SCENARIO)).sinr
    raster = CaptureRaster(s.window, tuple(tuple(int(v) for v in row)
                                           for row in capture_grid(s, 8, 8)))
    drawn = render_svg(cov)
    expected = {"map": drawn, "drawn": drawn, "raster": render_svg(raster)}
    monkeypatch.setattr(cli_io, "_SVG_BLOCK", 3)
    monkeypatch.setattr(cli_io, "FRAME_BLOCK", 4)
    assert cli(["build-map", str(scen), "--out", str(tmp_path / "s.result.json"),
                "--svg", str(tmp_path / "map.svg")]) == 0
    assert cli(["render", str(scen), "--svg", str(tmp_path / "drawn.svg")]) == 0
    assert cli(["render", str(sinr), "--svg", str(tmp_path / "raster.svg"),
                "--capture-grid", "8"]) == 0
    for name, text in expected.items():
        assert (tmp_path / f"{name}.svg").read_text(encoding="utf-8") == text, name
    assert sum(c is not None for c in cov.diagram.cells.values()) > 2 * 4  # several blocks


def test_cli_build_map_failing_mid_drawing_leaves_no_files(tmp_path, capsys, monkeypatch):
    from coveragekit import cli_io
    from coveragekit.errors import InvalidChain

    def failing(c, pd, stats):
        yield '<polygon points=""/>\n'
        raise InvalidChain("drawing failed")

    monkeypatch.setattr(cli_io, "_SVG_BLOCK", 1)  # a part reaches the file first
    monkeypatch.setattr(cli_io, "_cells_and_frames", failing)
    scen = tmp_path / "s.json"
    scen.write_text(json.dumps(PROTOCOL_SCENARIO))
    capsys.readouterr()
    assert cli(["build-map", str(scen), "--out", str(tmp_path / "r.result.json"),
                "--svg", str(tmp_path / "r.svg")]) == 2
    assert capsys.readouterr().err == "error: drawing failed\n"
    assert sorted(f.name for f in tmp_path.iterdir()) == ["s.json"]


@pytest.mark.parametrize("argv, line", [
    (["optimize", "rhc", "s.json", "--trace", "nodir/t.csv"],
     "error: [Errno 2] No such file or directory: 'nodir/t.csv'\n"),
    (["sweep-power", "s.json", "--csv", "nodir/t.csv"],
     "error: [Errno 2] No such file or directory: 'nodir/t.csv'\n"),
    (["build-map", "p.json", "--svg", "d.svg"], "error: --svg: d.svg is a directory\n"),
], ids=["trace", "csv", "svg"])
def test_cli_a_run_that_cannot_write_one_file_writes_none(tmp_path, capsys, monkeypatch,
                                                          argv, line):
    """An output that cannot be written (a missing directory) or that names a
    directory: exit 2, one ``error:`` line naming the path as given, and no
    result, manifest or temporary file beside the input."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "s.json").write_text(json.dumps(SINR_SCENARIO))
    (tmp_path / "p.json").write_text(json.dumps(PROTOCOL_SCENARIO))
    (tmp_path / "d.svg").mkdir()
    capsys.readouterr()
    assert cli(argv) == 2
    assert capsys.readouterr().err == line
    assert sorted(f.name for f in tmp_path.iterdir()) == ["d.svg", "p.json", "s.json"]
    assert not any((tmp_path / "d.svg").iterdir())


def test_cli_prints_one_wrote_line_per_file(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "p.json").write_text(json.dumps(PROTOCOL_SCENARIO))
    (tmp_path / "s.json").write_text(json.dumps(SINR_SCENARIO))
    capsys.readouterr()
    assert cli(["build-map", "p.json", "--svg", "p.svg"]) == 0
    assert cli(["sweep-power", "s.json", "--levels", "3", "--csv", "s.csv"]) == 0
    assert [ln for ln in capsys.readouterr().out.splitlines() if ln.startswith("wrote ")] == [
        "wrote p.result.json", "wrote p.svg", "wrote p.manifest.json",
        "wrote s.result.json", "wrote s.csv", "wrote s.manifest.json"]


def projected_transmitters(offset=(5e5, 4e6)) -> tuple[list[dict], dict]:
    """The static-map generator (seed 11, n = 512, a 100 x 100 window) moved
    to UTM-like eastings and northings: transmitters and window."""
    rng, spread, (ox, oy) = random.Random(11), 100.0 / math.sqrt(512), offset
    txs = []
    for _ in range(512):
        ir = rng.uniform(0.5, 1.5) * spread
        x, y = rng.uniform(0.3, 99.7) + ox, rng.uniform(0.3, 99.7) + oy
        txs.append({"x": x, "y": y, "tx_radius": max(1e-4, rng.uniform(0.5, 1.0) * ir),
                    "int_radius": ir})
    return txs, {"x0": ox, "y0": oy, "x1": ox + 100.0, "y1": oy + 100.0}


def _run_at_both_offsets(tmp_path, capsys, command, document) -> list[tuple[str, dict]]:
    """``command`` on ``document(txs, window)`` at offset 0 and at UTM-like
    coordinates: each run's closing console line and result."""
    runs = []
    for offset in ((0.0, 0.0), (5e5, 4e6)):
        path = tmp_path / f"{offset[0]:.0f}.json"
        path.write_text(json.dumps(document(*projected_transmitters(offset))))
        out = tmp_path / f"{offset[0]:.0f}.result.json"
        capsys.readouterr()
        assert cli([command, str(path), "--out", str(out)]) == 0, capsys.readouterr().err
        runs.append((capsys.readouterr().out.splitlines()[-1], json.loads(out.read_text())))
    return runs


def test_cli_build_map_at_projected_coordinates_prints_the_offset_0_areas(tmp_path, capsys):
    # the lift of these disks was too flat for Qhull before the engines
    # computed relative to the window's centre
    (line, base), (moved_line, moved) = _run_at_both_offsets(
        tmp_path, capsys, "build-map",
        lambda txs, window: {"model": "protocol", "transmitters": txs, "window": window})
    assert moved_line == line and line.startswith("covered area ")
    assert moved["removed_sites"] == base["removed_sites"]
    assert moved["total_area"] == pytest.approx(base["total_area"], abs=1e-8)
    for site, area in base["region_areas"].items():
        assert moved["region_areas"][site] == pytest.approx(area, abs=1e-8), site


def test_cli_dynamic_at_projected_coordinates_prints_the_offset_0_areas(tmp_path, capsys):
    # the same transmitters inserted one by one, then every fifth deleted:
    # the lattice's faces stopped merging into one cell before
    def script(txs, window):
        ops = [dict(t, op="insert") for t in txs]
        return {"window": window, "ops": ops + [{"op": "delete", "site": k}
                                                for k in range(0, len(txs), 5)]}

    (line, base), (moved_line, moved) = _run_at_both_offsets(tmp_path, capsys, "dynamic", script)
    assert moved_line == line and line.startswith("ran 615 updates; ")
    assert moved["reports"] == base["reports"] and moved["hidden"] == base["hidden"]
    for site, area in base["final_region_areas"].items():
        assert moved["final_region_areas"][site] == pytest.approx(area, abs=1e-8), site


@pytest.mark.parametrize("tx_radius", [0.5, 1.0])
def test_a_repeated_interference_disk_is_refused_by_both_engines_and_commands(
        tmp_path, capsys, tx_radius):
    # a transmitter on site 0's mast with site 0's interference radius and a
    # smaller or equal transmission radius
    window = Rect(-5.0, -5.0, 5.0, 5.0)
    specs = [*PROTOCOL_SCENARIO["transmitters"],
             {"x": -1.5, "y": 0.0, "tx_radius": tx_radius, "int_radius": 1.5}]
    txs = [ProtocolTransmitter(Point2(t["x"], t["y"]), t["tx_radius"], t["int_radius"])
           for t in specs]
    # one admission rule, so one message names both sites
    with pytest.raises(DuplicateSite, match="site 2 repeats the disk of site 0"):
        compute_coverage_map(txs, window)
    dc = DynamicCoverage(window)
    for t in txs[:2]:
        dc.insert_transmitter(t)
    with pytest.raises(DuplicateSite, match="site 2 repeats the disk of site 0"):
        dc.insert_transmitter(txs[2])

    def refused(command, doc, field):
        path = tmp_path / "cosited.json"
        path.write_text(json.dumps(doc))
        capsys.readouterr()
        assert cli([command, str(path), "--out", str(tmp_path / "x.result.json")]) == 2
        assert capsys.readouterr().err.startswith(f"error: {field}: ")

    refused("build-map", dict(PROTOCOL_SCENARIO, transmitters=specs), "transmitters")
    refused("dynamic", {"window": PROTOCOL_SCENARIO["window"],
                        "ops": [dict(t, op="insert") for t in specs]}, "ops[2]")


def test_cli_refuses_an_empty_transmitter_list_in_one_text(tmp_path, capsys):
    # both engines apply one rule, so every command of both models refuses
    # ``"transmitters": []`` with the same line (the SINR file without its
    # two-site bounds, which would be refused first)
    sinr = {k: v for k, v in SINR_SCENARIO.items() if k != "bounds"}
    runs = [(PROTOCOL_SCENARIO, ["build-map"]), (PROTOCOL_SCENARIO, ["render"]),
            (sinr, ["estimate-area"]), (sinr, ["sweep-power"]), (sinr, ["render"])]
    runs += [(sinr, ["optimize", m]) for m in ("rhc", "nm", "exhaustive")]
    for doc, command in runs:
        path = tmp_path / "empty.json"
        path.write_text(json.dumps(dict(doc, transmitters=[])))
        out = ["--svg", str(tmp_path / "x.svg")] if command == ["render"] \
            else ["--out", str(tmp_path / "x.result.json")]
        capsys.readouterr()
        assert cli([*command, str(path), *out]) == 2, command
        assert capsys.readouterr().err == "error: transmitters: need at least one transmitter\n"
    assert not list(tmp_path.glob("x.*"))


def test_cli_input_error_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{")
    assert cli(["build-map", str(bad)]) == 2
    missing = tmp_path / "nope.json"
    assert cli(["build-map", str(missing)]) == 2

    def rejected(command, doc, field, reason=None):
        path = tmp_path / "input.json"
        path.write_text(json.dumps(doc))
        capsys.readouterr()
        out = ["--svg", str(tmp_path / "x.svg")] if command == "render" \
            else ["--out", str(tmp_path / "x.result.json")]
        assert cli([command, str(path), *out]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {field}: ")
        if reason is not None:  # one line, with no traceback
            assert err == f"error: {field}: {reason}\n"

    twin = json.loads(json.dumps(PROTOCOL_SCENARIO))
    twin["transmitters"].append(dict(twin["transmitters"][0]))
    rejected("build-map", twin, "transmitters")
    twin_path = tmp_path / "twin.json"
    twin_path.write_text(json.dumps(twin))
    capsys.readouterr()
    assert cli(["render", str(twin_path), "--svg", str(tmp_path / "twin.svg")]) == 2
    assert capsys.readouterr().err.startswith("error: transmitters: ")
    rejected("build-map", dict(PROTOCOL_SCENARIO, seed=None), "seed")
    window = {"x0": -5.0, "y0": -5.0, "x1": 5.0, "y1": 5.0}
    insert = {"op": "insert", "x": 0.0, "y": 0.0, "tx_radius": 1.0, "int_radius": 1.5}
    rejected("dynamic", {"window": window, "ops": [["insert"]]}, "ops[0]")
    lacking = {k: v for k, v in insert.items() if k != "y"}
    rejected("dynamic", {"window": window, "ops": [insert, lacking]}, "ops[1].y")
    rejected("dynamic", {"window": window, "ops": [insert, insert]}, "ops[1]")
    rejected("dynamic", {"window": window, "ops": [{"op": "delete", "site": 0.5}]},
             "ops[0].site")
    rejected("dynamic", {"window": window, "ops": [insert, {"op": "delete", "site": 7}]},
             "ops[1].site")
    rejected("dynamic", {"window": window, "ops": [insert, {"op": "delete", "site": 0},
                                                   {"op": "delete", "site": 0}]},
             "ops[2].site")
    rejected("dynamic", {"window": {"x0": 0.0}, "ops": []}, "window.y0")
    rejected("dynamic", {"window": window, "seed": 0.5, "ops": []}, "seed")
    rejected("dynamic", {"window": window, "ops": 5}, "ops")
    rejected("dynamic", {"window": window, "ops": None}, "ops")
    for value in (None, [1], True, "x"):
        doc = json.loads(json.dumps(PROTOCOL_SCENARIO))
        doc["transmitters"][0]["tx_radius"] = value
        rejected("build-map", doc, "transmitters[0].tx_radius")
    sinr = json.loads(json.dumps(SINR_SCENARIO))
    sinr["transmitters"][1]["power"] = "x"
    rejected("estimate-area", sinr, "transmitters[1].power")
    sinr = json.loads(json.dumps(SINR_SCENARIO))
    sinr["bounds"]["p_min"] = [None, 0.0]
    rejected("estimate-area", sinr, "bounds.p_min[0]")
    for dims, field in (([40.9, 40], "sampling.grid_dims[0]"),
                        (["40", 40], "sampling.grid_dims[0]"),
                        ([40, None], "sampling.grid_dims[1]"),
                        ([40], "sampling.grid_dims")):
        rejected("estimate-area", dict(SINR_SCENARIO, sampling={"kind": "grid", "grid_dims": dims}),
                 field)
    for count in (99.7, "99", True):
        rejected("estimate-area",
                 dict(SINR_SCENARIO, sampling={"kind": "random", "sample_count": count}),
                 "sampling.sample_count")
    rejected("dynamic", {"window": dict(window, x1=window["x0"]), "ops": []}, "window")
    rejected("dynamic", {"window": window, "ops": [dict(insert, x=9.0)]}, "ops[0]")
    rejected("dynamic", {"window": window, "ops": [insert, dict(insert, y=1.0, tx_radius=2.0)]},
             "ops[1]")
    rejected("dynamic", {"window": window, "ops": [dict(insert, tx_radius=-1.0)]}, "ops[0]")

    # each refusal names its field, with the reason of the type that owns the rule
    outside = json.loads(json.dumps(PROTOCOL_SCENARIO))
    outside["transmitters"][1]["x"] = 9.0
    rejected("build-map", outside, "transmitters", refusal(
        compute_coverage_map, [ProtocolTransmitter(Point2(-1.5, 0.0), 1.0, 1.5),
                               ProtocolTransmitter(Point2(9.0, 0.0), 1.0, 1.5)],
        Rect(-5.0, -5.0, 5.0, 5.0)))
    over = refusal(ProtocolTransmitter, Point2(1.5, 0.0), 2.0, 1.5)
    wide = json.loads(json.dumps(PROTOCOL_SCENARIO))
    wide["transmitters"][1]["tx_radius"] = 2.0
    rejected("build-map", wide, "transmitters[1]", over)
    rejected("dynamic", {"window": window, "ops": [dict(wide["transmitters"][1], op="insert")]},
             "ops[0]", over)
    sites = (Point2(0.3, 0.5), Point2(0.7, 0.5))
    unit = {"sites": sites, "powers": PowerVector.of([2.0, 2.0]), "alpha": 2.0, "beta": 1.0,
            "noise": 1e-3, "window": Rect(0.0, 0.0, 1.0, 1.0)}
    for field, value in (("alpha", 1.0), ("beta", 0.0)):
        rejected("estimate-area", dict(SINR_SCENARIO, **{field: value}), field,
                 refusal(SinrScenario, **dict(unit, **{field: value})))
    alone = dict(SINR_SCENARIO, noise=0.0, transmitters=SINR_SCENARIO["transmitters"][:1],
                 bounds={"p_min": [0.0], "p_max": [100.0]})
    rejected("estimate-area", alone, "noise", refusal(
        SinrScenario, **dict(unit, sites=sites[:1], powers=PowerVector.of([2.0]), noise=0.0)))
    rejected("estimate-area", dict(SINR_SCENARIO, window={"x0": 0, "y0": 0, "x1": 2, "y1": 2}),
             "window", refusal(SinrScenario, **dict(unit, window=Rect(0.0, 0.0, 2.0, 2.0))))
    negative = json.loads(json.dumps(SINR_SCENARIO))
    negative["transmitters"][1]["power"] = -1.0
    rejected("estimate-area", negative, "transmitters", refusal(PowerVector.of, [2.0, -1.0]))
    crossed = dict(SINR_SCENARIO, bounds={"p_min": [0.0, 50.0], "p_max": [100.0, 10.0]})
    rejected("estimate-area", crossed, "bounds", refusal(
        Bounds, PowerVector.of([0.0, 50.0]), PowerVector.of([100.0, 10.0])))
    # a file with bounds but no powers can be optimized, not evaluated or drawn
    unpowered = json.loads(json.dumps(SINR_SCENARIO))
    for t in unpowered["transmitters"]:
        del t["power"]
    for command in ("estimate-area", "render"):
        rejected(command, unpowered, "transmitters[0].power", "missing required field")
    path = tmp_path / "unpowered.json"
    path.write_text(json.dumps(unpowered))
    assert cli(["optimize", "rhc", str(path), "--out", str(tmp_path / "o.result.json")]) == 0
    assert cli(["sweep-power", str(path), "--levels", "3",
                "--out", str(tmp_path / "w.result.json")]) == 0

    bad.write_text("[1]")
    assert cli(["dynamic", str(bad)]) == 2
    assert capsys.readouterr().err.startswith("error: <file>: ")


@pytest.mark.parametrize("where", ["scenario", "script", "--out", "--svg"])
def test_cli_directory_path_exit_2(tmp_path, capsys, where):
    """A path that names a directory is an input error (exit 2), whether it
    is read (scenario, script) or written (``--out``, ``--svg``)."""
    scen = tmp_path / "s.json"
    scen.write_text(json.dumps(PROTOCOL_SCENARIO))
    d = tmp_path / "d"
    d.mkdir()
    out = ["--out", str(tmp_path / "s.result.json")]
    argv = {"scenario": ["build-map", f"{d}/", *out],
            "script": ["dynamic", f"{d}/", *out],
            "--out": ["build-map", str(scen), "--out", f"{d}/"],
            "--svg": ["build-map", str(scen), *out, "--svg", f"{d}/"]}[where]
    capsys.readouterr()
    assert cli(argv) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_cli_budget_error_exit_3(tmp_path):
    scen_dict = json.loads(json.dumps(SINR_SCENARIO))
    scen_dict["transmitters"] = [
        {"x": 0.1 * (i + 1), "y": 0.5, "power": 1.0} for i in range(8)]
    scen_dict["bounds"] = {"p_min": [0.0] * 8, "p_max": [100.0] * 8}
    scen = tmp_path / "big.json"
    scen.write_text(json.dumps(scen_dict))
    rc = cli(["optimize", "exhaustive", str(scen), "--levels", "10",
              "--budget", "1000", "--out", str(tmp_path / "r.result.json")])
    assert rc == 3
    # 1e10 sample points: refused before any sample array is allocated
    scen_dict = dict(SINR_SCENARIO, sampling={"kind": "grid", "grid_dims": [100000, 100000]})
    scen.write_text(json.dumps(scen_dict))
    assert cli(["estimate-area", str(scen), "--out", str(tmp_path / "h.result.json")]) == 3
    # 2 sites x 5000^2 raster cells: refused before any raster, no SVG written
    svg = tmp_path / "cap.svg"
    assert cli(["render", str(scen), "--svg", str(svg), "--capture-grid", "5000"]) == 3
    assert not svg.exists()


def test_cli_optimize_rhc_deterministic(tmp_path):
    scen = tmp_path / "s.json"
    scen.write_text(json.dumps(SINR_SCENARIO))
    out1 = tmp_path / "a.result.json"
    out2 = tmp_path / "b.result.json"
    assert cli(["optimize", "rhc", str(scen), "--seed", "7",
                "--out", str(out1)]) == 0
    assert cli(["optimize", "rhc", str(scen), "--seed", "7",
                "--out", str(out2)]) == 0
    assert out1.read_text() == out2.read_text()


def test_cli_objective_counters_in_manifest_only(tmp_path):
    scen = tmp_path / "s.json"
    scen.write_text(json.dumps(SINR_SCENARIO))
    for method, extra in (("rhc", ["--seed", "7"]), ("nm", ["--seed", "7"]),
                          ("exhaustive", ["--levels", "4"])):
        out = tmp_path / f"{method}.result.json"
        assert cli(["optimize", method, str(scen), *extra, "--post-process",
                    "--out", str(out)]) == 0
        result = json.loads(out.read_text())
        stats = json.loads((tmp_path / f"{method}.manifest.json").read_text())["stats"]
        assert not {"stats", "computed", "filter"} & set(result)
        assert set(stats) == {"search", "post_process"}
        for name, phase in stats.items():
            assert 1 <= phase["computed"] <= phase["calls"]
            # every computed vector is one mask of the 20x20 grid
            f = phase["filter"]
            assert f["decided"] + f["band"] + 400 * f["whole"] == 400 * phase["computed"]
        assert stats["post_process"]["calls"] == result["evaluations"]
    assert cli(["sweep-power", str(scen), "--levels", "5",
                "--out", str(tmp_path / "sw.result.json")]) == 0
    stats = json.loads((tmp_path / "sw.manifest.json").read_text())["stats"]
    f = stats.pop("filter")
    assert stats == {"calls": 5, "computed": 5}
    assert f["decided"] + f["band"] + 400 * f["whole"] == 5 * 400
    assert f["range_fallbacks"] == 0 and f["whole"] <= 1


def test_cli_optimize_manifest_does_not_depend_on_an_earlier_run(tmp_path):
    scen = tmp_path / "s.json"
    # a grid no other test samples, so the first run finds nothing cached
    scen.write_text(json.dumps(dict(SINR_SCENARIO, sampling={"kind": "grid",
                                                             "grid_dims": [23, 19]})))
    manifests = []
    for method in ("nm", "rhc", "nm"):
        assert cli(["optimize", method, str(scen), "--seed", "7", "--post-process",
                    "--out", str(tmp_path / f"{method}.result.json")]) == 0
        manifest = json.loads((tmp_path / f"{method}.manifest.json").read_text())
        manifest.pop("wall_time")
        manifests.append(manifest)
    assert manifests[0] == manifests[2]
    for phase in manifests[0]["stats"].values():
        assert phase["filter"]["whole"] == 1  # each phase's evaluator folds its first mask


def test_cli_estimate_and_sweep(tmp_path, capsys):
    scen = tmp_path / "s.json"
    scen.write_text(json.dumps(SINR_SCENARIO))
    assert cli(["estimate-area", str(scen),
                "--out", str(tmp_path / "e.result.json")]) == 0
    csv_path = tmp_path / "sweep.trace.csv"
    assert cli(["sweep-power", str(scen), "--levels", "5",
                "--csv", str(csv_path),
                "--out", str(tmp_path / "sw.result.json")]) == 0
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0] == "total_power,estimated_area"
    assert len(lines) == 6


def test_cli_dynamic_script(tmp_path):
    script = {
        "window": {"x0": -5.0, "y0": -5.0, "x1": 5.0, "y1": 5.0},
        "seed": 3,
        "ops": [
            {"op": "insert", "x": -1.0, "y": 0.0, "tx_radius": 1.0, "int_radius": 1.5},
            {"op": "insert", "x": 1.0, "y": 0.0, "tx_radius": 1.0, "int_radius": 1.5},
            {"op": "insert", "x": -1.0, "y": 0.0, "tx_radius": 0.3, "int_radius": 0.5},
            {"op": "delete", "site": 0},
        ],
    }
    path = tmp_path / "script.json"
    path.write_text(json.dumps(script))
    outs = [tmp_path / f"dyn{k}.result.json" for k in range(2)]
    for out in outs:
        assert cli(["dynamic", str(path), "--out", str(out)]) == 0
    # results carry no timing: two runs write the same bytes
    assert outs[0].read_bytes() == outs[1].read_bytes()
    result = json.loads(outs[0].read_text())
    assert len(result["reports"]) == 4
    assert result["reports"][2]["redundant"]
    assert result["reports"][3]["op"] == "delete"
    assert result["reports"][3]["hidden_events"] == [["revived", 2]]
    assert "wall_time" not in result["reports"][3]
    stats = json.loads((tmp_path / "dyn0.manifest.json").read_text())["stats"]
    assert len(stats["op_wall_times"]) == 4
    assert stats["revival_tests"] > 0


def test_cli_dynamic_hidden_sites_are_build_maps_removed_sites(tmp_path):
    # two big disks and a small one at (0, -5) that wins only below
    # y = -92.4, far beyond the window: the static map keeps it, so the
    # structure must give it a cell, not park it
    window = {"x0": -6.0, "y0": -6.0, "x1": 6.0, "y1": 6.0}
    final = [{"x": -1.0, "y": 0.0, "tx_radius": 4.0, "int_radius": 30.0},
             {"x": 1.0, "y": 0.0, "tx_radius": 4.0, "int_radius": 30.0},
             {"x": 0.0, "y": -5.0, "tx_radius": 0.05, "int_radius": 0.1}]
    ops = [dict(final[0], op="insert"), dict(final[1], op="insert"),
           {"op": "insert", "x": 0.0, "y": -5.8, "tx_radius": 1.0, "int_radius": 30.0},
           dict(final[2], op="insert"), {"op": "delete", "site": 2}]
    script, scen = tmp_path / "script.json", tmp_path / "final.json"
    script.write_text(json.dumps({"window": window, "ops": ops}))
    scen.write_text(json.dumps({"model": "protocol", "window": window, "transmitters": final}))
    assert cli(["dynamic", str(script), "--out", str(tmp_path / "dyn.result.json")]) == 0
    assert cli(["build-map", str(scen), "--out", str(tmp_path / "map.result.json")]) == 0
    dynamic = json.loads((tmp_path / "dyn.result.json").read_text())
    static = json.loads((tmp_path / "map.result.json").read_text())
    live = [0, 1, 3]  # the final transmitters' sites, in build-map's order
    assert dynamic["reports"][3]["redundant"]  # hidden while site 2 lived
    assert sorted(live.index(int(s)) for s in dynamic["hidden"]) == static["removed_sites"]
    assert {str(live.index(int(s))): a for s, a in dynamic["final_region_areas"].items()} == \
        static["region_areas"]


def test_cli_dynamic_manifest_counts_lattice_nodes_and_parked(tmp_path):
    window = {"x0": -5.0, "y0": -5.0, "x1": 5.0, "y1": 5.0}
    ops = [{"op": "insert", "x": x, "y": 0.0, "tx_radius": 1.0, "int_radius": 1.5}
           for x in (-2.0, 0.0, 2.0)]
    ops += [{"op": "insert", "x": -0.1, "y": 0.0, "tx_radius": 0.3, "int_radius": 0.5},
            {"op": "delete", "site": 2}]
    path = tmp_path / "script.json"
    path.write_text(json.dumps({"window": window, "ops": ops}))
    out = tmp_path / "dyn.result.json"
    assert cli(["dynamic", str(path), "--out", str(out)]) == 0
    # the same ops on a structure of our own: its node slots, the vertices
    # its re-tiling made and dropped included, and the disk still parked
    dc = DynamicCoverage(Rect(-5.0, -5.0, 5.0, 5.0))
    for op in ops[:4]:
        dc.insert_transmitter(ProtocolTransmitter(Point2(op["x"], op["y"]), op["tx_radius"],
                                                  op["int_radius"]))
    dc.delete_transmitter(2)
    live = {u for ring in dc.cells.values() for u in ring}
    assert len(dc.x) > 8 + len(live) and list(dc.hidden) == [3]
    stats = json.loads((tmp_path / "dyn.manifest.json").read_text())["stats"]
    assert (stats["lattice_nodes"], stats["parked"]) == (len(dc.x), 1)
    result = json.loads(out.read_text())
    assert sorted(result) == ["final_region_areas", "hidden", "reports"]
    assert "lattice_nodes" not in json.dumps(result)


def churn_script(seed: int = 5, inserts: int = 300, mixed: int = 150) -> dict:
    """A ``dynamic`` script: ``inserts`` transmitters from c02's generator,
    then ``mixed`` ops, each deleting a random live site or inserting."""
    rng, pool = random.Random(seed), iter(c02_scenario(inserts + mixed, seed)["transmitters"])
    ops, live, sites = [], [], itertools.count()
    for k in range(inserts + mixed):
        if k >= inserts and rng.random() < 0.5:
            ops.append({"op": "delete", "site": live.pop(rng.randrange(len(live)))})
        else:
            ops.append(dict(next(pool), op="insert"))
            live.append(next(sites))
    return {"window": {"x0": 0.0, "y0": 0.0, "x1": 100.0, "y1": 100.0}, "seed": seed,
            "ops": ops}


# sha256 of every file the commands below write; a manifest's without its
# wall times.  A change to how a command writes must keep them.
OUTPUT_DIGESTS = {
    "area.manifest.json": "68e99418ed0d72e2d1031d46a8d879fc9f69ad3f3c0065fae46f18f93430801d",
    "area.result.json": "30b6eefdfddcf79b44ce6f36bd2ec8a0865d2cf41761b7dc89d1e126b35743fb",
    "churn.manifest.json": "e26fd29d6190f4438d6e10e91e050977ad6d54bf607fb8893079203c271e5fcd",
    "churn.result.json": "8fcd1b25290904889afecbe276712e046f50f6f570de6bdc3b63c3fef3313fcb",
    "drawn.svg": "818098f9cd812c239168a4fb2b3563ea8aae82e5dbbc043f21872a880912f5f5",
    "exhaustive.manifest.json": "f1550fcd183c09826ed36ffb1e63e65e756392c1fa218456c1cd2c6ac54638ef",
    "exhaustive.result.json": "646365e823ca7574e629a94bcd71d62590823683fae55f3abc21ae742860e298",
    "map.manifest.json": "ed0115c16b5f686c0a81d53c6b7638722c8a22f70673d171d7a38bc66cf394b1",
    "map.result.json": "db5e62a6301677234aefb625055b881bd1972c70e162aee2c7e9d8454df355fe",
    "map.svg": "818098f9cd812c239168a4fb2b3563ea8aae82e5dbbc043f21872a880912f5f5",
    "nm.manifest.json": "780bbb18a2f81c650db83b8b70f171190897d6be1c6b5a0fb12c7a234799cd00",
    "nm.result.json": "c3cb3a57ed8f6c65d42fc4b3657bed6ed1c141b08223f4d42a26dca37785ab59",
    "raster.svg": "b0f55eb8e5a772bd2f91f170c952487ac456ba3419164ca05a70a27dde517301",
    "rhc.manifest.json": "bd570d1c0555ce9b9be8cce3835b3d0a0003fdbb75e2cefa0ff4de2d295a7445",
    "rhc.result.json": "a8a1c8a8267233f39af2adb47882cc11956ee3a8f3c262aba28e48635bd638bb",
    "sweep.csv": "fa26a1e4733db94d48bd8027c971436432b359c7052f2f905b8e7e6590678e8c",
    "sweep.manifest.json": "5ef9c660da1359ddec0c7617c1ae7247ce6fc7b2c57ca3134eb2c774c0699ba6",
    "sweep.result.json": "e55f3bc7c43b71c22029ee898b24bbe29907e10fa8feef6dd7a0b75bd8c67f56",
}


def test_every_command_keeps_its_output_files(tmp_path):
    """Every command that writes a file, on small fixed inputs: results,
    manifests, SVGs and CSVs byte for byte."""
    rng = random.Random(34)
    sinr = dict(SINR_SCENARIO, sampling={"kind": "grid", "grid_dims": [16, 16]},
                transmitters=[{"x": rng.random(), "y": rng.random(), "power": rng.uniform(1, 9)}
                              for _ in range(4)],
                bounds={"p_min": [0.0] * 4, "p_max": [10.0] * 4})
    inputs = {"map.json": c02_scenario(64), "sinr.json": sinr, "churn.json": churn_script()}
    for name, doc in inputs.items():
        (tmp_path / name).write_text(json.dumps(doc))
    runs = [["build-map", "map.json", "--out", "map.result.json", "--svg", "map.svg"],
            ["dynamic", "churn.json", "--out", "churn.result.json"],
            *(["optimize", m, "sinr.json", "--seed", "3", "--levels", "4", "--post-process",
               "--out", f"{m}.result.json"] for m in ("rhc", "nm", "exhaustive")),
            ["estimate-area", "sinr.json", "--out", "area.result.json"],
            ["sweep-power", "sinr.json", "--levels", "6", "--csv", "sweep.csv",
             "--out", "sweep.result.json"],
            ["render", "map.json", "--svg", "drawn.svg"],
            ["render", "sinr.json", "--svg", "raster.svg", "--capture-grid", "16"]]
    for argv in runs:
        assert cli([str(tmp_path / a) if "." in a else a for a in argv]) == 0, argv
    got = {}
    for f in sorted(tmp_path.iterdir()):
        if f.name in inputs:
            continue
        raw = f.read_bytes()
        if f.name.endswith(".manifest.json"):
            manifest = json.loads(raw)
            del manifest["wall_time"]
            manifest["stats"].pop("op_wall_times", None)
            raw = json.dumps(manifest, sort_keys=True).encode()
        got[f.name] = hashlib.sha256(raw).hexdigest()
    assert got == OUTPUT_DIGESTS


def test_cli_optimize_writes_the_result_trace_to_csv(tmp_path):
    scen = tmp_path / "s.json"
    scen.write_text(json.dumps(dict(SINR_SCENARIO, beta=3.0, noise=0.5)))
    out, trace = tmp_path / "o.result.json", tmp_path / "t.csv"
    assert cli(["optimize", "rhc", str(scen), "--trace", str(trace), "--out", str(out)]) == 0
    rows = json.loads(out.read_text())["trace"]
    assert len(rows) > 2
    assert trace.read_text().splitlines() == \
        ["evaluation,best_area"] + [f"{i},{a:.10g}" for i, a in rows]


def test_cli_records_the_sampling_plan_it_parsed(tmp_path):
    for sampling, plan in (
            ({"kind": "random", "sample_count": 50, "seed": 5},
             {"kind": "random", "grid_dims": None, "sample_count": 50, "seed": 5}),
            ({"kind": "grid", "grid_dims": [16.0, 16.0]},  # integral floats are integers
             {"kind": "grid", "grid_dims": [16, 16], "sample_count": None, "seed": None})):
        scen, out = tmp_path / "s.json", tmp_path / "e.result.json"
        scen.write_text(json.dumps(dict(SINR_SCENARIO, sampling=sampling)))
        assert cli(["estimate-area", str(scen), "--out", str(out)]) == 0
        assert json.loads(out.read_text())["plan"] == plan


def _refused(tmp_path, capsys, argv, data) -> str:
    """Run ``argv`` on the scenario bytes ``data`` (in place of ``IN``) with
    every output in tmp_path; assert exit 2, that no output file was written,
    and return the one line printed."""
    path = tmp_path / "in.json"
    path.write_bytes(data)
    out = ["--svg", str(tmp_path / "x.svg")] if argv[0] == "render" \
        else ["--out", str(tmp_path / "x.result.json")]
    capsys.readouterr()
    assert cli([str(path) if a == "IN" else a for a in argv] + out) == 2
    assert os.listdir(tmp_path) == ["in.json"]
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    return err


@pytest.mark.parametrize("argv, doc, line", [
    (["build-map", "IN"], SINR_SCENARIO,
     "error: build-map needs a protocol-model scenario"),
    (["optimize", "rhc", "IN"], PROTOCOL_SCENARIO,
     "error: optimize needs a sinr-model scenario"),
    (["render", "IN", "--capture-grid", "8"], PROTOCOL_SCENARIO,
     "error: capture rasters need a sinr-model scenario")])
def test_cli_refuses_a_scenario_of_the_other_model(tmp_path, capsys, argv, doc, line):
    assert _refused(tmp_path, capsys, argv, json.dumps(doc).encode()) == line + "\n"


@pytest.mark.parametrize("data, start", [
    (b'{"model": "sinr", "note": "\xff"}', "<file>: not UTF-8"),
    (json.dumps(dict(SINR_SCENARIO, bounds={"p_min": [0.0], "p_max": [100.0]})).encode(),
     "bounds: "),
    (json.dumps(dict(SINR_SCENARIO, sampling={"kind": "sobol"})).encode(), "sampling: ")])
def test_cli_refuses_unreadable_scenario_parts(tmp_path, capsys, data, start):
    assert _refused(tmp_path, capsys, ["estimate-area", "IN"], data).startswith(
        f"error: {start}")


def test_cli_unknown_command_prints_usage_without_traceback(tmp_path, capsys):
    assert cli(["frobnicate", str(tmp_path / "s.json")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: coveragekit ")
    assert "invalid choice: 'frobnicate'" in err and "Traceback" not in err
    assert not os.listdir(tmp_path)


def test_cli_render_capture(tmp_path):
    scen = tmp_path / "s.json"
    scen.write_text(json.dumps(SINR_SCENARIO))
    svg = tmp_path / "cap.svg"
    assert cli(["render", str(scen), "--svg", str(svg),
                "--capture-grid", "8"]) == 0
    assert svg.read_text().count("<rect ") == 64


def test_cli_render_capture_grid_checks(tmp_path, capsys, monkeypatch):
    scen = tmp_path / "s.json"
    scen.write_text(json.dumps(SINR_SCENARIO))
    svg = tmp_path / "cap.svg"
    for value in ("0", "-3"):
        capsys.readouterr()
        assert cli(["render", str(scen), "--svg", str(svg), "--capture-grid", value]) == 2
        assert capsys.readouterr().err.startswith("error: --capture-grid: ")
    # 2 sites x 2300^2 cells exceed the sample budget: refused before any raster
    monkeypatch.setattr("coveragekit.sinr_model._cell_centers", None)
    assert cli(["render", str(scen), "--svg", str(svg), "--capture-grid", "2300"]) == 3
    assert "exceed" in capsys.readouterr().err
    assert not svg.exists()


def test_cli_rejects_numbers_too_large_to_square(tmp_path, capsys):
    # json reads NaN and Infinity; 1e300 squared overflows in the lifting
    for value in ("NaN", "Infinity", "1e300"):
        path = tmp_path / "script.json"
        path.write_text('{"window": {"x0": 0, "y0": 0, "x1": 8, "y1": 8}, "ops": ['
                        '{"op": "insert", "x": 5, "y": 2, "tx_radius": 0.7, '
                        f'"int_radius": {value}}}]}}')
        capsys.readouterr()
        assert cli(["dynamic", str(path)]) == 2
        assert capsys.readouterr().err.startswith("error: ops[0].int_radius: ")


# ---------------------------------------------------------------------------
# one home per input rule
# ---------------------------------------------------------------------------

# The types and the admission that scenario files build and admit: the
# parser reports their refusals and restates none of them.
RULE_OWNERS = [(geometry, "Rect"), (protocol_coverage, "ProtocolTransmitter"),
               (power_diagram, "admit"), (sinr_model, "PowerVector"),
               (sinr_model, "SinrScenario"), (optimizer, "Bounds")]


def _raised(tree: ast.AST) -> list[ast.Call]:
    """The exception call of every ``raise`` in ``tree``."""
    return [n.exc for n in ast.walk(tree)
            if isinstance(n, ast.Raise) and isinstance(n.exc, ast.Call)]


def _reason_texts(call: ast.Call) -> list[str]:
    """The literal text of an exception's reason (its last argument): each
    literal part of ten or more characters, for an f-string."""
    reason = call.args[-1]
    parts = reason.values if isinstance(reason, ast.JoinedStr) else [reason]
    return [p.value.strip() for p in parts if isinstance(p, ast.Constant)
            and isinstance(p.value, str) and len(p.value.strip()) >= 10]


def test_cli_io_restates_no_rule_of_the_types_it_builds():
    source = Path(cli_io.__file__).read_text(encoding="utf-8")
    owned = [text for module, name in RULE_OWNERS
             for call in _raised(ast.parse(inspect.getsource(getattr(module, name))))
             for text in _reason_texts(call)]
    assert len(owned) >= 10, owned  # the scan sees the rules
    assert not [text for text in owned if text in source]
    # a ModelError is a command given the other model's file, nothing else
    mismatches = [ast.unparse(call.args[0]) for call in _raised(ast.parse(source))
                  if getattr(call.func, "id", "") == "ModelError"]
    assert mismatches and all(re.fullmatch(r"f?'[^']* needs? a [^']*-model scenario'", m)
                              for m in mismatches), mismatches


# ---------------------------------------------------------------------------
# fuzzed documents: every one exits 0, 2 or 3, never with a traceback
# ---------------------------------------------------------------------------

JUNK = st.one_of(st.none(), st.booleans(), st.text(max_size=3), st.just({}),
                 st.lists(st.integers(-2, 2), max_size=2), st.floats(-1e6, 1e6),
                 st.sampled_from([0, -1, 1e-300, 1e300]))
COORD = st.one_of(st.integers(0, 8), st.floats(0.0, 8.0))
# integer sites with these radii make exact tangencies
DISKS = st.tuples(COORD, COORD, st.sampled_from([(0.5, 0.7), (0.7, 1.0), (1.0, 1.0), (0.9, 1.3)])
                  ).map(lambda t: {"x": t[0], "y": t[1], "tx_radius": t[2][0], "int_radius": t[2][1]})
PROTOCOL = st.fixed_dictionaries({
    "model": st.just("protocol"), "window": st.just({"x0": 0, "y0": 0, "x1": 8, "y1": 8}),
    "transmitters": st.lists(DISKS, min_size=1, max_size=6)},
    optional={"seed": st.integers(0, 3)})
SINR = st.fixed_dictionaries({
    "model": st.just("sinr"), "window": st.just({"x0": 0, "y0": 0, "x1": 1, "y1": 1}),
    "alpha": st.floats(2.0, 4.0), "beta": st.floats(0.5, 3.0), "noise": st.floats(0.0, 0.1),
    "transmitters": st.lists(st.fixed_dictionaries({
        "x": st.floats(0.0, 1.0), "y": st.floats(0.0, 1.0), "power": st.floats(0.0, 5.0)}),
        min_size=1, max_size=4),
    "sampling": st.fixed_dictionaries({"kind": st.just("grid"),
                                       "grid_dims": st.lists(st.integers(1, 12), min_size=2,
                                                             max_size=2)})})
SCRIPT = st.fixed_dictionaries({
    "window": st.just({"x0": 0, "y0": 0, "x1": 8, "y1": 8}),
    "ops": st.lists(st.one_of(
        DISKS.map(lambda d: dict(d, op="insert")),
        st.fixed_dictionaries({"op": st.just("delete"), "site": st.integers(0, 4)})),
        max_size=12)},
    optional={"seed": st.integers(0, 3)})


def _slots(node) -> list:
    """Every (container, key) pair of a JSON document."""
    out = []
    for k, v in (node.items() if isinstance(node, dict) else enumerate(node)):
        out.append((node, k))
        if isinstance(v, (dict, list)):
            out += _slots(v)
    return out


@st.composite
def mutated(draw, valid):
    """A valid document with up to two fields replaced by junk or dropped."""
    doc = json.loads(json.dumps(draw(valid)))  # ``st.just`` shares its value
    for _ in range(draw(st.integers(0, 2))):
        slots = _slots(doc)
        if not slots:
            break
        node, key = draw(st.sampled_from(slots))
        if isinstance(node, dict) and draw(st.booleans()):
            del node[key]
        else:
            node[key] = draw(JUNK)
    return doc


FUZZ = settings(derandomize=True, database=None, deadline=None, max_examples=200,
                suppress_health_check=[HealthCheck.function_scoped_fixture])


def run_fuzzed(tmp_path, capsys, command, doc):
    path = tmp_path / "fuzz.json"
    path.write_text(json.dumps(doc))
    code = cli([command, str(path), "--out", str(tmp_path / "fuzz.result.json")])
    err = capsys.readouterr().err
    assert code in (0, 2, 3), err
    assert "Traceback" not in err


@FUZZ
@given(doc=mutated(st.one_of(PROTOCOL, SINR)))
def test_fuzzed_scenarios_exit_cleanly(tmp_path, capsys, doc):
    command = "estimate-area" if doc.get("model") == "sinr" else "build-map"
    run_fuzzed(tmp_path, capsys, command, doc)


@FUZZ
@given(doc=mutated(SCRIPT))
def test_fuzzed_dynamic_scripts_exit_cleanly(tmp_path, capsys, doc):
    run_fuzzed(tmp_path, capsys, "dynamic", doc)
