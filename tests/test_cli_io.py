"""Scenario parsing, serialization round-trips, SVG output, CLI runs."""

import ast
import inspect
import json
import math
import random
import re
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
    assert capsys.readouterr().out.strip() == "400"
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
    assert plain == {"hidden": 1, "edges": pd.edge_count(), "boolean_sites": len(visible),
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


def projected_transmitters() -> tuple[list[dict], dict]:
    """The static-map generator (seed 11, n = 512, a 100 x 100 window) moved
    to UTM-like eastings and northings: transmitters and window."""
    rng, spread, (ox, oy) = random.Random(11), 100.0 / math.sqrt(512), (5e5, 4e6)
    txs = []
    for _ in range(512):
        ir = rng.uniform(0.5, 1.5) * spread
        x, y = rng.uniform(0.3, 99.7) + ox, rng.uniform(0.3, 99.7) + oy
        txs.append({"x": x, "y": y, "tx_radius": max(1e-4, rng.uniform(0.5, 1.0) * ir),
                    "int_radius": ir})
    return txs, {"x0": ox, "y0": oy, "x1": ox + 100.0, "y1": oy + 100.0}


def test_cli_projected_coordinates_exit_2_without_a_traceback(tmp_path, capsys):
    # Qhull rejects the lifted disks
    txs, window = projected_transmitters()
    path = tmp_path / "utm.scenario.json"
    path.write_text(json.dumps({"model": "protocol", "transmitters": txs, "window": window}))
    capsys.readouterr()
    assert cli(["build-map", str(path), "--out", str(tmp_path / "utm.result.json")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: Qhull rejected the sites: ") and err.count("\n") == 1, err
    assert "Traceback" not in err


def test_cli_dynamic_projected_coordinates_exit_2_without_a_traceback(tmp_path, capsys):
    # the same transmitters inserted one by one: the lattice's faces stop
    # merging into one cell
    txs, window = projected_transmitters()
    path = tmp_path / "utm.script.json"
    path.write_text(json.dumps({"window": window,
                                "ops": [dict(t, op="insert") for t in txs]}))
    capsys.readouterr()
    assert cli(["dynamic", str(path), "--out", str(tmp_path / "utm.result.json")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: faces do not merge into one cycle: ") \
        and err.count("\n") == 1, err
    assert "Traceback" not in err


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
        assert "stats" not in result and "computed" not in result
        assert set(stats) == {"search", "post_process"}
        for phase in stats.values():
            assert 1 <= phase["computed"] <= phase["calls"]
        assert stats["post_process"]["calls"] == result["evaluations"]
    assert cli(["sweep-power", str(scen), "--levels", "5",
                "--out", str(tmp_path / "sw.result.json")]) == 0
    stats = json.loads((tmp_path / "sw.manifest.json").read_text())["stats"]
    assert stats == {"calls": 5, "computed": 5}


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
    monkeypatch.setattr("coveragekit.cli_io.capture_grid", None)
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
