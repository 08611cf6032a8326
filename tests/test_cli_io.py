"""Scenario parsing, serialization round-trips, SVG output, CLI runs."""

import json
import math
from pathlib import Path

import pytest

from coveragekit.cli_io import (CaptureRaster, ScenarioFile, cli,
                                parse_scenario, render_svg)
from coveragekit.errors import ModelError, ParseError
from coveragekit.geometry import Point2, Rect
from coveragekit.power_diagram import build
from coveragekit.protocol_coverage import ProtocolTransmitter, compute_coverage_map
from coveragekit.geometry import Disk

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


def test_parse_minimal_protocol():
    scen = parse_scenario(json.dumps(PROTOCOL_SCENARIO))
    assert scen.model == "protocol"
    assert len(scen.transmitters) == 2
    txs = scen.protocol_transmitters()
    assert txs[0].int_radius == 1.5


def test_parse_rejects_tx_over_int():
    bad = json.loads(json.dumps(PROTOCOL_SCENARIO))
    bad["transmitters"][1]["tx_radius"] = 9.0
    with pytest.raises(ModelError) as err:
        parse_scenario(json.dumps(bad))
    assert "transmitter 1" in str(err.value)


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
        again = parse_scenario(json.dumps(scen.to_dict()))
        assert again == scen


def test_sinr_scenario_construction():
    scen = parse_scenario(json.dumps(SINR_SCENARIO))
    s = scen.sinr_scenario()
    assert s.alpha == 2.0
    assert s.powers.values == (2.0, 2.0)
    b = scen.bounds_or_default()
    assert b.p_max.values == (100.0, 100.0)


def test_render_one_transmitter_single_shaded_path():
    cov = compute_coverage_map(
        [ProtocolTransmitter(Point2(0, 0), 1.0, 1.5)], Rect(-5, -5, 5, 5))
    svg = render_svg(cov)
    assert svg.count("<path ") == 1
    assert svg.startswith("<svg ")


def test_render_two_site_diagram_has_dashed_edge():
    pd = build([Disk(Point2(-2, 0), 1.0), Disk(Point2(2, 0), 1.0)],
               Rect(-5, -5, 5, 5))
    svg = render_svg(pd)
    assert 'stroke-dasharray="6,4"' in svg


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


def test_cli_input_error_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{")
    assert cli(["build-map", str(bad)]) == 2
    missing = tmp_path / "nope.json"
    assert cli(["build-map", str(missing)]) == 2

    def rejected(command, doc, field):
        path = tmp_path / "input.json"
        path.write_text(json.dumps(doc))
        capsys.readouterr()
        assert cli([command, str(path), "--out", str(tmp_path / "x.result.json")]) == 2
        assert capsys.readouterr().err.startswith(f"error: {field}: ")

    twin = json.loads(json.dumps(PROTOCOL_SCENARIO))
    twin["transmitters"].append(dict(twin["transmitters"][0]))
    rejected("build-map", twin, "transmitters")
    rejected("build-map", dict(PROTOCOL_SCENARIO, seed=None), "seed")
    window = {"x0": -5.0, "y0": -5.0, "x1": 5.0, "y1": 5.0}
    insert = {"op": "insert", "x": 0.0, "y": 0.0, "tx_radius": 1.0, "int_radius": 1.5}
    rejected("dynamic", {"window": window, "ops": [["insert"]]}, "ops[0]")
    lacking = {k: v for k, v in insert.items() if k != "y"}
    rejected("dynamic", {"window": window, "ops": [insert, lacking]}, "ops[1].y")
    rejected("dynamic", {"window": window, "ops": [insert, insert]}, "ops[1]")
    rejected("dynamic", {"window": window, "ops": [{"op": "delete", "site": 0.5}]},
             "ops[0].site")
    rejected("dynamic", {"window": {"x0": 0.0}, "ops": []}, "window.y0")
    rejected("dynamic", {"window": window, "seed": 0.5, "ops": []}, "seed")


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
            {"op": "delete", "site": 0},
        ],
    }
    path = tmp_path / "script.json"
    path.write_text(json.dumps(script))
    out = tmp_path / "dyn.result.json"
    assert cli(["dynamic", str(path), "--out", str(out)]) == 0
    result = json.loads(out.read_text())
    assert len(result["reports"]) == 3
    assert result["reports"][2]["op"] == "delete"


def test_cli_render_capture(tmp_path):
    scen = tmp_path / "s.json"
    scen.write_text(json.dumps(SINR_SCENARIO))
    svg = tmp_path / "cap.svg"
    assert cli(["render", str(scen), "--svg", str(svg),
                "--capture-grid", "8"]) == 0
    assert svg.read_text().count("<rect ") == 64
