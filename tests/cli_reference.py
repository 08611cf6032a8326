"""Helpers that left ``coveragekit.cli_io``: no output of the library
depends on them, and the tests keep them as references."""

from __future__ import annotations

from typing import Any

from coveragekit.cli_io import ScenarioFile, TransmitterSpec


def transmitter_to_dict(t: TransmitterSpec) -> dict:
    out: dict[str, Any] = {"x": t.x, "y": t.y}
    if t.tx_radius is not None:
        out["tx_radius"] = t.tx_radius
    if t.int_radius is not None:
        out["int_radius"] = t.int_radius
    if t.power is not None:
        out["power"] = t.power
    return out


def scenario_to_dict(scen: ScenarioFile) -> dict:
    """The scenario file's JSON object, which ``parse_scenario`` reads back
    as an equal ``ScenarioFile``."""
    out: dict[str, Any] = {
        "model": scen.model,
        "window": {"x0": scen.window.x0, "y0": scen.window.y0,
                   "x1": scen.window.x1, "y1": scen.window.y1},
        "transmitters": [transmitter_to_dict(t) for t in scen.transmitters],
    }
    for k in ("alpha", "beta", "noise", "seed"):
        v = getattr(scen, k)
        if v is not None:
            out[k] = v
    if scen.bounds is not None:
        out["bounds"] = {"p_min": list(scen.bounds[0]),
                         "p_max": list(scen.bounds[1])}
    if scen.sampling is not None:
        sp: dict[str, Any] = {"kind": scen.sampling.kind}
        if scen.sampling.kind == "grid":
            sp["grid_dims"] = list(scen.sampling.grid_dims)
        else:
            sp["sample_count"] = scen.sampling.sample_count
            if scen.sampling.seed is not None:
                sp["seed"] = scen.sampling.seed
        out["sampling"] = sp
    return out
