"""Helpers that left ``coveragekit.cli_io``: no output of the library
depends on them, and the tests keep them as references."""

from __future__ import annotations

from typing import Any

from coveragekit.cli_io import ScenarioFile


def scenario_to_dict(scen: ScenarioFile) -> dict:
    """The scenario file's JSON object, which ``parse_scenario`` reads back
    as an equal ``ScenarioFile`` when every SINR transmitter gives its power
    or none does (the powers of the others are not kept)."""
    out: dict[str, Any] = {
        "model": scen.model,
        "window": {"x0": scen.window.x0, "y0": scen.window.y0,
                   "x1": scen.window.x1, "y1": scen.window.y1},
    }
    if scen.model == "protocol":
        out["transmitters"] = [{"x": t.location.x, "y": t.location.y, "tx_radius": t.tx_radius,
                                "int_radius": t.int_radius} for t in scen.transmitters]
    else:
        s = scen.sinr
        out["transmitters"] = [{"x": q.x, "y": q.y} if scen.unpowered
                               else {"x": q.x, "y": q.y, "power": p}
                               for q, p in zip(s.sites, s.powers.values)]
        out.update(alpha=s.alpha, beta=s.beta, noise=s.noise,
                   bounds={"p_min": list(scen.bounds.p_min.values),
                           "p_max": list(scen.bounds.p_max.values)})
    if scen.seed is not None:
        out["seed"] = scen.seed
    sp: dict[str, Any] = {"kind": scen.sampling.kind}
    if scen.sampling.kind == "grid":
        sp["grid_dims"] = list(scen.sampling.grid_dims)
    else:
        sp["sample_count"] = scen.sampling.sample_count
        sp["seed"] = scen.sampling.seed
    out["sampling"] = sp
    return out
