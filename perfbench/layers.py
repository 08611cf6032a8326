"""Where the traced run wraps the program, and the per-layer metrics it
derives from the spans.

Every entry point is wrapped on the module (or class) that calls it; a name
bound in two modules is wrapped in both under one span name.  Every metric
is printed on every workload: a layer a workload bypasses reads 0.  Values
are totals over the traced part of one run (the prologue and
``trace.rounds`` rounds), span times scaled like the end-to-end times.
A span's time includes the machine-speed probes taken during it (a few
per cent of the run, see ``speed.py``).
"""

from __future__ import annotations

from tracer import Tracer


def _partitions(t: Tracer, idx, args, result, token) -> None:
    t.count("frame.partitions", len(result.partitions))


def _top_build(t: Tracer, idx, args, result, token) -> None:
    if t.parents[idx] < 0 or t.names[t.parents[idx]] != "power_diagram.frame":
        t.count("hidden", len(result.hidden))


def _pieces(t: Tracer, idx, args, result, token) -> None:
    t.count("boolean.pieces", len(result))


def _chains(t: Tracer, idx, args, result, token) -> None:
    t.count("stitch.chains", len(result))


def _fallbacks(args, kwargs):
    return getattr(args[0], "traverse_fallbacks", 0)


def _events(t: Tracer, report) -> None:
    for kind, _ in getattr(report, "hidden_events", ()):
        if kind == "parked":
            t.count("parks")
        elif kind == "revived":
            t.count("revivals")


def _inserted(t: Tracer, idx, args, result, token) -> None:
    t.count("insert.redundant", int(bool(getattr(result, "redundant", False))))
    t.count("traverse_visits", getattr(args[0], "last_traverse_visits", 0))
    t.count("traverse_fallbacks", getattr(args[0], "traverse_fallbacks", 0) - token)
    _events(t, result)


def _deleted(t: Tracer, idx, args, result, token) -> None:
    # a parked (hidden) site is deleted without touching the lattice and
    # comes back marked redundant
    t.tags[idx] = "hidden" if getattr(result, "redundant", False) else "visible"
    t.count("affected", len(getattr(result, "affected", ())))
    t.count("traverse_fallbacks", getattr(args[0], "traverse_fallbacks", 0) - token)
    _events(t, result)


def _mask(t: Tracer, idx, args, result, token) -> None:
    pairs = len(args[1]) * len(args[0].sites)
    t.count("mask.pairs", pairs)
    # one float64 receive power per site-point pair, computed not measured
    t.count("mask.bytes_computed", 8 * pairs)


def _searched(t: Tracer, idx, args, result, token) -> None:
    t.count("objective.calls", getattr(result, "evaluations", 0))


def install_points(t: Tracer, ck) -> None:
    owners = {"cli_io": ck.cli_io, "protocol_coverage": ck.protocol_coverage,
              "power_diagram": ck.power_diagram, "optimizer": ck.optimizer,
              "shuffle": ck.shuffle,
              "DynamicCoverage": getattr(ck.shuffle, "DynamicCoverage", None)}
    points = [
        ("cli_io", "cli", "cli_io.cli", None, None),
        ("cli_io", "parse_scenario", "cli_io.parse", None, None),
        ("cli_io", "render_svg", "cli_io.render", None, None),
        ("cli_io", "power_frame", "power_diagram.frame", _partitions, None),
        ("cli_io", "compute_coverage_map", "protocol_coverage.map", None, None),
        ("cli_io", "coverage_area", "protocol_coverage.area", None, None),
        ("cli_io", "region_area", "protocol_coverage.area", None, None),
        ("cli_io", "find_interference_bound", "protocol_coverage.bound", None, None),
        ("cli_io", "random_hill_climb", "optimizer.search", _searched, None),
        ("cli_io", "nelder_mead", "optimizer.search", _searched, None),
        ("cli_io", "exhaustive_search", "optimizer.search", _searched, None),
        ("cli_io", "post_process", "optimizer.post_process", None, None),
        ("cli_io", "estimate_area", "optimizer.estimate_area", None, None),
        ("protocol_coverage", "build", "power_diagram.build", _top_build, None),
        ("protocol_coverage", "power_frame", "power_diagram.frame", _partitions, None),
        ("protocol_coverage", "merge_region_pieces", "protocol_coverage.merge", None, None),
        ("protocol_coverage", "_boolean_pieces", "geometry.boolean", _pieces, None),
        ("protocol_coverage", "stitch_chains", "geometry.stitch", _chains, None),
        ("protocol_coverage", "arc_polygon_area", "geometry.area", None, None),
        ("power_diagram", "build", "power_diagram.build", _top_build, None),
        ("shuffle", "merge_region_pieces", "protocol_coverage.merge", None, None),
        ("shuffle", "_boolean_pieces", "geometry.boolean", _pieces, None),
        ("shuffle", "arc_polygon_area", "geometry.area", None, None),
        ("DynamicCoverage", "insert_transmitter", "dynamic.insert", _inserted, _fallbacks),
        ("DynamicCoverage", "delete_transmitter", "dynamic.delete", _deleted, _fallbacks),
        ("DynamicCoverage", "region_areas", "dynamic.regions", None, None),
        ("optimizer", "estimate_area", "optimizer.estimate_area", None, None),
        ("optimizer", "sample_points", "optimizer.sample_points", None, None),
        ("optimizer", "sinr_max_covered_mask", "sinr_model.mask", _mask, None),
    ]
    for owner, attr, name, hook, before in points:
        t.wrap(owners[owner], attr, name, f"{owner}.{attr}", hook, before)


# (metric name, unit); the order is the order of printing
PER_LAYER = [
    ("cli_io.render.s", "s"), ("cli_io.render.frame.calls", "count"),
    ("cli_io.parse.s", "s"), ("cli_io.self_s", "s"),
    ("power_diagram.build.top.s", "s"), ("power_diagram.build.sub.calls", "count"),
    ("power_diagram.build.sub.s", "s"), ("power_diagram.frame.calls", "count"),
    ("power_diagram.frame.s", "s"), ("power_diagram.frame.self_s", "s"),
    ("power_diagram.frame.partitions", "count"), ("power_diagram.hidden", "count"),
    ("protocol_coverage.map.s", "s"), ("protocol_coverage.map.self_s", "s"),
    ("protocol_coverage.merge.calls", "count"), ("protocol_coverage.merge.s", "s"),
    ("protocol_coverage.area.s", "s"), ("protocol_coverage.bound.s", "s"),
    ("protocol_coverage.arcs", "count"),
    ("geometry.boolean.calls", "count"), ("geometry.boolean.s", "s"),
    ("geometry.boolean.pieces", "count"), ("geometry.stitch.calls", "count"),
    ("geometry.stitch.s", "s"), ("geometry.stitch.chains", "count"),
    ("geometry.area.s", "s"),
    ("dynamic.insert.calls", "count"), ("dynamic.insert.s", "s"),
    ("dynamic.insert.redundant", "count"), ("dynamic.traverse_visits", "count"),
    ("dynamic.delete.visible.calls", "count"), ("dynamic.delete.visible.s", "s"),
    ("dynamic.delete.hidden.calls", "count"), ("dynamic.traverse_fallbacks", "count"),
    ("dynamic.parks", "count"), ("dynamic.revivals", "count"),
    ("dynamic.affected", "count"), ("dynamic.regions.calls", "count"),
    ("dynamic.regions.s", "s"), ("dynamic.regions.recomputed", "count"),
    ("dynamic.history_nodes", "count"), ("dynamic.parked", "count"),
    ("sinr_model.mask.calls", "count"), ("sinr_model.mask.s", "s"),
    ("sinr_model.mask.pairs", "count"), ("sinr_model.mask.bytes_computed", "B"),
    ("optimizer.objective.calls", "count"), ("optimizer.objective.computed", "count"),
    ("optimizer.cache_hit_ratio", "ratio"), ("optimizer.sample_points.calls", "count"),
    ("optimizer.sample_points.s", "s"), ("optimizer.estimate_area.self_s", "s"),
    ("optimizer.search.self_s", "s"),
    ("trace.rounds", "count"), ("trace.spans", "count"),
    ("trace.absent", "count"), ("trace.hook_errors", "count"),
    ("trace.overhead_s", "s"),
]


def layer_values(t: Tracer, gauges: dict[str, float]) -> dict[str, float]:
    """Per-layer metric values from the spans and counters of a traced run.

    ``gauges`` carries the values read from program state at the end of
    the run (history size, parked disks, rounds, overhead).
    """
    c = t.counters
    v: dict[str, float] = {}

    v["cli_io.render.s"] = t.totals("cli_io.render")[1]
    v["cli_io.render.frame.calls"] = t.totals(
        "power_diagram.frame", lambda i: t.has_ancestor(i, "cli_io.render"))[0]
    v["cli_io.parse.s"] = t.totals("cli_io.parse")[1]
    v["cli_io.self_s"] = t.totals("cli_io.cli")[2]

    in_frame = lambda i: t.parents[i] >= 0 and t.names[t.parents[i]] == "power_diagram.frame"
    v["power_diagram.build.top.s"] = t.totals("power_diagram.build",
                                              lambda i: not in_frame(i))[1]
    calls, s, _ = t.totals("power_diagram.build", in_frame)
    v["power_diagram.build.sub.calls"] = calls
    v["power_diagram.build.sub.s"] = s
    calls, s, own = t.totals("power_diagram.frame")
    v["power_diagram.frame.calls"] = calls
    v["power_diagram.frame.s"] = s
    v["power_diagram.frame.self_s"] = own
    v["power_diagram.frame.partitions"] = c.get("frame.partitions", 0)
    v["power_diagram.hidden"] = c.get("hidden", 0)

    _, s, own = t.totals("protocol_coverage.map")
    v["protocol_coverage.map.s"] = s
    v["protocol_coverage.map.self_s"] = own
    calls, s, _ = t.totals("protocol_coverage.merge")
    v["protocol_coverage.merge.calls"] = calls
    v["protocol_coverage.merge.s"] = s
    v["protocol_coverage.area.s"] = t.totals("protocol_coverage.area")[1]
    v["protocol_coverage.bound.s"] = t.totals("protocol_coverage.bound")[1]
    v["protocol_coverage.arcs"] = c.get("arcs", 0)

    calls, s, _ = t.totals("geometry.boolean")
    v["geometry.boolean.calls"] = calls
    v["geometry.boolean.s"] = s
    v["geometry.boolean.pieces"] = c.get("boolean.pieces", 0)
    calls, s, _ = t.totals("geometry.stitch")
    v["geometry.stitch.calls"] = calls
    v["geometry.stitch.s"] = s
    v["geometry.stitch.chains"] = c.get("stitch.chains", 0)
    v["geometry.area.s"] = t.totals("geometry.area")[1]

    calls, s, _ = t.totals("dynamic.insert")
    v["dynamic.insert.calls"] = calls
    v["dynamic.insert.s"] = s
    v["dynamic.insert.redundant"] = c.get("insert.redundant", 0)
    v["dynamic.traverse_visits"] = c.get("traverse_visits", 0)
    calls, s, _ = t.totals("dynamic.delete", lambda i: t.tags.get(i) == "visible")
    v["dynamic.delete.visible.calls"] = calls
    v["dynamic.delete.visible.s"] = s
    v["dynamic.delete.hidden.calls"] = t.totals(
        "dynamic.delete", lambda i: t.tags.get(i) == "hidden")[0]
    v["dynamic.traverse_fallbacks"] = c.get("traverse_fallbacks", 0)
    v["dynamic.parks"] = c.get("parks", 0)
    v["dynamic.revivals"] = c.get("revivals", 0)
    v["dynamic.affected"] = c.get("affected", 0)
    calls, s, _ = t.totals("dynamic.regions")
    v["dynamic.regions.calls"] = calls
    v["dynamic.regions.s"] = s
    v["dynamic.regions.recomputed"] = t.totals(
        "protocol_coverage.merge", lambda i: t.has_ancestor(i, "dynamic.regions"))[0]
    v["dynamic.history_nodes"] = gauges.get("history_nodes", 0)
    v["dynamic.parked"] = gauges.get("parked", 0)

    calls, s, _ = t.totals("sinr_model.mask")
    v["sinr_model.mask.calls"] = calls
    v["sinr_model.mask.s"] = s
    v["sinr_model.mask.pairs"] = c.get("mask.pairs", 0)
    v["sinr_model.mask.bytes_computed"] = c.get("mask.bytes_computed", 0)

    queried = c.get("objective.calls", 0)
    computed = t.totals("optimizer.estimate_area",
                        lambda i: t.has_ancestor(i, "optimizer.search"))[0]
    v["optimizer.objective.calls"] = queried
    v["optimizer.objective.computed"] = computed
    v["optimizer.cache_hit_ratio"] = 1.0 - computed / queried if queried else 0.0
    calls, s, _ = t.totals("optimizer.sample_points")
    v["optimizer.sample_points.calls"] = calls
    v["optimizer.sample_points.s"] = s
    v["optimizer.estimate_area.self_s"] = t.totals("optimizer.estimate_area")[2]
    v["optimizer.search.self_s"] = t.totals("optimizer.search")[2]

    v["trace.rounds"] = gauges.get("rounds", 0)
    v["trace.spans"] = len(t.names)
    v["trace.absent"] = len(t.absent)
    v["trace.hook_errors"] = len(t.hook_errors)
    v["trace.overhead_s"] = gauges.get("overhead_s", 0.0)
    return v
