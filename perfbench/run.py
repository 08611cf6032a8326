"""coveragekit benchmark: one workload per process, closed loop, checked.

    python3 perfbench/run.py --workload static-map --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --smoke

Run from the root of a checkout; the program is imported from ``src/`` there.
One caller, one thread: ``COVERAGE_KIT_THREADS`` is removed from the
environment.  The run

1. sets up seven times (fresh import of the program, input generation from
   the seed, a small warm-up) and reports the median as ``setup_s``;
2. runs a fixed number of the workload's rounds, about ``--seconds`` of
   work on the reference machine (see ``round_count``);
3. checks every output outside the timed region;
4. prints one ``metric <name> <value> <unit>`` line per metric, a ``meta``
   line, and as its last line a JSON object with ``correct``, ``attempted``,
   ``failed`` and ``metrics``.

End-to-end metrics (``--trace 0``), the same three on every workload:

* ``setup_s``: median set-up time;
* ``peak_rss_mb``: peak resident memory up to the end of the timed region;
* ``round_s``: median time of one round.  static-map: one ``build-map``
  command.  dynamic-churn: one visible delete (with the hidden deletes
  drawn before it), as many inserts, one read;
  sinr-optimize: the rhc, nm and exhaustive commands on one scenario;

Every workload must report every gated metric, hence these three neutral
ones.  Each workload also prints, not gated, ``op_ms_p50`` (median time of
one operation: a CLI command, or one insert, delete or read; on
dynamic-churn that is an insert of the fill, and the fill's 1000 inserts
take under a second, too short a window to average the machine's drift
out) and its own figures as ``metric`` lines: static-map ``build_map_s``;
dynamic-churn ``insert_ms_p50``, ``insert_ms_p99``, ``delete_ms_p50``
(visible-site deletes) and ``regions_ms_p50`` (reads after a round);
sinr-optimize ``optimize_rhc_s``, ``optimize_nm_s`` and
``optimize_exhaustive_s``; and all ``fail_frac``, failed over attempted
operations.

``--trace 1`` wraps the program's layer entry points (see ``layers.py``),
traces every other round, and reports the per-layer metrics instead,
including ``trace.overhead_s``: the median over round pairs on the same
inputs of traced minus untraced round time, in the same process.  Spans are written to ``.perfbench/``.

Every time is scaled to a reference machine speed by a probe timed every
0.2 s, also during operations (``speed.py``); the probe times and the
unscaled median round time are on the ``meta`` line, with the git revision, a digest and
the line count of ``src/``, ``nproc`` and the Python, numpy and scipy
versions.  Latencies cover the operations that completed; failures are
counted, not timed.

``correct`` is false when some operation returned a wrong output; an
operation that raised or exited non-zero is counted in ``failed`` only.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import platform
import resource
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench"
SETUP_REPS = 7

END_TO_END = [("setup_s", "s"), ("peak_rss_mb", "MB"), ("round_s", "s")]


class ProgramMissing(Exception):
    pass


def import_program() -> SimpleNamespace:
    """Import the program afresh from ``ROOT/src`` (not from site-packages)."""
    src = str(ROOT / "src")
    if src not in sys.path:
        sys.path.insert(0, src)
    for name in list(sys.modules):
        if name == "coveragekit" or name.startswith("coveragekit."):
            del sys.modules[name]
    try:
        mods = {m: importlib.import_module(f"coveragekit.{m}") for m in (
            "geometry", "power_diagram", "protocol_coverage", "sinr_model",
            "optimizer", "cli_io", "dynamic_coverage")}
        mods["shuffle"] = importlib.import_module("coveragekit.dynamic_coverage.shuffle")
    except ImportError as e:
        raise ProgramMissing(f"cannot import coveragekit from {src}: {e}")
    origin = Path(sys.modules["coveragekit"].__file__).resolve()
    if not origin.is_relative_to(ROOT / "src"):
        raise ProgramMissing(f"coveragekit imported from {origin}, not {src}")
    return SimpleNamespace(**mods)


def git_revision() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "none"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    path = ROOT / ".git" / ref[5:]
    if path.is_file():
        return path.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return "unknown"


def metadata() -> dict:
    import numpy
    import scipy

    files = sorted((ROOT / "src").rglob("*.py"))
    digest = hashlib.sha256()
    lines = 0
    for f in files:
        data = f.read_bytes()
        digest.update(f.relative_to(ROOT).as_posix().encode() + b"\0" + data)
        lines += data.count(b"\n")
    return {"git_revision": git_revision(), "src_sha256": digest.hexdigest()[:16],
            "src_lines": lines, "nproc": os.cpu_count(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__}


def round_count(wl, seconds: float, traced: bool) -> int:
    """A fixed number of rounds per run: ``seconds`` over the workload's
    reference round time (measured on a 2-vCPU machine), at least 2.  Every
    run of a seed does the same operations, so two runs of one seed attempt,
    and fail, the same number; a traced run makes pairs of rounds.  Only
    on a machine so slow that ``CAP * seconds`` pass first are there fewer."""
    if traced:
        return 2 * max(1, round(seconds / (2.0 * wl.ROUND_S)))
    return max(2, round(seconds / wl.ROUND_S))


CAP = 2.0  # no round starts after CAP * seconds, on a much slower machine


def measure(wl, ck, seconds: float, tracer=None):
    """Prologue, then ``round_count`` rounds; with a tracer, the prologue and
    every odd round are traced, the odd round on the same inputs as the even
    one before it."""
    from workloads import Ops

    ops = Ops(tracer)
    rounds: list[tuple[int, int, bool]] = []  # ops[first:end], traced
    deadline = time.perf_counter() + CAP * seconds
    with ops.probe.running():
        if tracer is not None:
            tracer.install()
            ops.traced = True
        wl.prologue(ck, ops)
        if tracer is not None:
            tracer.uninstall()
            ops.traced = False
        for r in range(round_count(wl, seconds, tracer is not None)):
            if r >= 2 and (tracer is None or r % 2 == 0) \
                    and time.perf_counter() > deadline:
                break
            traced = tracer is not None and r % 2 == 1
            if traced:
                tracer.install()
            ops.round, ops.traced = r, traced
            # a traced run gives each input an untraced and a traced round
            ops.step = r // 2 if tracer is not None else r
            first = len(ops.items)
            wl.round(ck, ops)
            if traced:
                tracer.uninstall()
            rounds.append((first, len(ops.items), traced))
    ops.finish(wl.SPEED_EXPONENT)
    return ops, rounds


def round_seconds(ops, rounds) -> list[float]:
    """Untraced round times, from the rounds whose operations all completed;
    from all untraced rounds if none did."""
    mine = [ops.items[a:b] for a, b, traced in rounds if not traced]
    clean = [r for r in mine if all(o.completed for o in r)] or mine
    return [sum(o.seconds for o in r) for r in clean]


def run(workload: str, seed: int, seconds: float, trace: bool, tiny: bool,
        corrupt: bool) -> int:
    from workloads import WORKLOADS, median
    import layers
    import speed
    from speed import SpeedProbe
    from tracer import Tracer

    os.environ.pop("COVERAGE_KIT_THREADS", None)
    WORK.mkdir(exist_ok=True)
    work = WORK / f"{workload}-seed{seed}-trace{int(trace)}{'-tiny' if tiny else ''}"
    work.mkdir(exist_ok=True)
    for stale in work.iterdir():
        stale.unlink()
    meta = metadata()

    wl = WORKLOADS[workload]()
    setup_probe = SpeedProbe()
    setup_times = []
    for _ in range(SETUP_REPS):
        with setup_probe.running():
            busy = setup_probe.busy
            t0 = time.perf_counter()
            ck = import_program()
            wl.setup(ck, seed, tiny, work)
            t1 = time.perf_counter()
            busy = setup_probe.busy - busy
        setup_times.append((t1 - t0 - busy) * setup_probe.scale(t0, t1))

    tracer = None
    if trace:
        tracer = Tracer()
        layers.install_points(tracer, ck)
    ops, rounds = measure(wl, ck, seconds, tracer)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    probes = sorted(1e3 * t for t in setup_probe.times + ops.probe.times)
    meta["probe_ms"] = {"passes": speed.PASSES, "reference": 1e3 * speed.REFERENCE_S,
                        "count": len(probes), "min": probes[0],
                        "median": median(probes), "max": probes[-1]}
    meta["raw_round_s"] = median([sum(o.raw for o in ops.items[a:b])
                                  for a, b, t in rounds if not t])

    checked = wl.check(ck, ops, corrupt)
    for scratch in work.iterdir():  # inputs and outputs of the program
        scratch.unlink()
    attempted = len(ops.items)
    failed = sum(1 for o in ops.items if not o.ok)
    plain = [o for o in ops.items if o.round < 0 or not rounds[o.round][2]]
    plain_ops = [o.seconds for o in plain if o.completed] or [o.seconds for o in plain]
    named = [("setup_s", median(setup_times), "s"),
             ("peak_rss_mb", peak_rss_mb, "MB"),
             ("round_s", median(round_seconds(ops, rounds)), "s"),
             ("op_ms_p50", 1e3 * median(plain_ops), "ms"),
             ("fail_frac", failed / attempted, "ratio")]
    named += wl.headline(ops)

    if trace:
        gauges = dict(wl.gauges())
        gauges["rounds"] = sum(1 for _, _, t in rounds if t)
        # each traced round repeats the inputs of the untraced round before it
        spent = [sum(o.seconds for o in ops.items[a:b]) for a, b, _ in rounds]
        gauges["overhead_s"] = median([spent[i + 1] - spent[i]
                                       for i in range(0, len(spent) - 1, 2)])
        tracer.op_scale = [o.seconds / o.raw if o.raw > 0 else 1.0 for o in ops.items]
        values = layers.layer_values(tracer, gauges)
        metrics = {n: {"value": values[n], "unit": u} for n, u in layers.PER_LAYER}
        tracer.write(work / "spans.jsonl")
    else:
        by_name = {n: v for n, v, _ in named}
        metrics = {n: {"value": by_name[n], "unit": u} for n, u in END_TO_END}

    for err in ops.errors:
        print(f"failure {err}", file=sys.stderr)
    print(f"workload {workload} seed {seed} trace {int(trace)} rounds {len(rounds)} "
          f"ops {attempted} failed {failed} wrong {ops.wrong}")
    print(f"check {checked}")
    for n, v, u in named:
        print(f"metric {n} {v:.6g} {u}")
    if trace:
        for n, u in layers.PER_LAYER:
            print(f"metric {n} {metrics[n]['value']:.6g} {u}")
        for label in tracer.absent:
            print(f"absent {label}")
        for err in tracer.hook_errors[:10]:
            print(f"hook_error {err}")
    print("meta " + json.dumps(meta, sort_keys=True))
    result = {"correct": ops.wrong == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    (work / "result.json").write_text(json.dumps(
        {"result": result, "named": {n: [v, u] for n, v, u in named}, "meta": meta,
         "errors": ops.errors}, indent=1), encoding="utf-8")
    print(json.dumps(result))
    return 0


def smoke() -> int:
    """Each workload at a tiny size, in its own process: every declared
    metric is printed with its unit, a clean run has no failures, and a
    deliberately corrupted output is counted as failed.  Also: a missing
    layer entry point is reported as absent instead of failing."""
    import layers
    from tracer import Tracer

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    want = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
            1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    problems = []
    # a layer entry point removed or renamed by a refactor is reported absent
    ck = import_program()
    renamed = SimpleNamespace(**{k: v for k, v in vars(ck).items() if k != "optimizer"},
                              optimizer=SimpleNamespace())
    probe = Tracer()
    layers.install_points(probe, renamed)
    probe.install()
    probe.uninstall()
    if "optimizer.sample_points" not in probe.absent:
        problems.append(f"absent entry points not reported: {probe.absent}")
    for w in spec["workloads"]:
        for trace, corrupt in ((0, False), (1, False), (0, True)):
            argv = [sys.executable, str(HERE / "run.py"), "--workload", w["name"],
                    "--seed", "1", "--seconds", "1", "--trace", str(trace), "--tiny"]
            if corrupt:
                argv.append("--corrupt")
            proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True,
                                  timeout=300)
            tag = f"{w['name']} trace={trace} corrupt={corrupt}"
            if proc.returncode != 0:
                problems.append(f"{tag}: exit {proc.returncode}: {proc.stderr[-500:]}")
                continue
            lines = proc.stdout.strip().splitlines()
            res = json.loads(lines[-1])
            got = {n: m["unit"] for n, m in res["metrics"].items()}
            if set(res) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{tag}: result keys {sorted(res)}")
            if got != want[trace]:
                problems.append(f"{tag}: metrics differ from BENCHMARK.json")
            printed = {ln.split()[1]: ln.split()[3] for ln in lines
                       if ln.startswith("metric ")}
            missing = [n for n, u in want[trace].items() if printed.get(n) != u]
            if missing:
                problems.append(f"{tag}: not printed with unit: {missing}")
            if corrupt and (res["failed"] < 1 or res["correct"]):
                problems.append(f"{tag}: corrupted output not counted: {res['failed']}")
            if not corrupt and res["failed"]:
                problems.append(f"{tag}: {res['failed']} failed ops: {proc.stderr[-500:]}")
            print(f"smoke {tag}: {'ok' if not problems else 'see below'}")
    for p in problems:
        print(f"smoke problem {p}")
    print("smoke " + ("FAIL" if problems else "PASS"))
    return 1 if problems else 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=["static-map", "dynamic-churn", "sinr-optimize"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--smoke", action="store_true", help="self-check at tiny sizes")
    ap.add_argument("--tiny", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--corrupt", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args()
    if args.smoke:
        return smoke()
    if args.workload is None:
        ap.error("--workload is required")
    try:
        return run(args.workload, args.seed, args.seconds, bool(args.trace),
                   args.tiny, args.corrupt)
    except ProgramMissing as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
