"""Record the best_area that each sinr-optimize pool scenario reaches, per
method, into sinr_baseline.json.  The sinr-optimize check then requires
later commits to stay within 0.01 of these values.

    python3 perfbench/record_sinr_baseline.py
"""

from __future__ import annotations

import json
import sys

import run
from workloads import SinrOptimize, quiet_cli


def main() -> int:
    ck = run.import_program()
    work = run.WORK / "sinr-baseline"
    work.mkdir(parents=True, exist_ok=True)
    n_big, n_small, grid, levels = SinrOptimize.SIZES
    sizes = {"big": n_big, "small": n_small}
    out: dict[str, list[float]] = {m: [] for m, _ in SinrOptimize.METHODS}
    for k in range(SinrOptimize.POOL):
        for method, tag in SinrOptimize.METHODS:
            scen = work / "scenario.json"
            scen.write_text(json.dumps(SinrOptimize.scenario(k, sizes[tag], grid)))
            res = work / "result.json"
            rc = quiet_cli(ck, [*SinrOptimize.argv(method, scen, k, levels),
                                "--out", str(res)])
            if rc != 0:
                print(f"{method} on scenario {k}: exit {rc}", file=sys.stderr)
                return 1
            out[method].append(json.loads(res.read_text())["best_area"])
        print(k, [out[m][-1] for m in out], flush=True)
    for f in work.iterdir():
        f.unlink()
    work.rmdir()
    SinrOptimize.BASELINE.write_text(json.dumps(out, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
