"""Run every workload over several seeds and summarise each metric.

Full set (ten seeds per workload, end-to-end metrics):

    python3 perfbench/suite.py --seeds 1-10

Per-layer metrics from traced runs:

    python3 perfbench/suite.py --seeds 1-3 --trace 1

Smoke-scale self-check: every workload at a tiny scale, traced and untraced;
it fails unless every metric of BENCHMARK.json is emitted with its unit and
every check passes:

    python3 perfbench/suite.py --smoke

Each run is ``perfbench/run.py`` in its own process, one after another, the
workloads interleaved so that a slow spell of the host falls on all of them.
For each workload and metric the table gives the median, the quartiles of
``statistics.quantiles(values, n=4)``, their distance as a share of the median
(the spread) and the metric's bound.  All results are written to
``.perfbench/suite.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SMOKE_SECONDS = 2.0


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_one(workload: str, seed: int, seconds: float, trace: int, scale: str) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
           "--scale", scale]
    start = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    wall = time.perf_counter() - start
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = None
    return {"workload": workload, "seed": seed, "trace": trace,
            "returncode": proc.returncode, "result": result, "wall_s": wall,
            "stderr": proc.stderr[-2000:]}


def problems(run: dict, expected: list[dict]) -> list[str]:
    """What is wrong with one run against the metric list of BENCHMARK.json."""
    where = f"{run['workload']} seed {run['seed']} trace {run['trace']}"
    result = run["result"]
    if run["returncode"] != 0 or result is None:
        return [f"{where}: exit code {run['returncode']}, no result: {run['stderr']}"]
    found = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        found.append(f"{where}: result keys {sorted(result)}")
    if not result.get("correct") or result.get("failed"):
        found.append(f"{where}: correct={result.get('correct')} failed={result.get('failed')}"
                     f" of {result.get('attempted')}: {run['stderr']}")
    metrics = result.get("metrics", {})
    for m in expected:
        got = metrics.get(m["name"])
        if got is None or not isinstance(got.get("value"), (int, float)):
            found.append(f"{where}: metric {m['name']} missing")
        elif got.get("unit") != m["unit"]:
            found.append(f"{where}: metric {m['name']} unit {got.get('unit')} != {m['unit']}")
    extra = set(metrics) - {m["name"] for m in expected}
    if extra:
        found.append(f"{where}: metrics not in BENCHMARK.json: {sorted(extra)}")
    return found


def summarise(runs: list[dict], expected: list[dict], workloads: list[str]) -> None:
    print(f"{'workload':8} {'metric':38} {'unit':9} {'n':>3} {'median':>12} "
          f"{'q1':>12} {'q3':>12} {'spread':>7} {'bound':>6}")
    for workload in workloads:
        done = [r["result"] for r in runs if r["workload"] == workload and r["result"]]
        attempted = sum(r["attempted"] for r in done)
        failed = sum(r["failed"] for r in done)
        for m in expected:
            values = [r["metrics"][m["name"]]["value"] for r in done
                      if m["name"] in r["metrics"]]
            if not values:
                continue
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
            spread = (q3 - q1) / abs(med) if med else float("nan")
            bound = m.get("bound")
            print(f"{workload:8} {m['name']:38} {m['unit']:9} {len(values):3d} {med:12.6g} "
                  f"{q1:12.6g} {q3:12.6g} {spread:7.3f} "
                  f"{'' if bound is None else format(bound, '6.2f')}")
        print(f"{workload:8} operations attempted {attempted}, failed {failed}")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,5,8")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="tiny-scale self-check")
    args = p.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in bench["workloads"]]
    if args.smoke:
        plan = [(w, 1, t) for t in (0, 1) for w in workloads]
        seconds, scale = SMOKE_SECONDS, "smoke"
    else:
        plan = [(w, s, args.trace) for s in parse_seeds(args.seeds) for w in workloads]
        seconds, scale = bench["run_seconds"], "full"

    runs, found = [], []
    for workload, seed, trace in plan:
        run = run_one(workload, seed, seconds, trace, scale)
        expected = bench["end_to_end"] if trace == 0 else bench["per_layer"]
        faults = problems(run, expected)
        found.extend(faults)
        runs.append(run)
        print(f"{workload} seed {seed} trace {trace}: {run['wall_s']:.1f} s, "
              f"{'ok' if not faults else '; '.join(faults)}", flush=True)

    for trace in sorted({t for _, _, t in plan}):
        expected = bench["end_to_end"] if trace == 0 else bench["per_layer"]
        summarise([r for r in runs if r["trace"] == trace], expected, workloads)
    out = ROOT / ".perfbench" / "suite.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(runs, indent=1) + "\n")
    print(f"{len(runs)} runs, {len(found)} problems; results in {out.relative_to(ROOT)}")
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
