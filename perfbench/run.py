"""Benchmark of the tinyfdss CLI: train, eval and adapt workloads.

Usage (from the repository root):

    python3 perfbench/run.py --workload {train,eval,adapt} --seed N \
        --seconds S --trace {0,1} [--scale {full,smoke}]

The package is imported from ``src/`` next to this directory; the run exits
with code 2 and prints no result when it is missing.  Each run works in
``.perfbench/<workload>-s<seed>-t<trace>/`` under the repository root.

``--trace 0`` measures the end-to-end metrics: set-up is repeated
SETUP_ROUNDS times and its median reported, then ``cli.main`` runs the
workload for ``--seconds`` seconds, one fresh input per iteration, and a
quality probe evaluates the reference checkpoint on the seed's inputs.
``--trace 1`` runs one iteration untraced and the same iteration traced,
checks that both wrote byte-identical outputs and reports per-layer metrics.

The last line of standard output is the result object:
``{"correct", "attempted", "failed", "metrics"}``.  Every correctness check is
one operation attempted.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

# the benchmark times one thread; BLAS is pinned before numpy loads
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402

import tracing  # noqa: E402
import workloads as wl  # noqa: E402
from hostspeed import HostSpeed  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_ROUNDS = 3

IMPORT_PROBE = """import sys
sys.path[:0] = sys.argv[1:3]
from hostspeed import HostSpeed
with HostSpeed() as speed:
    import tinyfdss.cli
    print(speed.factor())
"""


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=("train", "eval", "adapt"), required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--scale", choices=tuple(wl.SCALES), default="full")
    return p.parse_args(argv)


def import_seconds() -> tuple[float, float] | None:
    """(wall time, host speed factor) of a fresh interpreter importing the CLI."""
    start = time.perf_counter()
    try:
        proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(HERE), str(SRC)],
                              cwd=ROOT, capture_output=True, text=True, timeout=120)
    except (OSError, subprocess.TimeoutExpired):
        return None
    wall = time.perf_counter() - start
    if proc.returncode != 0:
        return None
    return wall, float(proc.stdout.split()[-1])


class Run:
    """One benchmark run: inputs, CLI calls, checks and timings."""

    def __init__(self, args, cli, run_dir: Path, log, speed: HostSpeed):
        self.args = args
        self.cli = cli
        self.run_dir = run_dir
        self.log = log
        self.speed = speed
        self.command = args.workload
        self.ticks = wl.SCALES[args.scale]["ticks"]
        self.checks = wl.Checks()
        self.schema = json.loads((SRC / "tinyfdss" / "schemas" / "summary.schema.json").read_text())

    def inputs(self, work: Path, seed: int):
        """Write the config (and trace) of one invocation of the workload."""
        config = wl.make_config(seed, self.args.scale)
        trace = wl.make_trace(seed, self.ticks) if self.command == "adapt" else None
        wl.write_inputs(work, config, trace)
        return config, trace

    def call(self, cmd: str, work: Path, checkpoint: Path | None) -> tuple[float, float]:
        """Run one CLI call; returns (wall seconds, host speed factor over it)."""
        mark = self.speed.mark()
        ok, wall = wl.run_cli(self.cli.main, wl.cli_args(cmd, work, checkpoint), self.log)
        self.checks.check(ok, f"{work.name}: {cmd} exited non-zero")
        return wall, self.speed.factor(mark)

    def train_reference(self, work: Path) -> tuple[Path, float | None]:
        """The checkpoint eval, adapt and the probe use, trained by this code."""
        config = wl.make_config(wl.REFERENCE_SEED, self.args.scale)
        wl.write_inputs(work, config)
        self.call("train", work, None)
        loss = wl.check_train(work / "out", config, self.checks, work.name)
        return work / "out" / self.cli.CHECKPOINT_NAME, loss

    def iteration(self, work: Path, seed: int, checkpoint: Path | None):
        """One timed CLI call, checked; returns (wall, speed, blocks, check value)."""
        config, trace = self.inputs(work, seed)
        wall, factor = self.call(self.command, work, checkpoint)
        out = work / "out"
        if self.command == "train":
            value = wl.check_train(out, config, self.checks, work.name)
        elif self.command == "eval":
            value = wl.check_eval(out, self.schema, self.args.scale, self.checks, work.name)
        else:
            value = wl.check_adapt(out, trace, self.checks, work.name)
        blocks = wl.blocks_through_chain(self.command, config, len(trace or ()))
        return wall, factor, blocks, value

    def end_to_end(self) -> tuple[dict, dict]:
        args, checks, speed = self.args, self.checks, self.speed
        needs_checkpoint = self.command != "train"

        # set-up: a fresh interpreter's imports, plus input generation, config
        # parsing and the reference checkpoint, each repeated SETUP_ROUNDS times
        imports = [import_seconds() for _ in range(SETUP_ROUNDS)]
        checks.check(None not in imports, "importing tinyfdss.cli in a fresh interpreter failed")
        imports = [i for i in imports if i is not None] or [(0.0, 1.0)]
        rounds, checkpoints = [], []
        for r in range(SETUP_ROUNDS):
            work = self.run_dir / f"setup{r}"
            mark = speed.mark()
            start = time.perf_counter()
            self.inputs(work, args.seed)
            self.cli.load_config(work / "config.json")
            if needs_checkpoint:
                checkpoints.append(self.train_reference(work / "reference"))
            rounds.append((time.perf_counter() - start, speed.factor(mark)))
        setup_s = (statistics.median(w * f for w, f in imports)
                   + statistics.median(w * f for w, f in rounds))

        # timed phase: one fresh input per iteration, the whole iterations that
        # fit in --seconds and at least one; train's first iteration is the
        # reference training itself
        timings = []
        start = time.perf_counter()
        i = 0
        while True:
            if i == 0:
                seed = wl.REFERENCE_SEED if self.command == "train" else args.seed
            else:
                seed = wl.iteration_seed(args.seed, i)
            wall, factor, blocks, value = self.iteration(
                self.run_dir / f"it{i}", seed, checkpoints[0][0] if needs_checkpoint else None)
            if i == 0 and self.command == "train":
                checkpoints.append((self.run_dir / "it0" / "out" / self.cli.CHECKPOINT_NAME, value))
            timings.append((wall, factor, blocks))
            i += 1
            if time.perf_counter() - start + wall > args.seconds:
                break
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        checks.check(len({p.read_bytes() for p, _ in checkpoints if p.is_file()}) == 1,
                     "reference checkpoints of one run differ")

        # quality probe: the reference checkpoint on the workload seed's inputs
        reference, final_loss = checkpoints[0]
        probe = wl.write_inputs(self.run_dir / "probe-eval",
                                wl.probe_config(args.seed, args.scale))
        self.call("eval", probe, reference)
        gain, ser = wl.check_eval(probe / "out", self.schema, args.scale, checks, probe.name)
        probe = self.run_dir / "probe-adapt"
        trace = wl.make_trace(args.seed, self.ticks)
        wl.write_inputs(probe, wl.make_config(args.seed, args.scale), trace)
        self.call("adapt", probe, reference)
        mean_papr = wl.check_adapt(probe / "out", trace, checks, probe.name)

        metrics = {
            "setup_s": (setup_s, "s"),
            "blocks_per_s": (statistics.median(n / (w * f) for w, f, n in timings), "blocks/s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
            "papr_gain_db": (gain, "dB"),
            "tinyml_ser": (ser, "ratio"),
            "final_loss": (final_loss, "loss"),
            "mean_papr_db": (mean_papr, "dB"),
        }
        details = {"import_s_speed": imports, "setup_round_s_speed": rounds,
                   "iteration_s_speed_blocks": timings,
                   "raw_blocks_per_s": statistics.median(n / w for w, _, n in timings)}
        return metrics, details

    def per_layer(self) -> tuple[dict, dict]:
        seed = self.args.seed
        checkpoint = (self.train_reference(self.run_dir / "reference")[0]
                      if self.command != "train" else None)
        wall_plain, speed_plain, blocks, _ = self.iteration(
            self.run_dir / "untraced", seed, checkpoint)
        recorder = tracing.Recorder()
        with tracing.Tracing(recorder):
            wall_traced, speed_traced, _, _ = self.iteration(
                self.run_dir / "traced", seed, checkpoint)
        differ = wl.same_outputs(self.run_dir / "untraced" / "out",
                                 self.run_dir / "traced" / "out")
        self.checks.check(not differ, f"traced outputs differ from untraced: {differ}")
        recorder.write_spans(self.run_dir / "spans.csv")
        overhead = wall_traced * speed_traced / (wall_plain * speed_plain)
        listed = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
        metrics = tracing.per_layer(recorder, listed, blocks, speed_traced, overhead)
        for name, (value, unit) in metrics.items():
            if unit == "count" and name != "trace.blocks":
                print(f"count {name} = {value} per {blocks} blocks through the chain")
        print(f"ratio evaluation.block_reuse = {metrics['evaluation.distinct_blocks'][0]}"
              f" distinct / {metrics['chain.map_symbols.blocks'][0]} mapped blocks")
        details = {"untraced_s_speed": (wall_plain, speed_plain),
                   "traced_s_speed": (wall_traced, speed_traced)}
        return metrics, details


def src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def blas_info() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (KeyError, TypeError):
        return {}
    return {"name": blas.get("name"), "version": blas.get("version")}


def provenance(args, load_1m: float) -> dict:
    return {
        "commit": git_commit(),
        "src_sha256": src_digest(),
        "workload": args.workload,
        "seed": args.seed,
        "scale": args.scale,
        "seconds": args.seconds,
        "trace": args.trace,
        "reference_seed": wl.REFERENCE_SEED,
        "params": {"config": wl.make_config(args.seed, args.scale),
                   "probe_eval": wl.probe_config(args.seed, args.scale)["eval"],
                   "trace_ticks": wl.SCALES[args.scale]["ticks"],
                   "trace_snr_db": [wl.SNR_LO_DB, wl.SNR_HI_DB, wl.SNR_STEP_DB]},
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_info(),
        "blas_threads": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
        "loadavg_1m_start": load_1m,
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    load_1m = os.getloadavg()[0]
    if not (SRC / "tinyfdss" / "cli.py").is_file():
        print(f"error: no tinyfdss package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import tinyfdss
    from tinyfdss import cli

    if Path(tinyfdss.__file__).resolve().parent != SRC / "tinyfdss":
        print(f"error: imported tinyfdss from {tinyfdss.__file__}", file=sys.stderr)
        return 2

    run_dir = ROOT / ".perfbench" / f"{args.workload}-s{args.seed}-t{args.trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    with open(run_dir / "program.log", "w") as log, HostSpeed() as speed:
        run = Run(args, cli, run_dir, log, speed)
        metrics, details = run.per_layer() if args.trace else run.end_to_end()

    checks = run.checks
    result = {
        "correct": checks.failed == 0 and all(v is not None for v, _ in metrics.values()),
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    origin = provenance(args, load_1m)
    (run_dir / "result.json").write_text(json.dumps(
        {"provenance": origin, "details": details, "failures": checks.failures,
         "result": result}, indent=2) + "\n")
    for failure in checks.failures:
        print(f"check failed: {failure}", file=sys.stderr)
    print("provenance " + json.dumps(origin, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
