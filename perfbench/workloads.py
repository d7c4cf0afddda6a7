"""Workload inputs, CLI invocations and output checks for the benchmark.

Inputs are generated here from the workload seed and handed to the program
only as files: a JSON config, an SNR trace CSV and, for ``eval``/``adapt``, a
checkpoint the program trained itself.  The config values are those of the
desk config (``configs/desk.json``) at the time the benchmark was defined,
with the block counts below; they are written out in full so that an edit to
the repository's configs does not change the benchmark.
"""

from __future__ import annotations

import contextlib
import csv
import json
import math
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

# The checkpoint that eval, adapt and the quality probe use is trained at the
# desk config's own seed, never at the workload seed: on 2 of the seeds 0-9
# a 2000-block x 2-epoch run ends with a filter worse than RRC (see README),
# which would make correctness depend on the seed the benchmark is given.
REFERENCE_SEED = 1

SCALES = {
    # full: the benchmark proper.  10 000 CCDF blocks leave 10 samples beyond
    # the 1e-3 quantile; 4 000 probe blocks give ~700 symbol errors at 10 dB.
    "full": {"train_blocks": 2000, "epochs": 2, "eval_blocks": 500,
             "ccdf_blocks": 10_000, "probe_blocks": 4000, "ticks": 3000},
    # smoke: completes every step in seconds; statistical checks are skipped.
    "smoke": {"train_blocks": 192, "epochs": 2, "eval_blocks": 30,
              "ccdf_blocks": 400, "probe_blocks": 30, "ticks": 200},
}

SNR_LO_DB, SNR_HI_DB, SNR_STEP_DB = -2.0, 25.0, 1.5
PERIOD_MS = 100.0
SER_SNR_DB = 10.0
LIVE_WEIGHTS = 492
# acceptance anchors for PAPR at CCDF 1e-3 (dB)
ANCHORS = {"dftsofdm": (7.0, 8.0), "rrc": (7.3, 8.7)}


def iteration_seed(seed: int, i: int) -> int:
    """Seed of timed iteration ``i``: a fresh, reproducible input per iteration."""
    return int(np.random.SeedSequence((seed, i)).generate_state(1, np.uint64)[0])


def make_config(seed: int, scale: str, **eval_overrides) -> dict:
    s = SCALES[scale]
    eval_section = {
        "snr_db": [5.0, SER_SNR_DB],
        "channels": ["awgn", "rayleigh", "rician"],
        "mods": ["qpsk"],
        "n_blocks": s["eval_blocks"],
        "ccdf_blocks": s["ccdf_blocks"],
        "ccdf_snr_db": 15.0,
        "oobe_blocks": 16 if scale == "smoke" else 64,
        "rrc_rolloff": 0.25,
        "use_quantized": True,
        "schemes": ["tinyml", "rrc", "dftsofdm", "clf", "slm"],
    }
    eval_section.update(eval_overrides)
    return {
        "seed": seed,
        "out_dir": "out",
        "chain": {"n_data": 210, "n_se": 15, "n_fft": 256, "oversample": 4,
                  "bandwidth_hz": 20_000_000.0, "scs_hz": 30_000.0},
        "train": {
            "n_blocks": s["train_blocks"], "batch_size": 32, "epochs": s["epochs"],
            "lr": 0.001, "weight_decay": 0.0001, "prune_mode": "target",
            "target_sparsity": 0.8, "snr_range_db": [0.0, 20.0],
            "channel_mix": {"awgn": 0.5, "rayleigh": 0.5},
            "mod_mix": {"qpsk": 0.5, "qam16": 0.5}, "hidden_width": 10,
        },
        "eval": eval_section,
        "baselines": {"clf": {"clip_ratio_db": 4.0, "iterations": 2},
                      "slm": {"num_candidates": 8}},
        "adapt": {"period_ms": PERIOD_MS, "mod": "qpsk"},
    }


def probe_config(seed: int, scale: str) -> dict:
    """Eval grid of the quality probe: tinyml and the two anchors, one AWGN cell."""
    return make_config(seed, scale, snr_db=[SER_SNR_DB], channels=["awgn"],
                       schemes=["tinyml", "rrc", "dftsofdm"],
                       n_blocks=SCALES[scale]["probe_blocks"])


def make_trace(seed: int, ticks: int) -> list[tuple[float, float]]:
    """SNR feedback as a random walk reflected into [-2, 25] dB, one row per tick.

    The range covers every lambda bin, including the clamp below 0 dB.
    """
    rng = np.random.default_rng((seed, 7))
    snr = rng.uniform(SNR_LO_DB, SNR_HI_DB)
    rows = []
    for tick in range(ticks):
        snr += rng.normal(0.0, SNR_STEP_DB)
        if snr < SNR_LO_DB:
            snr = 2 * SNR_LO_DB - snr
        if snr > SNR_HI_DB:
            snr = 2 * SNR_HI_DB - snr
        rows.append((tick * PERIOD_MS, float(snr)))
    return rows


def write_inputs(work: Path, config: dict, trace=None) -> Path:
    work.mkdir(parents=True, exist_ok=True)
    (work / "config.json").write_text(json.dumps(config, indent=2) + "\n")
    if trace is not None:
        lines = ["t_ms,snr_db"] + [f"{t!r},{s!r}" for t, s in trace]
        (work / "trace.csv").write_text("\n".join(lines) + "\n")
    return work


def blocks_through_chain(workload: str, config: dict, ticks: int) -> int:
    """Blocks one iteration sends through the chain (the blocks_per_s numerator)."""
    if workload == "train":
        return config["train"]["n_blocks"] * config["train"]["epochs"]
    if workload == "eval":
        ev = config["eval"]
        cells = len(ev["channels"]) * len(ev["mods"]) * len(ev["snr_db"])
        return len(ev["schemes"]) * (ev["ccdf_blocks"] + cells * ev["n_blocks"])
    return ticks


def cli_args(command: str, work: Path, checkpoint: Path | None) -> list[str]:
    args = [command, "--config", str(work / "config.json"), "--out",
            str(work / "out"), "--threads", "1"]
    if checkpoint is not None:
        args += ["--checkpoint", str(checkpoint)]
    if command == "adapt":
        args += ["--trace", str(work / "trace.csv")]
    return args


def run_cli(main, args: list[str], log) -> tuple[bool, float]:
    """One ``cli.main`` call with its output sent to ``log``; (ok, wall seconds)."""
    with contextlib.redirect_stdout(log), contextlib.redirect_stderr(log):
        start = time.perf_counter()
        try:
            code = main(args)
        except (Exception, SystemExit):
            # the benchmark keeps running and counts the failure
            traceback.print_exc(file=log)
            code = None
        wall = time.perf_counter() - start
    return code == 0, wall


@dataclass
class Checks:
    """Correctness checks; each one is an operation attempted."""

    attempted: int = 0
    failures: list[str] = field(default_factory=list)

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(what)
        return ok

    @property
    def failed(self) -> int:
        return len(self.failures)


def _rows(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def check_train(out: Path, config: dict, checks: Checks, where: str) -> float | None:
    """History finite with one row per epoch, 492 live weights; returns final_loss."""
    from tinyfdss import network

    try:
        history = _rows(out / "history.csv")
        values = [float(v) for row in history for v in row.values()]
        final_loss = float(history[-1]["median_loss"]) if history else None
        raw = network.load_net(out / "checkpoint.bin")
    except (OSError, ValueError, KeyError, TypeError) as exc:
        checks.check(False, f"{where}: train outputs unreadable: {exc}")
        return None
    ok = checks.check(len(history) == config["train"]["epochs"]
                      and all(math.isfinite(v) for v in values),
                      f"{where}: history.csv not finite or wrong length")
    live = network.live_weight_count(raw["params"])
    checks.check(live == LIVE_WEIGHTS, f"{where}: {live} live weights, expected {LIVE_WEIGHTS}")
    # the median block loss of the last epoch; the mean is dominated by the
    # few deep-fade Rayleigh blocks of an epoch
    return final_loss if ok else None


def check_eval(out: Path, schema: dict, scale: str, checks: Checks,
               where: str) -> tuple[float | None, float | None]:
    """Schema, anchors, tinyml beats rrc; returns (papr_gain_db, tinyml_ser)."""
    import jsonschema

    try:
        summary = json.loads((out / "summary.json").read_text())
        cells = _rows(out / "ser_vs_snr.csv")
        jsonschema.validate(summary, schema)
        papr = {k: v["papr_at_ccdf_1e3_db"] for k, v in summary.items() if k != "meta"}
        gain = papr["rrc"] - papr["tinyml"]
        ser = [float(c["ser"]) for c in cells
               if c["scheme"] == "tinyml" and c["channel"] == "awgn"
               and c["mod"] == "qpsk" and float(c["snr_db"]) == SER_SNR_DB]
    except (OSError, ValueError, KeyError, jsonschema.ValidationError) as exc:
        checks.check(False, f"{where}: eval outputs unreadable or off-schema: {exc}")
        return None, None
    checks.check(True, f"{where}: summary.json matches its schema")
    if scale == "full":
        for scheme, (lo, hi) in ANCHORS.items():
            if scheme in papr:
                checks.check(lo <= papr[scheme] <= hi,
                             f"{where}: {scheme} PAPR@1e-3 {papr[scheme]:.3f} dB "
                             f"outside [{lo}, {hi}]")
        checks.check(gain > 0,
                     f"{where}: tinyml {papr['tinyml']:.3f} dB does not beat "
                     f"rrc {papr['rrc']:.3f} dB")
    checks.check(len(ser) == 1, f"{where}: no tinyml AWGN {SER_SNR_DB} dB cell")
    return gain, (ser[0] if ser else None)


def check_adapt(out: Path, trace, checks: Checks, where: str) -> float | None:
    """One row per tick with the tick's trace row, lambda from the table,
    finite PAPR; returns mean PAPR."""
    from tinyfdss.adaptation import LambdaTable

    table = LambdaTable()
    try:
        events = [(float(e["t_ms"]), float(e["snr_db"]), float(e["lambda"]),
                   float(e["papr_db"])) for e in _rows(out / "events.csv")]
        expected_lam = [table.lookup(snr) for _, snr, _, _ in events]
    except (OSError, ValueError, KeyError, TypeError) as exc:
        checks.check(False, f"{where}: events.csv unreadable: {exc}")
        return None
    checks.check(len(events) == len(trace),
                 f"{where}: {len(events)} events for {len(trace)} ticks")
    # the trace has one row per tick, so tick i applies row i's feedback
    checks.check(all((t, snr) == row for (t, snr, _, _), row in zip(events, trace)),
                 f"{where}: event t_ms/snr_db differ from the trace row of the tick")
    checks.check(all(lam == want for (_, _, lam, _), want in zip(events, expected_lam)),
                 f"{where}: lambda differs from LambdaTable().lookup(snr)")
    papr = [p for _, _, _, p in events]
    ok = checks.check(bool(papr) and all(math.isfinite(p) for p in papr),
                      f"{where}: non-finite PAPR in events.csv")
    return float(np.mean(papr)) if ok else None


def same_outputs(a: Path, b: Path) -> list[str]:
    """Files that differ between two output directories.

    ``history.csv`` is compared without its ``wall_seconds`` column, the one
    field the program documents as non-deterministic.
    """
    if not (a.is_dir() and b.is_dir()):
        return ["<output directory missing>"]
    names = sorted({p.name for p in a.iterdir()} | {p.name for p in b.iterdir()})
    differ = []
    for name in names:
        pa, pb = a / name, b / name
        if not (pa.is_file() and pb.is_file()):
            differ.append(name)
            continue
        da, db = pa.read_bytes(), pb.read_bytes()
        if name == "history.csv":
            da, db = (b"\n".join(line.rsplit(b",", 1)[0] for line in d.splitlines())
                      for d in (da, db))
        if da != db:
            differ.append(name)
    return differ
