"""Experiment runner: train / eval / sweep / adapt / baselines subcommands.

Configuration is a JSON file with explicit sections; unknown keys are
rejected with the offending key named.  ``--seed`` and ``--out`` override the
config, and the environment variables TINYFDSS_OUT and TINYFDSS_THREADS
override the output directory and worker count.  All figure data lands in
plain CSV next to a ``summary.json``; reruns with identical config and seed
reproduce every output byte for byte (the wall_seconds telemetry column in
history.csv is the one non-deterministic field).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import fields, replace
from pathlib import Path

import numpy as np

from .adaptation import LambdaTable, preset_trace, run_scenario
from .baselines import ClfConfig, SlmConfig
from .chain import SCHEME_NAMES, ChainConfig
from .evaluation import BASELINESCHEME_NAMES, EvalConfig, evaluate
from .training import (
    HISTORY_COLUMNS,
    Checkpoint,
    TrainConfig,
    load_checkpoint,
    save_checkpoint,
    train,
)

CHECKPOINT_NAME = "checkpoint.bin"


class ConfigError(ValueError):
    """Invalid experiment configuration; the message names the offending key."""


def _field_names(cls) -> set:
    return {f.name for f in fields(cls)}


# each section accepts its config's fields, less those load_config sets itself
_CHAIN_KEYS = _field_names(ChainConfig)
_TRAIN_KEYS = _field_names(TrainConfig) - {"seed", "chain"}
_EVAL_KEYS = _field_names(EvalConfig) - {"seed", "clf", "slm"}
_BASELINE_KEYS = {"clf", "slm"}
_CLF_KEYS = _field_names(ClfConfig)
_SLM_KEYS = _field_names(SlmConfig)
_ADAPT_KEYS = {"period_ms", "preset", "duration_ms", "trace", "mod"}
_SWEEP_KEYS = {"hidden_widths"}
_TOP_KEYS = {
    "seed", "out_dir", "checkpoint", "chain", "train", "eval", "baselines",
    "adapt", "sweep",
}


def _check_keys(section: dict, allowed: set, path: str) -> None:
    for key in section:
        if key not in allowed:
            raise ConfigError(f"unknown config key {path}{key!r}")


def _mix_tuple(value, path: str) -> tuple:
    if isinstance(value, dict):
        return tuple(sorted((str(k), float(v)) for k, v in value.items()))
    raise ConfigError(f"{path} must be an object of name -> weight")


def load_config(path: str | Path) -> dict:
    """Parse and validate the experiment config into constructed objects."""
    try:
        raw = json.loads(Path(path).read_text())
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}")
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a JSON object")
    _check_keys(raw, _TOP_KEYS, "")

    seed = int(raw.get("seed", 0))
    out_dir = raw.get("out_dir", "runs/default")

    chain_raw = raw.get("chain", {})
    _check_keys(chain_raw, _CHAIN_KEYS, "chain.")
    try:
        chain_cfg = ChainConfig(**chain_raw)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"chain: {exc}")

    train_raw = dict(raw.get("train", {}))
    _check_keys(train_raw, _TRAIN_KEYS, "train.")
    if "snr_range_db" in train_raw:
        train_raw["snr_range_db"] = tuple(train_raw["snr_range_db"])
    for mix in ("channel_mix", "mod_mix"):
        if mix in train_raw:
            train_raw[mix] = _mix_tuple(train_raw[mix], f"train.{mix}")
    try:
        train_cfg = TrainConfig(seed=seed, chain=chain_cfg, **train_raw)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"train: {exc}")

    base_raw = raw.get("baselines", {})
    _check_keys(base_raw, _BASELINE_KEYS, "baselines.")
    clf_raw = base_raw.get("clf", {})
    _check_keys(clf_raw, _CLF_KEYS, "baselines.clf.")
    slm_raw = base_raw.get("slm", {})
    _check_keys(slm_raw, _SLM_KEYS, "baselines.slm.")
    try:
        clf_cfg = ClfConfig(**clf_raw)
        slm_cfg = SlmConfig(**slm_raw)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"baselines: {exc}")

    eval_raw = dict(raw.get("eval", {}))
    _check_keys(eval_raw, _EVAL_KEYS, "eval.")
    for key in ("snr_db", "channels", "mods", "schemes", "ccdf_grid_db"):
        if key in eval_raw:
            eval_raw[key] = tuple(eval_raw[key])
    try:
        eval_cfg = EvalConfig(seed=seed, clf=clf_cfg, slm=slm_cfg, **eval_raw)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"eval: {exc}")

    adapt_raw = raw.get("adapt", {})
    _check_keys(adapt_raw, _ADAPT_KEYS, "adapt.")
    sweep_raw = raw.get("sweep", {})
    _check_keys(sweep_raw, _SWEEP_KEYS, "sweep.")
    widths = tuple(sweep_raw.get("hidden_widths", (5, 10, 20, 0)))

    return {
        "seed": seed,
        "out_dir": out_dir,
        "checkpoint": raw.get("checkpoint"),
        "chain": chain_cfg,
        "train": train_cfg,
        "eval": eval_cfg,
        "adapt": dict(adapt_raw),
        "sweep_widths": widths,
    }


# ---------------------------------------------------------------------------
# Deterministic CSV emission
# ---------------------------------------------------------------------------

def _fmt(value) -> str:
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def write_csv(path: Path, header: list[str], rows) -> None:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    path.write_text("\n".join(lines) + "\n")


def _write_eval_outputs(result, out: Path, eval_cfg: EvalConfig,
                        checkpoint_path: str | None) -> None:
    write_csv(
        out / "ccdf.csv",
        ["scheme", "threshold_db", "ccdf"],
        (
            (scheme, thr, p)
            for scheme in result.schemes
            for thr, p in zip(result.ccdf_grid_db, result.ccdf[scheme])
        ),
    )
    n_trace = eval_cfg.papr_trace_blocks
    write_csv(
        out / "papr_vs_blocks.csv",
        ["scheme", "block_index", "papr_db"],
        (
            (scheme, i, v)
            for scheme in result.schemes
            for i, v in enumerate(result.papr_samples[scheme][:n_trace])
        ),
    )
    write_csv(
        out / "ser_vs_snr.csv",
        ["scheme", "channel", "mod", "snr_db", "ser", "sem"],
        (
            (
                c.scheme, c.channel, c.mod, c.snr_db, c.metrics.ser,
                float(np.sqrt(max(c.metrics.ser * (1 - c.metrics.ser), 0.0)
                              / max(c.metrics.ser_total, 1))),
            )
            for c in result.cells
        ),
    )
    write_csv(
        out / "oobe.csv",
        ["scheme", "oobe_db"],
        ((scheme, result.oobe[scheme]) for scheme in result.schemes),
    )
    summary = dict(result.summary)
    summary["meta"] = {
        "seed": eval_cfg.seed,
        "ccdf_blocks": eval_cfg.ccdf_blocks,
        "ccdf_snr_db": eval_cfg.ccdf_snr_db,
        "n_blocks": eval_cfg.n_blocks,
        "checkpoint": Path(checkpoint_path).name if checkpoint_path else None,
    }
    (out / "summary.json").write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_train(cfg: dict, out: Path) -> int:
    ckpt = train(cfg["train"], progress=True)
    save_checkpoint(out / CHECKPOINT_NAME, ckpt)
    rows = []
    for i, row in enumerate(ckpt.history):
        wall = ckpt.wall_seconds[i] if ckpt.wall_seconds is not None else 0.0
        rows.append((int(row[0]), *row[1:], wall))
    write_csv(out / "history.csv", [*HISTORY_COLUMNS, "wall_seconds"], rows)
    print(f"checkpoint written to {out / CHECKPOINT_NAME}")
    return 0


def _load_checkpoint(cfg: dict, out: Path, flag: str | None) -> tuple[Path, Checkpoint]:
    """Find and load the checkpoint; reject one whose net does not fit the chain."""
    for candidate in (flag, cfg.get("checkpoint"), out / CHECKPOINT_NAME):
        if candidate is not None and Path(candidate).exists():
            path = Path(candidate)
            break
    else:
        raise FileNotFoundError(
            "no checkpoint found; pass --checkpoint, set the config key, or run train first"
        )
    ckpt = load_checkpoint(path)
    width, n_sk = ckpt.params.input_dim, cfg["chain"].n_sk
    if width != n_sk + 1:
        raise ValueError(
            f"checkpoint {path} has input width {width}, but the config's chain "
            f"needs chain.n_sk + 1 = {n_sk + 1}"
        )
    return path, ckpt


def cmd_eval(cfg: dict, out: Path, threads: int, checkpoint_flag: str | None) -> int:
    path, ckpt = _load_checkpoint(cfg, out, checkpoint_flag)
    result = evaluate(ckpt, cfg["eval"], cfg["chain"], threads=threads)
    _write_eval_outputs(result, out, cfg["eval"], str(path))
    print(f"evaluation outputs written to {out}")
    return 0


def cmd_baselines(cfg: dict, out: Path, threads: int) -> int:
    eval_cfg = cfg["eval"]
    schemes = tuple(s for s in eval_cfg.schemes if s != "tinyml")
    if not schemes:
        schemes = BASELINESCHEME_NAMES
    eval_cfg = replace(eval_cfg, schemes=schemes)
    result = evaluate(None, eval_cfg, cfg["chain"], threads=threads)
    _write_eval_outputs(result, out, eval_cfg, None)
    print(f"baseline outputs written to {out}")
    return 0


def cmd_sweep(cfg: dict, out: Path, threads: int) -> int:
    eval_cfg = cfg["eval"]
    columns: dict[str, np.ndarray] = {}
    grid = None
    for width in cfg["sweep_widths"]:
        train_cfg = replace(cfg["train"], hidden_width=int(width))
        ckpt = train(train_cfg)
        label = f"hidden{width}" if width > 0 else "perceptron"
        result = evaluate(
            ckpt, replace(eval_cfg, schemes=("tinyml",)), cfg["chain"], threads=threads
        )
        grid = result.ccdf_grid_db
        columns[label] = result.ccdf["tinyml"]
        print(f"{label}: papr@1e-3 = {result.summary['tinyml']['papr_at_ccdf_1e3_db']:.3f} dB")
    base = evaluate(
        None, replace(eval_cfg, schemes=("rrc", "dftsofdm")), cfg["chain"],
        threads=threads,
    )
    columns["rrc"] = base.ccdf["rrc"]
    columns["dftsofdm"] = base.ccdf["dftsofdm"]
    names = list(columns)
    write_csv(
        out / "sweep_ccdf.csv",
        ["threshold_db"] + names,
        (
            tuple([grid[i]] + [columns[n][i] for n in names])
            for i in range(len(grid))
        ),
    )
    print(f"sweep outputs written to {out}")
    return 0


def _load_trace(cfg: dict, flag: str | None) -> list[tuple[float, float]]:
    adapt = cfg["adapt"]
    trace_path = flag or adapt.get("trace")
    if trace_path:
        rows = []
        text = Path(trace_path).read_text().strip().splitlines()
        start = 1 if text and text[0].lower().startswith("t_ms") else 0
        for line in text[start:]:
            if not line.strip():
                continue
            t_ms, snr_db = line.split(",")[:2]
            rows.append((float(t_ms), float(snr_db)))
        return rows
    preset = adapt.get("preset", "factory")
    return preset_trace(preset, duration_ms=float(adapt.get("duration_ms", 2000.0)),
                        period_ms=float(adapt.get("period_ms", 100.0)))


def cmd_adapt(cfg: dict, out: Path, checkpoint_flag: str | None,
              trace_flag: str | None) -> int:
    _, ckpt = _load_checkpoint(cfg, out, checkpoint_flag)
    net = ckpt.deployed_net(cfg["eval"].use_quantized)
    trace = _load_trace(cfg, trace_flag)
    mod = SCHEME_NAMES[cfg["adapt"].get("mod", "qpsk")]
    records = run_scenario(
        trace, net, cfg["chain"], scheme=mod, seed=cfg["seed"],
        period_ms=float(cfg["adapt"].get("period_ms", 100.0)),
        table=LambdaTable(),
    )
    write_csv(
        out / "events.csv",
        ["t_ms", "snr_db", "lambda", "papr_db", "ser_block"],
        ((r.t_ms, r.snr_db, r.lam, r.papr_db, r.ser_block) for r in records),
    )
    print(f"{len(records)} adaptation ticks written to {out / 'events.csv'}")
    return 0


# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tinyfdss",
        description="Adaptive pulse-shaping experiments for DFT-s-OFDM uplinks",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("train", "train the filter network offline"),
        ("eval", "evaluate a checkpoint against the baselines"),
        ("sweep", "architecture sweep over hidden widths"),
        ("adapt", "replay an SNR feedback trace through the adaptation loop"),
        ("baselines", "baseline-only comparison, no checkpoint needed"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="JSON experiment config")
        p.add_argument("--seed", type=int, default=None, help="override config seed")
        p.add_argument("--out", default=None, help="override output directory")
        p.add_argument("--threads", type=int, default=None, help="worker threads")
        if name in ("eval", "adapt"):
            p.add_argument("--checkpoint", default=None, help="checkpoint file")
        if name == "adapt":
            p.add_argument("--trace", default=None, help="trace CSV (t_ms,snr_db)")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if args.seed is not None:
        cfg["seed"] = args.seed
        cfg["train"] = replace(cfg["train"], seed=args.seed)
        cfg["eval"] = replace(cfg["eval"], seed=args.seed)

    out_dir = args.out or os.environ.get("TINYFDSS_OUT") or cfg["out_dir"]
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    threads = args.threads
    if threads is None:
        threads = int(os.environ.get("TINYFDSS_THREADS", "1"))

    try:
        if args.command == "train":
            return cmd_train(cfg, out)
        if args.command == "eval":
            return cmd_eval(cfg, out, threads, args.checkpoint)
        if args.command == "baselines":
            return cmd_baselines(cfg, out, threads)
        if args.command == "sweep":
            return cmd_sweep(cfg, out, threads)
        if args.command == "adapt":
            return cmd_adapt(cfg, out, args.checkpoint, args.trace)
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    raise AssertionError("unreachable")


if __name__ == "__main__":
    sys.exit(main())
