"""Experiment runner: train / eval / sweep / adapt / baselines subcommands.

Configuration is a JSON file whose sections are each parsed by one rule
into a frozen dataclass; an unknown key, a value of the wrong JSON type or
one the dataclass rejects raises :class:`ConfigError` naming the key.
``--seed`` and ``--out`` override the config.  All figure data lands in plain
CSV next to a ``summary.json``; reruns with identical config and seed
reproduce every output byte for byte (the wall_seconds telemetry column in
history.csv is the one non-deterministic field).
"""

from __future__ import annotations

import argparse
import ctypes
import json
import math
import sys
from dataclasses import dataclass, fields, replace
from pathlib import Path

import numpy as np

from .adaptation import AdaptConfig, preset_trace, run_scenario
from .baselines import ClfConfig, SlmConfig
from .chain import SCHEME_NAMES, ChainConfig
from .evaluation import CCDF_GRID_DB, EvalConfig, evaluate
from .network import HISTORY_COLUMNS
from .training import (
    Checkpoint,
    TrainConfig,
    TrainingDivergedError,
    load_checkpoint,
    save_checkpoint,
    train,
)

CHECKPOINT_NAME = "checkpoint.bin"
PAPR_TRACE_BLOCKS = 1000  # papr_vs_blocks.csv keeps the first blocks of each scheme
_TOP_KEYS = {"seed", "out_dir", "chain", "train", "eval", "baselines", "adapt", "sweep"}
# glibc mallopt(3) parameters and the values main sets
M_TRIM_THRESHOLD = -1
M_MMAP_THRESHOLD = -3
MMAP_THRESHOLD_BYTES = 32 << 20  # the ceiling glibc's adaptive rule reaches on 64-bit
TRIM_THRESHOLD_BYTES = 2 * MMAP_THRESHOLD_BYTES  # twice it, as the adaptive rule sets it


class ConfigError(ValueError):
    """Invalid experiment configuration; the message names the offending key."""


@dataclass(frozen=True)
class SweepConfig:
    """Hidden widths the ``sweep`` command trains (width 0 is the perceptron);
    ``load_config`` checks each with the train section's rules."""

    hidden_widths: tuple[int, ...] = (5, 10, 20, 0)

    def __post_init__(self):
        if not self.hidden_widths:
            raise ValueError("hidden_widths must name at least one entry")
        if len(set(self.hidden_widths)) != len(self.hidden_widths):
            raise ValueError(f"hidden_widths must not repeat an entry, "
                             f"got {list(self.hidden_widths)}")


def _object(raw, allowed, path: str) -> dict:
    """``raw`` as a JSON object whose keys all lie in ``allowed``."""
    if not isinstance(raw, dict):
        raise ConfigError(f"{path} must be an object, got {json.dumps(raw)}")
    for key in raw:
        if key not in allowed:
            raise ConfigError(f"unknown config key {key!r} in {path}")
    return raw


def _typed(value, default, path: str):
    """``value`` checked against the JSON type of ``default``.

    Numbers are kept as given (a float field also takes an int); a list
    becomes a tuple with each item checked against ``default[0]``; an object
    of name -> weight becomes the sorted (name, weight) pairs of a mix.
    """
    number = isinstance(value, (int, float)) and not isinstance(value, bool)
    if isinstance(default, bool):
        ok, kind = isinstance(value, bool), "true or false"
    elif isinstance(default, int):
        ok, kind = number and not isinstance(value, float), "an integer"
    elif isinstance(default, float):
        ok = number and (isinstance(value, float) or abs(value) <= sys.float_info.max)
        kind = "a number"
    elif isinstance(default, str):
        ok, kind = isinstance(value, str), "a string"
    elif isinstance(default[0], tuple):
        if not isinstance(value, dict):
            raise ConfigError(f"{path} must be an object of name -> weight, "
                              f"got {json.dumps(value)}")
        return tuple(sorted(
            (name, float(_typed(w, default[0][1], f"{path}.{name}")))
            for name, w in value.items()
        ))
    else:
        if not isinstance(value, list):
            raise ConfigError(f"{path} must be a list, got {json.dumps(value)}")
        return tuple(_typed(v, default[0], f"{path}[{i}]") for i, v in enumerate(value))
    if not ok:
        raise ConfigError(f"{path} must be {kind}, got {json.dumps(value)}")
    return value


def _section(cls, raw, path: str, **fixed):
    """Build the dataclass ``cls`` from the JSON object at ``path``.

    The object may hold any field of ``cls`` except those in ``fixed``,
    which the caller sets; a missing field keeps its default.
    """
    defaults = {f.name: f.default for f in fields(cls) if f.name not in fixed}
    kwargs = {
        key: _typed(value, defaults[key], f"{path}.{key}")
        for key, value in _object(raw, defaults, path).items()
    }
    try:
        return cls(**fixed, **kwargs)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"{path}: {exc}") from None


def load_config(path: str | Path, seed: int | None = None) -> dict:
    """Parse and validate the experiment config into constructed objects.

    ``seed``, when given, replaces the config's seed everywhere it is used.
    """
    try:
        raw = json.loads(Path(path).read_text())
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}")
    _object(raw, _TOP_KEYS, "config root")
    config_seed = _typed(raw.get("seed", 0), 0, "seed")
    seed = config_seed if seed is None else seed
    if seed < 0:
        raise ConfigError(f"seed must be non-negative, got {seed}")
    chain = _section(ChainConfig, raw.get("chain", {}), "chain")
    baselines = _object(raw.get("baselines", {}), {"clf", "slm"}, "baselines")
    config = {
        "seed": seed,
        "out_dir": _typed(raw.get("out_dir", "runs/default"), "", "out_dir"),
        "chain": chain,
        "train": _section(TrainConfig, raw.get("train", {}), "train", seed=seed, chain=chain),
        "eval": _section(
            EvalConfig, raw.get("eval", {}), "eval", seed=seed,
            clf=_section(ClfConfig, baselines.get("clf", {}), "baselines.clf"),
            slm=_section(SlmConfig, baselines.get("slm", {}), "baselines.slm"),
        ),
        "adapt": _section(AdaptConfig, raw.get("adapt", {}), "adapt"),
        "sweep": _section(SweepConfig, raw.get("sweep", {}), "sweep"),
    }
    schemes = config["eval"].schemes
    if not {"rrc", "dftsofdm"} <= set(schemes):  # summary.schema.json requires both
        raise ConfigError(f"eval.schemes must include the summary anchors 'rrc' and "
                          f"'dftsofdm', got {list(schemes)}")
    for i, width in enumerate(config["sweep"].hidden_widths):  # each one cmd_sweep trains
        try:
            replace(config["train"], hidden_width=width)
        except (TypeError, ValueError, OverflowError) as exc:
            raise ConfigError(f"sweep.hidden_widths[{i}] with the train section: {exc}") from None
    return config


# ---------------------------------------------------------------------------
# Deterministic CSV emission
# ---------------------------------------------------------------------------

def write_csv(path: Path, header: list[str], rows) -> None:
    """One line per row of Python values (arrays enter through ``.tolist()``):
    a float's ``str`` is its shortest round-trip ``repr``, in any precision."""
    lines = [",".join(header), *(",".join(map(str, row)) for row in rows)]
    path.write_text("\n".join(lines) + "\n")


def _write_eval_outputs(result, out: Path, eval_cfg: EvalConfig,
                        checkpoint_path: str | None) -> None:
    write_csv(
        out / "ccdf.csv",
        ["scheme", "threshold_db", "ccdf"],
        (
            (scheme, thr, p)
            for scheme in result.schemes
            for thr, p in zip(CCDF_GRID_DB.tolist(), result.ccdf[scheme].tolist())
        ),
    )
    write_csv(
        out / "papr_vs_blocks.csv",
        ["scheme", "block_index", "papr_db"],
        (
            (scheme, i, v)
            for scheme in result.schemes
            for i, v in enumerate(result.papr_samples[scheme][:PAPR_TRACE_BLOCKS].tolist())
        ),
    )
    write_csv(
        out / "ser_vs_snr.csv",
        ["scheme", "channel", "mod", "snr_db", "ser", "sem"],
        (
            (
                c.scheme, c.channel, c.mod, c.snr_db, c.ser,
                float(np.sqrt(max(c.ser * (1 - c.ser), 0.0) / max(c.ser_total, 1))),
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
    rows = [(int(row[0]), *row[1:], wall)
            for row, wall in zip(ckpt.history.tolist(), ckpt.wall_seconds.tolist())]
    write_csv(out / "history.csv", [*HISTORY_COLUMNS, "wall_seconds"], rows)
    print(f"checkpoint written to {out / CHECKPOINT_NAME}")
    return 0


def _load_checkpoint(cfg: dict, out: Path, flag: str | None) -> tuple[Path, Checkpoint]:
    """Load ``--checkpoint``, else the run directory's, never the latter if the
    former is missing; reject a net that does not fit."""
    path = Path(flag) if flag is not None else out / CHECKPOINT_NAME
    if not path.exists():
        raise FileNotFoundError(f"checkpoint {path} not found; pass --checkpoint or run "
                                "train first")
    ckpt = load_checkpoint(path)
    width, n_sk = ckpt.params.input_dim, cfg["chain"].n_sk
    if width != n_sk + 1:
        raise ValueError(
            f"checkpoint {path} has input width {width}, but the config's chain "
            f"needs chain.n_sk + 1 = {n_sk + 1}"
        )
    return path, ckpt


def cmd_eval(cfg: dict, out: Path, checkpoint_flag: str | None) -> int:
    path, ckpt = _load_checkpoint(cfg, out, checkpoint_flag)
    result = evaluate(ckpt, cfg["eval"], cfg["chain"])
    _write_eval_outputs(result, out, cfg["eval"], str(path))
    print(f"evaluation outputs written to {out}")
    return 0


def cmd_baselines(cfg: dict, out: Path) -> int:
    schemes = tuple(s for s in cfg["eval"].schemes if s != "tinyml")
    eval_cfg = replace(cfg["eval"], schemes=schemes)
    result = evaluate(None, eval_cfg, cfg["chain"])
    _write_eval_outputs(result, out, eval_cfg, None)
    print(f"baseline outputs written to {out}")
    return 0


def cmd_sweep(cfg: dict, out: Path) -> int:
    eval_cfg = cfg["eval"]
    columns: dict[str, np.ndarray] = {}
    for width in cfg["sweep"].hidden_widths:
        ckpt = train(replace(cfg["train"], hidden_width=width))
        label = f"hidden{width}" if width > 0 else "perceptron"
        result = evaluate(ckpt, replace(eval_cfg, schemes=("tinyml",)), cfg["chain"])
        columns[label] = result.ccdf["tinyml"]
        print(f"{label}: papr@1e-3 = {result.summary['tinyml']['papr_at_ccdf_1e3_db']:.3f} dB")
    base = evaluate(None, replace(eval_cfg, schemes=("rrc", "dftsofdm")), cfg["chain"])
    columns["rrc"] = base.ccdf["rrc"]
    columns["dftsofdm"] = base.ccdf["dftsofdm"]
    write_csv(out / "sweep_ccdf.csv", ["threshold_db", *columns],
              zip(CCDF_GRID_DB.tolist(), *(column.tolist() for column in columns.values())))
    print(f"sweep outputs written to {out}")
    return 0


def _load_trace(path: str | Path) -> list[tuple[float, float]]:
    """``(t_ms, snr_db)`` rows of a trace CSV; a ``t_ms`` header line is skipped.

    A row that does not start with two finite numbers, or whose ``t_ms`` is
    below the row before it, raises ValueError naming the file and the line.
    """
    lines = [(n, line) for n, line in enumerate(Path(path).read_text().splitlines(), 1)
             if line.strip()]
    if lines and lines[0][1].lstrip().lower().startswith("t_ms"):
        lines = lines[1:]
    rows = []
    for n, line in lines:
        try:
            t_ms, snr_db = (float(v) for v in line.split(",")[:2])
        except ValueError:
            raise ValueError(f"{path} line {n}: expected t_ms,snr_db, got {line!r}") from None
        if not (math.isfinite(t_ms) and math.isfinite(snr_db)):
            raise ValueError(f"{path} line {n}: non-finite value in {line!r}")
        if rows and t_ms < rows[-1][0]:
            raise ValueError(f"{path} line {n}: trace timestamps must be sorted, "
                             f"got {t_ms!r} after {rows[-1][0]!r}")
        rows.append((t_ms, snr_db))
    return rows


def cmd_adapt(cfg: dict, out: Path, checkpoint_flag: str | None,
              trace_flag: str | None) -> int:
    _, ckpt = _load_checkpoint(cfg, out, checkpoint_flag)
    net = ckpt.deployed_net(cfg["eval"].use_quantized)
    adapt = cfg["adapt"]
    trace = (_load_trace(trace_flag) if trace_flag else
             preset_trace(adapt.preset, float(adapt.duration_ms), float(adapt.period_ms)))
    records = run_scenario(trace, net, cfg["chain"], scheme=SCHEME_NAMES[adapt.mod],
                           seed=cfg["seed"], period_ms=float(adapt.period_ms))
    write_csv(out / "events.csv", ["t_ms", "snr_db", "lambda", "papr_db", "ser_block"], records)
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
        p.add_argument("--threads", type=int, default=None,
                       help="accepted for compatibility; has no effect")
        if name in ("eval", "adapt"):
            p.add_argument("--checkpoint", default=None, help="checkpoint file")
        if name == "adapt":
            p.add_argument("--trace", default=None, help="trace CSV (t_ms,snr_db)")
    return parser


def keep_heap_resident() -> tuple[int, int] | None:
    """Keep freed working arrays in the heap instead of returning them to the kernel.

    After a few 0.5 MB frees, glibc's adaptive rule trims at 1 MB, so each
    training step's grids go back to the kernel and are faulted in again as
    zeroed pages on the next step.  Fixed thresholds stop that; setting both
    is needed, since setting either one turns the adaptive rule off.  Returns
    the two ``mallopt`` results (1 on success), or None where the C library
    has no ``mallopt`` (macOS, Windows).
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, TypeError, AttributeError):
        return None
    return (mallopt(M_MMAP_THRESHOLD, MMAP_THRESHOLD_BYTES),
            mallopt(M_TRIM_THRESHOLD, TRIM_THRESHOLD_BYTES))


def main(argv: list[str] | None = None) -> int:
    keep_heap_resident()
    args = build_parser().parse_args(argv)
    made: list[Path] = []  # directories this call creates, the deepest first
    try:
        cfg = load_config(args.config, seed=args.seed)
        out = Path(args.out or cfg["out_dir"])
        made = [d for d in (out, *out.parents) if not d.exists()]
        out.mkdir(parents=True, exist_ok=True)
        if args.command == "train":
            return cmd_train(cfg, out)
        if args.command == "eval":
            return cmd_eval(cfg, out, args.checkpoint)
        if args.command == "baselines":
            return cmd_baselines(cfg, out)
        if args.command == "sweep":
            return cmd_sweep(cfg, out)
        if args.command == "adapt":
            return cmd_adapt(cfg, out, args.checkpoint, args.trace)
    except (OSError, ValueError, TrainingDivergedError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        # an error found on first use leaves no run directory this call made
        for d in made:
            try:
                d.rmdir()
            except OSError:  # holds a file, or was never made
                break
        return 2
    raise AssertionError("unreachable")


if __name__ == "__main__":
    sys.exit(main())
