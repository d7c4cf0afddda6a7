"""Mutation checks: each mutant of the package must fail the tests its entry names.

A mutant replaces one exact snippet of a file under ``src/tinyfdss/``; the
snippet must occur there exactly once.  The runner copies the checkout to a
temporary directory (without ``.git``, run directories or caches), applies
one mutant at a time to the copy, and runs ``python -m pytest -x -q -p
no:cacheprovider <its tests>`` inside it: pytest must start in the copy,
since ``pyproject.toml``'s ``pythonpath = ["src"]`` puts the ``src/`` of the
directory it starts in ahead of ``PYTHONPATH``.  It prints one JSON record
per mutant (``killed``, ``survived`` or ``error``, the first failing test
and the seconds taken) and exits 1 unless every mutant is killed.  The
checkout itself is only read.

    python tools/mutants.py              # every mutant
    python tools/mutants.py NAME ...     # the named ones
    python tools/mutants.py --shard 2/3  # every third one, from the second

A change that fixes a fault adds the mutant that reverts the fix, with the
tests that catch it; a test may go only where every mutant it kills is
still killed by the tests that stay.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
SKIP = shutil.ignore_patterns(".git", ".perfbench", ".hypothesis", ".pytest_cache",
                              "__pycache__", "*.egg-info", "runs")
TIMEOUT_S = 600  # a mutant that loops forever is an error, not a kill


class Mutant(NamedTuple):
    name: str
    file: str  # under src/tinyfdss/
    snippet: str  # occurs exactly once in the file
    replacement: str
    tests: tuple[str, ...]  # node ids under tests/, at least one of which must fail


MUTANTS = (
    # chain: the Gray map, the slicer, the extension fold, the transforms
    Mutant("gray-codes-swapped", "chain.py", "points.setflags(write=False)",
           "points[[0, 1]] = points[[1, 0]]; points.setflags(write=False)",
           ("test_chain.py::TestMapBits::test_table_lookup_matches_arithmetic_mapping",)),
    Mutant("slicer-midpoint-takes-upper-level", "chain.py", "i += flat.real > mid",
           "i += flat.real >= mid",
           ("test_chain.py::TestSlicer::test_midpoints_and_neighbours_match_reference",)),
    Mutant("no-extension-fold", "chain.py", "if n_se:\n        folded",
           "if False:\n        folded",
           ("test_chain.py::TestReceiverChain::test_awgn_ser_matches_closed_form",
            "test_chain.py::TestEffectiveTaps::test_matches_dividing_out_the_fade")),
    Mutant("precode-by-root-of-reciprocal", "chain.py", "(1.0 / np.sqrt(x.shape[-1]))",
           "np.sqrt(1.0 / x.shape[-1])",
           ("test_chain.py::TestReciprocalScaling::test_same_bytes_as_the_division",)),
    Mutant("single-precision-fft-default-norm", "chain.py",
           'norm="forward" if single else None', "norm=None",
           ("test_chain.py::TestOccupiedBinsPrecision::test_complex64_grid_gives_complex64_bins",
            "test_cli.py::TestBaselinesCommand"
            "::test_smoke_baselines_transform_single_precision_forward")),
    # channel: the seed hash, the draw order, the noise rule
    Mutant("no-mixing-of-words-past-the-pool", "channel.py",
           "for word in entropy[_POOL_SIZE:]:", "for word in entropy[_POOL_SIZE:][:0]:",
           ("test_evaluation.py::TestDrawsMatchPerBlockRng::test_draw_channels_fades_and_noise",
            "test_channel.py::TestBlockRngs::test_states_and_draws_equal_block_rng")),
    Mutant("unpack-high-half-first", "channel.py", 'dtype="<u8").view("<u4")',
           'dtype=">u8").view(">u4")',
           ("test_channel.py::TestBitWords::test_bytes_and_next_draws_equal_integers",)),
    Mutant("noise-drawn-before-the-fade", "channel.py",
           "rng.standard_normal(out=normals[row, 2 if channel.model is ChannelModel.AWGN else 0:])",
           "rng.standard_normal(out=normals[row, 2:])\n"
           "            if channel.model is not ChannelModel.AWGN:\n"
           "                rng.standard_normal(out=normals[row, :2])",
           ("test_channel.py::TestDrawBlocks::test_blocks_equal_one_block_rng_each",)),
    Mutant("awgn-draws-the-fade-pair", "channel.py",
           "2 if channel.model is ChannelModel.AWGN else 0:", "0:",
           ("test_channel.py::TestDrawBlocks::test_blocks_equal_one_block_rng_each",)),
    Mutant("imaginary-noise-first", "channel.py",
           "noise.real, noise.imag = parts[..., 0, :], parts[..., 1, :]",
           "noise.real, noise.imag = parts[..., 1, :], parts[..., 0, :]",
           ("test_channel.py::TestDrawThenApply::test_noise_draws_real_parts_then_imaginary",)),
    Mutant("no-short-stream-check", "channel.py", "if len(kinds) < n_blocks:", "if False:",
           ("test_channel.py::TestDrawBlocks::test_a_short_stream_raises_naming_both_counts",)),
    Mutant("noise-power-pooled-over-the-batch", "channel.py",
           "power = np.mean(np.abs(np.ascontiguousarray(bins)) ** 2, axis=-1)",
           "power = np.mean(np.abs(bins) ** 2) + 0 * np.mean(np.abs(bins) ** 2, axis=-1)",
           ("test_channel.py::TestDrawThenApply::test_noise_power_is_per_block",)),
    # metrics: the row scale and the tiles
    Mutant("uncapped-row-scale", "metrics.py", "np.minimum(-exp, 1023)", "-exp",
           ("test_metrics.py::TestWaveformPaprDb"
            "::test_subnormal_row_keeps_the_bytes_of_a_normal_one",)),
    Mutant("complex64-rows-enter-unscaled", "metrics.py", "scale = row_scale(bins)",
           "scale = 1.0 if np.asarray(bins).dtype == np.complex64 else row_scale(bins)",
           ("test_baselines.py::TestComplex64Rows::test_give_the_bytes_of_complex128",)),
    Mutant("synthesis-casts-without-the-row-scale", "metrics.py",
           "single = single_precision(bins, scale)",
           "single = np.asarray(bins).astype(np.complex64)",
           ("test_metrics.py::TestWaveformPaprDb::test_power_of_two_scales_keep_the_bytes",
            "test_baselines.py::TestComplex64Rows::test_give_the_bytes_of_complex128")),
    Mutant("tile-drops-its-last-row", "metrics.py", "fn(rows[lo: lo + step])",
           "fn(rows[lo: lo + step][:-1] if len(rows) > step else rows[lo: lo + step])",
           ("test_metrics.py::TestWaveformPaprDb::test_matches_untiled_byte_for_byte",)),
    Mutant("tiles-read-leading-axes-in-fortran-order", "metrics.py",
           "rows = bins.reshape(-1, bins.shape[-1])",
           'rows = bins.reshape(-1, bins.shape[-1], order="F")',
           ("test_metrics.py::TestWaveformPaprDb::test_any_leading_shape",
            "test_baselines.py::TestSlm::test_any_leading_shape")),
    Mutant("empty-batch-has-no-tile", "metrics.py", "range(0, max(len(rows), 1), step)",
           "range(0, len(rows), step)",
           ("test_baselines.py::test_empty_batch_gives_empty_results",)),
    # baselines: the clip guard, CLF's scale and SLM's branch and bound
    Mutant("clip-guard-below-float32-tiny", "baselines.py",
           "max(1e-300, np.finfo(scale.dtype).tiny)", "1e-300",
           ("test_baselines.py::TestClf::test_zero_sample_under_a_level_past_the_guard_ratio",
            "test_baselines.py::TestClf::test_clip_matches_where_form_on_special_parts")),
    Mutant("clf-result-left-at-the-row-scale", "baselines.py", "out /= plain.scale",
           "out /= 1.0",
           ("test_baselines.py::TestClf::test_clip_level_above_peak_is_identity",
            "test_baselines.py::TestComplex64Rows::test_give_the_bytes_of_complex128")),
    Mutant("slm-without-bound-slack", "baselines.py", "SLM_BOUND_SLACK_DB = 1e-3",
           "SLM_BOUND_SLACK_DB = 0",
           ("test_baselines.py::TestSlm"
            "::test_slack_keeps_a_candidate_whose_bound_lies_above_the_minimum",
            "test_baselines.py::TestSlm::test_critical_rate_papr_bounds_the_oversampled_one")),
    Mutant("slm-bound-skips-near-ties", "baselines.py", "bound <= best + SLM_BOUND_SLACK_DB",
           "bound <= best - 0.1",
           ("test_baselines.py::TestSlm::test_bound_keeps_the_exhaustive_bytes",)),
    Mutant("slm-last-minimum-wins", "baselines.py", "exact < best[live]",
           "exact <= best[live]",
           ("test_baselines.py::TestSlm::test_tie_with_the_identity_keeps_the_first_index",)),
    Mutant("slm-reads-the-extension-as-data", "baselines.py",
           "plain.bins[:, cfg.n_se: cfg.n_se + cfg.n_data]", "plain.bins[:, :cfg.n_data]",
           ("test_baselines.py::TestSlm::test_tie_with_the_identity_keeps_the_first_index",
            "test_baselines.py::TestFromSynthesis::test_record_gives_the_bytes_of_bins")),
    Mutant("slm-one-block-papr-stays-an-array", "baselines.py", "return idx, best[()]",
           "return idx, best",
           ("test_baselines.py::TestSlm::test_reported_papr_is_the_chosen_candidates",)),
    # network: the forward's contraction and the checkpoint layout
    Mutant("blas-dense-layer", "network.py", 'np.einsum("...i,oi->...o", x, w)', "x @ w.T",
           ("test_adaptation.py::TestAdaptationCycle"
            "::test_batch_equals_single_block_calls_bytewise",)),
    Mutant("loader-skips-the-flags-check", "network.py", '("flags", flags, FLAGS)',
           '("flags", FLAGS, FLAGS)',
           ("test_checkpoint_format.py::test_optimizer_section_file_rejected",
            "test_checkpoint_format.py::test_every_unknown_flag_bit_rejected")),
    Mutant("loader-accepts-trailing-bytes", "network.py", "if trailing:", "if False:",
           ("test_checkpoint_format.py::test_every_appended_suffix_rejected",)),
    Mutant("int8-bias-stored-as-i8", "network.py", '(2, "<i4", 1)', '(2, "<i8", 1)',
           ("test_network.py::TestCheckpointBytes::test_bytes_match_record_and_load_back",)),
    # training: the draw order and the PAPR's peak
    Mutant("snr-drawn-before-the-modulation", "training.py",
           "scheme = schemes[pick_scheme(rng)]\n"
           "        snrs.append(rng.uniform(*config.snr_range_db))",
           "snrs.append(rng.uniform(*config.snr_range_db))\n"
           "        scheme = schemes[pick_scheme(rng)]",
           ("test_training.py::TestPrepareBatch::test_matches_per_row_reference_byte_for_byte",)),
    Mutant("peak-value-from-the-float32-grid", "training.py", "peak = np.abs(x_peak) ** 2",
           "peak = np.max(power, axis=-1).astype(np.float64)",
           ("test_training.py::TestChainLossPapr::test_papr_matches_the_float64_grid",)),
    Mutant("peak-twiddles-conjugated", "training.py", "np.vecdot(twiddle, shaped)",
           "np.vecdot(twiddle.conj(), shaped)",
           ("test_training.py::TestChainLossGradient::test_coefficient_gradient_matches_fd",)),
    # adaptation: the lambda bins and the feedback hold
    Mutant("lambda-bins-closed-above", "adaptation.py", 'self._upper, snr, side="right"',
           'self._upper, snr, side="left"',
           ("test_adaptation.py::TestLambdaTable::test_half_open_boundaries",)),
    Mutant("feedback-held-only-after-its-time", "adaptation.py",
           'np.searchsorted(times, now, side="right") - 1',
           'np.searchsorted(times, now, side="left") - 1',
           ("test_adaptation.py::TestRunScenario::test_tick_count_and_feedback_holding",)),
    # evaluation: each block drawn and sent once
    Mutant("snr-blind-schemes-resent-at-the-first-snr", "evaluation.py",
           "if grid_snrs:  # the grid keeps it", "if False:  # the grid keeps it",
           ("test_evaluation.py::TestEvaluate"
            "::test_channel_drawn_once_and_snr_blind_schemes_sent_once",)),
    Mutant("ccdf-pass-for-every-modulation", "evaluation.py",
           "eval_cfg.ccdf_blocks if mod == eval_cfg.mods[0] else 0", "eval_cfg.ccdf_blocks",
           ("test_evaluation.py::TestEvaluate::test_each_block_drawn_once",)),
    # cli: what a config, a trace and the flags may hold
    Mutant("config-byte-order-mark-refused", "cli.py",
           'json.loads(Path(path).read_text(encoding="utf-8-sig"))',
           'json.loads(Path(path).read_text(encoding="utf-8"))',
           ("test_cli.py::TestByteOrderMark::test_config_trains_to_the_same_checkpoint",)),
    Mutant("trace-byte-order-mark-refused", "cli.py",
           'text = Path(path).read_text(encoding="utf-8-sig")',
           'text = Path(path).read_text(encoding="utf-8")',
           ("test_cli.py::TestByteOrderMark::test_trace_writes_the_same_events",)),
    Mutant("trace-values-not-checked-finite", "cli.py",
           "if not (math.isfinite(t_ms) and math.isfinite(snr_db)):", "if False:",
           ("test_config_properties.py::test_malformed_trace_row_named",)),
    Mutant("thread-count-below-one-parses", "cli.py", "type=_thread_count", "type=int",
           ("test_cli.py::TestConfig::test_thread_count_not_a_positive_integer_exits_2",)),
)


def _source(mutant: Mutant, root: Path) -> tuple[Path, str]:
    """The mutant's file under ``root`` and its text; ValueError unless the
    snippet occurs there exactly once."""
    path = root / "src" / "tinyfdss" / mutant.file
    text = path.read_text()
    count = text.count(mutant.snippet)
    if count != 1:
        raise ValueError(f"the snippet occurs {count} times in src/tinyfdss/{mutant.file}")
    return path, text


def run(mutant: Mutant, copy: Path) -> dict:
    """Apply ``mutant`` to the checkout ``copy``, run its tests there, restore the file."""
    start = time.monotonic()
    record = {"mutant": mutant.name, "file": mutant.file}
    try:
        path, text = _source(mutant, copy)
    except ValueError as exc:
        return {**record, "status": "error", "detail": str(exc), "seconds": 0.0}
    path.write_text(text.replace(mutant.snippet, mutant.replacement))
    # no bytecode: a restored file of the mutant's size and second would
    # otherwise load the mutant's cached code
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    argv = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
            *(f"tests/{node}" for node in mutant.tests)]
    try:
        done = subprocess.run(argv, cwd=copy, env=env, capture_output=True, text=True,
                              timeout=TIMEOUT_S)
        # pytest exits 1 when a test failed; 2 on a collection error, 4 on an unknown node
        status = {0: "survived", 1: "killed"}.get(done.returncode, "error")
        failed = re.findall(r"^(?:FAILED|ERROR) (\S+)", done.stdout, re.M)
        lines = (done.stdout + done.stderr).strip().splitlines()
        detail = failed[0] if failed else (lines or [""])[-1]
    except subprocess.TimeoutExpired:
        status, detail = "error", f"timed out after {TIMEOUT_S} s"
    finally:
        path.write_text(text)
    return {**record, "status": status, "detail": detail,
            "seconds": round(time.monotonic() - start, 1)}


def _shard(text: str) -> tuple[int, int]:
    """``K/N`` with 1 <= K <= N."""
    k, _, n = text.partition("/")
    if not (k.isdigit() and n.isdigit() and 1 <= int(k) <= int(n)):
        raise argparse.ArgumentTypeError(f"expected K/N with 1 <= K <= N, got {text!r}")
    return int(k), int(n)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("names", nargs="*", help="run only these mutants")
    parser.add_argument("--shard", type=_shard, default=(1, 1), metavar="K/N",
                        help="run the K-th of N interleaved parts of the table (CI runs 3)")
    args = parser.parse_args(argv)
    unknown = set(args.names) - {m.name for m in MUTANTS}
    if unknown:
        parser.error(f"no mutant named {', '.join(sorted(unknown))}")
    k, n = args.shard
    chosen = [m for i, m in enumerate(MUTANTS)
              if i % n == k - 1 and (not args.names or m.name in args.names)]
    with tempfile.TemporaryDirectory(prefix="tinyfdss-mutants-") as tmp:
        copy = Path(tmp) / "checkout"
        shutil.copytree(ROOT, copy, ignore=SKIP)
        records = []
        for mutant in chosen:
            records.append(run(mutant, copy))
            print(json.dumps(records[-1]), flush=True)
    killed = sum(r["status"] == "killed" for r in records)
    print(f"{killed} of {len(records)} mutants killed", file=sys.stderr)
    return 0 if killed == len(records) else 1


if __name__ == "__main__":
    sys.exit(main())
