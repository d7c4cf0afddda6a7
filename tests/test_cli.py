import ctypes
import importlib.util
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

jsonschema = pytest.importorskip("jsonschema")

from tinyfdss import training
from tinyfdss.adaptation import AdaptConfig, LambdaTable, TickRecord
from tinyfdss.cli import (
    ConfigError,
    SweepConfig,
    build_parser,
    keep_heap_resident,
    load_config,
    main,
)

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = ROOT / "perfbench" / "workloads.py"
CONFIGS = ROOT / "configs"

SMOKE_CONFIG = {
    "seed": 3,
    "chain": {"n_data": 210, "n_se": 15, "n_fft": 256, "oversample": 4},
    "train": {"n_blocks": 160, "batch_size": 32, "epochs": 2},
    "eval": {
        "snr_db": [10.0],
        "channels": ["awgn"],
        "mods": ["qpsk"],
        "n_blocks": 40,
        "ccdf_blocks": 300,
        "oobe_blocks": 16,
    },
    "adapt": {"preset": "factory", "duration_ms": 400.0},
    "sweep": {"hidden_widths": [5, 0]},
}


@pytest.fixture
def config_path(tmp_path):
    path = tmp_path / "config.json"
    cfg = dict(SMOKE_CONFIG)
    cfg["out_dir"] = str(tmp_path / "out")
    path.write_text(json.dumps(cfg))
    return path


@pytest.fixture
def narrow_config_path(tmp_path):
    """The smoke config with a chain 10 data subcarriers narrower (n_sk 230)."""
    path = tmp_path / "narrow.json"
    cfg = dict(SMOKE_CONFIG)
    cfg["chain"] = dict(SMOKE_CONFIG["chain"], n_data=200)
    cfg["out_dir"] = str(tmp_path / "narrow_out")
    path.write_text(json.dumps(cfg))
    return path


def assert_chain_mismatch_rejected(code, err, checkpoint):
    assert code == 2
    assert str(checkpoint) in err
    assert "input width 241" in err
    assert "chain.n_sk + 1 = 231" in err


def read_csv(path):
    lines = Path(path).read_text().strip().splitlines()
    header = lines[0].split(",")
    return header, [line.split(",") for line in lines[1:]]


class TestConfig:
    def test_unknown_key_named_in_error(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"train": {"warp_speed": 9}}))
        with pytest.raises(ConfigError, match="warp_speed"):
            load_config(path)

    def test_unknown_top_level_key(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"wormhole": {}}))
        with pytest.raises(ConfigError, match="wormhole"):
            load_config(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            load_config(tmp_path / "absent.json")

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{nope")
        with pytest.raises(ConfigError, match="JSON"):
            load_config(path)

    def test_nonzero_exit_and_key_in_message(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"eval": {"bogus_key": 1}}))
        code = main(["train", "--config", str(path)])
        assert code == 2
        assert "bogus_key" in capsys.readouterr().err

    @pytest.mark.parametrize("key, value", [
        ("snr_db", [float("nan")]),
        ("snr_db", [5.0, float("inf")]),
        ("ccdf_snr_db", float("inf")),
        ("ccdf_snr_db", float("nan")),
    ], ids=["snr_db-nan", "snr_db-inf", "ccdf_snr_db-inf", "ccdf_snr_db-nan"])
    def test_non_finite_snr_rejected(self, tmp_path, capsys, key, value):
        # json accepts NaN and Infinity; the eval grid must not
        path = tmp_path / "bad.json"
        cfg = dict(SMOKE_CONFIG, eval=dict(SMOKE_CONFIG["eval"], **{key: value}))
        path.write_text(json.dumps(cfg))
        code = main(["eval", "--config", str(path), "--out", str(tmp_path / "out")])
        assert code == 2
        assert f"error: eval: {key} must" in capsys.readouterr().err

    @pytest.mark.parametrize("command, section, value, message", [
        ("train", "seed", "x", 'seed must be an integer, got "x"'),
        ("train", "seed", 1.7, "seed must be an integer, got 1.7"),
        ("train", "seed", -1, "seed must be non-negative, got -1"),
        ("train", "eval", {"snr_db": 5}, "eval.snr_db must be a list, got 5"),
        ("train", "train", {"snr_range_db": 5}, "train.snr_range_db must be a list"),
        ("train", "train", {"channel_mix": {"awgn": "a"}},
         'train.channel_mix.awgn must be a number, got "a"'),
        ("train", "sweep", {"hidden_widths": 5}, "sweep.hidden_widths must be a list"),
        ("train", "eval", [], "eval must be an object, got []"),
        ("train", "eval", {"n_blocks": 1.5}, "eval.n_blocks must be an integer, got 1.5"),
        ("adapt", "adapt", {"mod": "qam256"}, "adapt: mod must be in"),
        ("adapt", "adapt", {"period_ms": 0}, "adapt: period_ms must be positive"),
        ("adapt", "adapt", {"period_ms": -100},
         "adapt: period_ms must be positive and finite, got -100\n"),
        ("adapt", "adapt", {"period_ms": "x"}, 'adapt.period_ms must be a number, got "x"'),
        ("adapt", "adapt", {"duration_ms": -5}, "adapt: duration_ms must be finite and >= 0"),
        ("adapt", "adapt", {"period_ms": 1e-300},
         "adapt: a 400.0 ms span at a 1e-300 ms period is more than MAX_TICKS = 1000000"),
        ("train", "train", {"snr_range_db": [0.0, float("inf")]},
         "train: snr_range_db must be two finite values"),
        ("train", "train", {"snr_range_db": [float("nan"), 5.0]},
         "train: snr_range_db must be two finite values"),
        ("train", "train", {"channel_mix": {"awgn": float("nan"), "rayleigh": 0.5}},
         "train: channel_mix weights sum to nan"),
        ("train", "eval", {"mods": []}, "eval: mods must name at least one"),
        ("train", "eval", {"ccdf_grid_db": [0.0, 12.0, 0.0]},
         "unknown config key 'ccdf_grid_db' in eval"),
        ("train", "eval", {"use_quantized": 1}, "eval.use_quantized must be true or false"),
        ("eval", "checkpoint", 5, "unknown config key 'checkpoint' in config root"),
        ("adapt", "adapt", {"trace": "trace.csv"}, "unknown config key 'trace' in adapt"),
        ("train", "baselines", {"clf": {"iterations": 0}}, "baselines.clf: iterations"),
        ("train", "baselines", {"dft": {}}, "unknown config key 'dft' in baselines"),
        ("train", "adapt", {"preset": "moon"}, "adapt: preset must be in"),
        ("sweep", "sweep", {"hidden_widths": [5, -1]},
         "sweep.hidden_widths[1] with the train section: hidden_width must be >= 0, got -1"),
        ("train", "train", {"hidden_width": -3}, "train: hidden_width must be >= 0, got -3"),
        ("train", "train", {"channel_mix": {"awgn": 1.5, "rayleigh": -0.5}},
         "train: channel_mix weight of 'rayleigh' must be >= 0, got -0.5"),
        ("train", "train", {"mod_mix": {"qpsk": 1.25, "qam16": -0.25}},
         "train: mod_mix weight of 'qam16' must be >= 0, got -0.25"),
        ("train", "eval", {"papr_trace_blocks": -5},
         "unknown config key 'papr_trace_blocks' in eval"),
        ("train", "eval", {"oobe_blocks": 0}, "eval: oobe_blocks must be >= 10, got 0"),
        ("train", "eval", {"oobe_blocks": 9}, "eval: oobe_blocks must be >= 10, got 9"),
        ("baselines", "eval", {"ccdf_blocks": 5}, "eval: ccdf_blocks must be >= 10"),
        ("baselines", "eval", {"ccdf_blocks": 12},
         "eval: oobe_blocks must be <= ccdf_blocks = 12, got 16"),
        ("train", "train", {"target_sparsity": 1.0},
         "train: target_sparsity must be in [0, 1), got 1.0"),
        ("train", "train", {"target_sparsity": 0.9999},
         "train: target_sparsity must leave at least one of the 2460 weights live, "
         "got 0.9999"),
        ("train", "train", {"hidden_width": 0, "target_sparsity": 0.9996},
         "train: target_sparsity must leave at least one of the 1205 weights live, "
         "got 0.9996"),
        ("train", "train", {"lr": float("nan")}, "train: lr must be finite and >= 0, got nan"),
        ("train", "train", {"lr": -0.001}, "train: lr must be finite and >= 0, got -0.001"),
        ("train", "train", {"weight_decay": float("inf")},
         "train: weight_decay must be finite and >= 0, got inf"),
        ("train", "train", {"weight_decay": -1.0},
         "train: weight_decay must be finite and >= 0, got -1.0"),
        ("baselines", "eval", {"rician_k_db": float("nan"), "channels": ["rician"]},
         "eval: rician_k_db must be finite, got nan"),
        ("train", "train", {"rician_k_db": float("inf"), "channel_mix": {"rician": 1}},
         "unknown config key 'rician_k_db' in train"),
        ("baselines", "baselines", {"clf": {"clip_ratio_db": float("nan")}},
         "baselines.clf: clip_ratio_db must be finite, got nan"),
        ("baselines", "baselines", {"clf": {"clip_ratio_db": float("inf")}},
         "baselines.clf: clip_ratio_db must be finite, got inf"),
        ("baselines", "eval", {"rician_k_db": 4000, "channels": ["rician"]},
         "eval: rician_k_db must be at most 3082.5 dB, where 10**(rician_k_db/10) overflows "
         "a float, got 4000"),
        ("baselines", "baselines", {"clf": {"clip_ratio_db": 7000}},
         "baselines.clf: clip_ratio_db must be at most 6165.1 dB, where "
         "10**(clip_ratio_db/20) overflows a float, got 7000"),
        ("baselines", "eval", {"channels": ["awgn", "awgn"]},
         "eval: channels must not repeat an entry, got ['awgn', 'awgn']"),
        ("baselines", "eval", {"schemes": ["rrc", "rrc"]},
         "eval: schemes must not repeat an entry, got ['rrc', 'rrc']"),
        ("baselines", "eval", {"mods": ["qpsk", "qam16", "qpsk"]},
         "eval: mods must not repeat an entry, got ['qpsk', 'qam16', 'qpsk']"),
        ("baselines", "eval", {"snr_db": [10, 10]},
         "eval: snr_db must not repeat an entry, got [10, 10]"),
        ("baselines", "eval", {"snr_db": [10, 5.0, 10.0]},
         "eval: snr_db must not repeat an entry, got [10, 5.0, 10.0]"),
        ("sweep", "sweep", {"hidden_widths": [0, 0]},
         "sweep: hidden_widths must not repeat an entry, got [0, 0]"),
        ("eval", "eval", {"schemes": []}, "eval: schemes must name at least one"),
        ("baselines", "eval", {"channels": []}, "eval: channels must name at least one"),
        ("baselines", "eval", {"snr_db": []}, "eval: snr_db must name at least one"),
        ("sweep", "sweep", {"hidden_widths": []}, "sweep: hidden_widths must name at least one"),
        ("train", "eval", {"rrc_rolloff": 0.0}, "eval: rrc_rolloff must be in (0, 1], got 0.0"),
        ("train", "eval", {"rrc_rolloff": 1.5}, "eval: rrc_rolloff must be in (0, 1], got 1.5"),
        ("baselines", "eval", {"rrc_rolloff": float("nan")},
         "eval: rrc_rolloff must be in (0, 1], got nan"),
        ("baselines", "eval", {"schemes": ["clf", "slm"]},
         "eval.schemes must include the summary anchors 'rrc' and 'dftsofdm', "
         "got ['clf', 'slm']"),
        ("train", "chain", {"n_data": 1, "n_se": 0},
         "chain: n_sk = n_data + 2*n_se must be >= 2, got 1"),
        ("baselines", "chain", {"n_data": 1, "n_se": 0},
         "chain: n_sk = n_data + 2*n_se must be >= 2, got 1"),
        ("sweep", ("train", "sweep"), ({"target_sparsity": 0.999}, {"hidden_widths": [5, 1]}),
         "sweep.hidden_widths[1] with the train section: target_sparsity must leave at least "
         "one of the 246 weights live, got 0.999"),
        ("sweep", "sweep", {"hidden_widths": [5, 10**400]},
         "sweep.hidden_widths[1] with the train section: int too large to convert to float"),
        ("train", "chain", {"n_se": -1}, "chain: n_se must satisfy 0 <= n_se < n_data, got -1"),
        ("train", "chain", {"n_se": 210}, "chain: n_se must satisfy 0 <= n_se < n_data, got 210"),
        ("baselines", "chain", {"oversample": 0}, "chain: oversample must be >= 1, got 0"),
        ("baselines", "eval", {"n_blocks": 0}, "eval: n_blocks must be positive, got 0"),
    ], ids=[
        "seed-str", "seed-float", "seed-negative", "snr_db-scalar", "snr_range_db-scalar",
        "channel_mix-str-weight", "hidden_widths-scalar", "eval-list", "n_blocks-float",
        "adapt-mod", "period_ms-zero", "period_ms-negative", "period_ms-str",
        "duration_ms-negative", "period_ms-tiny",
        "snr_range_db-inf", "snr_range_db-nan", "channel_mix-nan-weight", "mods-empty",
        "ccdf_grid_db-zero-step", "use_quantized-int", "checkpoint-int", "adapt-trace-str",
        "clf-iterations",
        "baselines-unknown", "adapt-preset", "hidden_widths-negative",
        "hidden_width-negative", "channel_mix-negative-weight", "mod_mix-negative-weight",
        "papr_trace_blocks-negative", "oobe_blocks-zero", "oobe_blocks-nine",
        "ccdf_blocks-five", "oobe_blocks-above-ccdf_blocks",
        "target_sparsity-one", "target_sparsity-no-live-weight",
        "target_sparsity-perceptron-no-live-weight", "lr-nan", "lr-negative", "weight_decay-inf",
        "weight_decay-negative", "eval-rician_k_db-nan", "train-rician_k_db-inf",
        "clip_ratio_db-nan", "clip_ratio_db-inf", "rician_k_db-overflow",
        "clip_ratio_db-overflow", "channels-repeat", "schemes-repeat",
        "mods-repeat", "snr_db-repeat", "snr_db-repeat-int-float", "hidden_widths-repeat",
        "schemes-empty", "channels-empty", "snr_db-empty", "hidden_widths-empty",
        "rrc_rolloff-zero", "rrc_rolloff-above-one", "rrc_rolloff-nan", "schemes-no-anchor",
        "chain-n_sk-one-train", "chain-n_sk-one-baselines",
        "sweep-width-no-live-weight", "sweep-width-overflow",
        "chain-n_se-negative", "chain-n_se-n_data", "chain-oversample-zero", "n_blocks-zero",
    ])
    def test_malformed_value_exits_2_naming_the_key(
        self, tmp_path, capsys, command, section, value, message
    ):
        path = tmp_path / "bad.json"
        sections = dict(zip(section, value)) if isinstance(section, tuple) else {section: value}
        cfg = dict(SMOKE_CONFIG)
        for name, val in sections.items():
            cfg[name] = dict(SMOKE_CONFIG.get(name, {}), **val) if isinstance(val, dict) else val
        path.write_text(json.dumps(cfg))
        out = tmp_path / "out"
        code = main([command, "--config", str(path), "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: ") and message in err and err.count("\n") == 1
        assert not out.exists()  # rejected before anything ran

    @pytest.mark.parametrize("command, section, value", [
        ("baselines", "eval", {"snr_db": [-4000.0]}),
        ("train", "train", {"snr_range_db": [-4000.0, 0.0]}),
    ], ids=["baselines-snr_db", "train-snr_range_db"])
    def test_snr_below_the_floor_exits_2(self, tmp_path, capsys, command, section, value):
        # config load takes the value; the noise rule rejects it on first use
        path = tmp_path / "low.json"
        cfg = dict(SMOKE_CONFIG, **{section: dict(SMOKE_CONFIG[section], **value)})
        path.write_text(json.dumps(cfg))
        out = tmp_path / "out"
        code = main([command, "--config", str(path), "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: snr_db ") and "below the floor" in err
        assert len(err.splitlines()) == 1
        assert not out.exists()  # the directory made for the run is removed

    @pytest.mark.parametrize("command", ["baselines", "eval", "sweep"])
    def test_band_without_out_of_band_bin_exits_2(self, tmp_path, capsys, command):
        # n_fft = n_sk = 240 at oversample 1 is a valid chain whose grid has no
        # bin outside the band; the OOBE periodogram rejects it on first use
        path = tmp_path / "full_band.json"
        path.write_text(json.dumps(dict(SMOKE_CONFIG, chain={"n_fft": 240, "oversample": 1})))
        out = tmp_path / "out"
        if command == "eval":
            assert main(["train", "--config", str(path), "--out", str(out)]) == 0
        capsys.readouterr()
        assert main([command, "--config", str(path), "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            "error: OOBE undefined: a 240-sample grid has no bin outside the band of "
            "n_sk=240 occupied bins\n")
        assert not (out / "summary.json").exists() and not (out / "sweep_ccdf.csv").exists()
        if command != "eval":  # eval's run directory holds the checkpoint
            assert not out.exists()

    def test_perceptron_keeps_one_live_weight_at_its_bound(self, tmp_path):
        # round(1205 * (1 - 0.9995)) = 1 live weight; 0.9996 leaves 0
        path = tmp_path / "bound.json"
        path.write_text(json.dumps({"train": {"hidden_width": 0, "target_sparsity": 0.9995}}))
        assert load_config(path)["train"].target_sparsity == 0.9995

    def test_oobe_blocks_past_2048_load(self, tmp_path):
        # the OOBE periodogram streams, so ccdf_blocks is oobe_blocks' only cap
        path = tmp_path / "oobe.json"
        path.write_text(json.dumps({"eval": {"ccdf_blocks": 2100, "oobe_blocks": 2050}}))
        assert load_config(path)["eval"].oobe_blocks == 2050

    def test_defaults_fill_in(self, tmp_path):
        path = tmp_path / "minimal.json"
        path.write_text("{}")
        cfg = load_config(path)
        assert cfg["train"].n_blocks == 10_000
        assert cfg["eval"].schemes == ("tinyml", "rrc", "dftsofdm", "clf", "slm")
        assert cfg["adapt"] == AdaptConfig()
        assert cfg["sweep"] == SweepConfig()

    def test_seed_override_reaches_every_section(self, config_path):
        cfg = load_config(config_path, seed=7)
        assert cfg["seed"] == cfg["train"].seed == cfg["eval"].seed == 7
        assert load_config(config_path)["train"].seed == SMOKE_CONFIG["seed"]

    def test_negative_seed_flag_rejected(self, config_path, tmp_path, capsys):
        out = tmp_path / "out"
        code = main(["train", "--config", str(config_path), "--out", str(out), "--seed", "-1"])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: seed must be non-negative")
        assert not out.exists()

    def test_float_fields_keep_ints_as_given(self, tmp_path):
        path = tmp_path / "ints.json"
        path.write_text(json.dumps({"eval": {"snr_db": [5, 10]}, "adapt": {"period_ms": 50}}))
        cfg = load_config(path)
        assert [type(v) for v in cfg["eval"].snr_db] == [int, int]
        assert cfg["adapt"].period_ms == 50


@pytest.fixture
def workloads(monkeypatch):
    """``perfbench/workloads.py``, loaded read-only."""
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    # its dataclasses resolve their module through sys.modules
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


class TestUnreadablePaths:
    """A path that exists but cannot be read or made exits 2 with one error line."""

    @pytest.fixture
    def trained_out(self, config_path, tmp_path):
        out = tmp_path / "run"
        assert main(["train", "--config", str(config_path), "--out", str(out)]) == 0
        return out

    def assert_error_exit(self, argv, capsys):
        capsys.readouterr()
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        return captured.err

    def test_config_is_a_directory(self, tmp_path, capsys):
        self.assert_error_exit(["train", "--config", str(tmp_path)], capsys)

    def test_config_not_utf8_names_the_file(self, tmp_path, capsys):
        # UTF-16 with its byte-order mark: not UTF-8, whatever the locale
        config, out = tmp_path / "config.json", tmp_path / "fresh" / "run"
        config.write_bytes("{}".encode("utf-16"))
        err = self.assert_error_exit(["eval", "--config", str(config), "--out", str(out)],
                                     capsys)
        assert str(config) in err and "UTF-8" in err
        assert not (tmp_path / "fresh").exists()

    def test_checkpoint_is_a_directory(self, config_path, tmp_path, capsys):
        self.assert_error_exit(["eval", "--config", str(config_path), "--out",
                                str(tmp_path / "run"), "--checkpoint", str(tmp_path)], capsys)

    def test_trace_is_a_directory(self, config_path, trained_out, tmp_path, capsys):
        self.assert_error_exit(["adapt", "--config", str(config_path), "--out",
                                str(trained_out), "--trace", str(tmp_path)], capsys)

    def test_trace_not_utf8_names_the_file(self, config_path, trained_out, tmp_path, capsys):
        trace, out = tmp_path / "trace.csv", tmp_path / "fresh" / "run"
        trace.write_bytes("t_ms,snr_db\n0,5\n".encode("utf-16"))
        err = self.assert_error_exit(["adapt", "--config", str(config_path), "--out", str(out),
                                      "--checkpoint", str(trained_out / "checkpoint.bin"),
                                      "--trace", str(trace)], capsys)
        assert str(trace) in err and "UTF-8" in err
        assert not (tmp_path / "fresh").exists()

    def test_out_is_an_existing_file(self, config_path, tmp_path, capsys):
        out = tmp_path / "taken"
        out.write_text("not a directory\n")
        self.assert_error_exit(["baselines", "--config", str(config_path), "--out", str(out)],
                               capsys)
        assert out.read_text() == "not a directory\n"


class TestBenchmarkInvocations:
    """The CLI calls and configs of the benchmark (``perfbench/workloads.py``) still load."""

    @pytest.mark.parametrize("command", ["train", "eval", "adapt"])
    def test_workload_cli_args_parse(self, tmp_path, workloads, command):
        checkpoint = None if command == "train" else tmp_path / "checkpoint.bin"
        args = build_parser().parse_args(workloads.cli_args(command, tmp_path, checkpoint))
        assert args.command == command
        assert args.config == str(tmp_path / "config.json")
        assert args.threads == 1
        if checkpoint is not None:
            assert args.checkpoint == str(checkpoint)
        if command == "adapt":
            assert args.trace == str(tmp_path / "trace.csv")

    @pytest.mark.parametrize("builder", ["make_config", "probe_config"])
    @pytest.mark.parametrize("scale", ["full", "smoke"])
    def test_workload_configs_load(self, tmp_path, workloads, builder, scale):
        config = getattr(workloads, builder)(5, scale)
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        assert load_config(path)["seed"] == 5


@pytest.mark.parametrize("path", sorted(CONFIGS.glob("*.json")), ids=lambda p: p.name)
def test_repository_config_loads(path):
    load_config(path)


class TestTrainCommand:
    def test_train_writes_outputs_and_creates_dir(self, config_path, tmp_path):
        import time

        out = tmp_path / "fresh" / "nested"
        t0 = time.perf_counter()
        code = main(["train", "--config", str(config_path), "--out", str(out)])
        assert time.perf_counter() - t0 < 60.0  # smoke-scale wall budget
        assert code == 0
        assert (out / "checkpoint.bin").exists()
        header, rows = read_csv(out / "history.csv")
        assert header == ["epoch", "mean_loss", "median_loss", "mse_term",
                          "tail_term", "sparsity", "wall_seconds"]
        assert len(rows) == 2

    def test_diverged_run_exits_2_with_an_error_line(self, tmp_path, capsys):
        path = tmp_path / "diverge.json"
        train_cfg = {"n_blocks": 1600, "epochs": 1, "lr": 1e12, "prune_mode": "none"}
        path.write_text(json.dumps(dict(SMOKE_CONFIG, train=train_cfg)))
        code = main(["train", "--config", str(path), "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == 2
        assert err.splitlines()[-1].startswith("error: non-finite loss at block indices")
        assert "Traceback" not in err

    def test_diverged_run_writes_only_its_error_line(self, tmp_path, capsys):
        # the overflow on the way to the non-finite loss raises no warning
        cfg = json.loads((CONFIGS / "smoke.json").read_text())
        cfg["train"]["lr"] = 1e12
        path = tmp_path / "diverge.json"
        path.write_text(json.dumps(cfg))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["train", "--config", str(path), "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == 2
        assert len(err.splitlines()) == 1
        assert err.startswith("error: non-finite loss at block indices")

    def test_smoke_train_reads_the_single_precision_grid_only_for_its_peaks(
            self, tmp_path, monkeypatch):
        # the loss finds each block's peak index on a complex64 grid and takes
        # the peak and mean powers in float64 from the bins: a smoke train
        # that finds the index on a complex128 grid instead writes the same bytes
        def run(out):
            assert main(["train", "--config", str(CONFIGS / "smoke.json"), "--out", str(out)]) == 0
            header, rows = read_csv(out / "history.csv")
            wall = header.index("wall_seconds")
            return ((out / "checkpoint.bin").read_bytes(),
                    [row[:wall] + row[wall + 1:] for row in rows])

        single = run(tmp_path / "single")
        monkeypatch.setattr(training, "single_precision", lambda bins: bins)
        assert run(tmp_path / "double") == single

    def test_rerun_byte_identical_checkpoint(self, config_path, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        main(["train", "--config", str(config_path), "--out", str(out1)])
        main(["train", "--config", str(config_path), "--out", str(out2)])
        assert (out1 / "checkpoint.bin").read_bytes() == (
            out2 / "checkpoint.bin"
        ).read_bytes()


def has_mallopt() -> bool:
    try:
        return hasattr(ctypes.CDLL(None), "mallopt")
    except (OSError, TypeError):
        return False


# two train calls in one fresh interpreter; prints the second call's minor faults
FAULT_PROBE = """
import resource, sys
from tinyfdss.cli import main
config, out = sys.argv[1:3]
for i in range(2):
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    assert main(["train", "--config", config, "--out", f"{out}/{i}"]) == 0
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


def _cdll_raises(*args, **kwargs):
    raise OSError("no C library handle")


def _cdll_without_mallopt(*args, **kwargs):
    return object()  # a handle without mallopt, as on macOS


class TestHeapPolicy:
    """``main`` keeps freed heap memory resident without changing any output."""

    @pytest.mark.skipif(not has_mallopt(), reason="the C library has no mallopt")
    def test_second_train_call_faults_in_almost_no_pages(self, tmp_path):
        # under glibc's adaptive thresholds each training step's freed arrays
        # go back to the kernel: about 21 000 faults on this call, 3 without
        paths = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p))
        result = subprocess.run(
            [sys.executable, "-c", FAULT_PROBE, str(CONFIGS / "smoke.json"), str(tmp_path)],
            env=env, capture_output=True, text=True, timeout=300,
        )
        assert result.returncode == 0, result.stderr
        assert int(result.stdout.split()[-1]) < 2000

    @pytest.mark.skipif(not has_mallopt(), reason="the C library has no mallopt")
    def test_both_thresholds_are_set(self):
        assert keep_heap_resident() == (1, 1)

    @pytest.mark.parametrize("cdll", [_cdll_raises, _cdll_without_mallopt],
                             ids=["no_handle", "no_mallopt"])
    def test_train_without_mallopt_writes_the_same_checkpoint(
            self, config_path, tmp_path, monkeypatch, cdll):
        assert main(["train", "--config", str(config_path), "--out", str(tmp_path / "a")]) == 0
        monkeypatch.setattr(ctypes, "CDLL", cdll)
        assert keep_heap_resident() is None
        assert main(["train", "--config", str(config_path), "--out", str(tmp_path / "b")]) == 0
        assert ((tmp_path / "b" / "checkpoint.bin").read_bytes()
                == (tmp_path / "a" / "checkpoint.bin").read_bytes())


# the numpy.random and numpy.fft modules that importing the CLI loads beyond numpy's own
LAZY_PROBE = """
import sys
import numpy
heavy = ("numpy.random", "numpy.fft")
before = {name for name in sys.modules if name.startswith(heavy)}
import tinyfdss.cli
print(sorted({name for name in sys.modules if name.startswith(heavy)} - before))
"""


def test_importing_the_cli_loads_no_numpy_random_or_fft():
    # both load on the first draw or transform: every command's setup time
    # would pay for an import at the top of a module
    paths = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p))
    result = subprocess.run([sys.executable, "-c", LAZY_PROBE], env=env, capture_output=True,
                            text=True, timeout=60)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"


class TestEvalCommand:
    @pytest.fixture
    def trained_out(self, config_path, tmp_path):
        out = tmp_path / "run"
        main(["train", "--config", str(config_path), "--out", str(out)])
        return out

    def test_eval_outputs_and_schema(self, config_path, trained_out):
        code = main(["eval", "--config", str(config_path), "--out", str(trained_out)])
        assert code == 0
        for name in ("ccdf.csv", "ser_vs_snr.csv", "papr_vs_blocks.csv",
                     "oobe.csv", "summary.json"):
            assert (trained_out / name).exists(), name
        summary = json.loads((trained_out / "summary.json").read_text())
        schema = json.loads(
            Path("src/tinyfdss/schemas/summary.schema.json").read_text()
        )
        jsonschema.validate(summary, schema)
        for scheme in ("tinyml", "rrc", "dftsofdm", "clf", "slm"):
            assert "papr_at_ccdf_1e3_db" in summary[scheme]

    def test_csv_headers(self, config_path, trained_out):
        main(["eval", "--config", str(config_path), "--out", str(trained_out)])
        header, rows = read_csv(trained_out / "ccdf.csv")
        assert header == ["scheme", "threshold_db", "ccdf"]
        assert len(rows) > 100
        header, _ = read_csv(trained_out / "ser_vs_snr.csv")
        assert header == ["scheme", "channel", "mod", "snr_db", "ser", "sem"]
        header, _ = read_csv(trained_out / "papr_vs_blocks.csv")
        assert header == ["scheme", "block_index", "papr_db"]

    def test_missing_checkpoint_nonzero_exit(self, config_path, tmp_path, capsys):
        empty = tmp_path / "empty"
        empty.mkdir()
        code = main(["eval", "--config", str(config_path), "--out", str(empty)])
        assert code == 2
        assert "checkpoint" in capsys.readouterr().err
        assert empty.is_dir()  # a directory the call did not make stays

    def test_missing_checkpoint_in_a_fresh_run_directory_leaves_none(
        self, config_path, tmp_path, capsys
    ):
        out = tmp_path / "fresh" / "run"
        code = main(["eval", "--config", str(config_path), "--out", str(out)])
        assert code == 2
        assert "checkpoint" in capsys.readouterr().err
        assert not (tmp_path / "fresh").exists()

    @pytest.mark.parametrize("command", ["eval", "adapt"])
    def test_missing_named_checkpoint_is_not_replaced(
        self, command, config_path, trained_out, tmp_path, capsys
    ):
        # the run directory holds a checkpoint, but the one named is missing
        missing = tmp_path / "missing.bin"
        capsys.readouterr()
        code = main([command, "--config", str(config_path), "--out", str(trained_out),
                     "--checkpoint", str(missing)])
        err = capsys.readouterr().err
        assert code == 2 and err.startswith("error: ") and str(missing) in err
        assert not (trained_out / "summary.json").exists()
        assert not (trained_out / "events.csv").exists()

    def test_checkpoint_chain_mismatch_rejected(
        self, narrow_config_path, trained_out, tmp_path, capsys
    ):
        ckpt = trained_out / "checkpoint.bin"
        code = main(["eval", "--config", str(narrow_config_path), "--out",
                     str(tmp_path / "narrow"), "--checkpoint", str(ckpt)])
        assert_chain_mismatch_rejected(code, capsys.readouterr().err, ckpt)


class TestAdaptCommand:
    def test_factory_preset_lambda_bin(self, config_path, tmp_path):
        out = tmp_path / "run"
        main(["train", "--config", str(config_path), "--out", str(out)])
        code = main(["adapt", "--config", str(config_path), "--out", str(out)])
        assert code == 0
        header, rows = read_csv(out / "events.csv")
        assert header == ["t_ms", "snr_db", "lambda", "papr_db", "ser_block"]
        assert len(rows) == 5  # 400 ms / 100 ms + 1 tick
        assert all(r[2] == "0.3" for r in rows)  # 5 dB -> the [5,10) bin

    def test_checkpoint_chain_mismatch_rejected(
        self, config_path, narrow_config_path, tmp_path, capsys
    ):
        out = tmp_path / "run"
        main(["train", "--config", str(config_path), "--out", str(out)])
        ckpt = out / "checkpoint.bin"
        capsys.readouterr()
        code = main(["adapt", "--config", str(narrow_config_path), "--out",
                     str(tmp_path / "narrow"), "--checkpoint", str(ckpt)])
        assert_chain_mismatch_rejected(code, capsys.readouterr().err, ckpt)

    def test_malformed_trace_nonzero_exit(self, config_path, tmp_path, capsys):
        out = tmp_path / "run"
        main(["train", "--config", str(config_path), "--out", str(out)])
        trace = tmp_path / "bad_trace.csv"
        trace.write_text("t_ms,snr_db\nzero,not_a_number\n")
        code = main(["adapt", "--config", str(config_path), "--out", str(out),
                     "--trace", str(trace)])
        assert code == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_unsorted_trace_names_file_and_line(self, config_path, tmp_path, capsys):
        out = tmp_path / "run"
        main(["train", "--config", str(config_path), "--out", str(out)])
        trace = tmp_path / "bad_trace.csv"
        trace.write_text("t_ms,snr_db\n0,5\n200,6\n100,7\n")
        code = main(["adapt", "--config", str(config_path), "--out", str(out),
                     "--trace", str(trace)])
        assert code == 2
        assert capsys.readouterr().err.startswith(
            f"error: {trace} line 4: trace timestamps must be sorted")

    def test_trace_file_replay_determinism(self, config_path, tmp_path):
        out = tmp_path / "run"
        main(["train", "--config", str(config_path), "--out", str(out)])
        trace = tmp_path / "trace.csv"
        trace.write_text("t_ms,snr_db\n0,9.0\n100,11.0\n200,17.0\n")
        main(["adapt", "--config", str(config_path), "--out", str(out),
              "--trace", str(trace)])
        first = (out / "events.csv").read_bytes()
        main(["adapt", "--config", str(config_path), "--out", str(out),
              "--trace", str(trace)])
        assert (out / "events.csv").read_bytes() == first
        _, rows = read_csv(out / "events.csv")
        assert [r[2] for r in rows] == ["0.3", "0.5", "0.8"]

    def test_events_columns_are_the_tick_record_fields_in_order(self, config_path, tmp_path):
        # cmd_adapt writes each TickRecord as it is, so its fields' order is the header's
        out = tmp_path / "run"
        main(["train", "--config", str(config_path), "--out", str(out)])
        trace = tmp_path / "trace.csv"
        trace.write_text("t_ms,snr_db\n0,-1.5\n100,7.0\n200,12.5\n300,17.0\n400,24.0\n")
        assert main(["adapt", "--config", str(config_path), "--out", str(out),
                     "--trace", str(trace)]) == 0
        header, rows = read_csv(out / "events.csv")
        assert header == [{"lam": "lambda"}.get(name, name) for name in TickRecord._fields]
        records = [TickRecord(*map(float, row)) for row in rows]
        assert [r.t_ms for r in records] == [0.0, 100.0, 200.0, 300.0, 400.0]
        assert [r.snr_db for r in records] == [-1.5, 7.0, 12.5, 17.0, 24.0]
        assert [r.lam for r in records] == [LambdaTable().lookup(r.snr_db) for r in records]
        assert all(0.0 <= r.ser_block <= 1.0 < r.papr_db for r in records)


class TestBaselinesCommand:
    def test_runs_without_checkpoint(self, config_path, tmp_path):
        out = tmp_path / "base"
        code = main(["baselines", "--config", str(config_path), "--out", str(out)])
        assert code == 0
        summary = json.loads((out / "summary.json").read_text())
        assert "tinyml" not in summary
        assert "rrc" in summary and "dftsofdm" in summary

    def test_smoke_baselines_transform_single_precision_forward(self, tmp_path, monkeypatch):
        # np.fft.fft's default norm passes the integer factor 1, which runs
        # complex64 input through the complex128 loop: every single-precision
        # forward transform (CLF's filtering) asks for norm="forward"
        seen = []
        real = np.fft.fft

        def recording(a, *args, **kwargs):
            seen.append((np.asarray(a).dtype, kwargs.get("norm")))
            return real(a, *args, **kwargs)

        monkeypatch.setattr(np.fft, "fft", recording)
        out = tmp_path / "baselines"
        assert main(["baselines", "--config", str(CONFIGS / "smoke.json"), "--out", str(out)]) == 0
        single = [norm for dtype, norm in seen if dtype == np.complex64]
        assert single and set(single) == {"forward"}


class TestSweepCommand:
    def test_sweep_emits_architecture_columns(self, config_path, tmp_path):
        out = tmp_path / "sweep"
        code = main(["sweep", "--config", str(config_path), "--out", str(out)])
        assert code == 0
        header, rows = read_csv(out / "sweep_ccdf.csv")
        assert header[0] == "threshold_db"
        assert {"hidden5", "perceptron", "rrc", "dftsofdm"} <= set(header)
        assert len(rows) > 50
