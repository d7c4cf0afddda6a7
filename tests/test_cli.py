import json
from pathlib import Path

import pytest

jsonschema = pytest.importorskip("jsonschema")

from tinyfdss.cli import ConfigError, load_config, main

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

    def test_defaults_fill_in(self, tmp_path):
        path = tmp_path / "minimal.json"
        path.write_text("{}")
        cfg = load_config(path)
        assert cfg["train"].n_blocks == 10_000
        assert cfg["eval"].schemes == ("tinyml", "rrc", "dftsofdm", "clf", "slm")


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

    def test_rerun_byte_identical_checkpoint(self, config_path, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        main(["train", "--config", str(config_path), "--out", str(out1)])
        main(["train", "--config", str(config_path), "--out", str(out2)])
        assert (out1 / "checkpoint.bin").read_bytes() == (
            out2 / "checkpoint.bin"
        ).read_bytes()


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


class TestBaselinesCommand:
    def test_runs_without_checkpoint(self, config_path, tmp_path):
        out = tmp_path / "base"
        code = main(["baselines", "--config", str(config_path), "--out", str(out)])
        assert code == 0
        summary = json.loads((out / "summary.json").read_text())
        assert "tinyml" not in summary
        assert "rrc" in summary and "dftsofdm" in summary


class TestSweepCommand:
    def test_sweep_emits_architecture_columns(self, config_path, tmp_path):
        out = tmp_path / "sweep"
        code = main(["sweep", "--config", str(config_path), "--out", str(out)])
        assert code == 0
        header, rows = read_csv(out / "sweep_ccdf.csv")
        assert header[0] == "threshold_db"
        assert {"hidden5", "perceptron", "rrc", "dftsofdm"} <= set(header)
        assert len(rows) > 50
