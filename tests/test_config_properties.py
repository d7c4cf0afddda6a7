"""Property tests: the config and trace loaders fail only with a clear error.

A drawn JSON value placed at any key path of a valid config either loads or
raises ``ConfigError`` naming its section; any trace text either loads as
finite ``(t_ms, snr_db)`` rows or raises ``ValueError`` naming the file and
the line.
"""

import json
import math

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings
from hypothesis import strategies as st

from tinyfdss.cli import ConfigError, _load_trace, load_config

BASE = {
    "seed": 3,
    "out_dir": "runs/x",
    "chain": {"n_data": 210, "n_se": 15, "n_fft": 256, "oversample": 4,
              "bandwidth_hz": 20e6, "scs_hz": 30e3},
    "train": {"n_blocks": 160, "batch_size": 32, "epochs": 2, "lr": 0.001,
              "prune_mode": "target", "snr_range_db": [0.0, 20.0],
              "channel_mix": {"awgn": 0.5, "rayleigh": 0.5},
              "mod_mix": {"qpsk": 0.5, "qam16": 0.5}, "hidden_width": 10},
    "eval": {"snr_db": [5.0, 10.0], "channels": ["awgn"], "mods": ["qpsk"],
             "n_blocks": 40, "ccdf_blocks": 300,
             "use_quantized": True, "schemes": ["tinyml", "rrc", "dftsofdm"]},
    "baselines": {"clf": {"clip_ratio_db": 4.0, "iterations": 2},
                  "slm": {"num_candidates": 8}},
    "adapt": {"period_ms": 100.0, "preset": "factory", "duration_ms": 400.0, "mod": "qpsk"},
    "sweep": {"hidden_widths": [5, 0]},
}


def key_paths(node, prefix=()):
    """Every key path into ``node``: object keys and list indices, at any depth."""
    children = node.items() if isinstance(node, dict) else (
        enumerate(node) if isinstance(node, list) else ())
    for key, child in children:
        yield prefix + (key,)
        yield from key_paths(child, prefix + (key,))


PATHS = list(key_paths(BASE))
NAMES = ["qpsk", "qam16", "awgn", "rician", "tinyml", "rrc", "factory", "rural"]
EDGES = [0, -1, 1, 2**70, 10**400, 0.0, -0.5, 1.5, math.nan, math.inf, -math.inf, True, None, ""]
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats()
    | st.text(max_size=6) | st.sampled_from(NAMES + EDGES),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=6) | st.sampled_from(NAMES), inner, max_size=3),
    max_leaves=6,
)


def near(valid):
    """Values close to a valid one: its list resized, its keys given edge values."""
    edges = st.sampled_from(EDGES + NAMES)
    if isinstance(valid, list):
        items = st.sampled_from(valid) | edges if valid else edges
        return st.lists(items, max_size=len(valid) + 2)
    if isinstance(valid, dict):
        return st.dictionaries(st.sampled_from(list(valid)), edges, max_size=2).map(
            lambda changed: {**valid, **changed})
    return edges


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("config")


def test_base_config_loads(workdir):
    path = workdir / "base.json"
    path.write_text(json.dumps(BASE))
    load_config(path)


@settings(max_examples=500, deadline=None)
@given(key_path=st.sampled_from(PATHS), data=st.data())
def test_any_value_loads_or_names_its_section(workdir, key_path, data):
    config = json.loads(json.dumps(BASE))
    node = config
    for key in key_path[:-1]:
        node = node[key]
    node[key_path[-1]] = data.draw(near(node[key_path[-1]]) | json_values)
    path = workdir / "drawn.json"
    path.write_text(json.dumps(config))
    try:
        load_config(path)
    except ConfigError as exc:
        section = key_path[0]
        if section == "baselines" and len(key_path) > 1:
            section = f"baselines.{key_path[1]}"
        assert section in str(exc)


TOKENS = ["0", "100", "5.5", "-1", "1e3", "nan", "inf", "-inf", "1e400", "abc", "", " ",
          "t_ms", "snr_db"]
trace_texts = st.lists(
    st.lists(st.sampled_from(TOKENS), max_size=3).map(",".join), max_size=5
).map("\n".join)


@settings(max_examples=300, deadline=None)
@given(text=trace_texts | st.text(max_size=40))
def test_trace_loads_finite_rows_or_names_the_line(workdir, text):
    path = workdir / "trace.csv"
    path.write_text(text, encoding="utf-8")
    try:
        rows = _load_trace(path)
    except ValueError as exc:
        assert str(exc).startswith(f"{path} line ")
    else:
        assert all(math.isfinite(t) and math.isfinite(s) for t, s in rows)
        assert all(a[0] <= b[0] for a, b in zip(rows, rows[1:]))


@pytest.mark.parametrize("text, line", [
    ("t_ms,snr_db\n0,5\n100\n", 3),
    ("0,5\n\n100,abc\n", 3),
    ("t_ms,snr_db\nnan,5\n", 2),
    ("0,inf\n", 1),
    ("t_ms,snr_db\n0,5\n200,6\n100,7\n", 4),
])
def test_malformed_trace_row_named(workdir, text, line):
    path = workdir / "bad_trace.csv"
    path.write_text(text)
    with pytest.raises(ValueError, match=f"line {line}:"):
        _load_trace(path)


def test_trace_header_and_extra_columns(workdir):
    path = workdir / "trace.csv"
    path.write_text("T_ms,snr_db,note\n\n0,5.0,a\n100.0,7,b\n")
    assert _load_trace(path) == [(0.0, 5.0), (100.0, 7.0)]
