"""Property tests: the checkpoint loader accepts exactly the files the writer emits.

A valid file is built from drawn shapes and section contents; every strict
prefix, every non-empty suffix, every flags value but 13 (a set bit the loader
does not read or a cleared section bit among them) and every version but 1 must
raise ``ValueError``.
"""

import struct

import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import example, given, settings
from hypothesis import strategies as st

from tinyfdss.network import init_params, load_net, quantize, save_net

VERSION_OFFSET = 4  # after magic
FLAGS_OFFSET = 20  # after magic, version, hidden_width, input_dim, out_dim
FLAGS = 13  # bits 0, 2 and 3: quantized twin, extras, history
SECTION_BITS = [b for b in range(32) if FLAGS >> b & 1]
UNKNOWN_BITS = [b for b in range(32) if not FLAGS >> b & 1]


@st.composite
def checkpoint_bytes(draw):
    hidden = draw(st.sampled_from([0, 1, 3]))
    in_dim = draw(st.integers(1, 12))
    out_dim = draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    p = init_params(hidden_width=hidden, rng=rng, input_dim=in_dim, out_dim=out_dim)
    for w, _, mask in p.layers():
        mask[...] = rng.random(mask.shape) < 0.7
        w *= mask
    return {
        "params": p,
        "qnet": quantize(p),
        "epoch": draw(st.integers(0, 2**32 - 1)),
        "config_hash": draw(st.integers(0, 2**64 - 1)),
        "history": rng.standard_normal((draw(st.integers(0, 3)), 6)),
    }


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("ckpt")


def valid_file(workdir, parts) -> bytes:
    path = workdir / "valid.bin"
    save_net(path, **parts)
    data = path.read_bytes()
    load_net(path)  # the untouched file loads
    return data


def load_bytes(workdir, data: bytes):
    path = workdir / "mutated.bin"
    path.write_bytes(data)
    return load_net(path)


@settings(max_examples=60, deadline=None)
@given(parts=checkpoint_bytes(), data=st.data())
def test_every_strict_prefix_rejected(workdir, parts, data):
    blob = valid_file(workdir, parts)
    cut = data.draw(st.integers(0, len(blob) - 1))
    with pytest.raises(ValueError):
        load_bytes(workdir, blob[:cut])


@settings(max_examples=60, deadline=None)
@given(parts=checkpoint_bytes(), suffix=st.binary(min_size=1, max_size=64))
def test_every_appended_suffix_rejected(workdir, parts, suffix):
    blob = valid_file(workdir, parts)
    with pytest.raises(ValueError, match="trailing"):
        load_bytes(workdir, blob + suffix)


def with_field(blob: bytes, offset: int, value: int) -> bytes:
    """``blob`` with the u32 at ``offset`` replaced by ``value``."""
    blob = bytearray(blob)
    struct.pack_into("<I", blob, offset, value)
    return bytes(blob)


def flags_rejected(workdir, blob: bytes, flags: int):
    with pytest.raises(ValueError, match=rf"^checkpoint flags {flags}; .* only 13$"):
        load_bytes(workdir, with_field(blob, FLAGS_OFFSET, flags))


@settings(max_examples=60, deadline=None)
@given(parts=checkpoint_bytes(), bit=st.sampled_from(UNKNOWN_BITS))
def test_every_unknown_flag_bit_rejected(workdir, parts, bit):
    flags_rejected(workdir, valid_file(workdir, parts), FLAGS | 1 << bit)


@settings(max_examples=60, deadline=None)
@given(parts=checkpoint_bytes(), bit=st.sampled_from(SECTION_BITS))
def test_every_cleared_section_bit_rejected(workdir, parts, bit):
    flags_rejected(workdir, valid_file(workdir, parts), FLAGS & ~(1 << bit))


@settings(max_examples=60, deadline=None)
@given(parts=checkpoint_bytes(), flags=st.integers(0, 2**32 - 1).filter(lambda f: f != FLAGS))
def test_every_other_flags_value_rejected(workdir, parts, flags):
    flags_rejected(workdir, valid_file(workdir, parts), flags)


PARAMS = init_params(hidden_width=2, rng=np.random.default_rng(0), input_dim=5, out_dim=3)
PARTS = {"params": PARAMS, "qnet": quantize(PARAMS), "epoch": 0, "config_hash": 0,
         "history": np.zeros((0, 6))}


@settings(max_examples=30, deadline=None)
@given(parts=checkpoint_bytes(), version=st.integers(0, 2**32 - 1).filter(lambda v: v != 1))
@example(parts=PARTS, version=0)
@example(parts=PARTS, version=2)
def test_every_other_version_rejected(workdir, parts, version):
    blob = with_field(valid_file(workdir, parts), VERSION_OFFSET, version)
    with pytest.raises(ValueError, match=rf"^checkpoint version {version}; .* only 1$"):
        load_bytes(workdir, blob)


def test_optimizer_section_file_rejected(workdir):
    # the layout of a file that still carries the retired optimizer section
    # (bit 1): quantized twin, then step and hyperparameters, then m and v
    blob = bytearray(valid_file(workdir, PARTS)[:-16])  # no extras (12 bytes), empty history (4)
    struct.pack_into("<I", blob, FLAGS_OFFSET, 1 | 2)
    blob += struct.pack("<Qddddd", 7, 1e-3, 0.9, 0.999, 1e-8, 1e-4)
    blob += bytes(2 * 8 * sum(t.size for t in (PARAMS.w1, PARAMS.b1, PARAMS.w2, PARAMS.b2)))
    with pytest.raises(ValueError, match=r"^checkpoint flags 3; this loader reads only 13$"):
        load_bytes(workdir, bytes(blob))
