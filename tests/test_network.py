import copy
import hashlib
import struct

import numpy as np
import pytest

from tinyfdss import network
from tinyfdss.network import (
    AdamState,
    adamw_step,
    backward,
    build_input,
    forward,
    forward_cached,
    forward_q,
    init_params,
    live_weight_count,
    load_net,
    prune_to,
    quantize,
    save_net,
    total_weight_count,
)


def random_params(hidden=10, seed=0, scale=1.0):
    rng = np.random.default_rng(seed)
    p = init_params(hidden_width=hidden, rng=rng, out_scale=1.0)
    if hidden > 0:
        p.w1 = rng.standard_normal(p.w1.shape) * 0.1 * scale
        p.b1 = rng.standard_normal(p.b1.shape) * 0.1 * scale
    p.w2 = rng.standard_normal(p.w2.shape) * 0.1 * scale
    p.b2 = rng.standard_normal(p.b2.shape) * 0.1 * scale
    return p


def test_init_params_rejects_negative_width():
    with pytest.raises(ValueError, match=r"^hidden_width must be >= 0, got -1$"):
        init_params(np.random.default_rng(0), hidden_width=-1)


@pytest.mark.parametrize("n_layers", [0, 3])
def test_from_layers_rejects_a_layer_count(n_layers):
    layer = random_params().layers()[-1]
    with pytest.raises(ValueError, match=rf"^a net has 1 or 2 layers, got {n_layers}$"):
        network.NetParams.from_layers([layer] * n_layers)


class TestBuildInput:
    def test_zero_block(self):
        feats = build_input(np.zeros(240, dtype=complex), 0.0)
        assert feats.shape == (241,)
        assert np.all(feats == 0.0)

    def test_unit_block_at_20db(self):
        feats = build_input(np.ones(240, dtype=complex), 20.0)
        np.testing.assert_array_equal(feats[:240], np.ones(240))
        assert feats[240] == 1.0

    def test_magnitudes_match_scalar_oracle(self, rng):
        block = rng.standard_normal(240) + 1j * rng.standard_normal(240)
        feats = build_input(block, 7.0)
        oracle = np.array([abs(v) for v in block])
        np.testing.assert_allclose(feats[:240], oracle, atol=1e-12)

    def test_rejects_wrong_length(self):
        with pytest.raises(ValueError):
            build_input(np.zeros(100, dtype=complex), 0.0)


class TestForward:
    def test_zero_weights_pass_output_bias(self):
        p = random_params()
        p.w1[:] = 0
        p.b1[:] = 0
        p.w2[:] = 0
        p.b2 = np.array([1.0, 0, 0, 0, 0])
        out = forward(p, np.ones(241))
        np.testing.assert_array_equal(out, [1, 0, 0, 0, 0])

    def test_dead_relu_passes_bias(self, rng):
        p = random_params()
        p.w1 = -np.abs(p.w1)  # negative pre-activations for positive input
        p.b1[:] = -1.0
        x = np.abs(rng.standard_normal(241))
        np.testing.assert_array_equal(forward(p, x), p.b2)

    def test_matches_triple_loop_oracle(self, rng):
        p = random_params(seed=3)
        x = rng.standard_normal(241)
        hidden = np.zeros(10)
        for i in range(10):
            acc = p.b1[i]
            for j in range(241):
                acc += p.w1[i, j] * p.mask1[i, j] * x[j]
            hidden[i] = max(acc, 0.0)
        out = np.zeros(5)
        for k in range(5):
            acc = p.b2[k]
            for i in range(10):
                acc += p.w2[k, i] * p.mask2[k, i] * hidden[i]
            out[k] = acc
        np.testing.assert_allclose(forward(p, x), out, atol=1e-10)

    def test_batched_matches_single(self, rng):
        p = random_params(seed=4)
        xs = rng.standard_normal((6, 241))
        batched = forward(p, xs)
        for i in range(6):
            np.testing.assert_allclose(batched[i], forward(p, xs[i]), atol=1e-14)

    def test_perceptron_mode(self, rng):
        p = random_params(hidden=0, seed=5)
        x = rng.standard_normal(241)
        np.testing.assert_allclose(
            forward(p, x), (p.w2 * p.mask2) @ x + p.b2, atol=1e-12
        )

    def test_rejects_wrong_dim(self):
        p = random_params()
        with pytest.raises(ValueError):
            forward(p, np.ones(240))


class TestBackward:
    def test_zero_upstream_gives_zero_grads(self, rng):
        p = random_params(seed=6)
        _, cache = forward_cached(p, rng.standard_normal(241))
        g = backward(p, cache, np.zeros(5))
        assert np.all(g.w1 == 0) and np.all(g.w2 == 0)
        assert np.all(g.b1 == 0) and np.all(g.b2 == 0)

    def test_rejects_wrong_upstream_width(self, rng):
        p = random_params(seed=6)
        _, cache = forward_cached(p, rng.standard_normal(241))
        with pytest.raises(ValueError, match=r"^upstream dim 4, expected 5$"):
            backward(p, cache, np.zeros(4))

    def test_single_neuron_relu_derivative(self):
        # d relu(w x) / dw = x * 1[w x > 0], checked on a 1-hidden-unit slice
        p = init_params(hidden_width=1, rng=np.random.default_rng(0), out_scale=1.0)
        p.w1[:] = 0.0
        p.w1[0, 0] = 0.5
        p.b1[:] = 0.0
        p.w2[:] = 0.0
        p.w2[0, 0] = 1.0
        x = np.zeros(241)
        x[0] = 2.0
        upstream = np.zeros(5)
        upstream[0] = 1.0
        _, cache = forward_cached(p, x)
        g = backward(p, cache, upstream)
        assert g.w1[0, 0] == pytest.approx(2.0)  # active: grad = x
        p.w1[0, 0] = -0.5
        _, cache = forward_cached(p, x)
        g = backward(p, cache, upstream)
        assert g.w1[0, 0] == 0.0  # inactive: relu kills it

    @pytest.mark.parametrize("hidden", [0, 10])
    def test_full_finite_difference_check(self, hidden):
        # every parameter gradient within 1e-4 relative of central differences
        for seed in range(10):
            rng = np.random.default_rng(seed)
            p = random_params(hidden=hidden, seed=seed)
            x = rng.standard_normal(241)
            upstream = rng.standard_normal(5)

            def loss(params):
                return float(np.dot(forward(params, x), upstream))

            _, cache = forward_cached(p, x)
            grads = backward(p, cache, upstream)
            names = ["w2", "b2"] + (["w1", "b1"] if hidden else [])
            h = 1e-5
            for name in names:
                tensor = getattr(p, name)
                g = getattr(grads, name)
                it = np.nditer(tensor, flags=["multi_index"])
                for _ in it:
                    idx = it.multi_index
                    orig = tensor[idx]
                    tensor[idx] = orig + h
                    lp = loss(p)
                    tensor[idx] = orig - h
                    lm = loss(p)
                    tensor[idx] = orig
                    fd = (lp - lm) / (2 * h)
                    denom = max(abs(fd), abs(g[idx]), 1e-6)
                    assert abs(fd - g[idx]) / denom < 1e-4, (name, idx)

    def test_masked_entries_get_zero_gradient(self, rng):
        p = random_params(seed=9)
        p.mask1[2, 5] = 0.0
        p.mask2[1, 3] = 0.0
        network.apply_masks(p)
        _, cache = forward_cached(p, rng.standard_normal(241))
        g = backward(p, cache, rng.standard_normal(5))
        assert g.w1[2, 5] == 0.0
        assert g.w2[1, 3] == 0.0


class TestAdamW:
    def test_zero_gradient_zero_decay_is_noop(self, rng):
        p = random_params(seed=11)
        before = copy.deepcopy(p)
        opt = AdamState(lr=1e-3, weight_decay=0.0)
        _, cache = forward_cached(p, rng.standard_normal(241))
        g = backward(p, cache, np.zeros(5))
        adamw_step(p, g, opt)
        np.testing.assert_array_equal(p.w1, before.w1)
        np.testing.assert_array_equal(p.w2, before.w2)
        np.testing.assert_array_equal(p.b2, before.b2)

    def test_first_step_scalar_hand_trace(self):
        # published recurrence for one scalar: m=(1-b1)g, v=(1-b2)g^2,
        # update = -lr * m_hat / (sqrt(v_hat) + eps), at the module's constants
        b1, b2, eps = network.ADAM_BETA1, network.ADAM_BETA2, network.ADAM_EPS
        assert (b1, b2, eps) == (0.9, 0.999, 1e-8)  # Kingma & Ba's defaults
        lr, g = 1e-3, 0.37
        m_hat = (1 - b1) * g / (1 - b1)
        v_hat = (1 - b2) * g * g / (1 - b2)
        expected_delta = -lr * m_hat / (np.sqrt(v_hat) + eps)
        p = random_params(seed=12)
        p.b2[:] = 0.0
        opt = AdamState(lr=lr, weight_decay=0.0)
        grads = network.Grads(
            w1=np.zeros_like(p.w1), b1=np.zeros_like(p.b1),
            w2=np.zeros_like(p.w2), b2=np.array([g, 0, 0, 0, 0.0]),
        )
        adamw_step(p, grads, opt)
        assert p.b2[0] == pytest.approx(expected_delta, rel=1e-12)
        assert expected_delta == pytest.approx(-lr * np.sign(g), rel=1e-4)

    def test_decoupled_weight_decay(self):
        p = random_params(seed=13)
        w0 = p.w2.copy()
        opt = AdamState(lr=0.1, weight_decay=0.5)
        grads = network.Grads(
            w1=np.zeros_like(p.w1), b1=np.zeros_like(p.b1),
            w2=np.zeros_like(p.w2), b2=np.zeros_like(p.b2),
        )
        adamw_step(p, grads, opt)
        np.testing.assert_allclose(p.w2, w0 * (1 - 0.1 * 0.5), atol=1e-15)

    def test_masked_weight_stays_zero_for_100_steps(self, rng):
        p = random_params(seed=14)
        p.mask1[3, 7] = 0.0
        network.apply_masks(p)
        opt = AdamState(lr=1e-2, weight_decay=0.0)
        for step in range(100):
            x = rng.standard_normal(241)
            _, cache = forward_cached(p, x)
            g = backward(p, cache, rng.standard_normal(5))
            g.w1[3, 7] = 1.0  # hostile nonzero gradient on the masked slot
            adamw_step(p, g, opt)
            assert p.w1[3, 7] == 0.0


def flat_masks(params):
    """Every layer's mask in (layer, row, col) flatten order."""
    return np.concatenate([mask.ravel() for _, _, mask in params.layers()])


class TestPruning:
    def test_smallest_weight_masked(self):
        p = init_params(hidden_width=1, rng=np.random.default_rng(0), out_scale=1.0)
        # five live weights of magnitudes 1..5 in w2 column 0; w1 all masked
        p.mask1[:] = 0.0
        p.w2[:, 0] = [1.0, -2.0, 3.0, -4.0, 5.0]
        p.mask2[:] = 0.0
        p.mask2[:, 0] = 1.0
        network.apply_masks(p)
        prune_to(p, 1.0 - 4 / total_weight_count(p))
        assert p.mask2[0, 0] == 0.0 and p.w2[0, 0] == 0.0
        assert live_weight_count(p) == 4

    def test_prune_to_target_sparsity_492(self):
        p = random_params(seed=16)
        prune_to(p, 0.8)
        assert live_weight_count(p) == 492

    def test_deterministic_tie_break(self):
        p = random_params(seed=17)
        p.w1[:] = 0.5
        p.w2[:] = 0.5
        q = copy.deepcopy(p)
        prune_to(p, 0.2)
        prune_to(q, 0.2)
        assert live_weight_count(p) == 1968
        np.testing.assert_array_equal(p.mask1, q.mask1)
        np.testing.assert_array_equal(p.mask2, q.mask2)
        # ties resolved in (layer, row, col) order: early w1 entries go first
        assert p.mask1[0, 0] == 0.0
        order = np.arange(total_weight_count(p))
        np.testing.assert_array_equal(flat_masks(p) == 0.0, order < 492)
        # a second prune never counts an already-dead weight again
        prune_to(p, 0.4)
        np.testing.assert_array_equal(flat_masks(p) == 0.0, order < 984)

    def test_rejects_full_mask(self):
        p = init_params(hidden_width=1, rng=np.random.default_rng(0))
        with pytest.raises(ValueError):
            prune_to(p, 0.99999999)

    @pytest.mark.parametrize("sparsity", [-0.25, 1.0])
    def test_rejects_a_sparsity_outside_the_unit_interval(self, sparsity):
        with pytest.raises(ValueError, match=rf"^sparsity must be in \[0, 1\), got {sparsity}$"):
            prune_to(random_params(seed=22), sparsity)

    def test_a_lower_sparsity_masks_nothing(self):
        p = prune_to(random_params(seed=23), 0.4)
        masks, live = flat_masks(p), live_weight_count(p)
        prune_to(p, 0.2)
        np.testing.assert_array_equal(flat_masks(p), masks)
        assert live_weight_count(p) == live


def dequantized(qnet):
    """(weights, bias) per layer of the int8 twin, back in float64."""
    return [(q * scale, b_q * bias_scale) for q, scale, b_q, bias_scale in qnet.layers()]


class TestQuantize:
    def test_extremes_map_to_127(self):
        p = random_params(seed=18)
        w_max = float(np.max(np.abs(p.w1)))
        i, j = np.unravel_index(np.argmax(np.abs(p.w1)), p.w1.shape)
        q = quantize(p)
        assert abs(int(q.q1[i, j])) == 127
        assert int(q.q1.min()) >= -127  # symmetric scheme never emits -128
        assert int(q.q2.min()) >= -127

    def test_zero_maps_to_zero(self):
        p = random_params(seed=19)
        p.w1[0, 0] = 0.0
        q = quantize(p)
        assert q.q1[0, 0] == 0

    def test_rejects_non_finite_weights(self):
        p = random_params(seed=21)
        p.w2[1, 3] = np.inf
        with pytest.raises(ValueError, match=r"^cannot quantize non-finite weights$"):
            quantize(p)

    def test_rejects_a_bias_past_int32(self):
        # the bias step is the weight step / 256, ~1e-5 here: 1e12 needs ~1e17 steps
        p = random_params(seed=24)
        p.b2[0] = 1e12
        with pytest.raises(ValueError, match=r"^bias too large for int32 representation$"):
            quantize(p)

    def test_all_zero_tensor_scale_sentinel(self):
        p = random_params(seed=20)
        p.w2[:] = 0.0
        q = quantize(p)
        assert q.scale2 == 1.0
        assert np.all(q.q2 == 0)

    def test_round_trip_error_bound(self, rng):
        for seed in range(5):
            p = random_params(seed=seed)
            q = quantize(p)
            w_max = float(np.max(np.abs(p.w1)))
            err = np.abs(dequantized(q)[0][0] - p.w1)
            assert err.max() <= w_max / 254 + 1e-12

    def test_forward_q_within_propagated_bound(self, rng):
        p = random_params(seed=21)
        prune_to(p, 0.8)
        q = quantize(p)
        # interval-propagation oracle: per-layer worst-case output deviation
        (w1_q, b1_q), (w2_q, b2_q) = dequantized(q)
        dw1 = np.abs(w1_q - p.w1 * p.mask1)
        db1 = np.abs(b1_q - p.b1)
        dw2 = np.abs(w2_q - p.w2 * p.mask2)
        db2 = np.abs(b2_q - p.b2)
        w2_abs = np.abs(p.w2 * p.mask2)
        worst = 0.0
        for _ in range(1000):
            x = rng.uniform(0, 2, 241)
            bound_h = dw1 @ np.abs(x) + db1  # |relu(a)-relu(b)| <= |a-b|
            h = np.maximum((p.w1 * p.mask1) @ x + p.b1, 0.0)
            h_q = np.maximum(w1_q @ x + b1_q, 0.0)
            bound_out = dw2 @ (np.abs(h) + bound_h) + w2_abs @ bound_h + db2
            dev = np.abs(forward(p, x) - forward_q(q, x))
            assert np.all(dev <= bound_out + 1e-9)
            worst = max(worst, dev.max())
        assert worst > 0.0  # quantization does something


class TestCheckpointIO:
    @pytest.mark.parametrize("hidden", [0, 10])
    def test_round_trip_bit_exact(self, tmp_path, rng, hidden):
        p = random_params(hidden=hidden, seed=22)
        # float32-representable parameters round-trip exactly
        p = network.NetParams.from_layers([
            tuple(t.astype(np.float32).astype(np.float64) for t in layer)
            for layer in p.layers()
        ])
        prune_to(p, 0.8)
        q = quantize(p)
        path = tmp_path / "net.bin"
        save_net(path, p, qnet=q, epoch=5, config_hash=0xDEADBEEF,
                 history=np.arange(12.0).reshape(2, 6))
        loaded = load_net(path)
        lp, lq = loaded["params"], loaded["qnet"]
        assert len(lp.layers()) == len(lq.layers()) == (2 if hidden else 1)
        for got, want in zip(lp.layers(), p.layers()):
            for a, b in zip(got, want):
                np.testing.assert_array_equal(a, b)
        for got, want in zip(lq.layers(), q.layers()):
            for a, b in zip(got, want):
                np.testing.assert_array_equal(a, b)
        x = rng.standard_normal(241)
        np.testing.assert_array_equal(forward(lp, x), forward(p, x))
        np.testing.assert_array_equal(forward_q(lq, x), forward_q(q, x))
        assert loaded["epoch"] == 5
        assert loaded["config_hash"] == 0xDEADBEEF
        np.testing.assert_array_equal(loaded["history"], np.arange(12.0).reshape(2, 6))
        # a second save emits identical bytes
        path2 = tmp_path / "net2.bin"
        save_net(path2, lp, qnet=lq, epoch=5,
                 config_hash=0xDEADBEEF, history=loaded["history"])
        assert path.read_bytes() == path2.read_bytes()

    def test_dimensions_are_the_tensor_shapes(self, tmp_path):
        p = init_params(hidden_width=3, rng=np.random.default_rng(0), input_dim=7, out_dim=4)
        q = quantize(p)
        path = tmp_path / "net.bin"
        save_net(path, p, q, epoch=0, config_hash=0, history=np.zeros((0, 6)))
        header = struct.unpack("<III", path.read_bytes()[8:20])
        assert header == (3, 7, 4)
        loaded = load_net(path)
        for net in (p, q, loaded["params"], loaded["qnet"]):
            (w1, *_), (w2, *_) = net.layers()
            assert w1.shape == (3, 7) and w2.shape == (4, 3)
            assert (net.hidden_width, net.input_dim, net.out_dim) == (3, 7, 4)

    @pytest.mark.parametrize("twin, field", [
        ((3, 7, 4), r"QuantizedNet\.q1 \(layer 1\) has shape \(3, 7\); .* give \(2, 7\)"),
        ((2, 4, 7), r"QuantizedNet\.q1 \(layer 1\) has shape \(2, 4\); .* give \(2, 7\)"),
        ((0, 7, 4), r"QuantizedNet has 1 layer\(s\); .* give 2"),
    ], ids=["hidden-3", "swapped", "perceptron"])
    def test_save_rejects_a_twin_of_other_shapes(self, tmp_path, twin, field):
        # a hidden-2 net saved with a hidden-3, an input/out-swapped or a
        # perceptron int8 twin: the loader would reject the file, so none is
        # written
        p = init_params(hidden_width=2, rng=np.random.default_rng(0), input_dim=7, out_dim=4)
        hidden, input_dim, out_dim = twin
        q = quantize(init_params(hidden_width=hidden, rng=np.random.default_rng(1),
                                 input_dim=input_dim, out_dim=out_dim))
        path = tmp_path / "net.bin"
        with pytest.raises(ValueError, match=field):
            save_net(path, p, q, epoch=0, config_hash=0, history=np.zeros((0, 6)))
        assert not path.exists()

    @pytest.mark.parametrize("history", [np.zeros((3, 4)), np.zeros(12), np.zeros((2, 6, 1))],
                             ids=["3x4", "flat", "3-d"])
    def test_save_rejects_a_history_of_other_shapes(self, tmp_path, history):
        # rows of 6 columns are what the loader reads back; nothing is re-rowed
        p = init_params(hidden_width=2, rng=np.random.default_rng(0), input_dim=7, out_dim=4)
        path = tmp_path / "net.bin"
        with pytest.raises(ValueError, match=r"^history has shape .*; the layout would give"):
            save_net(path, p, quantize(p), epoch=0, config_hash=0, history=history)
        assert not path.exists()

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.bin"
        path.write_bytes(b"NOPE" + b"\0" * 64)
        with pytest.raises(ValueError, match=r"^checkpoint magic b'NOPE'; .* only b'TFSS'$"):
            load_net(path)

    def test_huge_header_dims_read_as_truncated(self, tmp_path):
        # 2**32 - 1 squared elements overflow an int64 product; the section
        # size is counted in Python ints, so the short file reads as short
        path = tmp_path / "huge.bin"
        dim = 2**32 - 1
        path.write_bytes(struct.pack("<4sIIIII", network.MAGIC, network.VERSION,
                                     dim, dim, 5, network.FLAGS) + bytes(64))
        with pytest.raises(ValueError, match="truncated"):
            load_net(path)


def pattern_net(hidden: int) -> network.NetParams:
    """A 4-input, 3-output net of closed-form float32 values and patterned masks."""
    layers = []
    for k, (fan_out, fan_in) in enumerate(network._layer_shapes(4, hidden, 3)):
        n = fan_out * fan_in
        w = ((np.arange(n) - n / 2 + 0.5) / 8.0 * (k + 1)).reshape(fan_out, fan_in)
        mask = (np.arange(n) % (3 + k) != 1).reshape(fan_out, fan_in).astype(np.float64)
        b = (np.arange(fan_out) - 1.0) / 4.0 + k
        layers.append((w * mask, b, mask))
    return network.NetParams.from_layers(layers)


class TestCheckpointBytes:
    """SHA-256 of ``save_net``'s output for two closed-form nets: any change to
    a section's order, dtype or packing changes these records."""

    RECORDS = {
        2: "189516d5b7a455a1e1731caf5ddfef81d7e02f062cfac559cf62b16d2eb7ac9f",
        0: "9c13e8806d7d7510e58ca46ff10531fb5eaa7d2e8791b34f04585363bd07710b",
    }

    @pytest.mark.parametrize("hidden", [2, 0])
    def test_bytes_match_record_and_load_back(self, tmp_path, hidden):
        p = pattern_net(hidden)
        q = quantize(p)
        history = np.arange(12.0).reshape(2, 6) / 4.0 - 1.0
        path = tmp_path / "net.bin"
        save_net(path, p, q, epoch=3 + hidden, config_hash=0x0123456789ABCDEF,
                 history=history)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == self.RECORDS[hidden]
        loaded = load_net(path)
        for got, want in zip(loaded["params"].layers() + loaded["qnet"].layers(),
                             p.layers() + q.layers()):
            for a, b in zip(got, want):
                np.testing.assert_array_equal(a, b)
        assert (loaded["epoch"], loaded["config_hash"]) == (3 + hidden, 0x0123456789ABCDEF)
        np.testing.assert_array_equal(loaded["history"], history)


class TestDeterminism:
    def test_identical_seeds_identical_params_after_steps(self, rng):
        def run():
            p = init_params(hidden_width=10, rng=np.random.default_rng(77))
            opt = AdamState(lr=1e-3)
            local = np.random.default_rng(5)
            for _ in range(20):
                x = local.standard_normal(241)
                _, cache = forward_cached(p, x)
                g = backward(p, cache, local.standard_normal(5))
                adamw_step(p, g, opt)
            return p

        a, b = run(), run()
        np.testing.assert_array_equal(a.w1, b.w1)
        np.testing.assert_array_equal(a.w2, b.w2)
        np.testing.assert_array_equal(a.b2, b.b2)
