"""softmax / layer_norm / attention contracts."""

import numpy as np
import pytest

from portraitflow.alignment import block_mask, segment_audio
from portraitflow.numerics import (
    Tensor,
    attention,
    grad_check,
    layer_norm,
    linear,
    precision,
    silu,
    softmax_lastaxis,
)


class TestSoftmax:
    def test_symmetry(self):
        out = softmax_lastaxis(Tensor([0.0, 0.0]))
        assert np.allclose(out.numpy(), [0.5, 0.5])

    def test_empty_last_axis_rejected(self):
        with pytest.raises(ValueError, match="non-empty last axis"):
            softmax_lastaxis(Tensor(np.zeros((2, 0))))

    def test_shift_invariance_no_overflow(self):
        out = softmax_lastaxis(Tensor([1000.0, 1000.0]))
        assert np.isfinite(out.numpy()).all()
        assert np.allclose(out.numpy(), [0.5, 0.5])

    def test_hand_evaluated_ratio(self):
        # exp(0)=1, exp(ln 3)=3 -> [1/4, 3/4]
        out = softmax_lastaxis(Tensor([0.0, np.log(3.0)]))
        assert np.allclose(out.numpy(), [0.25, 0.75], atol=1e-7)

    def test_rows_sum_to_one_over_wide_range(self):
        for seed in range(20):
            rng = np.random.default_rng(seed)
            x = Tensor(rng.uniform(-1e4, 1e4, size=(8, 16)))
            sums = softmax_lastaxis(x).numpy().sum(axis=-1)
            assert np.abs(sums - 1.0).max() <= 1e-6

    def test_backward_matches_finite_differences(self):
        for seed in range(20):
            rng = np.random.default_rng(seed)
            params = {"x": Tensor(rng.standard_normal((3, 5)), requires_grad=True)}
            weights = rng.standard_normal((3, 5))
            err = grad_check(
                lambda p: (softmax_lastaxis(p["x"]) * Tensor(weights)).sum(), params)
            assert err <= 1e-4


class TestLayerNorm:
    def test_constant_row_maps_to_zero_pre_affine(self):
        x = Tensor(np.full((2, 4), 3.7))
        out = layer_norm(x, Tensor(np.zeros(4)), Tensor(np.zeros(4)))
        assert np.allclose(out.numpy(), 0.0)

    def test_two_point_row_is_fixed_point(self):
        # mean 0, population variance 1 -> unchanged up to epsilon at scale 0
        out = layer_norm(Tensor([[1.0, -1.0]]), Tensor(np.zeros(2)), Tensor(np.zeros(2)))
        assert np.allclose(out.numpy(), [[1.0, -1.0]], atol=1e-4)

    def test_scale_of_minus_one_yields_shift(self):
        rng = np.random.default_rng(3)
        x = Tensor(rng.standard_normal((5, 6)))
        out = layer_norm(x, Tensor(np.full(6, -1.0)), Tensor(np.full(6, 0.25)))
        assert np.allclose(out.numpy(), 0.25)

    def test_row_statistics(self):
        rng = np.random.default_rng(4)
        x = Tensor(rng.standard_normal((10, 32)) * 5 + 2)
        out = layer_norm(x, Tensor(np.zeros(32)), Tensor(np.zeros(32))).numpy()
        assert np.abs(out.mean(axis=-1)).max() < 1e-5
        assert np.abs(out.var(axis=-1) - 1.0).max() < 1e-3

    def test_forward_matches_two_pass_formula_bit_for_bit(self):
        # the centred input is computed once and reused for the variance and xhat
        for seed in range(3):
            rng = np.random.default_rng(seed)
            x = (rng.standard_normal((8, 128, 64)) * 3 + 1).astype(np.float32)
            scale = rng.standard_normal(64).astype(np.float32)
            shift = rng.standard_normal(64).astype(np.float32)
            mu = x.mean(axis=-1, keepdims=True)
            var = ((x - mu) ** 2).mean(axis=-1, keepdims=True)
            expected = (x - mu) * (1.0 / np.sqrt(var + 1e-5)) * (1.0 + scale) + shift
            out = layer_norm(Tensor(x), Tensor(scale), Tensor(shift)).numpy()
            assert np.array_equal(out, expected)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            layer_norm(Tensor(np.zeros((2, 4))), Tensor(np.ones(3)), Tensor(np.zeros(4)))

    def test_backward_matches_finite_differences(self):
        for seed in range(20):
            rng = np.random.default_rng(seed)
            params = {
                "x": Tensor(rng.standard_normal((4, 6)), requires_grad=True),
                "g": Tensor(rng.standard_normal(6), requires_grad=True),
                "b": Tensor(rng.standard_normal(6), requires_grad=True),
            }
            err = grad_check(
                lambda p: layer_norm(p["x"], p["g"], p["b"]).square().sum(), params)
            assert err <= 1e-4

    def test_backward_with_per_sample_affine(self):
        # the block modulation: layer_norm(z, scale, shift), [B x 1 x c] each
        for seed in range(5):
            rng = np.random.default_rng(seed)
            params = {
                "x": Tensor(rng.standard_normal((2, 5, 4)), requires_grad=True),
                "g": Tensor(rng.standard_normal((2, 1, 4)), requires_grad=True),
                "b": Tensor(rng.standard_normal((2, 1, 4)), requires_grad=True),
            }
            err = grad_check(
                lambda p: layer_norm(p["x"], p["g"], p["b"]).square().sum(), params)
            assert err <= 1e-4


class TestLinear:
    def test_matches_matmul_plus_bias(self):
        rng = np.random.default_rng(0)
        x, w, b = (Tensor(rng.standard_normal(s)) for s in ((2, 3, 5), (5, 4), (4,)))
        assert np.allclose(linear(x, w, b).numpy(), (x @ w + b).numpy(), atol=1e-6)

    @pytest.mark.parametrize("x_shape", [(3, 5), (2, 4, 5)], ids=["2d", "3d"])
    def test_backward_matches_finite_differences(self, x_shape):
        # 2-D is the timestep path's [B x c]; 3-D every token projection
        for seed in range(5):
            rng = np.random.default_rng(seed)
            params = {
                "x": Tensor(rng.standard_normal(x_shape), requires_grad=True),
                "w": Tensor(rng.standard_normal((5, 3)), requires_grad=True),
                "b": Tensor(rng.standard_normal(3), requires_grad=True),
            }
            err = grad_check(
                lambda p: linear(p["x"], p["w"], p["b"]).square().sum(), params)
            assert err <= 1e-4

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="linear shapes"):
            linear(Tensor(np.zeros((2, 4))), Tensor(np.zeros((3, 2))), Tensor(np.zeros(2)))
        with pytest.raises(ValueError, match="linear shapes"):
            linear(Tensor(np.zeros((2, 3))), Tensor(np.zeros((3, 2))), Tensor(np.zeros((1, 2))))


class TestSilu:
    def test_values(self):
        x = np.array([-2.0, 0.0, 3.0])
        expected = x / (1.0 + np.exp(-x))
        assert np.allclose(silu(Tensor(x)).numpy(), expected)

    def test_backward_matches_finite_differences(self):
        for seed in range(20):
            rng = np.random.default_rng(seed)
            params = {"x": Tensor(rng.standard_normal(7), requires_grad=True)}
            assert grad_check(lambda p: silu(p["x"]).square().sum(), params) <= 1e-4


class TestAttention:
    def test_single_key_returns_value_row(self):
        rng = np.random.default_rng(0)
        q = Tensor(rng.standard_normal((3, 4)))
        k = Tensor(rng.standard_normal((1, 4)))
        v = Tensor(rng.standard_normal((1, 4)))
        out = attention(q, k, v).numpy()
        assert np.allclose(out, np.repeat(v.numpy(), 3, axis=0))

    def test_mask_selects_single_key(self):
        rng = np.random.default_rng(1)
        q = Tensor(rng.standard_normal((2, 4)))
        k = Tensor(rng.standard_normal((5, 4)))
        v = Tensor(rng.standard_normal((5, 4)))
        j = 3
        mask = np.full((2, 5), -np.inf)
        mask[:, j] = 0.0
        out = attention(q, k, v, Tensor(mask)).numpy()
        assert np.allclose(out, np.broadcast_to(v.numpy()[j], (2, 4)))

    def test_masked_columns_receive_exactly_zero_weight(self):
        q = Tensor(np.ones((1, 2)))
        k = Tensor(np.ones((3, 2)))
        v = Tensor(np.eye(3)[:, :2].copy())
        mask = np.array([[0.0, -np.inf, 0.0]])
        out = attention(q, k, v, Tensor(mask)).numpy()
        # key 1 contributes nothing at all
        assert out[0, 1] == 0.0

    def test_two_by_two_against_direct_evaluation(self):
        rng = np.random.default_rng(2)
        q = rng.standard_normal((2, 2))
        k = rng.standard_normal((2, 2))
        v = rng.standard_normal((2, 2))
        scores = q @ k.T / np.sqrt(2.0)
        weights = np.exp(scores - scores.max(axis=-1, keepdims=True))
        weights /= weights.sum(axis=-1, keepdims=True)
        expected = weights @ v
        out = attention(Tensor(q), Tensor(k), Tensor(v)).numpy()
        assert np.allclose(out, expected, atol=1e-6)

    def test_all_masked_row_raises(self):
        q = Tensor(np.ones((2, 3)))
        kv = Tensor(np.ones((4, 3)))
        mask = np.zeros((2, 4))
        mask[1, :] = -np.inf
        with pytest.raises(ValueError, match="entire query row"):
            attention(q, kv, kv, Tensor(mask))

    def test_invalid_mask_entries_raise(self):
        q = Tensor(np.ones((1, 2)))
        kv = Tensor(np.ones((2, 2)))
        with pytest.raises(ValueError, match="0 or -inf"):
            attention(q, kv, kv, Tensor(np.array([[0.5, 0.0]])))

    def test_block_diagonal_mask_equals_per_block_attention(self):
        # cornerstone for frame-scoped audio attention
        for seed in range(10):
            rng = np.random.default_rng(seed)
            blocks = [(2, 3), (4, 1), (1, 2)]
            d = 5
            q = rng.standard_normal((sum(b[0] for b in blocks), d))
            k = rng.standard_normal((sum(b[1] for b in blocks), d))
            v = rng.standard_normal((k.shape[0], d))
            mask = np.full((q.shape[0], k.shape[0]), -np.inf)
            expected = np.zeros((q.shape[0], d))
            qo = ko = 0
            for nq, nk in blocks:
                mask[qo:qo + nq, ko:ko + nk] = 0.0
                expected[qo:qo + nq] = attention(
                    Tensor(q[qo:qo + nq]), Tensor(k[ko:ko + nk]),
                    Tensor(v[ko:ko + nk])).numpy()
                qo += nq
                ko += nk
            out = attention(Tensor(q), Tensor(k), Tensor(v), Tensor(mask)).numpy()
            assert np.abs(out - expected).max() <= 1e-5

    def test_backward_matches_finite_differences(self):
        for seed in range(20):
            rng = np.random.default_rng(seed)
            params = {
                "q": Tensor(rng.standard_normal((3, 4)), requires_grad=True),
                "k": Tensor(rng.standard_normal((5, 4)), requires_grad=True),
                "v": Tensor(rng.standard_normal((5, 4)), requires_grad=True),
            }
            err = grad_check(
                lambda p: attention(p["q"], p["k"], p["v"]).square().sum(), params)
            assert err <= 1e-4

    ATTENTION_SHAPES = {  # (q shape, k/v shape, heads, blocks)
        # one head, with two leading batch axes
        "heads_4d": ((2, 2, 5, 4), (2, 2, 6, 4), 1, 1),
        # one head, with three leading batch axes
        "frame_5d": ((2, 2, 3, 4, 4), (2, 2, 3, 2, 4), 1, 1),
        # identity_attend: shared [n_id x c] queries against [B x n_feat x c]
        "queries_2d": ((3, 4), (2, 5, 4), 1, 1),
        # keys shared over the batch, one head
        "keys_broadcast": ((2, 2, 5, 4), (1, 2, 3, 4), 1, 1),
        # the DiT blocks: self-attention [B x N x c]
        "self_heads2": ((2, 5, 4), (2, 6, 4), 2, 1),
        # per-frame attention on explicit [B x f x hw x c] frame axes
        "frame_heads2": ((2, 3, 4, 4), (2, 3, 2, 4), 2, 1),
        # identity keys [1 x n_id x c] broadcast over the batch
        "id_keys_heads2": ((2, 5, 4), (1, 3, 4), 2, 1),
        # frame-scoped audio attention: [B x N x c] in f = 3 blocks
        "blocks_heads2": ((2, 12, 4), (2, 6, 4), 2, 3),
        # blocks with keys broadcast over the batch
        "blocks_keys_broadcast": ((2, 8, 4), (1, 4, 4), 1, 4),
    }

    @pytest.mark.parametrize("case", sorted(ATTENTION_SHAPES))
    def test_backward_at_model_shapes(self, case):
        q_shape, kv_shape, heads, blocks = self.ATTENTION_SHAPES[case]
        for seed in range(3):
            rng = np.random.default_rng(seed)
            params = {
                "q": Tensor(rng.standard_normal(q_shape), requires_grad=True),
                "k": Tensor(rng.standard_normal(kv_shape), requires_grad=True),
                "v": Tensor(rng.standard_normal(kv_shape), requires_grad=True),
            }
            err = grad_check(lambda p: attention(p["q"], p["k"], p["v"], heads=heads,
                                                 blocks=blocks).square().sum(), params)
            assert err <= 1e-4, f"{case} seed {seed}"

    def test_forward_matches_composed_graph_bit_for_bit(self):
        # heads split, attended and merged with reshape/transpose nodes
        rng = np.random.default_rng(7)
        q, k, v = (Tensor(rng.standard_normal((2, 5, 8))) for _ in range(3))
        mask = np.zeros((5, 5))
        mask[1, 3:] = -np.inf
        qh, kh, vh = (t.reshape(2, 5, 2, 4).transpose((0, 2, 1, 3)) for t in (q, k, v))
        scores = (qh @ kh.transpose((0, 1, 3, 2))) * (1.0 / float(np.sqrt(4)))
        expected = (softmax_lastaxis(scores + Tensor(mask)) @ vh) \
            .transpose((0, 2, 1, 3)).reshape(2, 5, 8)
        out = attention(q, k, v, Tensor(mask), heads=2)
        assert np.array_equal(out.numpy(), expected.numpy())

    MODEL_SHAPES = {
        # B=2 DiT block shapes at width 64: (q shape, k/v shape)
        "self": ((2, 128, 64), (2, 128, 64)),
        "clip_audio": ((2, 128, 64), (2, 32, 64)),
        "frame_audio": ((2, 8, 16, 64), (2, 8, 4, 64)),
        "identity": ((2, 128, 64), (1, 4, 64)),
        # square, so a mask added untransposed would fit and go unnoticed
        "self_masked": ((2, 128, 64), (2, 128, 64)),
    }

    @pytest.mark.parametrize("case", sorted(MODEL_SHAPES))
    def test_forward_matches_numpy_softmax_at_model_shapes(self, case):
        q_shape, kv_shape = self.MODEL_SHAPES[case]
        rng = np.random.default_rng(11)
        q, k, v = (rng.standard_normal(s) for s in (q_shape, kv_shape, kv_shape))
        mask = None
        if case.endswith("masked"):
            keep = np.tril(np.ones((128, 128), bool)) | (rng.random((128, 128)) < 0.3)
            mask = np.where(keep, 0.0, -np.inf)
        heads, d = 4, 16
        expected = np.empty(np.broadcast_shapes(q.shape[:-2], k.shape[:-2]) + q.shape[-2:])
        for h in range(heads):
            cols = slice(h * d, (h + 1) * d)
            scores = q[..., cols] @ np.swapaxes(k[..., cols], -1, -2) / np.sqrt(d)
            if mask is not None:
                scores = scores + mask
            weights = np.exp(scores - scores.max(axis=-1, keepdims=True))
            weights /= weights.sum(axis=-1, keepdims=True)
            expected[..., cols] = weights @ v[..., cols]
        with precision("f64"):
            out = attention(Tensor(q), Tensor(k), Tensor(v),
                            None if mask is None else Tensor(mask), heads=heads).numpy()
        assert out.dtype == np.float64
        assert np.abs(out - expected).max() <= 1e-12 * np.abs(expected).max()

    def test_backward_with_asymmetric_mask_over_heads(self):
        # more queries than keys, keys shared over the batch; key 1 is blocked
        # for every query, so it must receive exactly zero gradient
        mask = np.zeros((4, 3))
        mask[0, 2] = mask[2, 0] = -np.inf
        mask[:, 1] = -np.inf
        rng = np.random.default_rng(35)
        params = {
            "q": Tensor(rng.standard_normal((2, 4, 4)), requires_grad=True),
            "k": Tensor(rng.standard_normal((1, 3, 4)), requires_grad=True),
            "v": Tensor(rng.standard_normal((1, 3, 4)), requires_grad=True),
        }
        loss = lambda p: attention(p["q"], p["k"], p["v"], Tensor(mask), heads=2).square().sum()
        assert grad_check(loss, params) <= 1e-6
        loss(params).backward()
        assert not params["k"].grad[:, 1].any() and not params["v"].grad[:, 1].any()

    @pytest.mark.parametrize("kv_shape", [(2, 32, 64), (1, 32, 64)])
    def test_blocks_equal_attention_under_block_mask(self, kv_shape):
        # the alignment theorem at node level: frame-scoped audio attention
        # (f = 8 blocks) equals clip attention under the frame/segment mask
        rng = np.random.default_rng(12)
        q, k, v = (rng.standard_normal(s) for s in ((2, 128, 64), kv_shape, kv_shape))
        with precision("f64"):
            out = attention(Tensor(q), Tensor(k), Tensor(v), heads=4, blocks=8).numpy()
            masked = attention(Tensor(q), Tensor(k), Tensor(v),
                               block_mask(segment_audio(32, 8), 16, 1), heads=4).numpy()
        assert out.dtype == np.float64
        assert np.abs(out - masked).max() <= 1e-12 * np.abs(masked).max()

    def test_heads_must_divide_width(self):
        x = Tensor(np.ones((2, 3, 6)))
        for heads in (0, 4):
            with pytest.raises(ValueError, match="heads"):
                attention(x, x, x, heads=heads)

    def test_qkv_shapes_must_agree(self):
        q, kv = Tensor(np.ones((2, 3, 4))), Tensor(np.ones((2, 5, 4)))
        for k, v in ((Tensor(np.ones((2, 5, 6))), kv), (kv, Tensor(np.ones((2, 5, 2))))):
            with pytest.raises(ValueError, match="q/k/v widths differ"):
                attention(q, k, v)
        with pytest.raises(ValueError, match="k/v lengths differ"):
            attention(q, kv, Tensor(np.ones((2, 4, 4))))

    def test_blocks_must_divide_lengths(self):
        q, kv = Tensor(np.ones((2, 6, 4))), Tensor(np.ones((2, 4, 4)))
        for blocks in (0, -1, 3, 4):  # 3 does not divide 4 keys, 4 not 6 queries
            with pytest.raises(ValueError, match="blocks"):
                attention(q, kv, kv, blocks=blocks)

    def test_mask_must_be_query_by_key(self):
        q, kv = Tensor(np.ones((2, 3, 4))), Tensor(np.ones((2, 5, 4)))
        for shape in ((5, 3), (1, 5), (2, 3, 5)):
            with pytest.raises(ValueError, match="n_q x n_k"):
                attention(q, kv, kv, Tensor(np.zeros(shape)))

    def test_backward_with_mask_matches_finite_differences(self):
        rng = np.random.default_rng(33)
        mask = np.zeros((3, 5))
        mask[0, 2:] = -np.inf
        mask[2, :2] = -np.inf
        params = {
            "q": Tensor(rng.standard_normal((3, 4)), requires_grad=True),
            "k": Tensor(rng.standard_normal((5, 4)), requires_grad=True),
            "v": Tensor(rng.standard_normal((5, 4)), requires_grad=True),
        }
        err = grad_check(
            lambda p: attention(p["q"], p["k"], p["v"], Tensor(mask)).square().sum(),
            params)
        assert err <= 1e-4

    def test_backward_with_mask_over_heads(self):
        rng = np.random.default_rng(34)
        mask = np.zeros((5, 6))
        mask[0, 3:] = -np.inf
        mask[4, :4] = -np.inf
        params = {
            "q": Tensor(rng.standard_normal((2, 2, 5, 4)), requires_grad=True),
            "k": Tensor(rng.standard_normal((2, 2, 6, 4)), requires_grad=True),
            "v": Tensor(rng.standard_normal((2, 2, 6, 4)), requires_grad=True),
        }
        err = grad_check(
            lambda p: attention(p["q"], p["k"], p["v"], Tensor(mask)).square().sum(),
            params)
        assert err <= 1e-4
