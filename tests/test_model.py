import numpy as np
import pytest

from growformer.errors import ValidationError
from growformer.ladder import ladder_backward, ladder_forward
from growformer.model import (
    ModelConfig,
    check_params,
    heldout_loss,
    init_params,
    model_forward,
    model_loss_and_grads,
    param_shapes,
    projection_keys,
)
from growformer.rng import RngState, seeded_gaussian, seeded_ints
from growformer.training import adamw_step

TINY = ModelConfig(
    vocab_size=16, context_len=8, hidden_size=8, n_heads=2, n_layers=2,
    ladder_m=12, ladder_a=16, ffn_size=16,
)


def tiny_batch(seed=3, n=8, vocab=16):
    return seeded_ints(RngState(seed), n, vocab)


class TestConfig:
    def test_head_divisibility(self):
        with pytest.raises(ValidationError, match="n_heads"):
            ModelConfig(16, 8, 9, 2, 1, 12, 16, 16)

    def test_roundtrip(self):
        assert ModelConfig.from_dict(TINY.to_dict()) == TINY

    def test_param_shapes_cover_params(self):
        params = init_params(TINY, seed=0)
        shapes = param_shapes(TINY)
        assert list(shapes) == list(params)
        assert all(params[name].shape == shape for name, shape in shapes.items())
        check_params(TINY, params, "params")

    def test_projection_keys_are_the_qkv_stages(self):
        keys = projection_keys(TINY)
        assert len(keys) == TINY.n_layers * 3 * 3
        assert keys[:3] == [f"blocks.0.attn.q.{s}" for s in ("w_up", "w_mid", "w_down")]
        assert param_shapes(TINY)[keys[1]] == (TINY.ladder_m, TINY.ladder_a)


class TestForward:
    def test_initial_loss_near_vocab_entropy(self):
        params = init_params(TINY, seed=1)
        _, loss = model_forward(TINY, params, tiny_batch())
        assert abs(loss - np.log(16)) / np.log(16) < 0.15

    def test_logits_shape(self):
        params = init_params(TINY, seed=1)
        logits, _ = model_forward(TINY, params, tiny_batch(n=6))
        assert logits.shape == (6, 16)

    def test_out_of_range_token(self):
        params = init_params(TINY, seed=1)
        with pytest.raises(ValidationError, match="out of range"):
            model_forward(TINY, params, np.array([0, 99]))

    def test_causality_by_perturbation(self):
        params = init_params(TINY, seed=2)
        ids = tiny_batch(seed=5)
        logits, _ = model_forward(TINY, params, ids)
        ids2 = ids.copy()
        ids2[5] = (ids2[5] + 3) % 16
        logits2, _ = model_forward(TINY, params, ids2)
        assert np.array_equal(logits[:5], logits2[:5])
        assert np.abs(logits2[5:] - logits[5:]).max() > 0

    def test_deterministic(self):
        params = init_params(TINY, seed=3)
        ids = tiny_batch(seed=6)
        a, la = model_forward(TINY, params, ids)
        b, lb = model_forward(TINY, params, ids)
        assert np.array_equal(a, b) and la == lb


class TestGradients:
    def test_full_model_matches_finite_differences(self):
        params = init_params(TINY, seed=4)
        ids = tiny_batch(seed=7)
        _, grads = model_loss_and_grads(TINY, params, ids)
        rng = np.random.default_rng(0)
        keys = sorted(params)
        checked = 0
        for _ in range(60):
            key = keys[int(rng.integers(len(keys)))]
            p = params[key]
            idx = (int(rng.integers(p.shape[0])), int(rng.integers(p.shape[1])))
            orig = p[idx]
            eps = 3e-5
            p[idx] = orig + eps
            _, up = model_forward(TINY, params, ids)
            p[idx] = orig - eps
            _, down = model_forward(TINY, params, ids)
            p[idx] = orig
            fd = (up - down) / (2 * eps)
            an = grads[key][idx]
            if max(abs(fd), abs(an)) < 1e-7:
                continue  # parameter unused by this batch
            assert abs(an - fd) <= 1e-5 * max(abs(an), abs(fd)) + 1e-9, (key, idx, an, fd)
            checked += 1
        assert checked > 30

    def test_loss_trajectory_bit_identical(self):
        def run():
            params = init_params(TINY, seed=5)
            m = {k: np.zeros_like(p) for k, p in params.items()}
            v = {k: np.zeros_like(p) for k, p in params.items()}
            losses = []
            for t in range(1, 11):
                ids = seeded_ints(RngState(t), 8, 16)
                loss, grads = model_loss_and_grads(TINY, params, ids)
                adamw_step(params, grads, m, v, t, 1e-3, (0.9, 0.95), 0.01)
                losses.append(loss)
            return losses

        assert run() == run()


class TestMemorization:
    def test_repeating_pattern_smoke(self):
        # 200 optimizer steps on one repeating 16-token pattern
        cfg = ModelConfig(
            vocab_size=64, context_len=32, hidden_size=32, n_heads=4,
            n_layers=2, ladder_m=40, ladder_a=48, ffn_size=64,
        )
        pattern = seeded_ints(RngState(11), 16, 64)
        seq = np.tile(pattern, 2)
        params = init_params(cfg, seed=5)
        m = {k: np.zeros_like(p) for k, p in params.items()}
        v = {k: np.zeros_like(p) for k, p in params.items()}
        loss = np.inf
        for t in range(1, 201):
            loss, grads = model_loss_and_grads(cfg, params, seq)
            adamw_step(params, grads, m, v, t, 3e-3, (0.9, 0.95), 0.01)
        assert loss < 0.1


class TestExpressivityWitness:
    def test_single_layer_beats_any_linear_map(self):
        # y = sin(3x) on [-2, 2]: one staged projection gets below 1e-2
        # MSE while the best affine map cannot get below 1e-1
        x = np.linspace(-2, 2, 256).reshape(-1, 1)
        y = np.sin(3 * x)
        design = np.column_stack([x.ravel(), np.ones(256)])
        coef, *_ = np.linalg.lstsq(design, y.ravel(), rcond=None)
        linear_mse = float(((design @ coef - y.ravel()) ** 2).mean())
        assert linear_mse > 1e-1

        rng = RngState(0)
        ws = [
            seeded_gaussian(rng, rows, cols, 0.0, 1.0 / np.sqrt(rows))
            for rows, cols in ((1, 8), (8, 16), (16, 1))
        ]
        m = [np.zeros_like(w) for w in ws]
        v = [np.zeros_like(w) for w in ws]
        mse = np.inf
        for t in range(1, 4001):
            out, cache = ladder_forward(ws, x)
            err = out - y
            mse = float((err**2).mean())
            _, grads = ladder_backward(ws, cache, 2 * err / err.size)
            for i, g in enumerate(grads):
                m[i] = 0.9 * m[i] + 0.1 * g
                v[i] = 0.999 * v[i] + 0.001 * g * g
                ws[i] -= (
                    2e-2 * (m[i] / (1 - 0.9**t)) / (np.sqrt(v[i] / (1 - 0.999**t)) + 1e-8)
                )
        assert mse < 1e-2


def test_heldout_loss_averages():
    params = init_params(TINY, seed=6)
    seqs = [tiny_batch(seed=s) for s in (1, 2, 3)]
    losses = [model_forward(TINY, params, s)[1] for s in seqs]
    assert abs(heldout_loss(TINY, params, seqs) - np.mean(losses)) < 1e-12
