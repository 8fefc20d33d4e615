import tracemalloc
from contextlib import nullcontext

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from growformer.errors import ValidationError
from growformer.growth import GrowthPlan, grow_model
from growformer.ladder import attention_forward, ladder_backward, ladder_forward
from growformer.linalg import exact_arithmetic
from growformer.model import (
    PROJ_STAGES,
    TOY_CONFIG,
    ModelConfig,
    _forward,
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

    @pytest.mark.parametrize(
        "ids", [tiny_batch() + 0.9, [True, False, True], np.array([1.0, 2.0])]
    )
    def test_non_integer_tokens_refused(self, ids):
        # a float or bool id used to be truncated: ids + 0.9 scored as ids
        params = init_params(TINY, seed=1)
        with pytest.raises(ValidationError, match="must be integers"):
            model_forward(TINY, params, ids)
        with pytest.raises(ValidationError, match="must be integers"):
            model_loss_and_grads(TINY, params, ids)

    def test_unsigned_tokens_score_as_signed(self):
        params = init_params(TINY, seed=1)
        ids = tiny_batch()
        assert model_forward(TINY, params, ids.astype(np.uint8))[1] == (
            model_forward(TINY, params, ids)[1]
        )

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


@st.composite
def small_model(draw):
    n_heads = draw(st.integers(1, 3))
    d = n_heads * draw(st.integers(2, 4))
    m = d + draw(st.integers(1, 4))
    config = ModelConfig(
        vocab_size=draw(st.integers(2, 12)),
        context_len=draw(st.integers(2, 9)),
        hidden_size=d,
        n_heads=n_heads,
        n_layers=draw(st.integers(1, 2)),
        ladder_m=m,
        ladder_a=m + draw(st.integers(1, 4)),
        ffn_size=draw(st.integers(1, 16)),
    )
    n = draw(st.integers(2, config.context_len))
    return config, n, draw(st.integers(0, 2**32 - 1))


class TestForwardOnly:
    """The forward-only path builds no caches and computes the same bits
    as the caching path the backward runs on."""

    @settings(max_examples=30, deadline=None)
    @given(small_model(), st.booleans())
    def test_bit_equal_to_caching_path(self, case, exact):
        config, n, seed = case
        params = init_params(config, seed)
        ids = seeded_ints(RngState(seed), n, config.vocab_size)
        with exact_arithmetic() if exact else nullcontext():
            logits, loss = model_forward(config, params, ids)
            cached_logits, _, _, caches = _forward(config, params, ids, keep_caches=True)
            cached_loss, _ = model_loss_and_grads(config, params, ids)
            x = seeded_gaussian(RngState(seed + 1), n, config.hidden_size, 0.0, 1.0)
            ws = tuple(params[f"blocks.0.attn.q.{stage}"] for stage in PROJ_STAGES)
            ladder_runs = [ladder_forward(ws, x, keep_cache=keep) for keep in (False, True)]
            attention_runs = [
                attention_forward(ws, ws, ws, x, config.n_heads, keep_cache=keep)
                for keep in (False, True)
            ]
        assert logits.tobytes() == cached_logits.tobytes()
        assert loss == cached_loss
        assert len(caches) == config.n_layers
        for (out, no_cache), (cached_out, cache) in (ladder_runs, attention_runs):
            assert no_cache is None and cache is not None
            assert out.tobytes() == cached_out.tobytes()

    @pytest.mark.parametrize("exact", [False, True])
    def test_grown_forward_fits_in_l2(self, exact):
        # The bound is the benchmark host's per-core L2 (2 MiB): one
        # forward of the grown toy model on a full window must allocate
        # less at its peak, as it does once the caches that only the
        # backward reads are not built. Keeping them peaks at ~8.4 MiB.
        config = TOY_CONFIG.grown(32, 32)
        params, _, _ = grow_model(
            init_params(TOY_CONFIG, 0), TOY_CONFIG, GrowthPlan(32, 32, "noise:0.1", 1)
        )
        ids = seeded_ints(RngState(5), config.context_len, config.vocab_size)
        with exact_arithmetic() if exact else nullcontext():
            model_forward(config, params, ids)  # lazy imports and the mask cache
            tracemalloc.start()
            try:
                tracemalloc.reset_peak()
                model_forward(config, params, ids)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
        assert peak < 2 * 2**20, f"{peak / 2**20:.2f} MiB"


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
            out, cache = ladder_forward(ws, x, keep_cache=True)
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
