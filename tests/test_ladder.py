from contextlib import nullcontext

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from growformer import ladder
from growformer.errors import ValidationError
from growformer.ladder import (
    attention_backward,
    attention_forward,
    block_form,
    ladder_backward,
    ladder_forward,
    validate_hierarchy,
)
from growformer.linalg import (
    causal_mask,
    exact_arithmetic,
    gelu,
    matmul,
    softmax_rows,
)
from growformer.rng import RngState, seeded_gaussian

from oracles import finite_diff_grad


def init_triple(d, m, a, rng):
    """Gaussian (w_up, w_mid, w_down) with std 1/sqrt(fan_in) per matrix."""
    return tuple(
        seeded_gaussian(rng, rows, cols, 0.0, 1.0 / np.sqrt(rows))
        for rows, cols in ((d, m), (m, a), (a, d))
    )


class TestHierarchy:
    def test_production_ladder_is_valid(self):
        assert validate_hierarchy(768, 780, 960) is None

    def test_inner_inversion_raises(self):
        with pytest.raises(ValidationError) as exc:
            validate_hierarchy(768, 1180, 960)
        assert str(exc.value) == "ladder hierarchy violated: stage 2 width 960 < stage 1 width 1180"

    def test_equal_first_stage(self):
        with pytest.raises(ValidationError) as exc:
            validate_hierarchy(4, 4, 8)
        assert str(exc.value) == "ladder hierarchy violated: stage 1 width 4 = stage 0 width 4"


def scalar_loop_forward(ws, x):
    """Oracle: the staged map evaluated with explicit scalar loops."""
    h = x
    for idx, w in enumerate(ws):
        out = np.zeros((h.shape[0], w.shape[1]))
        for i in range(h.shape[0]):
            for j in range(w.shape[1]):
                acc = 0.0
                for k in range(h.shape[1]):
                    acc += h[i, k] * w[k, j]
                out[i, j] = acc
        h = gelu(out)[0] if idx < len(ws) - 1 else out
    return h


class TestLadderForward:
    def test_zero_input_gives_zero_output(self):
        ws = init_triple(4, 6, 8, RngState(1))
        out, _ = ladder_forward(ws, np.zeros((3, 4)), keep_cache=False)
        assert np.array_equal(out, np.zeros((3, 4)))

    def test_zero_weights_give_zero_output(self):
        ws = (np.zeros((4, 6)), np.zeros((6, 8)), np.zeros((8, 4)))
        x = np.random.default_rng(0).normal(size=(3, 4))
        out, _ = ladder_forward(ws, x, keep_cache=False)
        assert np.array_equal(out, np.zeros((3, 4)))

    def test_matches_scalar_loop_oracle(self):
        ws = init_triple(4, 6, 8, RngState(9))
        x = np.random.default_rng(1).normal(size=(2, 4))
        out, _ = ladder_forward(ws, x, keep_cache=False)
        assert np.abs(out - scalar_loop_forward(ws, x)).max() < 1e-12

    def test_width_mismatch(self):
        ws = init_triple(4, 6, 8, RngState(1))
        with pytest.raises(ValidationError, match="shape mismatch: 3x5 @ 4x6"):
            ladder_forward(ws, np.zeros((3, 5)), keep_cache=False)


class TestBlockForm:
    """Inside ``block_form(m0, a0)`` a grown ladder's products are split at
    the base widths; the split must be the same product, and its old block
    must not see the new rows and columns."""

    @settings(max_examples=80, deadline=None)
    @given(
        st.integers(1, 12),  # rows
        st.integers(1, 8),  # d
        st.integers(1, 12),  # m0
        st.integers(1, 12),  # a0
        st.integers(0, 10),  # delta_m
        st.integers(0, 10),  # delta_a
        st.integers(0, 2**32 - 1),
    )
    def test_matches_plain_forward_on_random_blocks(self, n, d, m0, a0, dm, da, seed):
        # every new block is random, mid_bottom and down_new included, so a
        # dropped cross term into the old columns shows
        assume(dm + da > 0)
        ws = init_triple(d, m0 + dm, a0 + da, RngState(seed))
        x = np.random.default_rng(seed).normal(size=(n, d))
        want, _ = ladder_forward(ws, x, keep_cache=False)
        with block_form(m0, a0):
            got, _ = ladder_forward(ws, x, keep_cache=False)
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 12), st.integers(1, 8), st.integers(1, 12), st.integers(1, 12),
           st.integers(0, 2**32 - 1))
    def test_bit_equal_at_the_ladders_own_widths(self, n, d, m, a, seed):
        ws = init_triple(d, m, a, RngState(seed))
        x = np.random.default_rng(seed).normal(size=(n, d))
        want, want_cache = ladder_forward(ws, x, keep_cache=True)
        with block_form(m, a):
            got, got_cache = ladder_forward(ws, x, keep_cache=True)
        assert got.tobytes() == want.tobytes()
        assert [c.tobytes() for c in got_cache] == [c.tobytes() for c in want_cache]

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(0, 2**32 - 1),
        st.integers(1, 48),
        st.integers(1, 48),
        st.integers(1, 48),
        st.integers(0, 24),
        st.integers(0, 24),
    )
    def test_block_form_width_stability(self, seed, n, k, p, dk, dp):
        """Widening by output columns of ``b`` and by input channels whose
        ``b`` rows are zero in the old columns leaves the old (n, p) block
        of a block-form product bit-identical, as zero-policy growth
        needs. Rows are the sequence, which growth leaves alone."""
        assume(dk + dp > 0)
        rng = np.random.default_rng(seed)
        a = rng.normal(size=(n, k))
        b = rng.normal(size=(k, p))
        wide_a = np.hstack([a, rng.normal(size=(n, dk))])
        wide_b = np.block([[b, rng.normal(size=(k, dp))],
                           [np.zeros((dk, p)), rng.normal(size=(dk, dp))]])
        wide = ladder._product(wide_a, wide_b, k, p)
        assert wide[:, :p].tobytes() == matmul(a, b).tobytes()


class TestLadderBackward:
    def test_zero_upstream_gives_zero_grads(self):
        ws = init_triple(3, 4, 5, RngState(4))
        x = np.random.default_rng(2).normal(size=(2, 3))
        _, cache = ladder_forward(ws, x, keep_cache=True)
        dx, grads = ladder_backward(ws, cache, np.zeros((2, 3)))
        assert np.array_equal(dx, np.zeros_like(x))
        for g in grads:
            assert not g.any()

    def test_matches_finite_differences(self):
        ws = init_triple(3, 4, 5, RngState(7))
        rng = np.random.default_rng(3)
        x = rng.normal(size=(2, 3))
        proj = rng.normal(size=(2, 3))  # fixed linear functional of the output

        _, cache = ladder_forward(ws, x, keep_cache=True)
        dx, grads = ladder_backward(ws, cache, proj)
        for i in range(3):
            def f(w, i=i):
                trial = [m.copy() for m in ws]
                trial[i] = w
                return float((ladder_forward(trial, x, keep_cache=False)[0] * proj).sum())

            fd = finite_diff_grad(f, ws[i], eps=1e-5)
            denom = np.maximum(np.abs(fd), 1e-4)
            assert (np.abs(grads[i] - fd) / denom).max() < 1e-5
        fd_x = finite_diff_grad(
            lambda m: float((ladder_forward(ws, m, keep_cache=False)[0] * proj).sum()),
            x,
            eps=1e-5,
        )
        assert np.abs(dx - fd_x).max() < 1e-6

    def test_zero_middle_and_down_blocks_are_a_saddle(self):
        # with w_mid and w_down zero nothing reaches the output, and the
        # chain rule kills d_w_mid and d_w_up exactly (d_w_down too,
        # since its input gelu(0) is exactly zero)
        w_up, _, _ = init_triple(3, 4, 5, RngState(5))
        ws = (w_up, np.zeros((4, 5)), np.zeros((5, 3)))
        x = np.random.default_rng(4).normal(size=(2, 3))
        out, cache = ladder_forward(ws, x, keep_cache=True)
        assert np.array_equal(out, np.zeros((2, 3)))
        _, grads = ladder_backward(ws, cache, np.ones((2, 3)))
        assert not grads[0].any()
        assert not grads[1].any()
        assert not grads[2].any()


class TestAttention:
    def _three(self, d, m, a, seed):
        rng = RngState(seed)
        return init_triple(d, m, a, rng), init_triple(d, m, a, rng), init_triple(d, m, a, rng)

    def test_single_token_returns_value_row(self):
        q, k, v = self._three(4, 6, 8, 1)
        x = np.random.default_rng(5).normal(size=(1, 4))
        out, _ = attention_forward(q, k, v, x, n_heads=2, keep_cache=False)
        v_out, _ = ladder_forward(v, x, keep_cache=False)
        assert np.abs(out - v_out).max() < 1e-14

    def test_causality(self):
        q, k, v = self._three(4, 6, 8, 2)
        rng = np.random.default_rng(6)
        x = rng.normal(size=(5, 4))
        out, _ = attention_forward(q, k, v, x, n_heads=2, keep_cache=False)
        x2 = x.copy()
        x2[3] += rng.normal(size=4)
        out2, _ = attention_forward(q, k, v, x2, n_heads=2, keep_cache=False)
        assert np.array_equal(out[:3], out2[:3])
        assert np.abs(out2[3:] - out[3:]).max() > 0

    def test_matches_composed_oracle(self):
        # single head: the output is softmax(Q K^T / sqrt(D)) V with the
        # three staged projections applied first
        q, k, v = self._three(4, 6, 8, 3)
        x = np.random.default_rng(7).normal(size=(3, 4))
        out, _ = attention_forward(q, k, v, x, n_heads=1, keep_cache=False)
        qm, _ = ladder_forward(q, x, keep_cache=False)
        km, _ = ladder_forward(k, x, keep_cache=False)
        vm, _ = ladder_forward(v, x, keep_cache=False)
        scores = (qm @ km.T) / np.sqrt(4)
        probs = softmax_rows(scores, np.tril(np.ones((3, 3), dtype=bool)))
        assert np.abs(out - probs @ vm).max() < 1e-10

    def test_backward_matches_finite_differences(self):
        q, k, v = self._three(4, 6, 8, 8)
        rng = np.random.default_rng(8)
        x = rng.normal(size=(3, 4))
        proj = rng.normal(size=(3, 4))
        out, cache = attention_forward(q, k, v, x, n_heads=2, keep_cache=True)
        dx, q_g, k_g, v_g = attention_backward(q, k, v, cache, proj)
        fd_x = finite_diff_grad(
            lambda m: float(
                (attention_forward(q, k, v, m, n_heads=2, keep_cache=False)[0] * proj).sum()
            ),
            x,
            eps=1e-5,
        )
        assert np.abs(dx - fd_x).max() < 1e-6

        def f_w(w):
            q2 = (w, *q[1:])
            out, _ = attention_forward(q2, k, v, x, n_heads=2, keep_cache=False)
            return float((out * proj).sum())

        fd_w = finite_diff_grad(f_w, q[0], eps=1e-5)
        denom = np.maximum(np.abs(fd_w), 1e-4)
        assert (np.abs(q_g[0] - fd_w) / denom).max() < 1e-5

    def test_head_mismatch(self):
        q, k, v = self._three(4, 6, 8, 9)
        with pytest.raises(ValidationError, match="n_heads"):
            attention_forward(q, k, v, np.zeros((2, 4)), n_heads=3, keep_cache=False)


def per_head_attention(q_ws, k_ws, v_ws, x, n_heads, d_out):
    """Oracle: attention forward and backward one head at a time, each
    head with its own 2-D masked softmax and softmax backward."""
    q, q_cache = ladder_forward(q_ws, x, keep_cache=True)
    k, k_cache = ladder_forward(k_ws, x, keep_cache=True)
    v, v_cache = ladder_forward(v_ws, x, keep_cache=True)
    n, d = q.shape
    head_dim = d // n_heads
    scale = 1.0 / np.sqrt(head_dim)
    mask = np.tril(np.ones((n, n), dtype=bool))
    out, dq, dk, dv = (np.zeros_like(q) for _ in range(4))
    for h in range(n_heads):
        sl = slice(h * head_dim, (h + 1) * head_dim)
        p = softmax_rows(matmul(q[:, sl], k[:, sl].T) * scale, mask)
        out[:, sl] = matmul(p, v[:, sl])
        d_o = d_out[:, sl]
        dp = matmul(d_o, v[:, sl].T)
        dv[:, sl] = matmul(p.T, d_o)
        ds = p * (dp - (dp * p).sum(axis=1, keepdims=True))
        dq[:, sl] = matmul(ds, k[:, sl]) * scale
        dk[:, sl] = matmul(ds.T, q[:, sl]) * scale
    dx_q, q_grads = ladder_backward(q_ws, q_cache, dq)
    dx_k, k_grads = ladder_backward(k_ws, k_cache, dk)
    dx_v, v_grads = ladder_backward(v_ws, v_cache, dv)
    return out, (dx_q + dx_k + dx_v, q_grads, k_grads, v_grads)


class TestBatchedHeads:
    @settings(max_examples=40, deadline=None)
    @given(
        st.sampled_from([1, 2, 4]),
        st.integers(2, 33),
        st.integers(1, 8),
        st.booleans(),
        st.integers(0, 2**32 - 1),
    )
    def test_bit_equal_to_per_head_loop(self, n_heads, n, head_dim, exact, seed):
        d = n_heads * head_dim
        rng = RngState(seed)
        q, k, v = (init_triple(d, d + 2, d + 5, rng) for _ in range(3))
        gen = np.random.default_rng(seed)
        x = gen.normal(size=(n, d))
        d_out = gen.normal(size=(n, d))
        with exact_arithmetic() if exact else nullcontext():
            out, cache = attention_forward(q, k, v, x, n_heads, keep_cache=True)
            grads = attention_backward(q, k, v, cache, d_out)
            want_out, want_grads = per_head_attention(q, k, v, x, n_heads, d_out)
        assert out.tobytes() == want_out.tobytes()
        assert grads[0].tobytes() == want_grads[0].tobytes()
        for got, want in zip(grads[1:], want_grads[1:], strict=True):
            assert [g.tobytes() for g in got] == [w.tobytes() for w in want]

    def test_cache_holds_one_probability_stack(self):
        q, k, v = (init_triple(8, 10, 12, RngState(4)) for _ in range(3))
        x = np.random.default_rng(4).normal(size=(5, 8))
        _, cache = attention_forward(q, k, v, x, 4, keep_cache=True)
        assert cache.probs.shape == (4, 5, 5)
        assert not cache.probs[:, ~causal_mask(5)].any()
        assert np.abs(cache.probs.sum(axis=-1) - 1.0).max() < 1e-14


def planted_rank_matrix(rng, rows, cols, rank):
    return rng.normal(size=(rows, rank)) @ rng.normal(size=(rank, cols))


def numeric_rank(m):
    """Singular values above 1e-7 times the largest. One that is zero in
    exact arithmetic comes out of the SVD near eps * sigma_max, about
    1e-16 relative, far below that threshold."""
    return int(np.linalg.matrix_rank(m, rtol=1e-7))


class TestRankBottleneck:
    def test_rank_one_w(self):
        rng = np.random.default_rng(10)
        x = rng.normal(size=(4, 3))
        w = planted_rank_matrix(rng, 3, 3, 1)
        assert numeric_rank(matmul(x, w)) == numeric_rank(w) == 1

    def test_identity_w_preserves_rank(self):
        rng = np.random.default_rng(11)
        x = planted_rank_matrix(rng, 5, 4, 2)
        assert numeric_rank(matmul(x, np.eye(4))) == numeric_rank(x) == 2

    def test_planted_ranks_50_pairs(self):
        rng = np.random.default_rng(12)
        for _ in range(50):
            rx = int(rng.integers(1, 4))
            rw = int(rng.integers(1, 4))
            x_rows = int(rng.integers(4, 8))
            w_cols = int(rng.integers(2, 7))
            x = planted_rank_matrix(rng, x_rows, 5, rx)
            w = planted_rank_matrix(rng, 5, w_cols, rw)
            assert numeric_rank(matmul(x, w)) <= min(numeric_rank(x), numeric_rank(w))
            assert numeric_rank(x) == min(rx, x_rows, 5)
            assert numeric_rank(w) == min(rw, w_cols, 5)
