import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.special import ndtr

from growformer import linalg
from growformer.errors import ValidationError
from growformer.linalg import (
    causal_mask,
    eig_sym3,
    exact_arithmetic,
    gelu,
    gelu_derivative,
    matmul,
    softmax_rows,
    width_dependent_products,
)

from oracles import finite_diff_grad


def triple_loop_matmul(a, b):
    """Independent oracle: explicit per-element accumulation."""
    out = np.zeros((a.shape[0], b.shape[1]))
    for i in range(a.shape[0]):
        for j in range(b.shape[1]):
            acc = 0.0
            for k in range(a.shape[1]):
                acc += a[i, k] * b[k, j]
            out[i, j] = acc
    return out


def channel_ordered_loop(a, b):
    """Reference for exact mode: one elementwise multiply and one add per
    input channel, in channel order."""
    out = np.zeros((a.shape[0], b.shape[1]))
    tmp = np.empty_like(out)
    for k in range(a.shape[1]):
        np.multiply(a[:, k, None], b[k, None, :], out=tmp)
        out += tmp
    return out


def assert_bit_equal(got, want):
    assert got.shape == want.shape
    assert np.array_equal(got, want, equal_nan=True)
    assert np.array_equal(np.signbit(got), np.signbit(want))


def run_python(script, *args, **env):
    """stdout of ``script`` run by a fresh interpreter that imports this
    checkout's package, with ``env`` added to the environment."""
    src = str(Path(linalg.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-c", script, *args],
        env=dict(os.environ, PYTHONPATH=path, **env),
        check=True, capture_output=True, text=True, timeout=120,
    ).stdout


EDGE_VALUES = np.array([0.0, -0.0, 5e-324, -5e-324, 2.2e-308, -1.1e-310])
NON_FINITE = [np.inf, -np.inf, np.nan]


def edge_operands(seed, n, k, p, edge_fraction, non_finite):
    """Gaussian operands with a share of exact zeros, -0.0 and
    subnormals, and at most one inf or NaN entry (in ``a`` or ``b``)."""
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(n, k))
    b = rng.normal(size=(k, p))
    for m in (a, b):
        hit = rng.random(m.shape) < edge_fraction
        m[hit] = rng.choice(EDGE_VALUES, size=int(hit.sum()))
    if non_finite is not None and k > 0:
        target = a if rng.random() < 0.5 else b
        target[tuple(rng.integers(target.shape))] = non_finite
    return a, b


class TestChannelOrderedKernel:
    """The exact-mode kernel against the numpy loop it replaced, bit for
    bit: values, NaN positions and sign bits, -0.0 included."""

    @settings(max_examples=80, deadline=None)
    @given(
        st.integers(0, 2**32 - 1),
        st.integers(1, 160),
        st.one_of(st.just(0), st.integers(1, 160)),
        st.integers(1, 160),
        st.sampled_from([0.0, 0.1, 0.5]),
        st.one_of(st.none(), st.sampled_from(NON_FINITE)),
    )
    def test_bit_equal_to_numpy_loop(self, seed, n, k, p, edge_fraction, non_finite):
        a, b = edge_operands(seed, n, k, p, edge_fraction, non_finite)
        with np.errstate(invalid="ignore", over="ignore"):
            want = channel_ordered_loop(a, b)
            got = linalg._matmul_channel_ordered(a, b)
        assert got.flags.c_contiguous
        assert_bit_equal(got, want)

    def test_non_contiguous_operands(self):
        a, b = edge_operands(3, 40, 30, 20, 0.1, None)
        a_f, b_t = np.asfortranarray(a), np.ascontiguousarray(b.T).T
        assert_bit_equal(linalg._matmul_channel_ordered(a_f, b_t), channel_ordered_loop(a, b))

    def test_two_blas_threads(self, tmp_path):
        # The thread count of OpenBLAS is fixed when it loads, so a second
        # thread count needs a fresh interpreter.
        a, b = edge_operands(11, 128, 256, 160, 0.1, None)
        np.savez(tmp_path / "operands.npz", a=a, b=b)
        run_python(
            "import sys, numpy as np\n"
            "from growformer import linalg\n"
            "ops = np.load(sys.argv[1])\n"
            "np.save(sys.argv[2], linalg._matmul_channel_ordered(ops['a'], ops['b']))\n",
            str(tmp_path / "operands.npz"), str(tmp_path / "out.npy"),
            OPENBLAS_NUM_THREADS="2",
        )
        assert_bit_equal(np.load(tmp_path / "out.npy"), channel_ordered_loop(a, b))

    def test_blas_mode_does_not_import_scipy_linalg(self):
        # scipy.linalg adds ~6 MB of resident memory; training never
        # enters exact mode, so it must not pay for the kernel's import.
        out = run_python(
            "import sys\n"
            "from growformer import ModelConfig, init_params, model_loss_and_grads\n"
            "config = ModelConfig(16, 8, 4, 2, 1, 6, 8, 8)\n"
            "model_loss_and_grads(config, init_params(config, seed=0), list(range(8)))\n"
            "print('scipy.linalg' in sys.modules)\n"
        )
        assert out == "False\n"

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(0, 2**32 - 1),
        st.integers(1, 48),
        st.integers(1, 48),
        st.integers(1, 48),
        st.integers(0, 24),
        st.integers(0, 24),
        st.integers(0, 24),
    )
    def test_width_stability(self, seed, n, k, p, dn, dk, dp):
        """Widening by rows of ``a``, output columns of ``b`` and input
        channels whose ``b`` rows are zero in the old columns leaves the
        old (n, p) block bit-identical, as zero-policy growth needs."""
        assume(dn + dk + dp > 0)
        rng = np.random.default_rng(seed)
        a = rng.normal(size=(n, k))
        b = rng.normal(size=(k, p))
        wide_a = np.block([[a, rng.normal(size=(n, dk))],
                           [rng.normal(size=(dn, k + dk))]])
        wide_b = np.block([[b, rng.normal(size=(k, dp))],
                           [np.zeros((dk, p)), rng.normal(size=(dk, dp))]])
        with exact_arithmetic(), width_dependent_products():
            narrow = matmul(a, b)
            wide = matmul(wide_a, wide_b)
        assert_bit_equal(wide[:n, :p], narrow)


class TestMatmul:
    def test_identity(self):
        b = np.arange(12.0).reshape(3, 4)
        assert np.array_equal(matmul(np.eye(3), b), b)

    def test_hand_example(self):
        a = np.array([[1.0, 2.0], [3.0, 4.0]])
        b = np.array([[0.0], [1.0]])
        assert np.array_equal(matmul(a, b), np.array([[2.0], [4.0]]))

    def test_against_triple_loop(self):
        rng = np.random.default_rng(7)
        a = rng.normal(size=(7, 5))
        b = rng.normal(size=(5, 3))
        assert np.abs(matmul(a, b) - triple_loop_matmul(a, b)).max() < 1e-12

    def test_shape_error_names_both_shapes(self):
        with pytest.raises(ValidationError, match="2x3.*4x2"):
            matmul(np.zeros((2, 3)), np.zeros((4, 2)))

    def test_blocked_path_matches_triple_loop(self):
        rng = np.random.default_rng(8)
        a = rng.normal(size=(3, 700))
        b = rng.normal(size=(700, 2))
        assert np.abs(matmul(a, b) - triple_loop_matmul(a, b)).max() < 1e-10

    def test_zero_tail_channels_do_not_perturb(self):
        # appending zero input channels must leave old outputs bit-identical
        rng = np.random.default_rng(9)
        for k in (40, 300, 600, 900):
            a = rng.normal(size=(4, k))
            b = rng.normal(size=(k, 5))
            wide_a = np.hstack([a, np.zeros((4, 37))])
            wide_b = np.vstack([b, np.zeros((37, 5))])
            assert np.array_equal(matmul(a, b), matmul(wide_a, wide_b))

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_associativity(self, seed):
        rng = np.random.default_rng(seed)
        a = rng.normal(size=(4, 3))
        b = rng.normal(size=(3, 5))
        c = rng.normal(size=(5, 2))
        left = matmul(matmul(a, b), c)
        right = matmul(a, matmul(b, c))
        scale = max(np.abs(left).max(), 1.0)
        assert np.abs(left - right).max() / scale < 1e-9

    def test_exact_mode_is_per_thread(self, monkeypatch):
        # only a thread both in the mode and in the scope sums channel by channel
        exact_calls = []
        channel_ordered = linalg._matmul_channel_ordered

        def spy(a, b):
            exact_calls.append(threading.current_thread().name)
            return channel_ordered(a, b)

        monkeypatch.setattr(linalg, "_matmul_channel_ordered", spy)
        a, b = np.ones((2, 3)), np.ones((3, 2))
        entered, release = threading.Event(), threading.Event()

        def hold_exact_mode():
            with exact_arithmetic():
                matmul(a, b)  # outside the scope: BLAS
                with width_dependent_products():
                    matmul(a, b)
                    entered.set()
                    release.wait(timeout=10)
                    matmul(a, b)

        def in_scope_only():
            with width_dependent_products():
                matmul(a, b)

        holder = threading.Thread(target=hold_exact_mode, name="exact")
        holder.start()
        try:
            assert entered.wait(timeout=10)
            other = threading.Thread(target=in_scope_only, name="blas")
            other.start()
            other.join(timeout=10)
            assert not other.is_alive()
            matmul(a, b)
        finally:
            release.set()
            holder.join(timeout=10)
        assert not holder.is_alive()
        assert exact_calls == ["exact", "exact"]


class TestGelu:
    def test_zero_is_exactly_zero(self):
        assert gelu(np.array([[0.0]]))[0][0, 0] == 0.0

    def test_large_positive_asymptote(self):
        x = np.array([[12.0, 30.0]])
        assert np.abs(gelu(x)[0] / x - 1.0).max() < 1e-9

    def test_derivative_matches_finite_differences(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(4, 3))
        g = finite_diff_grad(lambda m: float(gelu(m)[0].sum()), x)
        assert np.abs(g - gelu_derivative(x, ndtr(x))).max() < 1e-7

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.floats(-60.0, 60.0), min_size=1, max_size=64))
    def test_reused_cdf_is_bit_equal_to_recomputing_it(self, values):
        x = np.array([values])
        value, cdf = gelu(x)
        # the one-argument formulas the forward cache replaced
        assert value.tobytes() == (x * ndtr(x)).tobytes()
        recomputed = ndtr(x) + x * 0.3989422804014327 * np.exp(-0.5 * x * x)
        assert gelu_derivative(x, cdf).tobytes() == recomputed.tobytes()


class TestSoftmaxRows:
    def test_uniform_row(self):
        out = softmax_rows(np.full((2, 5), 3.7), np.ones((2, 5), dtype=bool))
        assert np.allclose(out, 0.2, atol=1e-15)

    def test_closed_form(self):
        out = softmax_rows(np.array([[0.0, np.log(3.0)]]), np.ones((1, 2), dtype=bool))
        assert np.abs(out - [0.25, 0.75]).max() < 1e-14

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(11)
        x = rng.normal(size=(6, 9)) * 30
        out = softmax_rows(x, np.ones(x.shape, dtype=bool))
        direct = np.exp(x) / np.exp(x).sum(axis=1, keepdims=True)
        assert np.abs(out.sum(axis=1) - 1.0).max() < 1e-12
        assert np.abs(out - direct).max() < 1e-12

    def test_causal_mask_zeroes_future(self):
        x = np.zeros((4, 4))
        out = softmax_rows(x, causal_mask(4))
        assert np.array_equal(out[0, 1:], np.zeros(3))
        assert np.abs(out[3] - 0.25).max() < 1e-15

    def test_fully_masked_row_errors(self):
        mask = np.array([[True, True], [False, False]])
        with pytest.raises(ValidationError, match="fully masked"):
            softmax_rows(np.zeros((2, 2)), mask)


def two_pass_masked_softmax(x, mask):
    """Oracle: the masked 2-D softmax as two out-of-place ``np.where``
    passes, excluded entries set to 0 after the exp."""
    neg = np.where(mask, x, -np.inf)
    e = np.where(mask, np.exp(neg - neg.max(axis=1, keepdims=True)), 0.0)
    return e / e.sum(axis=1, keepdims=True)


class TestSoftmaxStack:
    @settings(max_examples=80, deadline=None)
    @given(
        st.lists(st.integers(1, 4), min_size=1, max_size=2),
        st.integers(1, 12),
        st.integers(1, 12),
        st.sampled_from([np.inf, np.nan, 0.0]),
        st.integers(0, 2**32 - 1),
    )
    def test_stack_is_bit_equal_to_each_matrix(self, lead, rows, cols, poison, seed):
        rng = np.random.default_rng(seed)
        mask = rng.random((rows, cols)) < 0.6
        mask[np.arange(rows), rng.integers(0, cols, rows)] = True  # no empty row
        x = rng.normal(size=(*lead, rows, cols)) * 20
        x[..., ~mask] = poison  # must not leak into the allowed entries
        before = x.copy()
        stack = softmax_rows(x, mask)
        assert np.array_equal(x, before, equal_nan=True)
        assert stack.shape == x.shape
        for idx in np.ndindex(*lead):
            alone = softmax_rows(x[idx], mask)
            assert stack[idx].tobytes() == alone.tobytes()
            assert alone.tobytes() == two_pass_masked_softmax(x[idx], mask).tobytes()
            assert np.isfinite(alone).all() and not alone[~mask].any()
            assert not np.signbit(stack[idx][~mask]).any()  # +0.0, never -0.0

    def test_causal_heads_with_underflow_match_two_pass(self):
        mask = causal_mask(128)
        # rows spread past 745, beyond which exp underflows to 0
        x = np.random.default_rng(5).normal(size=(4, 128, 128)) * 120
        stack = softmax_rows(x, mask)
        assert (stack[:, mask] == 0.0).any()  # some allowed entries underflow
        assert not np.signbit(stack).any()
        for h in range(4):
            assert stack[h].tobytes() == two_pass_masked_softmax(x[h], mask).tobytes()

    def test_mask_must_match_each_matrix(self):
        with pytest.raises(ValidationError, match="mask shape"):
            softmax_rows(np.zeros((2, 3, 3)), np.ones((2, 3, 3), dtype=bool))
        with pytest.raises(ValidationError, match="ndim=1"):
            softmax_rows(np.zeros(3), np.ones((1, 3), dtype=bool))

    def test_causal_mask_is_shared_and_read_only(self):
        mask = causal_mask(5)
        assert causal_mask(5) is mask
        assert np.array_equal(mask, np.tril(np.ones((5, 5), dtype=bool)))
        with pytest.raises(ValueError, match="read-only"):
            mask[0, 1] = True


def jacobi_eig_sym(c, sweeps=30):
    """Oracle: cyclic Jacobi rotations for a symmetric 3x3 matrix."""
    a = c.copy()
    v = np.eye(3)
    for _ in range(sweeps):
        for p in range(2):
            for q in range(p + 1, 3):
                if abs(a[p, q]) < 1e-15:
                    continue
                theta = 0.5 * np.arctan2(2 * a[p, q], a[q, q] - a[p, p])
                cos, sin = np.cos(theta), np.sin(theta)
                rot = np.eye(3)
                rot[p, p] = rot[q, q] = cos
                rot[p, q] = sin
                rot[q, p] = -sin
                a = rot.T @ a @ rot
                v = v @ rot
    order = np.argsort(np.diag(a))[::-1]
    return np.diag(a)[order], v[:, order]


class TestEigSym3:
    def test_diagonal(self):
        vals, vecs = eig_sym3(np.diag([3.0, 2.0, 1.0]))
        assert np.allclose(vals, [3.0, 2.0, 1.0])
        assert np.allclose(vecs, np.eye(3))

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_trace_and_det_invariants(self, seed):
        rng = np.random.default_rng(seed)
        a = rng.normal(size=(3, 3))
        c = (a + a.T) / 2
        vals, vecs = eig_sym3(c)
        assert abs(vals.sum() - np.trace(c)) < 1e-10
        det = np.linalg.det(c)
        assert abs(np.prod(vals) - det) <= 1e-8 * max(abs(det), 1.0)
        for i in range(3):
            assert np.abs(c @ vecs[:, i] - vals[i] * vecs[:, i]).max() < 1e-9

    def test_against_jacobi_oracle(self):
        rng = np.random.default_rng(17)
        for _ in range(10):
            a = rng.normal(size=(3, 3))
            c = (a + a.T) / 2
            vals, vecs = eig_sym3(c)
            ref_vals, ref_vecs = jacobi_eig_sym(c)
            assert np.abs(vals - ref_vals).max() < 1e-9
            # eigenvectors agree up to sign
            for i in range(3):
                dot = abs(float(vecs[:, i] @ ref_vecs[:, i]))
                assert abs(dot - 1.0) < 1e-8

    def test_sign_convention(self):
        vals, vecs = eig_sym3(np.diag([3.0, 2.0, 1.0]))
        for i in range(3):
            assert vecs[np.argmax(np.abs(vecs[:, i])), i] > 0

    def test_asymmetric_rejected(self):
        c = np.diag([3.0, 2.0, 1.0])
        c[0, 1] = 1e-6
        with pytest.raises(ValidationError, match="symmetric"):
            eig_sym3(c)


class TestFiniteDiffGrad:
    def test_sum_of_squares(self):
        x = np.array([[1.0, -2.0], [0.5, 3.0]])
        g = finite_diff_grad(lambda m: float((m**2).sum()), x)
        assert np.abs(g - 2 * x).max() < 1e-6

    def test_constant_function(self):
        g = finite_diff_grad(lambda m: 4.2, np.ones((2, 3)))
        assert np.array_equal(g, np.zeros((2, 3)))

    def test_gelu_sum_cross_check(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(3, 3))
        g = finite_diff_grad(lambda m: float(gelu(m)[0].sum()), x)
        assert np.abs(g - gelu_derivative(x, ndtr(x))).max() < 1e-6

    def test_bad_eps(self):
        with pytest.raises(ValidationError):
            finite_diff_grad(lambda m: 0.0, np.ones((1, 1)), eps=0.0)
