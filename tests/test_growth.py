import hashlib
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from growformer import growth
from growformer.errors import NumericError, ValidationError
from growformer.growth import (
    GrowthPlan,
    embed,
    grow_model,
    new_block_gradient_report,
    new_block_slices,
    pretrained_projection_std,
    require_exact_preservation,
    verify_function_preservation,
)
from growformer.linalg import exact_arithmetic
from growformer.model import (
    TOY_CONFIG,
    ModelConfig,
    init_params,
    model_forward,
    model_loss_and_grads,
    projection_keys,
)
from growformer.rng import RngState, seeded_ints
from growformer.training import (
    CorpusConfig,
    ExperimentConfig,
    OptimizerConfig,
    ScheduleConfig,
    heldout_sequences,
)

from oracles import finite_diff_grad

BASE = ModelConfig(
    vocab_size=32, context_len=12, hidden_size=8, n_heads=2, n_layers=2,
    ladder_m=12, ladder_a=16, ffn_size=16,
)


# sha256 of the exact-mode logits of a seeded TOY_CONFIG model grown by
# noise:0.2 on one held-out window (test_exact_mode_logits_digest_pinned),
# re-recorded when indexed streams came to derive in two levels, again
# when exact mode came to cover only the ladder's products, and again when
# it became the reference that sums every product channel by channel.
EXACT_LOGITS_SHA256 = "49098f9eb8c43dde844cd86cc786543246f059bab7f1c792f8aad690f367ae15"


def probe_batch(count=4, seed=17, n=12, vocab=32):
    return [seeded_ints(RngState(seed + i), n, vocab) for i in range(count)]


class TestPlan:
    def test_zero_deltas_rejected(self):
        with pytest.raises(ValidationError):
            GrowthPlan(0, 0, "strict-zero", seed=1)

    def test_noise_fraction_bounds(self):
        with pytest.raises(ValidationError):
            GrowthPlan(1, 1, "noise:1.5", seed=1)
        assert GrowthPlan(1, 1, "noise:0.1", seed=1).noise_fraction == 0.1

    def test_unknown_policy(self):
        with pytest.raises(ValidationError):
            GrowthPlan(1, 1, "zeros-please", seed=1)


def new_blocks(params, plan):
    """Every new block of ``params`` grown by ``plan``, by block name."""
    blocks = {}
    config = BASE.grown(plan.delta_m, plan.delta_a)
    for name, _, block in new_block_slices(params, config, plan.delta_m, plan.delta_a):
        blocks.setdefault(name, []).append(block)
    return blocks


class TestBlockGrowth:
    """The five-block layout and the three policies, through ``grow_model``
    and ``new_block_slices`` on every Q/K/V projection of BASE."""

    def test_grow_w_up_zero_delta_identity(self):
        params = init_params(BASE, seed=1)
        grown, _, _ = grow_model(params, BASE, GrowthPlan(0, 2, "guarded-zero", seed=0))
        for key in projection_keys(BASE):
            if key.endswith("w_up"):
                assert np.array_equal(grown[key], params[key])

    def test_grow_w_up_strict_zero_columns(self):
        params = init_params(BASE, seed=1)
        plan = GrowthPlan(3, 0, "strict-zero", seed=0)
        grown, _, _ = grow_model(params, BASE, plan)
        for key in projection_keys(BASE):
            if key.endswith("w_up"):
                assert grown[key].shape == (BASE.hidden_size, BASE.ladder_m + 3)
                assert np.array_equal(grown[key][:, : BASE.ladder_m], params[key])
        assert all(b.shape[1] == 3 and not b.any() for b in new_blocks(grown, plan)["up_new"])

    def test_grow_w_mid_blocks_by_policy(self):
        params = init_params(BASE, seed=3)
        strict = GrowthPlan(2, 3, "strict-zero", 0)
        grown, _, _ = grow_model(params, BASE, strict)
        for blocks in new_blocks(grown, strict).values():
            assert not any(b.any() for b in blocks)

        guarded = GrowthPlan(2, 3, "guarded-zero", 0)
        grown, _, _ = grow_model(params, BASE, guarded)
        blocks = new_blocks(grown, guarded)
        assert not any(b.any() for b in blocks["mid_bottom"])
        assert all(b.all() for b in blocks["mid_right"] + blocks["mid_corner"])
        for key in projection_keys(BASE):
            if key.endswith("w_mid"):
                assert np.array_equal(grown[key][: BASE.ladder_m, : BASE.ladder_a], params[key])

    def test_grow_w_down_guarded_rows_zero(self):
        params = init_params(BASE, seed=5)
        plan = GrowthPlan(0, 2, "guarded-zero", 0)
        grown, _, _ = grow_model(params, BASE, plan)
        for key in projection_keys(BASE):
            if key.endswith("w_down"):
                assert np.array_equal(grown[key][: BASE.ladder_a], params[key])
        assert all(b.shape[0] == 2 and not b.any() for b in new_blocks(grown, plan)["down_new"])

    def test_noise_scale_tracks_old_std(self):
        params = {k: 0.05 * p for k, p in init_params(BASE, seed=7).items()}
        for fraction in (0.1, 0.2):
            plan = GrowthPlan(4, 6, f"noise:{fraction}", seed=0)
            grown, _, _ = grow_model(params, BASE, plan)
            target = fraction * pretrained_projection_std(params, BASE)
            for name, blocks in new_blocks(grown, plan).items():
                std = np.concatenate([b.ravel() for b in blocks]).std()
                assert abs(std - target) / target < 0.2, (fraction, name)

    @settings(max_examples=25, deadline=None)
    @given(
        st.integers(0, 4),
        st.integers(0, 4),
        st.integers(0, 2**32 - 1),
        st.sampled_from(["strict-zero", "guarded-zero", "noise:0.3"]),
        st.randoms(use_true_random=False),
    )
    def test_draws_do_not_depend_on_key_order(self, dm, da, seed, policy, shuffler):
        assume(dm + da > 0)
        params = init_params(BASE, seed=seed)
        keys = list(params)
        shuffler.shuffle(keys)
        plan = GrowthPlan(dm, da, policy, seed=seed)
        want, _, _ = grow_model(params, BASE, plan)
        got, _, _ = grow_model({k: params[k] for k in keys}, BASE, plan)
        assert list(got) == list(want)
        assert all(got[k].tobytes() == want[k].tobytes() for k in want)


class TestGrowModel:
    def test_dims_and_old_blocks(self):
        params = init_params(BASE, seed=1)
        plan = GrowthPlan(5, 6, "strict-zero", seed=2)
        new_params, new_config, report = grow_model(params, BASE, plan)
        assert (new_config.ladder_m, new_config.ladder_a) == (17, 22)
        assert (report.old_m, report.old_a, report.new_m, report.new_a) == (12, 16, 17, 22)
        for i in range(BASE.n_layers):
            for proj in ("q", "k", "v"):
                p = f"blocks.{i}.attn.{proj}."
                assert np.array_equal(new_params[p + "w_up"][:, :12], params[p + "w_up"])
                assert np.array_equal(new_params[p + "w_mid"][:12, :16], params[p + "w_mid"])
                assert np.array_equal(new_params[p + "w_down"][:16], params[p + "w_down"])
        assert np.array_equal(new_params["tok_emb"], params["tok_emb"])

    def test_single_axis_growth(self):
        params = init_params(BASE, seed=1)
        new_params, new_config, _ = grow_model(params, BASE, GrowthPlan(0, 4, "guarded-zero", 3))
        assert new_config.ladder_m == 12 and new_config.ladder_a == 20

    def test_report_block_summary(self):
        params = init_params(BASE, seed=1)
        _, _, report = grow_model(params, BASE, GrowthPlan(2, 2, "guarded-zero", 3))
        assert report.block_init["mid_bottom"] == "zero"
        assert report.block_init["down_new"] == "zero"
        assert report.block_init["up_new"] == "random"
        assert report.block_init["mid_right"] == "random"
        assert report.block_init["mid_corner"] == "random"

    def test_hierarchy_guard(self):
        # d < m < a binds a fresh ladder only; growth takes any widths
        params = init_params(BASE, seed=1)
        past = GrowthPlan(10, 0, "guarded-zero", 3)  # m 22 > a 16
        _, cfg, report = grow_model(params, BASE, past, probe=probe_batch())
        assert (cfg.ladder_m, cfg.ladder_a) == (22, 16)
        assert report.max_output_deviation == 0.0
        assert list(report.block_init) == [
            "up_new", "mid_right", "mid_bottom", "mid_corner", "down_new"
        ]
        with pytest.raises(ValidationError, match="stage 2 width 16 < stage 1 width 22"):
            init_params(cfg, seed=1)


class TestGrowProjections:
    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 6), st.integers(0, 6), st.integers(0, 2**32 - 1))
    def test_strict_zero_moments_keep_old_block(self, dm, da, seed):
        assume(dm + da > 0)
        moments = {k: np.abs(p) + 1.0 for k, p in init_params(BASE, seed=seed).items()}
        new_config = BASE.grown(dm, da)
        grown = embed(moments, new_config)
        proj_keys = set(projection_keys(BASE))
        assert list(grown) == list(moments)
        for key, old in moments.items():
            new = grown[key]
            if key not in proj_keys:
                assert np.array_equal(new, old) and new is not old
                continue
            rows, cols = old.shape
            assert np.array_equal(new[:rows, :cols], old)
            assert np.count_nonzero(new) == old.size
        for _, _, block in new_block_slices(grown, new_config, dm, da):
            assert not block.any()


class TestPreservation:
    @pytest.mark.parametrize("policy", ["strict-zero", "guarded-zero"])
    def test_zero_policies_exact(self, policy):
        params = init_params(BASE, seed=4)
        plan = GrowthPlan(5, 7, policy, seed=5)
        new_params, new_config, _ = grow_model(params, BASE, plan)
        dev = verify_function_preservation(params, BASE, new_params, new_config, probe_batch())
        assert dev == 0.0

    def test_noise_growth_perturbs(self):
        params = init_params(BASE, seed=4)
        plan = GrowthPlan(5, 7, "noise:0.1", seed=5)
        new_params, new_config, _ = grow_model(params, BASE, plan)
        dev = verify_function_preservation(params, BASE, new_params, new_config, probe_batch())
        assert dev > 0.0

    @settings(max_examples=100, deadline=None)
    @given(
        st.integers(1, 3),  # n_heads
        st.integers(1, 4),  # head width
        st.integers(1, 3),  # n_layers
        st.integers(1, 16),  # ffn_size
        st.integers(1, 4),  # m - d
        st.integers(1, 4),  # a - m
        st.integers(0, 10),  # delta_m: up to 6 past a
        st.integers(0, 4),  # delta_a
        st.integers(0, 2**32 - 1),
    )
    def test_block_form_preservation_over_shapes(
        self, n_heads, head_dim, n_layers, ffn_size, dm_gap, da_gap, delta_m, delta_a, seed
    ):
        """On BLAS, with only the grown ladder's products split at the base
        widths: zero policies give exactly 0.0 at every shape, single-axis
        growth and m grown past a included, from perturbed base weights."""
        d = n_heads * head_dim
        # a width-1 layer norm outputs its bias whatever its input, so noise
        # could change nothing
        assume(delta_m + delta_a > 0 and d > 1)
        config = ModelConfig(
            vocab_size=11, context_len=6, hidden_size=d, n_heads=n_heads, n_layers=n_layers,
            ladder_m=d + dm_gap, ladder_a=d + dm_gap + da_gap, ffn_size=ffn_size,
        )
        gen = np.random.default_rng(seed)
        params = {
            k: p + gen.normal(scale=0.3, size=p.shape)
            for k, p in init_params(config, seed % 1000).items()
        }
        probe = [seeded_ints(RngState(seed + i), 6, 11) for i in range(2)]
        for policy in ("strict-zero", "guarded-zero", "noise:0.2"):
            plan = GrowthPlan(delta_m, delta_a, policy, seed=seed)
            grown, grown_config, _ = grow_model(params, config, plan)
            dev = verify_function_preservation(params, config, grown, grown_config, probe)
            assert dev == 0.0 if plan.preserves_function else dev > 0.0, policy

    def test_composability(self):
        params = init_params(BASE, seed=6)
        p1, c1, _ = grow_model(params, BASE, GrowthPlan(2, 3, "strict-zero", 7))
        p2, c2, _ = grow_model(p1, c1, GrowthPlan(3, 2, "strict-zero", 8))
        assert (c2.ladder_m, c2.ladder_a) == (12 + 5, 16 + 5)
        assert verify_function_preservation(params, BASE, p2, c2, probe_batch()) == 0.0

    def test_vocab_mismatch(self):
        params = init_params(BASE, seed=4)
        other = ModelConfig(16, 12, 8, 2, 2, 12, 16, 16)
        other_params = init_params(other, seed=4)
        with pytest.raises(ValidationError, match="vocab"):
            verify_function_preservation(params, BASE, other_params, other, probe_batch(vocab=16))

    def test_exact_mode_logits_digest_pinned(self):
        """Any change to a bit of exact-mode arithmetic fails here, by name."""
        params = init_params(TOY_CONFIG, seed=5)
        grown, grown_config, _ = grow_model(
            params, TOY_CONFIG, GrowthPlan(32, 32, "noise:0.2", seed=6)
        )
        experiment = ExperimentConfig(
            model=TOY_CONFIG,
            optimizer=OptimizerConfig(lr=1e-3),
            schedule=ScheduleConfig(steps=10, warmup=0, snapshot_every=10),
            corpus=CorpusConfig(generator="markov-k2", seed=5, length=4096),
        )
        (window,) = heldout_sequences(experiment, count=1)
        with exact_arithmetic():
            logits, _ = model_forward(grown_config, grown, window)
        assert hashlib.sha256(logits.tobytes()).hexdigest() == EXACT_LOGITS_SHA256

    def test_gate(self):
        plan = GrowthPlan(1, 1, "strict-zero", seed=0)
        require_exact_preservation(0.0, plan)
        with pytest.raises(NumericError):
            require_exact_preservation(1e-16, plan)
        require_exact_preservation(0.5, GrowthPlan(1, 1, "noise:0.1", seed=0))


class TestSaddleDiagnostic:
    def test_strict_zero_all_new_gradients_exactly_zero(self):
        params = init_params(BASE, seed=8)
        plan = GrowthPlan(4, 5, "strict-zero", seed=9)
        new_params, new_config, _ = grow_model(params, BASE, plan)
        norms = new_block_gradient_report(new_params, new_config, plan, probe_batch()[0])
        assert set(norms) == {"up_new", "mid_right", "mid_bottom", "mid_corner", "down_new"}
        for name, value in norms.items():
            assert value == 0.0, name

    def test_guarded_zero_escapes_saddle(self):
        params = init_params(BASE, seed=8)
        plan = GrowthPlan(4, 5, "guarded-zero", seed=9)
        new_params, new_config, _ = grow_model(params, BASE, plan)
        norms = new_block_gradient_report(new_params, new_config, plan, probe_batch()[0])
        assert norms["down_new"] > 1e-8
        assert norms["mid_bottom"] > 1e-8

    def test_guarded_zero_new_block_gradients_match_finite_differences(self):
        config = ModelConfig(
            vocab_size=16, context_len=8, hidden_size=4, n_heads=2, n_layers=1,
            ladder_m=6, ladder_a=8, ffn_size=8,
        )
        dm, da = 2, 3
        params = init_params(config, seed=12)
        new_params, new_config, _ = grow_model(params, config, GrowthPlan(dm, da, "guarded-zero", 13))
        batch = probe_batch(count=1, seed=14, n=8, vocab=16)[0]
        _, grads = model_loss_and_grads(new_config, new_params, batch)
        p = "blocks.0.attn.q."
        m0, a0 = config.ladder_m, config.ladder_a
        for key, rows, cols in (("w_mid", slice(m0, None), slice(None, a0)),  # mid_bottom
                                ("w_down", slice(a0, None), slice(None))):  # down_new
            full = new_params[p + key]

            def loss(block, key=key, rows=rows, cols=cols, full=full):
                trial = dict(new_params)
                trial[p + key] = full.copy()
                trial[p + key][rows, cols] = block
                return model_forward(new_config, trial, batch)[1]

            assert not full[rows, cols].any()
            analytic = grads[p + key][rows, cols]
            fd = finite_diff_grad(loss, full[rows, cols])
            assert np.all(analytic != 0.0), key
            assert np.abs(analytic - fd).max() < 1e-5 * np.abs(fd).max(), key

    def test_noise_growth_all_gradients_flow(self):
        params = init_params(BASE, seed=8)
        plan = GrowthPlan(4, 5, "noise:0.1", seed=9)
        new_params, new_config, _ = grow_model(params, BASE, plan)
        norms = new_block_gradient_report(new_params, new_config, plan, probe_batch()[0])
        for name, value in norms.items():
            assert value > 0.0, name

    def test_block_slices_cover_new_area(self):
        params = init_params(BASE, seed=8)
        plan = GrowthPlan(4, 5, "strict-zero", seed=9)
        new_params, new_config, _ = grow_model(params, BASE, plan)
        new_count = sum(
            b.size for _, _, b in new_block_slices(new_params, new_config, 4, 5)
        )
        d, m0, a0 = BASE.hidden_size, BASE.ladder_m, BASE.ladder_a
        per_proj = d * 4 + (m0 * 5 + 4 * a0 + 4 * 5) + 5 * d
        assert new_count == per_proj * 3 * BASE.n_layers


class TestReportWithProbe:
    def test_report_filled(self):
        params = init_params(BASE, seed=10)
        plan = GrowthPlan(3, 3, "strict-zero", seed=11)
        _, _, report = grow_model(params, BASE, plan, probe=probe_batch())
        assert report.max_output_deviation == 0.0
        assert report.new_block_grad_norms is not None
        blob = asdict(report)
        assert blob["init_policy"] == "strict-zero"
        assert blob["new_block_grad_norms"]["down_new"] == 0.0

    def test_zero_policy_gate_inside_grow_model(self, monkeypatch):
        monkeypatch.setattr(growth, "verify_function_preservation", lambda *args: 1e-16)
        params = init_params(BASE, seed=10)
        with pytest.raises(NumericError, match="guarded-zero"):
            grow_model(params, BASE, GrowthPlan(3, 3, "guarded-zero", 11), probe=probe_batch())
        noise = GrowthPlan(3, 3, "noise:0.1", 11)
        _, _, report = grow_model(params, BASE, noise, probe=probe_batch())
        assert report.max_output_deviation == 1e-16

    @pytest.mark.parametrize("policy", ["strict-zero", "guarded-zero", "noise:0.5"])
    def test_empty_probe_is_refused(self, policy):
        # an empty probe must not skip the exact-preservation gate
        params = init_params(BASE, seed=10)
        with pytest.raises(ValidationError, match="probe must be non-empty"):
            grow_model(params, BASE, GrowthPlan(3, 3, policy, 11), probe=[])


class TestZeroPolicyProperties:
    """The paper's invariant at random toy widths, grown widths that break
    d < m < a included. Head widths start at 2: a width-1 LayerNorm
    outputs only its bias, so every gradient is 0."""

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(1, 3),
        st.integers(2, 4),
        st.integers(1, 8),
        st.integers(1, 8),
        st.integers(0, 5),
        st.integers(0, 5),
        st.integers(0, 2**32 - 1),
        st.sampled_from(["strict-zero", "guarded-zero"]),
    )
    def test_exact_preservation_and_new_block_gradients(
        self, heads, head_dim, m_gap, a_gap, dm, da, seed, policy
    ):
        assume(dm + da > 0)
        d = heads * head_dim
        config = ModelConfig(
            vocab_size=16, context_len=8, hidden_size=d, n_heads=heads, n_layers=1,
            ladder_m=d + m_gap, ladder_a=d + m_gap + a_gap, ffn_size=8,
        )
        params = init_params(config, seed=seed)
        plan = GrowthPlan(dm, da, policy, seed=seed)
        probe = probe_batch(count=2, seed=seed, n=8, vocab=16)
        _, _, report = grow_model(params, config, plan, probe=probe)
        assert report.max_output_deviation == 0.0
        norms = report.new_block_grad_norms
        if policy == "strict-zero":
            assert all(value == 0.0 for value in norms.values()), norms
        else:
            assert (norms["down_new"] > 0.0) == (da > 0), norms
            assert (norms["mid_bottom"] > 0.0) == (dm > 0), norms
