import pytest

from growformer import ladder, model
from growformer.flops import (
    breakdown_csv_rows,
    model_flops,
    nexus_proj_flops,
    standard_proj_flops,
)
from growformer.model import ModelConfig, init_params, model_forward
from growformer.rng import RngState, seeded_ints

from refdata import MEASURED, baseline_model_config, ladder_model_config


class TestProjFlops:
    def test_production_dims(self):
        assert nexus_proj_flops(768, 780, 960) == 4_170_240

    def test_unit_dims(self):
        assert nexus_proj_flops(1, 1, 1) == 6
        assert standard_proj_flops(1) == 2

    def test_standard_768(self):
        assert standard_proj_flops(768) == 1_179_648

    def test_overhead_ratio(self):
        ratio = nexus_proj_flops(768, 780, 960) / standard_proj_flops(768)
        assert abs(ratio - 3.535) < 0.01


class TestModelFlops:
    def test_hand_countable_minimum(self):
        cfg = ModelConfig(
            vocab_size=2, context_len=1, hidden_size=1, n_heads=1, n_layers=1,
            ladder_m=1, ladder_a=1, ffn_size=1,
        )
        b = model_flops(cfg, seq_len=1)
        assert b.qkv_projections == 18  # 3 projections x 2(1+1+1)
        assert b.attention_scores == 2 and b.attention_aggregate == 2
        assert b.output_projection == 2
        assert b.ffn == 4
        assert b.lm_head == 4
        assert b.total == 32

    def test_linear_in_layers(self):
        cfg = ladder_model_config("240M")
        one = model_flops(cfg, seq_len=64)
        import dataclasses

        doubled = dataclasses.replace(cfg, n_layers=cfg.n_layers * 2)
        two = model_flops(doubled, seq_len=64)
        assert two.total - two.lm_head == 2 * (one.total - one.lm_head)

    def test_total_is_sum(self):
        b = model_flops(ladder_model_config("300M"))
        parts = (
            b.qkv_projections + b.attention_scores + b.attention_aggregate
            + b.output_projection + b.ffn + b.lm_head
        )
        assert b.total == parts

    def test_counted_matmuls_match_analytic(self, monkeypatch):
        # count 2*m*k*n for every product a real forward pass performs;
        # per sequence, each module's count must equal seq_len times its
        # share of the per-token analytic model
        cfg = ModelConfig(
            vocab_size=16, context_len=8, hidden_size=8, n_heads=2, n_layers=2,
            ladder_m=12, ladder_a=16, ffn_size=16,
        )
        params = init_params(cfg, seed=0)
        ids = seeded_ints(RngState(1), 8, 16)
        counted = {"ladder": 0, "model": 0}

        def counting(name, real):
            def matmul(a, b):
                counted[name] += 2 * a.shape[0] * a.shape[1] * b.shape[1]
                return real(a, b)

            return matmul

        monkeypatch.setattr(ladder, "matmul", counting("ladder", ladder.matmul))
        monkeypatch.setattr(model, "matmul", counting("model", model.matmul))
        model_forward(cfg, params, ids)
        n = len(ids)
        analytic = model_flops(cfg, seq_len=n)
        assert counted["ladder"] == n * (
            analytic.qkv_projections + analytic.attention_scores + analytic.attention_aggregate
        )
        assert counted["model"] == n * (
            analytic.output_projection + analytic.ffn + analytic.lm_head
        )


class TestMeasuredAnchors:
    @pytest.mark.parametrize("size", ["240M", "300M", "380M", "440M"])
    def test_ladder_estimates_within_20pct(self, size):
        est = model_flops(ladder_model_config(size)).total
        ref = MEASURED[("ladder", size)]["flops"]
        assert abs(est / ref - 1.0) < 0.20

    @pytest.mark.parametrize("size", ["300M", "380M", "440M"])
    def test_ordering_ladder_below_baseline(self, size):
        ladder = model_flops(ladder_model_config(size)).total
        base = model_flops(baseline_model_config(size), projection="standard").total
        measured_ladder = MEASURED[("ladder", size)]["flops"]
        measured_base = MEASURED[("baseline", size)]["flops"]
        assert (ladder < base) == (measured_ladder < measured_base)
        assert ladder < base

    @pytest.mark.parametrize("kind,size", list(MEASURED))
    def test_efficiency_ratio_reproduces_measured_column(self, kind, size):
        row = MEASURED[(kind, size)]
        ratio = row["ppl"] / row["flops"]
        # agree with the recorded ratio to 3 significant figures
        def sig3(x):
            from math import floor, log10

            return round(x, -int(floor(log10(abs(x)))) + 2)

        assert sig3(ratio) == sig3(row["ppl_per_flop"])


class TestCsvEmission:
    def test_rows_and_ratio(self):
        cfg = ladder_model_config("240M")
        lines = breakdown_csv_rows("ladder-240m", cfg)
        assert len(lines) == 2
        assert lines[0].startswith("config_name,qkv_projections,")
        cells = lines[1].split(",")
        assert cells[0] == "ladder-240m"
        total = int(cells[7])
        assert total == model_flops(cfg).total
        ratio = float(cells[8])
        assert ratio > 1.0  # staged projections cost more than plain ones
