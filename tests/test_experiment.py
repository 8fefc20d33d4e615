import hashlib
import json
import math
import tracemalloc

import pytest

from growformer import cli, experiment
from growformer.checkpoint import save_checkpoint
from growformer.errors import ValidationError
from growformer.experiment import (
    analyze_snapshot_series,
    ablate_axes,
    continued_config,
    emit_reports,
    plan_label,
    run_growth_experiment,
)
from growformer.growth import GrowthPlan
from growformer.model import ModelConfig, heldout_loss, init_params
from growformer.rng import CONTINUED_OFFSET, HELDOUT_STREAM
from growformer.seriesstats import fisher_g_test, harmonic_fit, scaling_law_fit
from growformer.training import (
    CorpusConfig,
    ExperimentConfig,
    OptimizerConfig,
    ScheduleConfig,
    heldout_sequences,
    train,
)

from refdata import AXIS_ABLATION_ROWS

MODEL = ModelConfig(
    vocab_size=64, context_len=32, hidden_size=16, n_heads=2, n_layers=1,
    ladder_m=20, ladder_a=24, ffn_size=16,
)


def pretrained_base(steps=60, seed=3, stream=0):
    config = ExperimentConfig(
        model=MODEL,
        optimizer=OptimizerConfig(lr=3e-3),
        schedule=ScheduleConfig(steps=steps, warmup=10, snapshot_every=steps),
        corpus=CorpusConfig(generator="markov-k2", seed=seed, length=8000, stream=stream),
        seed=seed,
    )
    return train(config).final


# sha256 of the files test_emitted_bytes_digest_pinned writes, recorded
# once the harmonic block of each fits.json lost its uncalibrated F-test
# (f_stat, p_value, dof); every other key and every other file kept its bytes.
# Re-recorded when indexed streams came to derive in two levels, and when
# exact mode came to cover only the ladder's products: of every emitted byte
# only the noise:0.2 max_output_deviation in growth_report.json moved, from
# 0.015891508591327708 to 0.015891508591327597. Re-recorded when the
# preservation check moved to the ladder's block form on BLAS: again only
# that deviation moved, from 0.015891508591327597 to 0.015891508591327486.
EMITTED_BYTES_SHA256 = "598c4bec74c6dff2ce934feac6210b8c98fa5ff09f40712f2f0b4036fe21b88d"


class TestPlanLabel:
    def test_labels(self):
        assert plan_label(GrowthPlan(2, 3, "strict-zero", 0)) == "strict-zero-dm2-da3"
        assert plan_label(GrowthPlan(1, 1, "noise:0.1", 0)) == "noise0.1-dm1-da1"


class TestRunGrowthExperiment:
    def test_three_policy_series(self):
        base = pretrained_base()
        plans = [
            GrowthPlan(4, 6, "strict-zero", seed=11),
            GrowthPlan(4, 6, "noise:0.1", seed=11),
        ]
        series = run_growth_experiment(base, plans, budget=40, cadence=10)
        assert len(series) == 2
        for label, s in series.items():
            assert len(s.snapshots) == 5  # 0, 10, 20, 30, 40
            assert s.snapshots[0].r == 0.0
            assert s.snapshots[0].tokens == 0
            assert all(b.tokens == i * 10 * 32 for i, b in enumerate(s.snapshots))
            for snap in s.snapshots:
                assert abs(snap.r - math.hypot(snap.up_pct, snap.noc_pct)) < 1e-12
        strict = series["strict-zero-dm4-da6"]
        assert strict.growth_report.max_output_deviation == 0.0
        noisy = series["noise0.1-dm4-da6"]
        assert noisy.growth_report.max_output_deviation > 0.0

    def test_single_snapshot_pair(self):
        base = pretrained_base()
        series = run_growth_experiment(
            base, [GrowthPlan(2, 2, "guarded-zero", seed=5)], budget=20, cadence=20
        )
        s = next(iter(series.values()))
        assert len(s.snapshots) == 2
        assert s.snapshots[1].r >= 0.0
        assert s.fits["pca"]["degenerate"] is True
        assert "got 2" in s.fits["pca"]["reason"]
        assert s.trajectory == []

    def test_continuing_onto_the_heldout_stream_rejected(self, monkeypatch):
        base = pretrained_base(steps=2, stream=HELDOUT_STREAM - CONTINUED_OFFSET)

        def grow_model(*args, **kwargs):
            pytest.fail("grew the model before refusing its continued config")

        monkeypatch.setattr(experiment, "grow_model", grow_model)
        with pytest.raises(ValidationError, match="held-out stream"):
            run_growth_experiment(
                base, [GrowthPlan(2, 2, "guarded-zero", seed=5)], budget=2, cadence=2
            )


    @pytest.mark.parametrize("plans", [
        [GrowthPlan(4, 4, "guarded-zero", seed=1), GrowthPlan(4, 4, "guarded-zero", seed=2)],
        [GrowthPlan(2, 2, "noise:0.1", seed=5), GrowthPlan(2, 2, "noise:0.10", seed=5)],
    ])
    def test_plans_sharing_a_label_rejected_before_growth(self, plans, monkeypatch):
        base = pretrained_base(steps=2)

        def grow_model(*args, **kwargs):
            pytest.fail("grew the model before refusing plans that share a label")

        monkeypatch.setattr(experiment, "grow_model", grow_model)
        with pytest.raises(ValidationError, match=f"share the series label {plan_label(plans[0])}"):
            run_growth_experiment(base, plans, budget=2, cadence=2)


class TestSnapshotMemory:
    def test_each_snapshot_keeps_about_one_parameter_set(self):
        # A snapshot holds the parameters and both Adam moments; the analysis
        # reads only the parameters, so the experiment keeps only those. The
        # wide growth makes a snapshot's arrays outweigh the corpus tables.
        base = pretrained_base(steps=2)
        plan = GrowthPlan(90, 120, "guarded-zero", seed=5)
        set_bytes = sum(p.nbytes for p in init_params(MODEL.grown(90, 120), 0).values())
        run_growth_experiment(base, [plan], budget=8, cadence=8)  # lazy imports
        peaks = {}
        for cadence in (4, 1):  # 3 and 9 snapshots
            tracemalloc.start()
            try:
                run_growth_experiment(base, [plan], budget=8, cadence=cadence)
                _, peaks[cadence] = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
        # keeping whole snapshots grows the peak by ~3 sets per snapshot
        sets = (peaks[1] - peaks[4]) / (9 - 3) / set_bytes
        assert sets < 1.5, f"{sets:.2f} parameter sets per snapshot"


class TestHeldoutLossReuse:
    """The series reuses the held-out loss ``train`` logged for each
    checkpoint instead of scoring it again."""

    def test_snapshot_loss_is_checkpoint_heldout_loss(self, monkeypatch):
        base = pretrained_base()
        seen = []

        def spy(base_ckpt, series_ckpts, losses, **kwargs):
            seen.extend(series_ckpts)
            return analyze_snapshot_series(base_ckpt, series_ckpts, losses, **kwargs)

        monkeypatch.setattr(experiment, "analyze_snapshot_series", spy)
        series = run_growth_experiment(
            base, [GrowthPlan(2, 2, "guarded-zero", seed=5)], budget=20, cadence=10
        )
        (s,) = series.values()
        heldout = heldout_sequences(ExperimentConfig.from_dict(base.experiment))
        assert len(seen) == len(s.snapshots) == 3
        for ck, snap in zip(seen, s.snapshots):
            assert snap.loss == heldout_loss(ck.model_config, ck.params, heldout)

    def test_wrong_number_of_losses_rejected(self):
        base = pretrained_base(steps=10)
        with pytest.raises(ValidationError, match="2 checkpoints"):
            analyze_snapshot_series(base, [base, base], [1.0])
        with pytest.raises(ValidationError, match="3 held-out losses"):
            analyze_snapshot_series(base, [base, base], [1.0, 1.0, 1.0])


class TestDegenerateSeries:
    """Series that PCA cannot fit keep every snapshot and report a
    flagged ``pca`` block instead of raising."""

    def _pair_series(self):
        base = pretrained_base()
        return run_growth_experiment(
            base, [GrowthPlan(2, 2, "guarded-zero", seed=5)], budget=20, cadence=20
        )

    def test_flat_series_flags_zero_variance(self):
        base = pretrained_base()
        heldout = heldout_sequences(ExperimentConfig.from_dict(base.experiment))
        losses = [heldout_loss(base.model_config, base.params, heldout)] * 3
        snapshots, trajectory, fits = analyze_snapshot_series(
            base, [base, base, base], losses
        )
        assert len(snapshots) == 3
        assert trajectory == []
        assert fits["pca"]["degenerate"] is True
        assert "zero total variance" in fits["pca"]["reason"]
        assert "pca_variance_ratios" not in fits

    def test_emit_reports_keeps_every_row(self, tmp_path):
        emit_reports(self._pair_series(), tmp_path)
        metrics = (tmp_path / "metrics.csv").read_text().splitlines()
        rows = [line.split(",") for line in metrics[1:]]
        assert [row[0] for row in rows] == ["guarded-zero-dm2-da2"] * 2
        assert [row[1] for row in rows] == ["0", str(20 * 32)]
        for row in rows:
            assert len(row) == len(metrics[0].split(","))
            assert row[-2:] == ["", ""]  # r_g, r_e: no trajectory
        traj = (tmp_path / "guarded-zero-dm2-da2" / "trajectory.csv").read_text()
        assert traj == "t,pc1,pc2,r_g,r_e\n"
        fits = json.loads((tmp_path / "guarded-zero-dm2-da2" / "fits.json").read_text())
        assert fits["pca"]["degenerate"] is True
        assert fits["pca"]["reason"]
        assert "pca_variance_ratios" not in fits and "pca_loadings" not in fits

    def test_cli_analyze_two_checkpoints(self, tmp_path):
        config = ExperimentConfig(
            model=MODEL,
            optimizer=OptimizerConfig(lr=3e-3),
            schedule=ScheduleConfig(steps=20, warmup=10, snapshot_every=20),
            corpus=CorpusConfig(generator="markov-k2", seed=3, length=8000),
            seed=3,
        )
        result = train(config)
        series_dir = tmp_path / "series"
        series_dir.mkdir()
        for ck in result.checkpoints:
            save_checkpoint(ck, series_dir / f"step{ck.step:08d}.nxf")
        assert len(list(series_dir.glob("*.nxf"))) == 2
        save_checkpoint(result.checkpoints[0], tmp_path / "base.nxf")
        out = tmp_path / "out"
        code = cli.main(
            ["analyze", "--base", str(tmp_path / "base.nxf"),
             "--series", str(series_dir), "--out", str(out)]
        )
        assert code == 0
        lines = (out / "alignment.csv").read_text().splitlines()
        assert lines[0] == "tokens,u_p,noc,up_pct,noc_pct,perf_pct,r,loss,ppl,r_g,r_e"
        assert len(lines) == 3
        assert [line.split(",")[0] for line in lines[1:]] == ["0", str(20 * 32)]
        fits = json.loads((out / "fits.json").read_text())
        assert fits["pca"]["degenerate"] is True


class TestAblateAxes:
    def test_four_rows_schema_and_orders(self):
        # the recorded full-scale rows' keys, axes and width orders; an
        # order such as "M>A>D" also pins which of m and a is wider
        base = pretrained_base()
        rows = ablate_axes(base, budget=10, delta_total=8)
        assert [set(row) for row in rows] == [set(row) for row in AXIS_ABLATION_ROWS]
        for key in ("axis", "order"):
            assert [row[key] for row in rows] == [row[key] for row in AXIS_ABLATION_ROWS]
        assert all(row["ppl"] > 0 for row in rows)


class TestEmitReports:
    def _series(self):
        base = pretrained_base()
        return run_growth_experiment(
            base,
            [GrowthPlan(3, 4, "strict-zero", seed=2), GrowthPlan(3, 4, "noise:0.2", seed=2)],
            budget=40,
            cadence=10,
        )

    def test_files_and_schema(self, tmp_path):
        series = self._series()
        written = emit_reports(series, tmp_path)
        names = {p.relative_to(tmp_path).as_posix() for p in written}
        assert "metrics.csv" in names
        assert "growth_report.json" in names
        assert "summary.json" in names
        assert "strict-zero-dm3-da4/trajectory.csv" in names
        assert "strict-zero-dm3-da4/fits.json" in names

        metrics = (tmp_path / "metrics.csv").read_text().splitlines()
        assert metrics[0] == "path,tokens,u_p,noc,up_pct,noc_pct,perf_pct,r,loss,ppl,r_g,r_e"
        assert len(metrics) == 1 + 2 * 5
        row = metrics[1].split(",")
        assert row[0] == "noise0.2-dm3-da4"
        r = float(row[7])
        up_pct, noc_pct = float(row[4]), float(row[5])
        assert abs(r - math.hypot(up_pct, noc_pct)) < 1e-12

        traj = (tmp_path / "strict-zero-dm3-da4" / "trajectory.csv").read_text().splitlines()
        assert traj[0] == "t,pc1,pc2,r_g,r_e"
        assert len(traj) == 6

        fits = json.loads((tmp_path / "strict-zero-dm3-da4" / "fits.json").read_text())
        for key in ("harmonic", "fisher_g", "scaling_law"):
            assert key in fits
            assert "degenerate" in fits[key]

    def test_degenerate_fits_flagged_not_absent(self, tmp_path):
        base = pretrained_base()
        series = run_growth_experiment(
            base, [GrowthPlan(2, 2, "guarded-zero", seed=4)], budget=20, cadence=5
        )
        emit_reports(series, tmp_path)
        fits = json.loads(
            (tmp_path / "guarded-zero-dm2-da2" / "fits.json").read_text()
        )
        assert "harmonic" in fits and "fisher_g" in fits and "scaling_law" in fits
        assert isinstance(fits["fisher_g"]["degenerate"], bool)

    def test_byte_stable_across_reruns(self, tmp_path):
        a_dir = tmp_path / "a"
        b_dir = tmp_path / "b"
        emit_reports(self._series(), a_dir)
        emit_reports(self._series(), b_dir)
        for rel in ("metrics.csv", "growth_report.json", "summary.json",
                    "strict-zero-dm3-da4/trajectory.csv", "strict-zero-dm3-da4/fits.json"):
            assert (a_dir / rel).read_bytes() == (b_dir / rel).read_bytes(), rel

    def test_fits_json_is_the_fit_of_its_own_metrics_rows(self, tmp_path):
        # each plan's fits.json holds the seriesstats fits of that plan's
        # metrics.csv rows alone, and its bytes do not depend on the other plans
        def fit_block(fn, *args, **kwargs):
            try:
                return {"degenerate": False, **fn(*args, **kwargs).to_dict()}
            except ValidationError as exc:
                return {"degenerate": True, "reason": str(exc)}

        series = run_growth_experiment(
            pretrained_base(),
            [GrowthPlan(3, 4, "guarded-zero", seed=2), GrowthPlan(3, 4, "noise:0.2", seed=2)],
            budget=40,
            cadence=4,
        )
        emit_reports(series, tmp_path / "both")
        lines = (tmp_path / "both" / "metrics.csv").read_text().splitlines()
        header = lines[0].split(",")
        rows = [dict(zip(header, line.split(","))) for line in lines[1:]]
        fitted = 0
        for label in series:
            mine = [row for row in rows if row["path"] == label]
            tokens = [int(row["tokens"]) / 1000.0 for row in mine]
            r = [float(row["r"]) for row in mine]
            ppl = [float(row["ppl"]) for row in mine]
            want = {
                "harmonic": fit_block(harmonic_fit, tokens, r),
                "fisher_g": fit_block(fisher_g_test, r, detrend="linear"),
                "scaling_law": fit_block(scaling_law_fit, list(zip(r, ppl))),
            }
            fits_bytes = (tmp_path / "both" / label / "fits.json").read_bytes()
            fits = json.loads(fits_bytes)
            for key, block in want.items():
                assert json.dumps(fits[key], sort_keys=True) == json.dumps(block, sort_keys=True)
                fitted += not block["degenerate"]
            emit_reports({label: series[label]}, tmp_path / label)
            assert (tmp_path / label / label / "fits.json").read_bytes() == fits_bytes
        assert fitted == 6

    def test_empty_series_rejected(self, tmp_path):
        with pytest.raises(ValidationError):
            emit_reports({}, tmp_path)

    @pytest.fixture(scope="class")
    def emitted(self, tmp_path_factory):
        # a small base save plus a three-policy experiment
        root = tmp_path_factory.mktemp("emitted")
        base = pretrained_base(steps=20)
        save_checkpoint(base, root / "base.nxf")
        plans = [
            GrowthPlan(3, 4, "strict-zero", seed=2),
            GrowthPlan(3, 4, "guarded-zero", seed=2),
            GrowthPlan(3, 4, "noise:0.2", seed=2),
        ]
        emit_reports(run_growth_experiment(base, plans, budget=8, cadence=2), root / "out")
        return root

    def test_emitted_bytes_digest_pinned(self, emitted):
        # every file the experiment writes, hashed with its relative path;
        # a refactor that changes no arithmetic must leave this digest unchanged
        digest = hashlib.sha256()
        for path in sorted(p for p in emitted.rglob("*") if p.is_file()):
            digest.update(path.relative_to(emitted).as_posix().encode("utf-8") + b"\0")
            digest.update(path.read_bytes())
        assert digest.hexdigest() == EMITTED_BYTES_SHA256

    def test_reference_rows_are_at_distance_zero(self, emitted):
        # each series' first state is its own reference: r_g and r_e are 0.0
        out = emitted / "out"
        metrics = [line.split(",") for line in (out / "metrics.csv").read_text().splitlines()]
        firsts = {}
        for row in metrics[1:]:
            firsts.setdefault(row[0], row)
        assert len(firsts) == 3
        for label, row in firsts.items():
            assert row[-2:] == ["0.0", "0.0"], label
            traj = (out / label / "trajectory.csv").read_text().splitlines()
            assert traj[1].split(",")[-2:] == ["0.0", "0.0"], label

class TestContinuedConfig:
    def test_disjoint_stream_same_language(self):
        base = ExperimentConfig(
            model=MODEL,
            optimizer=OptimizerConfig(lr=3e-3),
            schedule=ScheduleConfig(steps=60, warmup=10, snapshot_every=60),
            corpus=CorpusConfig(generator="markov-k2", seed=9, length=8000),
            seed=9,
        )
        grown = MODEL.grown(2, 3)
        cont = continued_config(base, grown, 77, budget=30, cadence=10)
        assert cont.model == grown and cont.seed == 77
        assert cont.growth is None
        assert cont.corpus.seed == base.corpus.seed
        assert cont.corpus.stream == base.corpus.stream + CONTINUED_OFFSET
        assert cont.schedule.steps == 30 and cont.schedule.snapshot_every == 10
