"""Growth-experiment orchestration and report emission.

``run_growth_experiment`` replays the production protocol at desk scale:
grow a pretrained base with one or more plans, verify preservation (a
hard gate for the zero policies), continue training with snapshots at a
fixed cadence, measure each snapshot's alignment against the frozen
base, and run the trajectory-geometry and time-series analyses over the
series. ``ablate_axes``, the paper's axis ablation, is four guarded-zero
plans of ``run_growth_experiment`` at cadence = budget, each row read
from its series' last snapshot.

``train`` hands each snapshot over as it is made, and the experiment
measures its (u_p, noc) there (``alignment.snapshot_alignment``), so no
snapshot's parameters or Adam moments outlive its measurement. What the
series analysis reads of a snapshot is its (tokens, u_p, noc) and the
held-out loss ``train`` logged for it.

A series needs at least 2 checkpoints. PCA and the trajectory need 3
states that are not all equal; a shorter or flat series still yields
every alignment snapshot, but its trajectory is empty and its fits carry
a ``pca`` block flagged degenerate, as the series fits already are.

All emitted files are byte-stable for fixed inputs: floats are written
in shortest round-trip form and JSON keys are sorted.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, replace
from pathlib import Path

import numpy as np

from .alignment import AlignmentSnapshot, perf_gain, percent_shift, snapshot_alignment
from .checkpoint import Checkpoint
from .errors import ValidationError
from .growth import GrowthPlan, GrowthReport, grow_model
from .model import ModelConfig
from .rng import CONTINUED_OFFSET, StreamTag, derive_seed
from .seriesstats import fisher_g_test, harmonic_fit, scaling_law_fit
from .trajectory import TrajectoryPoint, pca_fit, trajectory_series
from .training import (
    ExperimentConfig,
    checkpoint_experiment,
    heldout_sequences,
    start_checkpoint,
    train,
)


@dataclass
class ExperimentSeries:
    label: str
    growth_report: GrowthReport
    snapshots: list[AlignmentSnapshot]
    trajectory: list[TrajectoryPoint]
    fits: dict


def plan_label(plan: GrowthPlan) -> str:
    kind = plan.policy_kind
    if kind == "noise":
        kind = f"noise{plan.noise_fraction:g}"
    return f"{kind}-dm{plan.delta_m}-da{plan.delta_a}"


def continued_config(
    base_config: ExperimentConfig, model: ModelConfig, seed: int, budget: int, cadence: int
) -> ExperimentConfig:
    """Continued-training configuration of the grown ``model`` under run
    ``seed``, on a disjoint sample stream of the same language."""
    corpus = replace(base_config.corpus, stream=base_config.corpus.stream + CONTINUED_OFFSET)
    schedule = replace(base_config.schedule, steps=budget, snapshot_every=cadence)
    return replace(
        base_config, model=model, seed=seed, corpus=corpus, schedule=schedule, growth=None
    )


def _fit_block(fn, *args) -> dict:
    """``fn(*args)`` as a fits block: its fields beside ``"degenerate": False``,
    or ``{"degenerate": True, "reason": ...}`` when the series cannot support it."""
    try:
        return {"degenerate": False, **asdict(fn(*args))}
    except ValidationError as exc:
        return {"degenerate": True, "reason": str(exc)}


def analyze_snapshot_series(
    weights: list[tuple[int, float, float]], losses: list[float]
) -> tuple[list[AlignmentSnapshot], list[TrajectoryPoint], dict]:
    """Alignment snapshots, trajectory geometry, and the three series fits.

    ``weights`` holds each snapshot's (tokens, u_p, noc) in step order, as
    ``snapshot_alignment`` measured it; ``losses`` holds the held-out loss
    of each, in the same order (``train`` logs them as
    ``LogRow.heldout_loss``). Every shift is measured against the first
    snapshot, whose shifts are therefore all zero.

    At least 2 snapshots are required. PCA and the trajectory need 3
    states with nonzero variance; otherwise the trajectory is empty and
    ``fits["pca"]`` is ``{"degenerate": True, "reason": ...}`` in place of
    ``pca_variance_ratios`` and ``pca_loadings``.
    """
    if len(weights) < 2:
        raise ValidationError("need at least 2 checkpoints to analyze a series")
    if len(losses) != len(weights):
        raise ValidationError(f"got {len(losses)} held-out losses for {len(weights)} checkpoints")
    (_, u_p0, noc0), loss0 = weights[0], losses[0]
    snapshots = [
        AlignmentSnapshot(
            tokens, u_p, noc_val, loss, up_pct=percent_shift(u_p, u_p0),
            noc_pct=percent_shift(noc_val, noc0), perf_pct=perf_gain(-loss, -loss0),
        )
        for (tokens, u_p, noc_val), loss in zip(weights, losses, strict=True)
    ]

    states = np.array([s.state_vector for s in snapshots])
    try:
        model = pca_fit(states)
    except ValidationError as exc:
        trajectory = []
        pca = {"pca": {"degenerate": True, "reason": str(exc)}}
    else:
        trajectory = trajectory_series(model, states)
        pca = {
            "pca_variance_ratios": [float(x) for x in model.variance_ratios],
            "pca_loadings": [[float(x) for x in model.eigenvectors[:, j]] for j in range(2)],
        }
    times_kilo = [s.tokens / 1000.0 for s in snapshots]
    r_values = [s.r for s in snapshots]
    fits = {
        "harmonic": _fit_block(harmonic_fit, times_kilo, r_values),
        "fisher_g": _fit_block(fisher_g_test, r_values),
        "scaling_law": _fit_block(scaling_law_fit, [(s.r, s.ppl) for s in snapshots]),
        **pca,
    }
    return snapshots, trajectory, fits


def run_growth_experiment(
    base_ckpt: Checkpoint,
    plans: list[GrowthPlan],
    budget: int,
    cadence: int,
) -> dict[str, ExperimentSeries]:
    """Grow/verify/continue/analyze once per plan. The result is keyed by
    ``plan_label``, which leaves out the plan's seed, so plans that share
    a label are refused before any of them runs, as is a budget below one
    step."""
    if budget < 1:
        raise ValidationError("budget must be at least one step")
    labels = [plan_label(plan) for plan in plans]
    repeated = sorted({label for label in labels if labels.count(label) > 1})
    if repeated:
        raise ValidationError(f"plans share the series label {', '.join(repeated)}")
    base_exp = checkpoint_experiment(base_ckpt)
    heldout = heldout_sequences(base_exp)
    out: dict[str, ExperimentSeries] = {}
    for label, plan in zip(labels, plans):
        # the continued config first, so a bad one fails before any growth
        cont = continued_config(
            base_exp, base_ckpt.model_config.grown(plan.delta_m, plan.delta_a),
            derive_seed(base_exp.seed, StreamTag.CONTINUED_RUN, plan.seed), budget, cadence,
        )
        new_params, new_config, report = grow_model(
            base_ckpt.params, base_ckpt.model_config, plan, probe=heldout
        )
        assert new_config == cont.model, (new_config, cont.model)
        weights = []

        def measure(ck: Checkpoint) -> None:
            u_p, noc_val = snapshot_alignment(
                base_ckpt.params, base_ckpt.model_config, ck.params, ck.model_config
            )
            weights.append((ck.tokens, u_p, noc_val))

        log = train(cont, resume=start_checkpoint(cont, new_params), on_snapshot=measure).log
        snapshots, trajectory, fits = analyze_snapshot_series(
            weights, [row.heldout_loss for row in log]
        )
        out[label] = ExperimentSeries(
            label=label,
            growth_report=report,
            snapshots=snapshots,
            trajectory=trajectory,
            fits=fits,
        )
    return out


def _axis_order_label(d: int, m: int, a: int) -> str:
    dims = sorted((("D", d), ("M", m), ("A", a)), key=lambda kv: -kv[1])
    parts = [dims[0][0]]
    for (_, prev), (name, val) in zip(dims, dims[1:]):
        parts.append(("=" if val == prev else ">") + name)
    return "".join(parts)


def ablate_axes(base_ckpt: Checkpoint, budget: int, delta_total: int | None = None) -> list[dict]:
    """Four matched-budget growth settings: single-axis M, single-axis A,
    and both axes with either axis dominant. Each is a guarded-zero plan
    of ``run_growth_experiment`` at cadence = budget (only the endpoint
    matters here) and reports its final held-out perplexity."""
    base_exp = checkpoint_experiment(base_ckpt)
    config = base_ckpt.model_config
    if delta_total is not None and delta_total < 3:
        # below 3 the two M+A rows coincide (2) or are single-axis growths (1)
        raise ValidationError(f"delta_total must be at least 3, got {delta_total}")
    s = delta_total if delta_total is not None else max(8, config.ladder_m // 2)
    minor = max(1, round(s / 8))
    settings = [
        ("M", s, 0),
        ("A", 0, s),
        ("M+A", s - minor, minor),
        ("M+A", minor, s - minor),
    ]
    plans = [
        GrowthPlan(dm, da, "guarded-zero", derive_seed(base_exp.seed, StreamTag.ABLATION_PLAN, dm, da))
        for _, dm, da in settings
    ]
    series = run_growth_experiment(base_ckpt, plans, budget, budget)
    rows = []
    for (axis, dm, da), plan in zip(settings, plans):
        m, a = config.ladder_m + dm, config.ladder_a + da
        rows.append(
            {
                "axis": axis,
                "order": _axis_order_label(config.hidden_size, m, a),
                "m": m,
                "a": a,
                "ppl": series[plan_label(plan)].snapshots[-1].ppl,
            }
        )
    return rows


def _fmt(x) -> str:
    if isinstance(x, float):
        return repr(x)
    return str(x)


SNAPSHOT_COLUMNS = "tokens,u_p,noc,up_pct,noc_pct,perf_pct,r,loss,ppl,r_g,r_e"


def snapshot_rows(
    snapshots: list[AlignmentSnapshot], trajectory: list[TrajectoryPoint]
) -> list[list[str]]:
    """One row of cells per snapshot, in ``SNAPSHOT_COLUMNS`` order. A
    degenerate (empty) trajectory leaves the r_g and r_e cells empty."""
    points = trajectory or [None] * len(snapshots)
    rows = []
    for snap, tp in zip(snapshots, points, strict=True):
        rows.append(
            [
                str(snap.tokens),
                _fmt(snap.u_p),
                _fmt(snap.noc),
                _fmt(snap.up_pct),
                _fmt(snap.noc_pct),
                _fmt(snap.perf_pct),
                _fmt(snap.r),
                _fmt(snap.loss),
                _fmt(snap.ppl),
                "" if tp is None else _fmt(tp.r_g),
                "" if tp is None else _fmt(tp.r_e),
            ]
        )
    return rows


def metrics_rows(series_by_label: dict[str, ExperimentSeries]) -> list[str]:
    lines = ["path," + SNAPSHOT_COLUMNS]
    for label in sorted(series_by_label):
        s = series_by_label[label]
        for cells in snapshot_rows(s.snapshots, s.trajectory):
            lines.append(",".join([label] + cells))
    return lines


def emit_reports(series_by_label: dict[str, ExperimentSeries], out_dir) -> list[Path]:
    """Write metrics.csv, per-plan trajectory.csv/fits.json, the growth
    report, and a combined summary. Returns the written paths."""
    if not series_by_label:
        raise ValidationError("no series to emit")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written = []

    metrics_path = out / "metrics.csv"
    metrics_path.write_text("\n".join(metrics_rows(series_by_label)) + "\n", encoding="utf-8")
    written.append(metrics_path)

    growth_blob = {label: asdict(s.growth_report) for label, s in series_by_label.items()}
    growth_path = out / "growth_report.json"
    growth_path.write_text(
        json.dumps(growth_blob, sort_keys=True, indent=2) + "\n", encoding="utf-8"
    )
    written.append(growth_path)

    combined_pairs = []
    for label in sorted(series_by_label):
        s = series_by_label[label]
        plan_dir = out / label
        plan_dir.mkdir(exist_ok=True)
        traj_lines = ["t,pc1,pc2,r_g,r_e"]
        for snap, tp in zip(s.snapshots, s.trajectory):
            traj_lines.append(
                ",".join(
                    [str(snap.tokens), _fmt(float(tp.z[0])), _fmt(float(tp.z[1])),
                     _fmt(tp.r_g), _fmt(tp.r_e)]
                )
            )
        tpath = plan_dir / "trajectory.csv"
        tpath.write_text("\n".join(traj_lines) + "\n", encoding="utf-8")
        written.append(tpath)
        fpath = plan_dir / "fits.json"
        fpath.write_text(json.dumps(s.fits, sort_keys=True, indent=2) + "\n", encoding="utf-8")
        written.append(fpath)
        combined_pairs.extend((snap.r, snap.ppl) for snap in s.snapshots)

    summary = {
        "plans": sorted(series_by_label),
        "combined_scaling_law": _fit_block(scaling_law_fit, combined_pairs),
        "final_loss_by_plan": {
            label: series_by_label[label].snapshots[-1].loss
            for label in sorted(series_by_label)
        },
    }
    spath = out / "summary.json"
    spath.write_text(json.dumps(summary, sort_keys=True, indent=2) + "\n", encoding="utf-8")
    written.append(spath)
    return written
