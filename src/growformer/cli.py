"""Command-line surface.

Subcommands: train, grow, verify, analyze, flops, ablate. Exit codes: 0
success; 1 malformed or unreadable input (a bad argument, a config file
that does not parse or lacks a field, a config block with a key that is
not a field of its dataclass, a value of the wrong type, a NaN or
infinite optimizer value, a beta outside [0, 1), a negative schedule or
rewarm step count, a seed (``grow --seed`` included) or corpus stream
outside [0, 2**64), a corpus stream that is the held-out stream (for
``ablate``, also the continued stream two past the base's), a growth
trigger outside the schedule, a ``--resume`` checkpoint whose
widths the config does not imply at its step, an ``ablate
--delta-total`` below 3, a bad checkpoint such as one truncated, one
with a missing header key, a negative counter or a matrix listed twice,
or one whose matrices are missing, extra or misshapen for its model
config, a missing path or a directory), reported as one ``error:`` line
without a traceback; 2 numeric failure, such as a zero-policy ``grow``
whose probe deviation is not exactly 0.0.

``train`` writes each snapshot as soon as it is made and ``train_log.csv``
at the end, so a run that fails part-way (exit 1 or 2) leaves every
snapshot made before the failure, each resumable, and no log.

The series fits (harmonic cycle, Fisher's g, scaling law) have one home:
the ``fits.json`` that ``analyze`` writes, as ``experiment.emit_reports``
does for each plan.

Only a fresh ladder must keep d < m < a. ``grow``, in-run growth and
``ablate`` take any widths: the paper's axis ablation grows m past a,
and exact preservation does not need the order.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from .checkpoint import Checkpoint, load_checkpoint, save_checkpoint
from .errors import NumericError, ValidationError
from .experiment import SNAPSHOT_COLUMNS, SnapshotState, ablate_axes, analyze_snapshot_series, snapshot_rows
from .flops import breakdown_csv_rows
from .growth import GrowthPlan, grow_model, verify_function_preservation
from .model import ModelConfig, heldout_loss
from .training import ExperimentConfig, checkpoint_experiment, heldout_sequences, train


def _read_json(path: str):
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except UnicodeDecodeError as exc:
        raise ValidationError(f"{path}: not a UTF-8 text file") from exc
    except json.JSONDecodeError as exc:
        raise ValidationError(f"{path}: not a JSON file: {exc}") from exc


def _load_model_config(path: str) -> ModelConfig:
    blob = _read_json(path)
    if isinstance(blob, dict) and "model" in blob:
        blob = blob["model"]
    return ModelConfig.from_dict(blob)


def _cmd_train(args) -> int:
    config = ExperimentConfig.from_dict(_read_json(args.config))
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    # passed straight in, so that train's own ``del`` frees the loaded state
    result = train(
        config, resume=load_checkpoint(args.resume) if args.resume else None,
        on_snapshot=lambda ck: save_checkpoint(ck, out / f"step{ck.step:08d}.nxf"),
    )
    log_lines = ["step,tokens,train_loss,heldout_loss"]
    for row in result.log:
        log_lines.append(f"{row.step},{row.tokens},{row.train_loss!r},{row.heldout_loss!r}")
    (out / "train_log.csv").write_text("\n".join(log_lines) + "\n", encoding="utf-8")
    print(f"wrote {len(result.log)} checkpoints to {out}")
    return 0


def _cmd_grow(args) -> int:
    ck = load_checkpoint(args.ckpt)
    plan = GrowthPlan(args.dm, args.da, args.init, seed=args.seed)
    probe = heldout_sequences(checkpoint_experiment(ck))
    new_params, new_config, report = grow_model(ck.params, ck.model_config, plan, probe=probe)
    grown = Checkpoint(
        model_config=new_config,
        params=new_params,
        adam_m={k: np.zeros_like(p) for k, p in new_params.items()},
        adam_v={k: np.zeros_like(p) for k, p in new_params.items()},
        rng=ck.rng,
        step=ck.step,
        tokens=ck.tokens,
        experiment=ck.experiment,
    )
    save_checkpoint(grown, args.out)
    print(json.dumps(report.to_dict(), sort_keys=True, indent=2))
    return 0


def _cmd_verify(args) -> int:
    old = load_checkpoint(args.old)
    new = load_checkpoint(args.new)
    probe = heldout_sequences(checkpoint_experiment(old))
    deviation = verify_function_preservation(
        old.params, old.model_config, new.params, new.model_config, probe
    )
    print(f"max logit deviation: {deviation!r}")
    if args.expect_zero and deviation != 0.0:
        raise NumericError(f"expected exact preservation, got deviation {deviation!r}")
    return 0


def _cmd_analyze(args) -> int:
    base = load_checkpoint(args.base)
    paths = sorted(Path(args.series).glob("*.nxf"))
    if not paths:
        raise ValidationError(f"no .nxf checkpoints found in {args.series}")
    heldout = heldout_sequences(checkpoint_experiment(base))
    base = SnapshotState.of(base)
    # each file's step and state, loaded one at a time: no Adam moments are kept
    loaded = [(ck.step, SnapshotState.of(ck)) for ck in map(load_checkpoint, paths)]
    series = [state for _, state in sorted(loaded, key=lambda pair: pair[0])]
    losses = [heldout_loss(state.model_config, state.params, heldout) for state in series]
    snapshots, trajectory, fits = analyze_snapshot_series(base, series, losses)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    lines = [SNAPSHOT_COLUMNS]
    lines.extend(",".join(cells) for cells in snapshot_rows(snapshots, trajectory))
    (out / "alignment.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    (out / "fits.json").write_text(json.dumps(fits, sort_keys=True, indent=2) + "\n",
                                   encoding="utf-8")
    print(f"analyzed {len(snapshots)} snapshots into {out}")
    return 0


def _cmd_flops(args) -> int:
    config = _load_model_config(args.config)
    name = Path(args.config).stem
    for line in breakdown_csv_rows(name, config, seq_len=args.seq_len):
        print(line)
    return 0


def _cmd_ablate(args) -> int:
    ck = load_checkpoint(args.ckpt)
    rows = ablate_axes(ck, budget=args.budget, delta_total=args.delta_total)
    print("axis,order,m,a,ppl")
    for row in rows:
        print(f"{row['axis']},{row['order']},{row['m']},{row['a']},{row['ppl']!r}")
    return 0


class _Parser(argparse.ArgumentParser):
    """Raises a ValidationError for a bad command line (exit 1, not 2)."""

    def error(self, message):
        raise ValidationError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="growformer")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="train a model from an experiment config")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--resume", default=None)
    p.set_defaults(fn=_cmd_train)

    p = sub.add_parser("grow", help="grow a checkpoint along both width axes")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--dm", type=int, required=True)
    p.add_argument("--da", type=int, required=True)
    p.add_argument("--init", required=True,
                   help="strict-zero | guarded-zero | noise:<fraction>")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_grow)

    p = sub.add_parser("verify", help="max logit deviation between two checkpoints")
    p.add_argument("--old", required=True)
    p.add_argument("--new", required=True)
    p.add_argument("--expect-zero", action="store_true")
    p.set_defaults(fn=_cmd_verify)

    p = sub.add_parser("analyze", help="alignment/trajectory/fits for a snapshot series")
    p.add_argument("--base", required=True)
    p.add_argument("--series", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_analyze)

    p = sub.add_parser("flops", help="per-token FLOP breakdown for a config")
    p.add_argument("--config", required=True)
    p.add_argument("--seq-len", type=int, default=None)
    p.set_defaults(fn=_cmd_flops)

    p = sub.add_parser("ablate", help="axis-ablation table from a base checkpoint")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--budget", type=int, required=True)
    p.add_argument("--delta-total", type=int, default=None)
    p.set_defaults(fn=_cmd_ablate)
    return parser


def main(argv=None) -> int:
    try:
        try:
            args = build_parser().parse_args(argv)
        except SystemExit as exc:  # --help; a bad command line raises ValidationError
            return exc.code
        return args.fn(args)
    except (ValidationError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
