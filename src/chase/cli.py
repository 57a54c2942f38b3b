"""Command-line surface: dataset synthesis, training, evaluation, discrepancy
reports, gradient checking and parameter accounting.

Exit codes: 0 success, 1 check failure, 2 usage or configuration problem,
3 numerical failure. Every command that writes files also writes a JSON run
manifest; re-running with identical inputs rewrites identical bytes, while a
manifest that already exists with different content aborts with exit 2.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__
from . import autodiff as ad
from .discrepancy import KdeConfig, mmd_sq, mpmmd_loss, report
from .errors import ChaseError, ConfigError, NonFiniteError, TrainingDiverged
from .shift import (
    ClbParams,
    EntityPair,
    SegmentSpec,
    chase_forward,
    flop_estimate,
    init_clb_params,
    param_count,
)
from .synth import SynthConfig, load_dataset, save_dataset, synth_generate
from .training import (
    TrainConfig,
    backbone_forward,
    build_model,
    build_normalize_fn,
    corruption_table,
    evaluate,
    model_from_checkpoint,
    save_checkpoint,
    total_loss,
    train,
)

QUIET = False


def _say(message):
    if not QUIET:
        print(message)


def _load_json(path):
    try:
        loaded = json.loads(Path(path).read_text())
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}")
    except json.JSONDecodeError as err:
        raise ConfigError(f"config {path} is not valid JSON: {err}")
    if not isinstance(loaded, dict):
        raise ConfigError(f"config {path} must hold a JSON object, got {type(loaded).__name__}")
    return loaded


def _run_id(command, config, seed):
    blob = json.dumps({"command": command, "config": config, "seed": seed}, sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()[:12]


class _Manifest:
    """Run manifest with an early collision check: reserve before writing any
    artifact, commit after all artifacts are on disk."""

    def __init__(self, path, command, config, seed, artifacts):
        manifest = {
            "run_id": _run_id(command, config, seed),
            "command": command,
            "config": config,
            "seed": seed,
            "artifacts": sorted(str(a) for a in artifacts),
            "version": __version__,
        }
        self.path = Path(path)
        self.text = json.dumps(manifest, indent=2, sort_keys=True) + "\n"

    def reserve(self):
        if self.path.exists() and self.path.read_text() != self.text:
            raise ConfigError(f"manifest collision: {self.path} exists with different content")
        return self

    def commit(self):
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self.path.write_text(self.text)


# --- synth -------------------------------------------------------------------


def cmd_synth(args):
    raw = _load_json(args.config) if args.config else {}
    if args.seed is not None:
        raw["seed"] = args.seed
    try:
        cfg = SynthConfig(**raw)
    except TypeError as err:
        raise ConfigError(f"synth config: {err}")
    out = Path(args.out or "chase_data")
    names = ["train.chsk", "train.chsk.json", "test.chsk", "test.chsk.json"]
    manifest = _Manifest(out / "manifest.json", "synth", cfg.to_dict(), cfg.seed, names).reserve()
    out.mkdir(parents=True, exist_ok=True)

    train_seqs, test_seqs = synth_generate(cfg)
    save_dataset(out / "train.chsk", train_seqs, generator=cfg, seed=cfg.seed)
    save_dataset(out / "test.chsk", test_seqs, generator=cfg, seed=cfg.seed)
    manifest.commit()
    _say(f"wrote {len(train_seqs)} train / {len(test_seqs)} test samples to {out}")
    return 0


# --- train -------------------------------------------------------------------


def _resolve(path, anchor):
    p = Path(path)
    return p if p.is_absolute() else Path(anchor).parent / p


def cmd_train(args):
    raw = _load_json(args.config)
    train_path = raw.pop("train_data", None)
    test_path = raw.pop("test_data", None)
    out = Path(args.out or raw.pop("out", "chase_out"))
    raw.pop("out", None)
    if train_path is None or test_path is None:
        raise ConfigError("config must provide train_data and test_data paths")
    if args.seed is not None:
        raw["seed"] = args.seed
    cfg = TrainConfig.from_dict(raw)

    train_seqs, _ = load_dataset(_resolve(train_path, args.config))
    test_seqs, _ = load_dataset(_resolve(test_path, args.config))

    manifest = _Manifest(out / "manifest.json", "train", cfg.to_dict(), cfg.seed,
                         ["model.chck", "metrics.jsonl"]).reserve()
    out.mkdir(parents=True, exist_ok=True)
    lines = []

    def on_epoch(entry):
        lines.append(json.dumps(entry, sort_keys=True))
        _say(lines[-1])

    model, metrics, velocities = train(
        train_seqs, cfg, test_seqs, resume=args.resume, on_epoch=on_epoch
    )
    (out / "metrics.jsonl").write_text("\n".join(lines) + "\n")
    save_checkpoint(out / "model.chck", model, velocities, epoch=cfg.epochs, cfg=cfg)
    manifest.commit()
    final_acc = metrics[-1]["eval_acc"] if metrics else float("nan")
    print(f"final_acc={final_acc!r}")
    return 0


# --- eval --------------------------------------------------------------------


def cmd_eval(args):
    model, _, _ = model_from_checkpoint(args.checkpoint)
    seqs, _ = load_dataset(args.dataset)
    if args.corruption_table:
        table = corruption_table(model, seqs, seed=args.seed or 0)
        text = json.dumps(table, indent=2, sort_keys=True) + "\n"
        print(text, end="")
        if args.out:
            out = Path(args.out)
            manifest = _Manifest(out / "manifest.json", "eval",
                                 {"checkpoint": str(args.checkpoint), "dataset": str(args.dataset)},
                                 args.seed or 0, ["corruption_table.json"]).reserve()
            out.mkdir(parents=True, exist_ok=True)
            (out / "corruption_table.json").write_text(text)
            manifest.commit()
        return 0
    corruption = None
    if args.noise_sigma or args.mask_prob:
        from .skeleton import CorruptionConfig

        corruption = CorruptionConfig(args.noise_sigma or 0.0, args.mask_prob or 0.0,
                                      seed=args.seed or 0)
    acc = evaluate(model, seqs, corruption)
    print(f"acc={acc!r}")
    return 0


# --- discrepancy ---------------------------------------------------------------


def cmd_discrepancy(args):
    seqs, _ = load_dataset(args.dataset)
    if args.normalizer == "chase" and not args.checkpoint:
        raise ConfigError("normalizer 'chase' requires --checkpoint")
    if args.checkpoint:
        model, _, _ = model_from_checkpoint(args.checkpoint)
        if model.normalizer != args.normalizer:
            raise ConfigError(
                f"checkpoint holds a {model.normalizer!r} model, not {args.normalizer!r}")
    else:
        cfg = TrainConfig(normalizer=args.normalizer, seed=args.seed or 0)
        model = build_model(cfg, seqs[0].coords.shape, max(s.label for s in seqs) + 1)
    normalize_fn = build_normalize_fn(model)

    seed = args.seed or 0
    rep = report(seqs, normalize_fn, KdeConfig(), repetitions=args.repetitions,
                 points_per_entity=args.points, seed=seed)
    config = {
        "dataset": str(args.dataset),
        "normalizer": args.normalizer,
        "checkpoint": str(args.checkpoint) if args.checkpoint else None,
        "repetitions": args.repetitions,
        "points": args.points,
    }
    run_id = _run_id("discrepancy", config, seed)
    out = Path(args.out or "chase_reports")
    csv_path = out / f"{run_id}.discrepancy.csv"
    json_path = out / f"{run_id}.discrepancy.json"
    manifest = _Manifest(out / f"{run_id}.manifest.json", "discrepancy", config, seed,
                         [csv_path.name, json_path.name]).reserve()
    out.mkdir(parents=True, exist_ok=True)
    csv_path.write_text(rep.to_csv())
    json_path.write_text(rep.to_json())
    manifest.commit()
    _say(rep.to_csv().rstrip())
    return 0


# --- gradcheck -----------------------------------------------------------------


def _gradcheck_cases():
    """(name, scalar function, probe input) for every differentiable operation
    plus composite pipelines and the full training objective."""
    g = np.random.default_rng(2024)
    cases = []

    w53 = ad.as_value(g.standard_normal((5, 3)))
    bias13 = ad.as_value(g.standard_normal((1, 3)))
    cases.append(("add_broadcast", lambda x: ad.vsum((x + bias13) * w53), g.standard_normal((5, 3))))
    cases.append(("sub", lambda x: ad.vsum((x - w53) * w53), g.standard_normal((5, 3))))
    cases.append(("mul", lambda x: ad.vsum(x * x * w53), g.standard_normal((5, 3))))
    cases.append(("scale", lambda x: ad.vsum(ad.scale(x, -2.5)), g.standard_normal(7)))
    probe9 = ad.as_value(g.standard_normal(9))
    cases.append(("relu", lambda x: ad.vsum(ad.relu(x) * probe9),
                  g.uniform(0.2, 1.0, 9) * np.where(g.random(9) > 0.5, 1, -1)))
    cases.append(("exp", lambda x: ad.vsum(ad.exp(x)), 0.4 * g.standard_normal(6)))

    b43 = ad.as_value(g.standard_normal((4, 3)))
    probe33 = ad.as_value(g.standard_normal((3, 3)))
    cases.append(("matmul", lambda x: ad.vsum(ad.matmul(x, b43) * probe33), g.standard_normal((3, 4))))
    probe_batched = ad.as_value(g.standard_normal((2, 3, 2)))
    b42 = ad.as_value(g.standard_normal((4, 2)))
    cases.append(("matmul_batched", lambda x: ad.vsum(ad.matmul(x, b42) * probe_batched), g.standard_normal((2, 3, 4))))

    probe24 = ad.as_value(g.standard_normal((2, 4)))
    cases.append(("softmax", lambda x: ad.vsum(ad.softmax(x, axis=1) * probe24), g.standard_normal((2, 4))))
    probe3 = ad.as_value(g.standard_normal(3))
    cases.append(("sum_axis", lambda x: ad.vsum(ad.vsum(x, axis=1) * probe3), g.standard_normal((3, 5))))
    cases.append(("mean", lambda x: ad.vmean(x * x), g.standard_normal((4, 4))))

    probe_r = ad.as_value(g.standard_normal((6, 2)))
    cases.append(("reshape_transpose_take", lambda x: ad.vsum(ad.take(ad.reshape(ad.transpose(x, (1, 0)), (8, 2)), [0, 3, 5, 0, 2, 7], axis=0) * probe_r), g.standard_normal((4, 4))))

    probe_pool = ad.as_value(g.standard_normal((2, 2, 2, 1)))
    cases.append(("segment_mean_pool", lambda x: ad.vsum(ad.segment_mean_pool(x, (2, 2, 2)) * probe_pool), g.standard_normal((2, 4, 4, 2))))
    probe_bcast = ad.as_value(g.standard_normal((1, 4, 4, 2)))
    cases.append(("segment_broadcast", lambda x: ad.vsum(ad.segment_broadcast(x, (2, 2, 1)) * probe_bcast), g.standard_normal((1, 2, 2, 2))))

    cases.append(("cross_entropy", lambda x: ad.cross_entropy(x, [0, 2, 1]), g.standard_normal((3, 3))))

    w_fixed = g.standard_normal((1, 8, 1))
    def fixed_shift(x):
        alpha = ad.softmax(ad.as_value(w_fixed), axis=1)
        flat = ad.reshape(x, (1, 2, 8))
        shifted = flat + ad.scale(ad.matmul(flat, alpha), -1.0)
        return ad.vsum(shifted * shifted)
    cases.append(("hull_shift_fixed", fixed_shift, g.standard_normal((1, 2, 2, 2, 2))))

    clb = init_clb_params(2, 2, 2, 2, c1=4, c2=2, seed=11)
    clb.w3.data[:] = 0.1 * g.standard_normal(clb.w3.shape)
    probe_chase = ad.as_value(g.standard_normal((2, 2, 2, 2, 2)))
    cases.append(("adaptive_shift_block", lambda x: ad.vsum(chase_forward(x, clb) * probe_chase), g.standard_normal((2, 2, 2, 2, 2))))

    mmd_b = g.standard_normal((6, 2))
    cases.append(("mmd_sq", lambda x: mmd_sq(x, ad.as_value(mmd_b), bandwidth=1.0), g.standard_normal((6, 2))))
    cases.append(("mpmmd", lambda x: mpmmd_loss(x, [EntityPair(0, 1)], bandwidth=1.0), g.standard_normal((2, 2, 2, 2, 2))))

    cases.append(_end_to_end_case())
    return cases


def _end_to_end_case():
    """Total objective (lambda=0.1) on a two-sample batch, differentiated with
    respect to every trainable parameter packed into one vector."""
    g = np.random.default_rng(4096)
    cfg = TrainConfig(
        normalizer="chase", lambda_=0.1, c1=4, c2=2, seed=5,
        backbone={"hidden_widths": [6], "feature_dim": 4},
    )
    dims = (2, 2, 3, 2)
    model = build_model(cfg, dims, num_classes=3)
    model.clb.w3.data[:] = 0.1 * g.standard_normal(model.clb.w3.shape)
    batch = ad.as_value(g.standard_normal((2,) + dims))
    labels = [0, 2]
    pairs = [EntityPair(0, 1)]

    named = sorted(model.trainable().items())
    offsets, total = [], 0
    for _, p in named:
        offsets.append((total, p.data.size, p.data.shape))
        total += p.data.size
    theta0 = np.concatenate([p.data.ravel() for _, p in named])

    def f(theta):
        pieces = {}
        for (name, _), (off, size, shape) in zip(named, offsets):
            pieces[name] = ad.reshape(ad.take(theta, np.arange(off, off + size)), shape)
        clb = ClbParams(pieces["clb.w1"], pieces["clb.b"], pieces["clb.w2"],
                        pieces["clb.w3"], seg=SegmentSpec(*cfg.seg))
        backbone = {k: v for k, v in pieces.items() if k.startswith("backbone.")}
        x_hat = chase_forward(batch, clb)
        logits = backbone_forward(backbone, x_hat)
        loss, _, _ = total_loss(logits, labels, x_hat=x_hat, pairs=pairs,
                                lambda_=cfg.lambda_, bandwidth=1.0)
        return loss

    return ("end_to_end_loss", f, theta0)


def cmd_gradcheck(args):
    failures = []
    for name, fn, x0 in _gradcheck_cases():
        rep = ad.grad_check(fn, x0, eps=args.eps, tol=args.tol)
        status = "pass" if rep.passed else "FAIL"
        print(f"op={name} max_rel_error={rep.max_rel_error:.3e} status={status}")
        if not rep.passed:
            failures.append((name, rep.max_rel_error))
    if failures:
        worst = ", ".join(f"{n} ({e:.3e})" for n, e in failures)
        print(f"gradcheck FAILED: {worst}")
        return 1
    print(f"gradcheck passed: {len(_gradcheck_cases())} cases at eps={args.eps:g} tol={args.tol:g}")
    return 0


# --- params --------------------------------------------------------------------


def cmd_params(args):
    seg = SegmentSpec(*args.seg)
    count = param_count(args.c, args.t, args.j, args.e, args.c1, args.c2, seg=seg)
    flops, breakdown = flop_estimate(args.c, args.t, args.j, args.e, args.c1, args.c2, seg=seg)
    print(f"params={count}")
    print(f"flops={flops} convention=MAC2")
    if not QUIET:
        for key, value in breakdown.items():
            print(f"  {key}={value}")
    return 0


# --- parser ----------------------------------------------------------------------


def _seg_value(text):
    parts = [int(p) for p in text.split(",")]
    if len(parts) != 3:
        raise argparse.ArgumentTypeError("segment spec must be T,J,E")
    return tuple(parts)


def build_parser():
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=None, help="override the configured seed")
    common.add_argument("--out", default=None, help="output directory")
    common.add_argument("--config", default=None, help="JSON config file")
    common.add_argument("--quiet", action="store_true", help="suppress progress output")

    parser = argparse.ArgumentParser(prog="chase", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("synth", parents=[common], help="generate a synthetic dataset")

    p_train = sub.add_parser("train", parents=[common], help="train a model")
    p_train.add_argument("--resume", default=None, help="checkpoint to resume from")

    p_eval = sub.add_parser("eval", parents=[common], help="evaluate a checkpoint")
    p_eval.add_argument("--checkpoint", required=True)
    p_eval.add_argument("--dataset", required=True)
    p_eval.add_argument("--noise-sigma", type=float, default=None)
    p_eval.add_argument("--mask-prob", type=float, default=None)
    p_eval.add_argument("--corruption-table", action="store_true",
                        help="emit the noise/mask accuracy grid")

    p_disc = sub.add_parser("discrepancy", parents=[common],
                            help="inter-entity discrepancy report")
    p_disc.add_argument("--dataset", required=True)
    p_disc.add_argument("--normalizer", required=True)
    p_disc.add_argument("--checkpoint", default=None)
    p_disc.add_argument("--repetitions", type=int, default=30)
    p_disc.add_argument("--points", type=int, default=256)

    p_grad = sub.add_parser("gradcheck", parents=[common],
                            help="verify every backward rule against finite differences")
    p_grad.add_argument("--eps", type=float, default=1e-5)
    p_grad.add_argument("--tol", type=float, default=1e-4)

    p_params = sub.add_parser("params", parents=[common],
                              help="parameter count and FLOP estimate")
    p_params.add_argument("--c", type=int, required=True)
    p_params.add_argument("--t", type=int, required=True)
    p_params.add_argument("--j", type=int, required=True)
    p_params.add_argument("--e", type=int, required=True)
    p_params.add_argument("--c1", type=int, required=True)
    p_params.add_argument("--c2", type=int, required=True)
    p_params.add_argument("--seg", type=_seg_value, default=(1, 1, 1))

    return parser


COMMANDS = {
    "synth": cmd_synth,
    "train": cmd_train,
    "eval": cmd_eval,
    "discrepancy": cmd_discrepancy,
    "gradcheck": cmd_gradcheck,
    "params": cmd_params,
}


def main(argv=None):
    global QUIET
    args = build_parser().parse_args(argv)
    QUIET = bool(getattr(args, "quiet", False))
    try:
        return COMMANDS[args.command](args)
    except TrainingDiverged as err:
        print(f"error: non-finite loss at epoch {err.epoch}", file=sys.stderr)
        return 3
    except NonFiniteError as err:
        print(f"error: numerical failure: {err}", file=sys.stderr)
        return 3
    except (ChaseError, FileNotFoundError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
