#!/usr/bin/env python3
"""End-to-end benchmark of the chase user pipeline, with an optional traced run.

    python3 perfbench/run.py --workload pair-chase --seed 1 --seconds 40 --trace 0

Each run follows the CLI walkthrough on one workload: synthesize a dataset,
save and load it, build the model, train, score the corruption grid, build
the discrepancy report, and start the CLI cold. The library is imported from
`src/` next to this directory and receives only the generated inputs; the
seed fixes those inputs.

With `--trace 0` nothing is wrapped and the end-to-end metrics are printed.
Set-up, evaluation, report and CLI start are repeated until `--seconds` have
passed (each at least a minimum number of times) and their medians reported.
With `--trace 1` the same pipeline runs once with every layer function
wrapped by `tracer.Tracer`, and the per-layer metrics are printed; the spans
go to `perfbench/out/`. Every run checks the outputs; the last line of
standard output is one JSON object with `correct`, `attempted`, `failed` and
`metrics`. See NOTES.md for why each workload exists.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"

THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)

# Shared by every workload: the CLI walkthrough's training and report defaults.
TRAIN_COMMON = {"batch_size": 32, "c1": 16, "c2": 4}
REPORT_POINTS = 256
CLI_ARGS = ["params", "--c", "3", "--t", "64", "--j", "25", "--e", "2", "--c1", "64", "--c2", "8"]
CLI_EXPECT = "params=26368"

# `acc_floor` sits below the lowest clean accuracy seen over the baseline seeds.
WORKLOADS = {
    # Acceptance shape; MPMMD forward and backward dominate the step; one report pair.
    "pair-chase": {
        "synth": {"frames": 16, "joints": 5, "entities": 2,
                  "samples_per_class": 500, "test_samples_per_class": 125},
        "train": {"normalizer": "chase", "lambda_": 0.1, "pairs_per_batch": 1, "epochs": 6},
        "report_repetitions": 30,
        "acc_floor": 0.95,
    },
    # Group activity: 12 entities, pairs share entities, 66-pair report. Five report
    # repetitions (not 30, about 12 s a call) so that one run holds several report samples.
    "group-chase": {
        "synth": {"frames": 16, "joints": 5, "entities": 12,
                  "samples_per_class": 125, "test_samples_per_class": 50},
        "train": {"normalizer": "chase", "lambda_": 0.1, "pairs_per_batch": 4, "epochs": 6},
        "report_repetitions": 5,
        "acc_floor": 0.95,
    },
    # Long sequences without the shift or MPMMD: the bypass for those layers. At the
    # default lr 0.05 training collapses on some seeds (3 of seeds 1-10, clean accuracy
    # 0.25-0.75); at 0.02 every seed reaches >= 0.99, so the accuracy floor can hold.
    "long-global": {
        "synth": {"frames": 64, "joints": 5, "entities": 2,
                  "samples_per_class": 500, "test_samples_per_class": 125},
        "train": {"normalizer": "s2com_global", "lambda_": 0.0, "lr": 0.02, "epochs": 30},
        "report_repetitions": 30,
        "acc_floor": 0.95,
    },
}

# Minimum repeats per timed phase; an untraced run repeats them until --seconds pass.
MIN_REPEATS = {"setup": 3, "train": 3, "eval": 3, "report": 3, "cli": 3}

END_TO_END = {
    "train_samples_per_s": "1/s",
    "eval_samples_per_s": "1/s",
    "report_s": "s",
    "cli_cold_start_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "final_eval_acc": "ratio",
}

# (layer metric prefix, module, attribute the library's caller looks up)
TRACED = (
    ("synth.generate", "synth", "synth_generate"),
    ("synth.save", "synth", "save_dataset"),
    ("synth.load", "synth", "load_dataset"),
    ("skeleton.stack_coords", "training", "stack_coords"),
    ("skeleton.corrupt", "training", "corrupt"),
    ("shift.chase_forward", "training", "chase_forward"),
    ("shift.sample_pairs", "training", "sample_pairs"),
    ("training.backbone_forward", "training", "backbone_forward"),
    ("training.total_loss", "training", "total_loss"),
    ("training.sgd_step", "training", "sgd_step"),
    ("training.evaluate", "training", "evaluate"),
    ("discrepancy.mpmmd_loss", "training", "mpmmd_loss"),
    ("discrepancy.mmd_sq", "discrepancy", "mmd_sq"),
    ("discrepancy.median_bandwidth", "discrepancy", "median_bandwidth"),
    ("discrepancy.kde_estimate", "discrepancy", "kde_estimate"),
    ("discrepancy.report", "discrepancy", "report"),
    ("autodiff.backward", "autodiff", "backward"),
)
FLOP_KEYS = ("channel_map", "segment_pool", "squeeze", "rectifier", "expand",
             "softmax", "shift_vector", "subtract")


def layer_metric_units():
    """Every per-layer metric name with its unit, in print order."""
    units = {}
    for name, _, _ in TRACED:
        units.update({f"{name}.calls": "count", f"{name}.self_s": "s", f"{name}.errors": "count"})
    units.update({
        "synth.bytes": "bytes",
        "shift.flops": "flop",
        "shift.gflop_per_s": "Gflop/s",
        "shift.time_share": "ratio",
        **{f"shift.flop_share.{key}": "ratio" for key in FLOP_KEYS},
        "training.backbone_forward.gflop_per_s": "Gflop/s",
        "discrepancy.self_kernel_redundant_share": "ratio",
        "autodiff.backward_to_forward": "ratio",
        "cli.import_s": "s",
        "cli.command_s": "s",
        "trace.overhead_share": "ratio",
    })
    return units


def cap_threads():
    """Cap BLAS/OpenMP pools at the usable core count; must run before numpy loads."""
    nproc = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:
        current = os.environ.get(var, "")
        cap = min(int(current), nproc) if current.isdigit() and int(current) > 0 else nproc
        os.environ[var] = str(cap)
    return nproc


def load_library():
    """Import chase from this checkout's src/, never from anywhere else."""
    sys.path.insert(0, str(SRC))
    import chase

    if Path(chase.__file__).resolve().parent != SRC / "chase":
        raise ImportError(f"chase resolved to {chase.__file__}, not {SRC / 'chase'}")
    return chase


def environment(nproc):
    import numpy
    import scipy

    return {
        "git_sha": git_sha(),
        "cpu_model": cpu_model(),
        "nproc": nproc,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
        "thread_caps": {var: os.environ[var] for var in THREAD_VARS},
    }


def git_sha():
    # the ceiling keeps git from searching the checkout's parent directories
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}
    try:
        top = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=10, env=env)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return "unknown"
    return lines[1]


def cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


class Checks:
    """Counts operations attempted and those whose output check failed."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def record(self, what, ok, detail=""):
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(f"{what}: {detail}")


def median(values):
    return statistics.median(values) if values else float("nan")


class Pipeline:
    """One workload's pipeline; phases time themselves into `self.times`."""

    def __init__(self, chase, workload, seed, work_dir, checks, tracer=None):
        self.chase = chase
        self.w = WORKLOADS[workload]
        self.seed = seed
        self.work_dir = work_dir
        self.checks = checks
        self.tracer = tracer
        self.times = {phase: [] for phase in MIN_REPEATS}
        self.synth_cfg = chase.SynthConfig(seed=seed, **self.w["synth"])
        self.train_cfg = chase.TrainConfig(seed=seed, **TRAIN_COMMON, **self.w["train"])
        self.train_seqs = self.test_seqs = self.model = None
        self.bytes_written = 0

    def _phase(self, name):
        return self.tracer.span(f"bench.{name}") if self.tracer else contextlib.nullcontext()

    def setup(self):
        """synth + save + load (both splits) + build_model, as the CLI does them."""
        synth, training = self.chase.synth, self.chase.training
        paths = [self.work_dir / "train.chsk", self.work_dir / "test.chsk"]
        with self._phase("setup"):
            start = time.perf_counter()
            made = synth.synth_generate(self.synth_cfg)
            for path, seqs in zip(paths, made):
                synth.save_dataset(path, seqs, generator=self.synth_cfg, seed=self.seed)
            loaded = [synth.load_dataset(path)[0] for path in paths]
            dims = loaded[0][0].coords.shape
            num_classes = max(s.label for s in loaded[0]) + 1
            training.build_model(self.train_cfg, dims, num_classes)
            self.times["setup"].append(time.perf_counter() - start)
        self.checks.record("setup round trip", loaded[0] == made[0] and loaded[1] == made[1],
                           "loaded dataset differs from the generated one")
        self.bytes_written = sum(p.stat().st_size + Path(f"{p}.json").stat().st_size
                                 for p in paths)
        self.train_seqs, self.test_seqs = loaded

    def train(self, epochs):
        """Train `epochs` epochs from a fresh model, without a test set."""
        cfg = dataclasses.replace(self.train_cfg, epochs=epochs)
        with self._phase("train"):
            start = time.perf_counter()
            model, metrics, _ = self.chase.training.train(self.train_seqs, cfg)
            seconds = time.perf_counter() - start
        losses = [v for m in metrics for k, v in m.items() if k.endswith("loss") or k == "mpmmd"]
        self.checks.record("training losses", all(map(math.isfinite, losses)),
                           "a training loss is not finite")
        return model, metrics, seconds

    def train_epoch(self):
        """One timed sample of training throughput: a one-epoch `train()` call."""
        self.times["train"].append(self.train(1)[2])

    def first_pass(self):
        """Set-up, the workload's full training, and one of each checked phase.

        Returns (training metrics, clean accuracy).
        """
        self.setup()
        self.model, metrics, _ = self.train(self.train_cfg.epochs)
        self.check_hull()
        clean = self.evaluate()
        self.report()
        return metrics, clean

    def check_hull(self):
        """On a shifted batch, every coefficient is > 0 and each segment sums to 1."""
        if self.model.clb is None:
            return
        import numpy as np

        shifted = self.chase.training.build_normalize_fn(self.model)(self.test_seqs[:32])
        ok = True
        for sample in shifted:
            alpha = self.chase.shift.clb_forward(sample, self.model.clb).alpha_tilde
            ok &= bool(np.all(alpha > 0.0)) and bool(np.allclose(alpha.sum(axis=0), 1.0,
                                                                 rtol=0.0, atol=1e-12))
        self.checks.record("hull property", ok, "coefficients leave the simplex")

    def evaluate(self):
        with self._phase("eval"):
            start = time.perf_counter()
            table = self.chase.training.corruption_table(self.model, self.test_seqs,
                                                         seed=self.seed)
            self.times["eval"].append(time.perf_counter() - start)
        accs = [table["clean"], *table["noise"].values(), *table["mask"].values()]
        clean = table["clean"]
        self.checks.record("corruption table",
                           all(0.0 <= a <= 1.0 for a in accs) and clean >= self.w["acc_floor"],
                           f"clean accuracy {clean} below floor {self.w['acc_floor']}"
                           f" or an accuracy outside [0, 1]: {accs}")
        return clean

    def report(self):
        discrepancy = self.chase.discrepancy
        normalize = self.chase.training.build_normalize_fn(self.model)
        with self._phase("report"):
            start = time.perf_counter()
            rep = discrepancy.report(self.test_seqs, normalize, seed=self.seed,
                                     repetitions=self.w["report_repetitions"],
                                     points_per_entity=REPORT_POINTS)
            self.times["report"].append(time.perf_counter() - start)
        means = [mean for pair in rep.values.values() for mean, _ in pair.values()]
        expected_pairs = self.w["synth"]["entities"] * (self.w["synth"]["entities"] - 1) // 2
        self.checks.record("discrepancy report",
                           len(rep.pairs) == expected_pairs
                           and all(math.isfinite(m) and m >= 0.0 for m in means),
                           "a report mean is negative or not finite, or a pair is missing")

    def cli(self):
        with self._phase("cli"):
            seconds, out = run_python(["-m", "chase", *CLI_ARGS])
            self.times["cli"].append(seconds)
        self.checks.record("cli params", out is not None and CLI_EXPECT in out.split(),
                           f"CLI failed or did not print {CLI_EXPECT}")

    def fill(self, deadline):
        """Round-robin over the timed phases, so slow spells of the machine hit them
        all alike: at least the minimum repeats, then more while each fits the deadline."""
        ops = {"setup": self.setup, "train": self.train_epoch, "eval": self.evaluate,
               "report": self.report, "cli": self.cli}
        ran = True
        while ran:
            ran = False
            for phase, op in ops.items():
                samples = self.times[phase]
                if len(samples) < MIN_REPEATS[phase] or (
                        deadline is not None and time.perf_counter() + median(samples) < deadline):
                    op()
                    ran = True


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def run_python(args):
    """Run a fresh interpreter; returns (wall seconds, stdout or None on failure)."""
    start = time.perf_counter()
    try:
        proc = subprocess.run([sys.executable, *args], cwd=ROOT, env=child_env(),
                              capture_output=True, text=True, timeout=60)
    except subprocess.TimeoutExpired:
        return time.perf_counter() - start, None
    seconds = time.perf_counter() - start
    return seconds, proc.stdout if proc.returncode == 0 else None


def import_seconds():
    """Seconds a fresh interpreter spends in `import chase`."""
    code = "import time; t = time.perf_counter(); import chase; print(time.perf_counter() - t)"
    _, out = run_python(["-c", code])
    return float(out) if out else float("nan")


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_untraced(chase, workload, seed, seconds, work_dir, checks):
    deadline = time.perf_counter() + seconds
    pipe = Pipeline(chase, workload, seed, work_dir, checks)
    train_metrics, final_acc = pipe.first_pass()
    pipe.fill(deadline)
    values = {
        "train_samples_per_s": len(pipe.train_seqs) / median(pipe.times["train"]),
        "eval_samples_per_s": 5 * len(pipe.test_seqs) / median(pipe.times["eval"]),
        "report_s": median(pipe.times["report"]),
        "cli_cold_start_s": median(pipe.times["cli"]),
        "setup_s": median(pipe.times["setup"]),
        "peak_rss_mb": peak_rss_mb(),
        "final_eval_acc": final_acc,
    }
    extra = {
        "final_train_loss": train_metrics[-1]["train_loss"],
        "failed_share": checks.failed / max(checks.attempted, 1),
        "samples_s": pipe.times,
        "train_metrics": train_metrics,
    }
    return {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}, extra


def run_traced(chase, workload, seed, work_dir, checks):
    from tracer import Tracer

    # untraced reference: the values tracing must not change
    reference = Pipeline(chase, workload, seed, work_dir, checks)
    reference.setup()
    _, ref_metrics, _ = reference.train(reference.train_cfg.epochs)

    counts = Counter()
    flops_cache = {}

    def shift_flops(args, kwargs, result):
        x, params = args[0], args[1]
        shape = tuple(x.shape)
        n, dims = (shape[0], shape[1:]) if len(shape) == 5 else (1, shape)
        key = (dims, params.c1, params.c2, params.seg)
        if key not in flops_cache:
            flops_cache[key] = chase.shift.flop_estimate(*dims, params.c1, params.c2,
                                                         seg=params.seg)
        total, _ = flops_cache[key]
        counts["shift.flops"] += n * total

    def backbone_flops(args, kwargs, result):
        # MAC2 over the weight matrices; elementwise ops are not counted
        backbone, x = args[0], args[1]
        n, e = x.shape[0], x.shape[4]
        hidden = sum(v.shape[0] * v.shape[1] for k, v in backbone.items()
                     if k.startswith("backbone.w"))
        head = backbone["backbone.head_w"].shape
        counts["backbone.flops"] += 2 * (n * e * hidden + n * head[0] * head[1])

    def pairs_seen(args, kwargs, result):
        counts["self_kernel_evals"] += 2 * len(result)
        counts["self_kernel_distinct"] += len({p.i for p in result} | {p.j for p in result})

    hooks = {"shift.chase_forward": shift_flops, "training.backbone_forward": backbone_flops,
             "shift.sample_pairs": pairs_seen}
    with Tracer() as tracer:
        for name, module, attr in TRACED:
            tracer.wrap(getattr(chase, module), attr, name, on_call=hooks.get(name))
        pipe = Pipeline(chase, workload, seed, work_dir, checks, tracer=tracer)
        train_metrics, _ = pipe.first_pass()
        pipe.fill(None)
    # overhead: the same one-epoch samples, untraced, after warm-up on both sides
    untraced_epoch_s = [reference.train(1)[2] for _ in range(MIN_REPEATS["train"])]
    checks.record("tracing leaves values unchanged",
                  json.dumps(train_metrics) == json.dumps(ref_metrics),
                  "traced training metrics differ from untraced ones")

    summary = tracer.summary()
    in_train = tracer.summary(within="bench.train")
    train_s = summary["bench.train"]["total_s"]
    values = {}
    for name, _, _ in TRACED:
        row = summary.get(name, {"calls": 0, "self_s": 0.0, "errors": 0})
        values.update({f"{name}.calls": row["calls"], f"{name}.self_s": row["self_s"],
                       f"{name}.errors": row["errors"]})

    def total(name, rows=summary, key="total_s"):
        return rows.get(name, {}).get(key, 0.0)

    dims = (pipe.synth_cfg.channels, pipe.synth_cfg.frames, pipe.synth_cfg.joints,
            pipe.synth_cfg.entities)
    seg = chase.SegmentSpec(*pipe.train_cfg.seg)
    per_sample, breakdown = chase.shift.flop_estimate(*dims, pipe.train_cfg.c1,
                                                      pipe.train_cfg.c2, seg=seg)
    shift_s = total("shift.chase_forward", key="self_s")
    backbone_s = total("training.backbone_forward", key="self_s")
    forward_s = sum(total(n, in_train) for n in
                    ("shift.chase_forward", "training.backbone_forward", "training.total_loss"))
    evals = counts["self_kernel_evals"]
    cli_s = median(pipe.times["cli"])
    import_s = median([import_seconds() for _ in range(MIN_REPEATS["cli"])])
    values.update({
        "synth.bytes": pipe.bytes_written,
        "shift.flops": per_sample,
        "shift.gflop_per_s": counts["shift.flops"] / shift_s / 1e9 if shift_s else 0.0,
        "shift.time_share": total("shift.chase_forward", in_train) / train_s,
        **{f"shift.flop_share.{k}": breakdown[k] / per_sample for k in FLOP_KEYS},
        "training.backbone_forward.gflop_per_s":
            counts["backbone.flops"] / backbone_s / 1e9 if backbone_s else 0.0,
        "discrepancy.self_kernel_redundant_share":
            1.0 - counts["self_kernel_distinct"] / evals if evals else 0.0,
        "autodiff.backward_to_forward": total("autodiff.backward", in_train, "self_s") / forward_s,
        "cli.import_s": import_s,
        "cli.command_s": cli_s - import_s,
        "trace.overhead_share": median(pipe.times["train"]) / median(untraced_epoch_s) - 1.0,
    })
    units = layer_metric_units()
    extra = {"final_train_loss": train_metrics[-1]["train_loss"], "spans": len(tracer.spans)}
    return {k: {"value": values[k], "unit": units[k]} for k in units}, extra, tracer


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    nproc = cap_threads()
    try:
        chase = load_library()
    except ImportError as err:
        print(f"perfbench: cannot import chase from {SRC}: {err}", file=sys.stderr)
        return 2

    OUT_DIR.mkdir(exist_ok=True)
    work_dir = OUT_DIR / f"work-{os.getpid()}"
    work_dir.mkdir()
    checks = Checks()
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    metrics, extra = {}, {}
    try:
        if args.trace:
            metrics, extra, tracer = run_traced(chase, args.workload, args.seed, work_dir, checks)
            tracer.dump(OUT_DIR / f"{tag}.spans.jsonl")
        else:
            metrics, extra = run_untraced(chase, args.workload, args.seed, args.seconds,
                                          work_dir, checks)
    except Exception:  # a crash is one more failed operation; report it and stop
        traceback.print_exc()
        checks.record("pipeline", False, traceback.format_exc(limit=1))
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    correct = checks.failed == 0 and bool(metrics)
    result = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": environment(nproc), "problems": checks.problems,
        "attempted": checks.attempted, "failed": checks.failed, "metrics": metrics,
        **extra,
    }
    (OUT_DIR / f"{tag}.json").write_text(json.dumps(result, indent=2, sort_keys=True) + "\n")

    for problem in checks.problems:
        print(f"FAILED {problem}")
    for name, m in metrics.items():
        print(f"{name:44s} {m['value']:>14.6g} {m['unit']}")
    if not args.trace and "final_train_loss" in extra:
        print(f"{'final_train_loss':44s} {extra['final_train_loss']:>14.6g} loss")
        print(f"{'failed_share':44s} {extra['failed_share']:>14.6g} ratio")
    print(json.dumps({"correct": correct, "attempted": checks.attempted,
                      "failed": checks.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
