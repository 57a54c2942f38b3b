"""Tests for the benchmark's tracer: it must observe without changing anything.

Run with `python3 -m pytest perfbench -q` from the repository root.
"""

import json
from pathlib import Path

import pytest

import run
from tracer import Tracer

chase = run.load_library()


def _small_inputs():
    synth_cfg = chase.SynthConfig(seed=3, entities=4, samples_per_class=6,
                                  test_samples_per_class=3)
    train_cfg = chase.TrainConfig(seed=3, normalizer="chase", lambda_=0.1, pairs_per_batch=3,
                                  epochs=2, batch_size=8, c1=8, c2=2)
    return chase.synth_generate(synth_cfg), train_cfg


def _pipeline_outputs(train_seqs, test_seqs, train_cfg):
    training = chase.training
    model, metrics, _ = training.train(train_seqs, train_cfg)
    table = training.corruption_table(model, test_seqs, seed=3)
    rep = chase.discrepancy.report(test_seqs, training.build_normalize_fn(model),
                                   repetitions=3, points_per_entity=32, seed=3)
    return json.dumps([metrics, table, rep.to_json_dict()])


def _wrap_all(tracer):
    for name, module, attr in run.TRACED:
        tracer.wrap(getattr(chase, module), attr, name)


def test_tracing_leaves_values_unchanged():
    (train_seqs, test_seqs), train_cfg = _small_inputs()
    untraced = _pipeline_outputs(train_seqs, test_seqs, train_cfg)
    with Tracer() as tracer:
        _wrap_all(tracer)
        traced = _pipeline_outputs(train_seqs, test_seqs, train_cfg)
    assert traced == untraced
    calls = tracer.summary()
    assert calls["shift.chase_forward"]["calls"] > 0
    assert calls["discrepancy.mpmmd_loss"]["calls"] > 0
    assert calls["autodiff.backward"]["calls"] > 0


def test_wrapped_attributes_are_restored_after_an_error():
    originals = {(module, attr): getattr(getattr(chase, module), attr)
                 for _, module, attr in run.TRACED}
    with pytest.raises(chase.ConfigError):
        with Tracer() as tracer:
            _wrap_all(tracer)
            assert chase.training.chase_forward is not originals[("training", "chase_forward")]
            chase.training.total_loss(None, None, lambda_=-1.0)
    for (module, attr), original in originals.items():
        assert getattr(getattr(chase, module), attr) is original
    assert tracer.summary()["training.total_loss"]["errors"] == 1


def test_self_time_excludes_direct_children():
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: float(next(ticks)))
    with tracer.span("outer"):          # 0 .. 7
        with tracer.span("inner"):      # 1 .. 4
            with tracer.span("leaf"):   # 2 .. 3
                pass
        with tracer.span("inner"):      # 5 .. 6
            pass
    rows = tracer.summary()
    assert rows["outer"] == {"calls": 1, "total_s": 7.0, "self_s": 3.0, "errors": 0}
    assert rows["inner"] == {"calls": 2, "total_s": 4.0, "self_s": 3.0, "errors": 0}
    assert tracer.summary(within="inner") == {
        "leaf": {"calls": 1, "total_s": 1.0, "self_s": 1.0, "errors": 0}}


def test_benchmark_json_lists_the_metrics_the_runner_prints():
    spec = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [m["name"] for m in spec["per_layer"]] == list(run.layer_metric_units())
    assert {w["name"] for w in spec["workloads"]} == set(run.WORKLOADS)
    units = {**run.END_TO_END, **run.layer_metric_units()}
    assert all(m["unit"] == units[m["name"]] for m in spec["end_to_end"] + spec["per_layer"])
