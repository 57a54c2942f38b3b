import json

import numpy as np
import pytest

from chase import autodiff as ad
from chase.errors import ConfigError, TrainingDiverged
from chase.shift import EntityPair
from chase.skeleton import CorruptionConfig, SkeletonSequence
from chase.synth import SynthConfig, synth_generate
from chase.training import (
    Model,
    TrainConfig,
    backbone_forward,
    build_model,
    build_normalize_fn,
    corruption_table,
    evaluate,
    load_checkpoint,
    model_from_checkpoint,
    save_checkpoint,
    sgd_step,
    total_loss,
    train,
)


def tiny_dataset(seed=0, per_class=6, test_per_class=3):
    cfg = SynthConfig(samples_per_class=per_class, test_samples_per_class=test_per_class,
                      frames=4, joints=3, seed=seed)
    return synth_generate(cfg)


def tiny_cfg(**kw):
    base = dict(epochs=2, batch_size=8, c1=8, c2=2, seed=1,
                backbone={"hidden_widths": [16], "feature_dim": 8})
    base.update(kw)
    return TrainConfig(**base)


class TestBackbone:
    def test_single_entity_mean_is_noop(self):
        cfg = tiny_cfg(normalizer="vanilla")
        one = build_model(cfg, (2, 4, 3, 1), 4)
        two = Model("vanilla", (2, 4, 3, 2), 4, one.backbone)
        g = np.random.default_rng(0)
        x1 = g.standard_normal((3, 2, 4, 3, 1))
        dup = np.concatenate([x1, x1], axis=4)
        a = backbone_forward(one.backbone, x1).data
        b = backbone_forward(two.backbone, dup).data
        np.testing.assert_allclose(a, b, atol=1e-12)

    def test_entity_permutation_invariance_exact(self):
        cfg = tiny_cfg(normalizer="vanilla")
        model = build_model(cfg, (2, 4, 3, 2), 4)
        g = np.random.default_rng(1)
        x = g.standard_normal((5, 2, 4, 3, 2))
        swapped = x[..., ::-1].copy()
        a = backbone_forward(model.backbone, x).data
        b = backbone_forward(model.backbone, swapped).data
        np.testing.assert_array_equal(a, b)

    def test_permuted_test_set_same_accuracy(self):
        train_seqs, test_seqs = tiny_dataset()
        cfg = tiny_cfg(normalizer="vanilla", lambda_=0.0, epochs=1)
        model, _, _ = train(train_seqs, cfg)
        g = np.random.default_rng(0)
        permuted = [s.with_coords(s.coords[..., g.permutation(s.coords.shape[3])])
                    for s in test_seqs]
        assert evaluate(model, test_seqs) == evaluate(model, permuted)


class TestTotalLoss:
    def test_lambda_zero_is_cls_bit_for_bit(self):
        g = np.random.default_rng(2)
        logits = ad.as_value(g.standard_normal((4, 3)))
        labels = [0, 1, 2, 0]
        loss, cls_val, mp = total_loss(logits, labels, lambda_=0.0)
        assert mp is None
        assert float(loss.data) == float(ad.cross_entropy(logits, labels).data)

    def test_identical_entities_add_nothing(self):
        g = np.random.default_rng(3)
        x = g.standard_normal((2, 2, 3, 2, 2))
        x[..., 1] = x[..., 0]
        logits = ad.as_value(g.standard_normal((2, 4)))
        loss, cls_val, mp = total_loss(
            logits, [1, 2], x_hat=ad.as_value(x), pairs=[EntityPair(0, 1)], lambda_=0.1
        )
        assert mp == pytest.approx(0.0, abs=1e-12)
        assert float(loss.data) == pytest.approx(cls_val, abs=1e-12)

    def test_negative_lambda_rejected(self):
        with pytest.raises(ConfigError):
            total_loss(ad.as_value(np.zeros((1, 2))), [0], lambda_=-0.1)


class TestSgd:
    def params_with_grad(self, value, grad):
        p = ad.parameter(np.array([value]))
        p.grad = np.array([grad])
        return {"p": p}, {"p": np.zeros(1)}

    def test_plain_sgd_without_momentum(self):
        params, vel = self.params_with_grad(1.0, 2.0)
        sgd_step(params, vel, lr=0.1, momentum=0.0)
        np.testing.assert_allclose(params["p"].data, [0.8], atol=1e-15)

    def test_velocity_recurrence(self):
        # constant gradient g: v1 = g, v2 = 1.9 g under momentum 0.9
        params, vel = self.params_with_grad(0.0, 1.0)
        sgd_step(params, vel, lr=0.0, momentum=0.9)
        np.testing.assert_allclose(vel["p"], [1.0])
        params["p"].grad = np.array([1.0])
        sgd_step(params, vel, lr=0.0, momentum=0.9)
        np.testing.assert_allclose(vel["p"], [1.9])

    def test_nesterov_update_value(self):
        params, vel = self.params_with_grad(1.0, 1.0)
        sgd_step(params, vel, lr=0.1, momentum=0.9)
        # v = 1; p -= 0.1 * (1 + 0.9 * 1) = 0.19
        np.testing.assert_allclose(params["p"].data, [0.81], atol=1e-15)

    def test_missing_gradient_rejected(self):
        p = ad.parameter(np.zeros(1))
        with pytest.raises(ValueError, match="gradient"):
            sgd_step({"p": p}, {"p": np.zeros(1)}, lr=0.1, momentum=0.0)

    def test_lr_schedule(self):
        cfg = tiny_cfg(lr=0.1, lr_decay_epochs=[2, 4], decay_rate=0.1, epochs=6)
        assert cfg.lr_at(0) == pytest.approx(0.1)
        assert cfg.lr_at(2) == pytest.approx(0.01)
        assert cfg.lr_at(4) == pytest.approx(0.001)


class TestTrainLoop:
    def test_loss_decreases_on_separable_data(self):
        train_seqs, _ = tiny_dataset(per_class=8)
        cfg = tiny_cfg(normalizer="vanilla", lambda_=0.0, epochs=5, lr=0.05,
                       lr_decay_epochs=[])
        _, metrics, _ = train(train_seqs, cfg)
        assert metrics[-1]["train_loss"] < metrics[0]["train_loss"]

    def test_deterministic_trajectory(self):
        train_seqs, test_seqs = tiny_dataset()
        cfg = tiny_cfg(normalizer="chase", lambda_=0.1, epochs=2)
        _, m1, _ = train(train_seqs, cfg, test_seqs)
        _, m2, _ = train(train_seqs, cfg, test_seqs)
        assert json.dumps(m1, sort_keys=True) == json.dumps(m2, sort_keys=True)

    def test_vanilla_metrics_have_no_mpmmd(self):
        train_seqs, _ = tiny_dataset()
        cfg = tiny_cfg(normalizer="vanilla", lambda_=0.0, epochs=1)
        _, metrics, _ = train(train_seqs, cfg)
        assert "mpmmd" not in metrics[0]

    def test_chase_metrics_log_mpmmd(self):
        train_seqs, _ = tiny_dataset()
        cfg = tiny_cfg(normalizer="chase", lambda_=0.1, epochs=1)
        _, metrics, _ = train(train_seqs, cfg)
        assert metrics[0]["mpmmd"] >= 0.0

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    def test_divergence_raises_with_epoch(self):
        train_seqs, _ = tiny_dataset()
        cfg = tiny_cfg(normalizer="vanilla", lambda_=0.0, epochs=3, lr=1e18,
                       lr_decay_epochs=[])
        with pytest.raises(TrainingDiverged) as exc:
            train(train_seqs, cfg)
        assert exc.value.epoch >= 0

    def test_every_normalizer_trains_one_epoch(self):
        train_seqs, test_seqs = tiny_dataset()
        for normalizer in ("vanilla", "s2com", "s2com_global", "s2com_global_std",
                           "batchnorm", "aug", "chase"):
            cfg = tiny_cfg(normalizer=normalizer, epochs=1,
                           lambda_=0.1 if normalizer == "chase" else 0.0)
            model, metrics, _ = train(train_seqs, cfg, test_seqs)
            assert 0.0 <= metrics[0]["eval_acc"] <= 1.0


class TestCheckpoint:
    def test_round_trip_bit_exact(self, tmp_path):
        train_seqs, _ = tiny_dataset()
        cfg = tiny_cfg(normalizer="chase", epochs=1)
        model, _, vel = train(train_seqs, cfg)
        path = save_checkpoint(tmp_path / "m.chck", model, vel, epoch=1, cfg=cfg)
        tensors, meta = load_checkpoint(path)
        for name, value in model.named_tensors().items():
            np.testing.assert_array_equal(tensors[name], value)
        assert meta["epoch"] == 1
        assert meta["config"]["lambda"] == cfg.lambda_
        assert {"clb.w1", "clb.b", "clb.w2", "clb.w3"} <= set(tensors)

    def test_resume_matches_uninterrupted(self, tmp_path):
        train_seqs, test_seqs = tiny_dataset()
        full_cfg = tiny_cfg(normalizer="chase", lambda_=0.1, epochs=4)
        _, full_metrics, _ = train(train_seqs, full_cfg, test_seqs)

        half_cfg = tiny_cfg(normalizer="chase", lambda_=0.1, epochs=2)
        model, half_metrics, vel = train(train_seqs, half_cfg, test_seqs)
        ckpt = save_checkpoint(tmp_path / "half.chck", model, vel, epoch=2, cfg=half_cfg)

        _, resumed_metrics, _ = train(train_seqs, full_cfg, test_seqs, resume=ckpt)
        combined = half_metrics + resumed_metrics
        assert json.dumps(combined, sort_keys=True) == json.dumps(full_metrics, sort_keys=True)

    def test_resume_rejects_config_mismatch(self, tmp_path):
        train_seqs, _ = tiny_dataset()
        cfg = tiny_cfg(normalizer="chase", epochs=1)
        model, _, vel = train(train_seqs, cfg)
        ckpt = save_checkpoint(tmp_path / "m.chck", model, vel, epoch=1, cfg=cfg)
        other = tiny_cfg(normalizer="chase", epochs=3, lr=0.2)
        with pytest.raises(ConfigError, match="lr"):
            train(train_seqs, other, resume=ckpt)

    def test_model_from_checkpoint_predicts_identically(self, tmp_path):
        train_seqs, test_seqs = tiny_dataset()
        cfg = tiny_cfg(normalizer="batchnorm", epochs=1, lambda_=0.0)
        model, _, vel = train(train_seqs, cfg, test_seqs)
        ckpt = save_checkpoint(tmp_path / "bn.chck", model, vel, epoch=1, cfg=cfg)
        restored, _, _ = model_from_checkpoint(ckpt)
        assert evaluate(restored, test_seqs) == evaluate(model, test_seqs)


class TestEvaluate:
    def test_chance_level_for_random_head(self):
        g = np.random.default_rng(4)
        seqs = [SkeletonSequence(g.standard_normal((2, 4, 3, 2)), int(g.integers(0, 4)))
                for _ in range(400)]
        cfg = tiny_cfg(normalizer="vanilla", seed=7)
        model = build_model(cfg, (2, 4, 3, 2), 4)
        acc = evaluate(model, seqs)
        assert abs(acc - 0.25) < 0.1

    def test_noop_corruption_equals_clean(self):
        train_seqs, test_seqs = tiny_dataset()
        cfg = tiny_cfg(normalizer="vanilla", epochs=1, lambda_=0.0)
        model, _, _ = train(train_seqs, cfg)
        clean = evaluate(model, test_seqs)
        assert evaluate(model, test_seqs, CorruptionConfig(0.0, 0.0, seed=3)) == clean

    def test_corruption_deterministic_under_seed(self):
        train_seqs, test_seqs = tiny_dataset()
        cfg = tiny_cfg(normalizer="vanilla", epochs=1, lambda_=0.0)
        model, _, _ = train(train_seqs, cfg)
        c = CorruptionConfig(0.01, 0.1, seed=11)
        assert evaluate(model, test_seqs, c) == evaluate(model, test_seqs, c)

    def test_corruption_table_shape(self):
        train_seqs, test_seqs = tiny_dataset()
        cfg = tiny_cfg(normalizer="vanilla", epochs=1, lambda_=0.0)
        model, _, _ = train(train_seqs, cfg)
        table = corruption_table(model, test_seqs)
        assert set(table) == {"clean", "noise", "mask"}
        assert set(table["noise"]) == {repr(1e-3), repr(1e-2)}
        assert set(table["mask"]) == {repr(1e-2), repr(1e-1)}


class TestNormalizeFn:
    def test_chase_fn_outputs_shifted_coords(self):
        train_seqs, _ = tiny_dataset()
        cfg = tiny_cfg(normalizer="chase", epochs=1)
        model, _, _ = train(train_seqs, cfg)
        fn = build_normalize_fn(model)
        out = fn(train_seqs[:4])
        assert out.shape == (4, 2, 4, 3, 2)
        assert not np.allclose(out, np.stack([s.coords for s in train_seqs[:4]]))

    def test_config_json_round_trip(self):
        cfg = tiny_cfg(normalizer="aug", aug_range=2.0)
        back = TrainConfig.from_dict(json.loads(json.dumps(cfg.to_dict())))
        assert back.to_dict() == cfg.to_dict()

    def test_unknown_config_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown"):
            TrainConfig.from_dict({"learning_rate": 0.1})
