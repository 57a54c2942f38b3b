import struct

import numpy as np
import pytest

from chase.errors import ConfigError, FormatError
from chase.skeleton import s2com_per_entity
from chase.synth import SynthConfig, load_dataset, save_dataset, synth_generate


def small_cfg(**kw):
    base = dict(samples_per_class=12, test_samples_per_class=6, frames=8, joints=4, seed=3)
    base.update(kw)
    return SynthConfig(**base)


def displacement(seq):
    cents = seq.coords.mean(axis=(1, 2))  # (C, E)
    return cents[:, 1] - cents[:, 0]


class TestGenerator:
    def test_deterministic_under_seed(self):
        a_train, a_test = synth_generate(small_cfg())
        b_train, b_test = synth_generate(small_cfg())
        for a, b in zip(a_train + a_test, b_train + b_test):
            assert a.coords.tobytes() == b.coords.tobytes()
            assert a.label == b.label

    def test_coords_are_float32_representable(self):
        train, _ = synth_generate(small_cfg())
        c = train[0].coords
        np.testing.assert_array_equal(c, c.astype(np.float32).astype(np.float64))

    def test_zero_relative_scale_kills_labels_after_per_entity_centering(self):
        cfg = small_cfg(relative_geometry_scale=0.0, motion_noise=0.05)
        train, _ = synth_generate(cfg)
        # class centroids of per-entity-centered data coincide up to noise
        per_class = {}
        for s in train:
            per_class.setdefault(s.label, []).append(s2com_per_entity(s.coords))
        means = {k: np.mean(v, axis=0) for k, v in per_class.items()}
        ref = means[0]
        for k in range(1, cfg.num_classes):
            np.testing.assert_allclose(means[k], ref, atol=0.1)

    def test_nearest_centroid_oracle_on_displacement(self):
        # independent oracle classifier: fit class centroids of the
        # inter-entity displacement on train, 1-NN them on test
        cfg = small_cfg(
            samples_per_class=50,
            test_samples_per_class=25,
            motion_noise=0.1 * 2.0,
            relative_geometry_scale=2.0,
        )
        train, test = synth_generate(cfg)
        centroids = np.zeros((cfg.num_classes, cfg.channels))
        counts = np.zeros(cfg.num_classes)
        for s in train:
            centroids[s.label] += displacement(s)
            counts[s.label] += 1
        centroids /= counts[:, None]
        hits = sum(
            int(np.argmin(np.linalg.norm(centroids - displacement(s), axis=1)) == s.label)
            for s in test
        )
        assert hits / len(test) >= 0.99

    def test_train_test_offset_centers_differ_and_labels_balanced(self):
        cfg = small_cfg()
        train, test = synth_generate(cfg)
        assert len(train) == cfg.num_classes * cfg.samples_per_class
        assert len(test) == cfg.num_classes * cfg.test_samples_per_class
        labels = [s.label for s in train]
        assert sorted(set(labels)) == list(range(cfg.num_classes))
        train_mean = np.mean([s.coords.mean(axis=(1, 2, 3)) for s in train], axis=0)
        test_mean = np.mean([s.coords.mean(axis=(1, 2, 3)) for s in test], axis=0)
        assert np.linalg.norm(train_mean - test_mean) > 1.0

    def test_identical_split_centers_rejected(self):
        with pytest.raises(ConfigError, match="differ"):
            SynthConfig(entity_offset_means={
                "train": [[0.0, 0.0], [0.0, 0.0]],
                "test": [[0.0, 0.0], [0.0, 0.0]],
            })

    def test_three_channel_generation(self):
        cfg = small_cfg(channels=3, samples_per_class=4, test_samples_per_class=2)
        train, _ = synth_generate(cfg)
        assert train[0].coords.shape == (3, 8, 4, 2)

    def test_two_class_generation(self):
        cfg = small_cfg(num_classes=2, samples_per_class=4, test_samples_per_class=2)
        train, _ = synth_generate(cfg)
        assert sorted({s.label for s in train}) == [0, 1]

    def test_entity_templates_differ(self):
        # entities must stay identifiable from their own shape after any shift
        cfg = small_cfg(motion_noise=0.0, entity_offset_spread=0.0)
        train, _ = synth_generate(cfg)
        coords = train[0].coords
        spread = [coords[..., e].std(axis=(1, 2)).mean() for e in range(2)]
        assert spread[1] > spread[0] * 1.2


class TestDatasetIO:
    def test_round_trip_exact(self, tmp_path):
        cfg = small_cfg(samples_per_class=5, test_samples_per_class=2)
        train, _ = synth_generate(cfg)
        path = save_dataset(tmp_path / "train.chsk", train, generator=cfg, seed=cfg.seed)
        loaded, manifest = load_dataset(path)
        assert len(loaded) == len(train)
        for a, b in zip(loaded, train):
            assert a == b
        assert manifest["seed"] == cfg.seed
        assert manifest["generator"]["joints"] == cfg.joints
        assert set(manifest) >= {"version", "classes", "generator", "seed"}

    def test_save_then_save_is_byte_identical(self, tmp_path):
        cfg = small_cfg(samples_per_class=3, test_samples_per_class=2)
        train, _ = synth_generate(cfg)
        p1 = save_dataset(tmp_path / "a.chsk", train, generator=cfg)
        p2 = save_dataset(tmp_path / "b.chsk", train, generator=cfg)
        assert p1.read_bytes() == p2.read_bytes()

    def test_header_records_dims_in_order(self, tmp_path):
        cfg = SynthConfig(channels=3, frames=64, joints=25, entities=2,
                          samples_per_class=1, test_samples_per_class=1)
        train, _ = synth_generate(cfg)
        path = save_dataset(tmp_path / "d.chsk", train)
        raw = path.read_bytes()
        assert raw[:4] == b"CHSK"
        version, = struct.unpack_from("<H", raw, 4)
        dims = struct.unpack_from("<5I", raw, 6)
        assert version == 1
        assert dims == (3, 64, 25, 2, len(train))
        assert len(raw) == 32 + len(train) * 3 * 64 * 25 * 2 * 4 + len(train) * 4

    def test_truncated_file_reports_offset(self, tmp_path):
        cfg = small_cfg(samples_per_class=2, test_samples_per_class=2)
        train, _ = synth_generate(cfg)
        path = save_dataset(tmp_path / "t.chsk", train)
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) - 10])
        with pytest.raises(FormatError, match=str(len(raw) - 10)):
            load_dataset(path)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.chsk"
        path.write_bytes(b"NOPE" + b"\x00" * 28)
        with pytest.raises(FormatError, match="byte 0"):
            load_dataset(path)

    def test_bad_version(self, tmp_path):
        cfg = small_cfg(samples_per_class=2, test_samples_per_class=2)
        train, _ = synth_generate(cfg)
        path = save_dataset(tmp_path / "v.chsk", train)
        raw = bytearray(path.read_bytes())
        raw[4:6] = struct.pack("<H", 99)
        path.write_bytes(bytes(raw))
        with pytest.raises(FormatError, match="byte 4"):
            load_dataset(path)

    def test_load_without_sidecar_manifest(self, tmp_path):
        cfg = small_cfg(samples_per_class=2, test_samples_per_class=2)
        train, _ = synth_generate(cfg)
        path = save_dataset(tmp_path / "bare.chsk", train)
        (tmp_path / "bare.chsk.json").unlink()
        loaded, manifest = load_dataset(path)
        assert manifest == {}
        assert loaded[0] == train[0]

    def test_custom_valid_frames_round_trip(self, tmp_path):
        cfg = small_cfg(samples_per_class=2, test_samples_per_class=2)
        train, _ = synth_generate(cfg)
        train[0].valid_frames = 5
        path = save_dataset(tmp_path / "vf.chsk", train)
        loaded, _ = load_dataset(path)
        assert loaded[0].valid_frames == 5
        assert loaded[1].valid_frames == cfg.frames
