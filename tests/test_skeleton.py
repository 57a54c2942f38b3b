import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chase.errors import DataValidationError, DegenerateInputError
from chase.skeleton import (
    ChannelBatchNorm,
    CorruptionConfig,
    GraphPrior,
    SkeletonSequence,
    augment_random_shift,
    corrupt,
    khop_bones,
    s2com_global,
    s2com_per_entity,
    std_scale,
    validate,
)


# (N, C, T, J, E) batches with E in {2, 12} and T in {16, 64}
BATCH_SHAPES = [(5, 2, 16, 3, 2), (4, 3, 64, 2, 12)]


def random_coords(seed=0, shape=(2, 4, 3, 2)):
    return np.random.default_rng(seed).standard_normal(shape)


def random_seq(seed=0, shape=(2, 4, 3, 2), label=1):
    return SkeletonSequence(random_coords(seed, shape), label)


def pairwise_dists(coords):
    pts = coords.reshape(coords.shape[0], -1).T
    return np.linalg.norm(pts[:, None, :] - pts[None, :, :], axis=-1)


def assert_rows_match_single_samples(fn, batch):
    out = fn(batch)
    assert out.shape == batch.shape
    for row, sample in zip(out, batch):
        np.testing.assert_array_equal(row, fn(sample))


class TestValidate:
    def test_well_formed_full_scale_shape(self):
        seq = SkeletonSequence(np.zeros((3, 64, 25, 2)), 0)
        validate(seq)

    def test_nan_rejected_with_field_path(self):
        coords = np.zeros((2, 2, 2, 2))
        coords[1, 0, 1, 0] = np.nan
        with pytest.raises(DataValidationError, match=r"coords\[1, 0, 1, 0\]"):
            validate(SkeletonSequence(coords, 0))

    def test_channel_range(self):
        with pytest.raises(DataValidationError, match="channel count"):
            validate(SkeletonSequence(np.zeros((5, 2, 2, 2)), 0))

    def test_negative_label(self):
        with pytest.raises(DataValidationError, match="label"):
            validate(SkeletonSequence(np.zeros((2, 2, 2, 2)), -3))


class TestS2ComPerEntity:
    def test_constant_entity_maps_to_zero(self):
        np.testing.assert_allclose(s2com_per_entity(np.full((2, 3, 4, 1), 7.5)), 0.0, atol=1e-12)

    def test_two_constant_entities_lose_offset(self):
        coords = np.zeros((2, 3, 4, 2))
        coords[:, :, :, 0] = 1.0
        coords[:, :, :, 1] = 9.0
        np.testing.assert_allclose(s2com_per_entity(coords), 0.0, atol=1e-12)

    def test_per_entity_means_zero_and_shape_preserved(self):
        coords = random_coords(3)
        out = s2com_per_entity(coords)
        np.testing.assert_allclose(out.mean(axis=(1, 2)), 0.0, atol=1e-9)
        for e in range(coords.shape[3]):
            np.testing.assert_allclose(
                pairwise_dists(out[..., e]), pairwise_dists(coords[..., e]), atol=1e-9
            )

    def test_fixed_point(self):
        once = s2com_per_entity(random_coords(4))
        np.testing.assert_allclose(s2com_per_entity(once), once, atol=1e-12)

    @pytest.mark.parametrize("shape", BATCH_SHAPES)
    def test_batch_rows_match_single_samples(self, shape):
        assert_rows_match_single_samples(s2com_per_entity, random_coords(21, shape))


class TestS2ComGlobal:
    def test_hand_computation(self):
        coords = np.zeros((2, 1, 1, 2))
        coords[:, 0, 0, 0] = [0.0, 0.0]
        coords[:, 0, 0, 1] = [2.0, 0.0]
        out = s2com_global(coords)
        np.testing.assert_allclose(out[:, 0, 0, 0], [-1.0, 0.0], atol=1e-12)
        np.testing.assert_allclose(out[:, 0, 0, 1], [1.0, 0.0], atol=1e-12)

    def test_idempotent_on_centered(self):
        centered = s2com_global(random_coords(5))
        np.testing.assert_allclose(s2com_global(centered), centered, atol=1e-12)

    def test_inter_entity_offsets_preserved(self):
        coords = random_coords(6)
        out = s2com_global(coords)
        np.testing.assert_allclose(
            out[..., 1] - out[..., 0], coords[..., 1] - coords[..., 0], atol=0
        )

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_translation_invariance(self, seed):
        coords = random_coords(seed)
        t = np.random.default_rng(seed + 1).uniform(-50, 50, size=2)
        shifted = coords + t.reshape(-1, 1, 1, 1)
        np.testing.assert_allclose(s2com_global(shifted), s2com_global(coords), atol=1e-9)

    @pytest.mark.parametrize("shape", BATCH_SHAPES)
    def test_batch_rows_match_single_samples(self, shape):
        assert_rows_match_single_samples(s2com_global, random_coords(22, shape))


class TestStdScale:
    def test_unit_spread_channel_unchanged(self):
        coords = np.array([-1.0, 1.0]).reshape(1, 2, 1, 1).repeat(2, axis=0)
        np.testing.assert_allclose(std_scale(coords), coords, atol=1e-12)

    def test_scaling_oracle(self):
        coords = np.array([-2.0, 2.0]).reshape(1, 2, 1, 1).repeat(2, axis=0)
        out = std_scale(coords)
        np.testing.assert_allclose(np.sort(out[0].ravel()), [-1.0, 1.0], atol=1e-12)

    def test_output_channel_std_is_one(self):
        out = std_scale(random_coords(7))
        np.testing.assert_allclose(out.std(axis=(1, 2, 3)), 1.0, atol=1e-9)

    def test_constant_channel_rejected(self):
        coords = np.zeros((2, 2, 2, 1))
        coords[0] = np.random.default_rng(0).standard_normal((2, 2, 1))
        with pytest.raises(DegenerateInputError, match="channel 1"):
            std_scale(coords)

    def test_constant_channel_in_batch_names_the_sample(self):
        batch = random_coords(8, (4, 2, 2, 2, 1))
        batch[2, 1] = 3.0
        with pytest.raises(DegenerateInputError, match="sample 2, channel 1"):
            std_scale(batch)

    @pytest.mark.parametrize("shape", BATCH_SHAPES)
    def test_batch_rows_match_single_samples(self, shape):
        assert_rows_match_single_samples(std_scale, random_coords(23, shape))


class TestBatchNorm:
    def test_two_sample_closed_form(self):
        bn = ChannelBatchNorm(1)
        batch = np.zeros((2, 1, 1, 1, 1))
        batch[1] = 2.0
        out = bn(batch, training=True)
        np.testing.assert_allclose(out.ravel(), [-1.0, 1.0], atol=1e-4)

    def test_standardized_batch_nearly_unchanged(self):
        g = np.random.default_rng(8)
        batch = g.standard_normal((64, 2, 3, 4, 2))
        batch -= batch.mean(axis=(0, 2, 3, 4), keepdims=True)
        batch /= batch.std(axis=(0, 2, 3, 4), keepdims=True)
        out = ChannelBatchNorm(2)(batch, training=True)
        np.testing.assert_allclose(out, batch, atol=1e-4)

    def test_eval_uses_running_stats_only(self):
        bn = ChannelBatchNorm(1)
        bn.running_mean[:] = 5.0
        bn.running_var[:] = 4.0
        batch = np.full((1, 1, 1, 1, 1), 9.0)
        out = bn(batch, training=False)
        np.testing.assert_allclose(out.ravel(), [(9.0 - 5.0) / np.sqrt(4.0 + 1e-5)])

    def test_training_updates_running_stats(self):
        bn = ChannelBatchNorm(1)
        batch = np.full((4, 1, 1, 1, 1), 10.0)
        batch[:2] = -10.0
        bn(batch, training=True)
        np.testing.assert_allclose(bn.running_mean, [0.0], atol=1e-12)
        np.testing.assert_allclose(bn.running_var, [0.9 * 1.0 + 0.1 * 100.0])

    def test_small_training_batch_rejected(self):
        with pytest.raises(ValueError):
            ChannelBatchNorm(1)(np.zeros((1, 1, 1, 1, 1)), training=True)


class TestAugment:
    def test_zero_range_is_identity(self):
        coords = random_coords(9)
        np.testing.assert_array_equal(augment_random_shift(coords, 0.0, 3), coords)

    def test_seeded_shift_reproducible(self):
        coords = random_coords(10)
        a = augment_random_shift(coords, 2.0, 42)
        b = augment_random_shift(coords, 2.0, 42)
        np.testing.assert_array_equal(a, b)

    def test_shift_is_isometry(self):
        coords = random_coords(11)
        out = augment_random_shift(coords, 5.0, 1)
        np.testing.assert_allclose(pairwise_dists(out), pairwise_dists(coords), atol=1e-9)

    def test_negative_range_rejected(self):
        with pytest.raises(ValueError):
            augment_random_shift(random_coords(11), -1.0, 0)

    @pytest.mark.parametrize("shape", BATCH_SHAPES)
    def test_batch_draws_one_shift_per_sample_and_channel(self, shape):
        batch = random_coords(24, shape)
        out = augment_random_shift(batch, 2.0, [7, 4, 0, 3])
        np.testing.assert_array_equal(out[0], augment_random_shift(batch[0], 2.0, [7, 4, 0, 3]))
        shifts = np.random.default_rng([7, 4, 0, 3]).uniform(-2.0, 2.0, size=shape[:2])
        for row, sample, shift in zip(out, batch, shifts):
            np.testing.assert_array_equal(row, sample + shift.reshape(-1, 1, 1, 1))


class TestCorrupt:
    def test_noop_config_is_identity(self):
        seq = random_seq(15)
        out = corrupt(seq, CorruptionConfig(0.0, 0.0, seed=1))
        np.testing.assert_array_equal(out.coords, seq.coords)

    def test_full_masking_zeroes_everything(self):
        out = corrupt(random_seq(16), CorruptionConfig(0.0, 1.0, seed=1))
        np.testing.assert_array_equal(out.coords, 0.0)

    def test_mask_fraction_monte_carlo(self):
        seq = SkeletonSequence(np.ones((2, 100, 100, 10)), 0)  # 1e5 joints
        out = corrupt(seq, CorruptionConfig(0.0, 0.1, seed=7))
        frac = np.mean(out.coords[0] == 0.0)
        assert abs(frac - 0.1) < 0.01

    def test_mask_drops_whole_joints(self):
        out = corrupt(random_seq(17), CorruptionConfig(0.0, 0.5, seed=3))
        zero0 = out.coords[0] == 0.0
        zero1 = out.coords[1] == 0.0
        np.testing.assert_array_equal(zero0, zero1)

    def test_invalid_config_rejected(self):
        with pytest.raises(ValueError):
            CorruptionConfig(noise_sigma=-1.0)
        with pytest.raises(ValueError):
            CorruptionConfig(mask_prob=1.5)


class TestKhopBones:
    def test_chain_first_difference(self):
        prior = GraphPrior.chain(3)
        coords = np.array([0.0, 1.0, 3.0]).reshape(1, 1, 3, 1)
        out = khop_bones(SkeletonSequence(coords, 0), prior, 1)
        np.testing.assert_allclose(out.coords.ravel(), [0.0, 1.0, 2.0], atol=1e-12)

    def test_k_beyond_depth_is_identity(self):
        prior = GraphPrior.chain(4)
        seq = random_seq(18, shape=(2, 3, 4, 2))
        out = khop_bones(seq, prior, prior.depth + 1)
        np.testing.assert_array_equal(out.coords, seq.coords)

    def test_adjacency_nilpotent(self):
        prior = GraphPrior(5, [None, 0, 0, 1, 2])
        powered = np.linalg.matrix_power(prior.adjacency, prior.depth + 1)
        np.testing.assert_array_equal(powered, 0.0)

    def test_translation_invariance_for_non_roots(self):
        prior = GraphPrior.chain(4)
        seq = random_seq(19, shape=(2, 2, 4, 1))
        shifted = seq.with_coords(seq.coords + 3.25)
        a = khop_bones(seq, prior, 1).coords
        b = khop_bones(shifted, prior, 1).coords
        np.testing.assert_allclose(a[:, :, 1:], b[:, :, 1:], atol=1e-9)

    def test_k_below_one_rejected(self):
        with pytest.raises(ValueError):
            khop_bones(random_seq(20, shape=(2, 2, 3, 1)), GraphPrior.chain(3), 0)

    def test_cycle_rejected(self):
        with pytest.raises(DataValidationError, match="cycle"):
            GraphPrior(2, [1, 0])
