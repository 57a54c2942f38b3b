import math

import numpy as np
import pytest
from scipy.stats import norm

from chase import autodiff as ad
from chase.discrepancy import (
    KdeConfig,
    avg_kld,
    bd,
    entity_point_sets,
    hd,
    jsd,
    kde_estimate,
    median_bandwidth,
    mmd_sq,
    mpmmd_loss,
    report,
)
from chase.errors import DegenerateInputError, ShapeError
from chase.shift import EntityPair, all_pairs, sample_pairs
from chase.skeleton import stack_coords
from chase.synth import SynthConfig, synth_generate


def closed_form_metrics(p, q):
    """Direct evaluation of all four formulas with scalar math only."""
    kl_pq = sum(pi * math.log(pi / qi) for pi, qi in zip(p, q) if pi > 0)
    kl_qp = sum(qi * math.log(qi / pi) for pi, qi in zip(p, q) if qi > 0)
    m = [(pi + qi) / 2 for pi, qi in zip(p, q)]
    js = 0.5 * sum(pi * math.log(pi / mi) for pi, mi in zip(p, m) if pi > 0) \
        + 0.5 * sum(qi * math.log(qi / mi) for qi, mi in zip(q, m) if qi > 0)
    bc = sum(math.sqrt(pi * qi) for pi, qi in zip(p, q))
    hell = math.sqrt(sum((math.sqrt(pi) - math.sqrt(qi)) ** 2 for pi, qi in zip(p, q)) / 2)
    return 0.5 * (kl_pq + kl_qp), js, -math.log(bc), hell


class TestMetricClosedForms:
    P = [0.5, 0.5]
    Q = [0.9, 0.1]

    def test_against_direct_evaluation_oracle(self):
        kl, js, bdist, hell = closed_form_metrics(self.P, self.Q)
        assert avg_kld(self.P, self.Q) == pytest.approx(kl, abs=1e-12)
        assert jsd(self.P, self.Q) == pytest.approx(js, abs=1e-12)
        assert bd(self.P, self.Q) == pytest.approx(bdist, abs=1e-12)
        assert hd(self.P, self.Q) == pytest.approx(hell, abs=1e-12)
        # frozen oracle outputs
        assert kl == pytest.approx(0.43945, abs=1e-4)
        assert js == pytest.approx(0.10174, abs=1e-4)
        assert bdist == pytest.approx(0.11157, abs=1e-4)
        assert hell == pytest.approx(0.32493, abs=1e-4)

    def test_identical_distributions_are_zero(self):
        for f in (avg_kld, jsd, bd, hd):
            assert abs(f(self.P, self.P)) < 1e-9

    def test_disjoint_support_extremes(self):
        assert jsd([1.0, 0.0], [0.0, 1.0]) == pytest.approx(math.log(2.0), abs=1e-12)
        assert hd([1.0, 0.0], [0.0, 1.0]) == pytest.approx(1.0, abs=1e-12)

    def test_bounds_and_symmetry_random(self):
        g = np.random.default_rng(0)
        for _ in range(1000):
            k = int(g.integers(2, 12))
            p = g.random(k) + 1e-6
            q = g.random(k) + 1e-6
            p, q = p / p.sum(), q / q.sum()
            assert avg_kld(p, q) >= 0.0
            assert 0.0 <= jsd(p, q) <= math.log(2.0) + 1e-12
            assert bd(p, q) >= -1e-12
            assert 0.0 <= hd(p, q) <= 1.0 + 1e-12
            assert avg_kld(p, q) == avg_kld(q, p)
            assert jsd(p, q) == jsd(q, p)
            assert bd(p, q) == bd(q, p)
            assert hd(p, q) == hd(q, p)

    def test_support_mismatch(self):
        with pytest.raises(ValueError, match="support"):
            jsd([0.5, 0.5], [0.3, 0.3, 0.4])


class TestMmd:
    def test_identical_sets_zero(self):
        g = np.random.default_rng(1)
        pts = g.standard_normal((10, 2))
        assert abs(mmd_sq(pts, pts.copy())) < 1e-12

    def test_singleton_closed_form(self):
        # pooled pair distance is 1, so the median heuristic gives sigma=1
        val = mmd_sq(np.array([[0.0]]), np.array([[1.0]]))
        assert val == pytest.approx(1.0 + 1.0 - 2.0 * math.exp(-0.5), abs=1e-12)
        fixed = mmd_sq(np.array([[0.0]]), np.array([[1.0]]), bandwidth=1.0)
        assert fixed == pytest.approx(val, abs=1e-12)

    def test_symmetric(self):
        g = np.random.default_rng(2)
        a, b = g.standard_normal((6, 3)), g.standard_normal((9, 3))
        assert mmd_sq(a, b) == mmd_sq(b, a)

    def test_non_negative_random(self):
        g = np.random.default_rng(3)
        for _ in range(200):
            a = g.standard_normal((int(g.integers(1, 12)), 2))
            b = g.standard_normal((int(g.integers(1, 12)), 2)) + g.uniform(-2, 2)
            assert mmd_sq(a, b) >= -1e-12

    def test_empty_set_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            mmd_sq(np.zeros((0, 2)), np.zeros((3, 2)))

    def test_dim_mismatch(self):
        with pytest.raises(ShapeError):
            mmd_sq(np.zeros((2, 2)), np.zeros((2, 3)))

    def test_median_bandwidth_of_pooled_points(self):
        a = np.array([[0.0], [0.0]])
        b = np.array([[3.0], [3.0]])
        # pooled distances: 0, 0, 3, 3, 3, 3 -> median 3
        assert median_bandwidth(a, b) == 3.0

    def test_gradient_at_fixed_bandwidth(self):
        g = np.random.default_rng(4)
        b0 = g.standard_normal((8, 2))

        def f(x):
            return mmd_sq(x, ad.as_value(b0), bandwidth=1.0)

        rep = ad.grad_check(f, g.standard_normal((8, 2)), eps=1e-5)
        assert rep.max_rel_error < 1e-4


class TestMpmmd:
    def batch(self, offset, n=4, seed=5, spread=1.0):
        g = np.random.default_rng(seed)
        x = spread * g.standard_normal((n, 2, 3, 2, 2))
        x[..., 1] += offset
        return x

    def test_identical_entities_zero(self):
        x = self.batch(0.0)
        x[..., 1] = x[..., 0]
        val = mpmmd_loss(x, [EntityPair(0, 1)])
        assert abs(val) < 1e-12

    def test_kernel_saturation_limit(self):
        # tight clusters separated by a huge offset, unit bandwidth
        x = self.batch(1e4, spread=1e-4)
        val = mpmmd_loss(x, [EntityPair(0, 1)], bandwidth=1.0)
        assert val == pytest.approx(2.0, abs=1e-5)

    def test_enumeration_matches_exact_mean(self):
        g = np.random.default_rng(6)
        x = g.standard_normal((3, 2, 4, 2, 3))
        pairs = all_pairs(3)
        full = mpmmd_loss(x, pairs, seed=11)
        sets = entity_point_sets(x, seed=11)
        per_pair = [float(mmd_sq(sets[p.i].data, sets[p.j].data)) for p in pairs]
        assert full == pytest.approx(float(np.mean(per_pair)), abs=1e-12)

    def test_single_pair_sampling_unbiased(self):
        g = np.random.default_rng(7)
        x = g.standard_normal((3, 2, 4, 2, 3))
        x[..., 1] += 1.5
        x[..., 2] -= 0.75
        pairs = all_pairs(3)
        sets = entity_point_sets(x, seed=0)
        values = np.array([float(mmd_sq(sets[p.i].data, sets[p.j].data)) for p in pairs])
        exact = values.mean()
        draws = np.array([
            values[[(p.i, p.j) for p in pairs].index((q.i, q.j))]
            for seed in range(10_000)
            for q in sample_pairs(3, 1, seed=seed)
        ])
        se = values.std() / math.sqrt(len(draws))
        assert abs(draws.mean() - exact) <= 3 * se

    def test_gradient_wrt_shifted_coordinates(self):
        g = np.random.default_rng(8)

        def f(x):
            return mpmmd_loss(x, [EntityPair(0, 1)], bandwidth=1.0)

        rep = ad.grad_check(f, g.standard_normal((2, 2, 2, 2, 2)))
        assert rep.max_rel_error < 1e-4

    def test_subsampling_deterministic(self):
        g = np.random.default_rng(9)
        x = g.standard_normal((8, 2, 8, 3, 2))
        a = mpmmd_loss(x, [EntityPair(0, 1)], points_per_entity=32, seed=3)
        b = mpmmd_loss(x, [EntityPair(0, 1)], points_per_entity=32, seed=3)
        assert a == b

    def test_requires_pairs_and_entities(self):
        with pytest.raises(ValueError, match="pair"):
            mpmmd_loss(np.zeros((1, 2, 2, 2, 2)), [])
        with pytest.raises(ValueError, match="entities"):
            mpmmd_loss(np.zeros((1, 2, 2, 2, 1)), [EntityPair(0, 1)])


class TestKde:
    def test_normal_oracle_one_dimension(self):
        g = np.random.default_rng(10)
        pts = g.standard_normal((10_000, 1))
        dist = kde_estimate(pts, KdeConfig(grid_points_per_dim=64))
        centers = dist.axes[0]
        half = 0.5 * (centers[1] - centers[0])
        cdf_mass = norm.cdf(centers + half) - norm.cdf(centers - half)
        cdf_mass /= cdf_mass.sum()
        assert np.max(np.abs(dist.masses - cdf_mass)) < 0.02

    def test_masses_normalized(self):
        g = np.random.default_rng(11)
        for _ in range(10):
            pts = g.standard_normal((50, 2)) * g.uniform(0.5, 3.0)
            dist = kde_estimate(pts)
            assert abs(dist.masses.sum() - 1.0) < 1e-9

    def test_translation_equivariance(self):
        g = np.random.default_rng(12)
        pts = g.standard_normal((40, 2))
        t = np.array([5.0, -3.0])
        a = kde_estimate(pts)
        b = kde_estimate(pts + t)
        for d in range(2):
            np.testing.assert_allclose(b.axes[d], a.axes[d] + t[d], atol=1e-9)
        np.testing.assert_allclose(b.masses, a.masses, atol=1e-9)

    def test_degenerate_data_suggests_fixed_bandwidth(self):
        pts = np.zeros((10, 2))
        with pytest.raises(DegenerateInputError, match="fixed"):
            kde_estimate(pts, KdeConfig(bandwidth_rule="scott"))
        dist = kde_estimate(pts, KdeConfig(bandwidth_rule="fixed", fixed_bandwidth=0.5))
        assert abs(dist.masses.sum() - 1.0) < 1e-9

    def test_needs_two_points(self):
        with pytest.raises(ValueError):
            kde_estimate(np.zeros((1, 2)))

    def test_three_dimensional_grid(self):
        g = np.random.default_rng(14)
        dist = kde_estimate(g.standard_normal((60, 3)), KdeConfig(grid_points_per_dim=16))
        assert dist.masses.shape == (16, 16, 16)
        assert abs(dist.masses.sum() - 1.0) < 1e-9

    def test_silverman_rule_runs(self):
        g = np.random.default_rng(15)
        dist = kde_estimate(g.standard_normal((40, 2)), KdeConfig(bandwidth_rule="silverman"))
        assert abs(dist.masses.sum() - 1.0) < 1e-9


class TestReport:
    def synth(self, **kw):
        cfg = SynthConfig(samples_per_class=8, test_samples_per_class=4,
                          frames=6, joints=4, seed=1, **kw)
        return synth_generate(cfg)

    def test_identical_entities_metrics_exactly_zero(self):
        g = np.random.default_rng(13)
        coords = g.standard_normal((10, 2, 6, 4, 2))
        coords[..., 1] = coords[..., 0]

        rep = report(
            [type("S", (), {"coords": c})() for c in coords],
            lambda seqs: np.stack([s.coords for s in seqs]),
            repetitions=3,
            points_per_entity=None,  # full pools, so both sets coincide
            seed=0,
        )
        for m in ("avg_kld", "jsd", "bd", "hd", "mmd"):
            assert rep.mean((0, 1), m) <= 1e-9

    def test_shared_distribution_metrics_small(self):
        # independent draws from one distribution: zero up to KDE/subsample noise
        g = np.random.default_rng(13)
        coords = g.standard_normal((30, 2, 6, 4, 2))

        rep = report(
            [type("S", (), {"coords": c})() for c in coords],
            lambda seqs: np.stack([s.coords for s in seqs]),
            repetitions=5,
            points_per_entity=256,
            seed=0,
        )
        bounds = {"avg_kld": 0.6, "jsd": 0.12, "bd": 0.12, "hd": 0.35, "mmd": 0.2}
        for m, bound in bounds.items():
            assert rep.mean((0, 1), m) < bound

    def test_direction_vanilla_vs_global_centering(self):
        _, test = self.synth()
        from chase.skeleton import s2com_global

        vanilla = report(test, stack_coords, repetitions=5, seed=2)
        centered = report(test, lambda seqs: s2com_global(stack_coords(seqs)),
                          repetitions=5, seed=2)
        for m in ("avg_kld", "jsd", "bd", "hd", "mmd"):
            assert centered.mean((0, 1), m) < vanilla.mean((0, 1), m)

    def test_repetition_count_respected(self):
        _, test = self.synth()
        rep = report(test, stack_coords, repetitions=3, seed=0)
        assert rep.repetitions == 3
        mean, std = rep.values[(0, 1)]["mmd"]
        assert std >= 0.0

    def test_csv_and_json_emission(self):
        _, test = self.synth()
        rep = report(test, stack_coords, repetitions=2, seed=0)
        csv_text = rep.to_csv()
        assert csv_text.splitlines()[0] == "pair,metric,mean,std"
        assert any(line.startswith("0-1,avg_kld,") for line in csv_text.splitlines())
        import csv as csv_mod
        import io
        import json

        rows = list(csv_mod.DictReader(io.StringIO(csv_text)))
        assert len(rows) == 5
        for row in rows:
            float(row["mean"]), float(row["std"])  # strictly parseable numbers

        blob = json.loads(rep.to_json())
        assert blob["repetitions"] == 2
        assert blob["pairs"][0]["pair"] == "0-1"

    def test_three_entities_report_every_pair(self):
        cfg = SynthConfig(samples_per_class=6, test_samples_per_class=3,
                          frames=4, joints=3, entities=3, seed=1)
        _, test = synth_generate(cfg)
        rep = report(test, stack_coords, repetitions=2, seed=0)
        assert rep.pairs == [(0, 1), (0, 2), (1, 2)]
        assert len(rep.to_csv().splitlines()) == 1 + 3 * 5
