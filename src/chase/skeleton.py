"""Skeleton-sequence data model, baseline normalizers, corruptions, and
graph-based modality transforms.

A sequence holds coordinates of shape (C, T, J, E): C Cartesian channels,
T frames, J joints per entity, E entities; coordinates are float64 and must
stay finite. The normalizers take and return coordinate arrays of shape
(..., C, T, J, E), so one call serves a single sample or a batch; the
sequence transforms (`corrupt`, `khop_bones`) return new sequences.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .errors import DataValidationError, DegenerateInputError

__all__ = [
    "SkeletonSequence",
    "GraphPrior",
    "CorruptionConfig",
    "validate",
    "s2com_per_entity",
    "s2com_global",
    "std_scale",
    "ChannelBatchNorm",
    "augment_random_shift",
    "corrupt",
    "khop_bones",
    "stack_coords",
]


@dataclass
class SkeletonSequence:
    """One multi-entity action sample: coords (C, T, J, E), class id, valid frame count."""

    coords: np.ndarray
    label: int
    valid_frames: int = -1

    def __post_init__(self):
        self.coords = np.asarray(self.coords, dtype=np.float64)
        if self.valid_frames < 0 and self.coords.ndim == 4:
            self.valid_frames = self.coords.shape[1]

    @property
    def dims(self):
        return self.coords.shape

    def with_coords(self, coords):
        return replace(self, coords=np.asarray(coords, dtype=np.float64))

    def __eq__(self, other):
        if not isinstance(other, SkeletonSequence):
            return NotImplemented
        return (self.label == other.label
                and self.valid_frames == other.valid_frames
                and self.coords.shape == other.coords.shape
                and np.array_equal(self.coords, other.coords))


def validate(seq):
    """Check every sequence invariant; raise DataValidationError naming the field."""
    problems = []
    c = seq.coords
    if c.ndim != 4:
        raise DataValidationError(f"coords: expected 4 axes (C,T,J,E), got {c.ndim}")
    C, T, J, E = c.shape
    if C not in (2, 3):
        problems.append(f"coords.shape[0]: channel count must be 2 or 3, got {C}")
    for name, n in (("T", T), ("J", J), ("E", E)):
        if n < 1:
            problems.append(f"coords.shape[{name}]: must be >= 1, got {n}")
    if not np.all(np.isfinite(c)):
        bad = np.argwhere(~np.isfinite(c))[0]
        problems.append(f"coords[{', '.join(map(str, bad))}]: non-finite value")
    if seq.label < 0:
        problems.append(f"label: must be non-negative, got {seq.label}")
    if not 0 <= seq.valid_frames <= T:
        problems.append(f"valid_frames: must lie in [0, {T}], got {seq.valid_frames}")
    if problems:
        raise DataValidationError("; ".join(problems))


def s2com_per_entity(x):
    """Shift each entity to its own spatiotemporal center of mass.

    x: array (..., C, T, J, E), one sample or a batch. Destroys all
    inter-entity offsets: any two entities at constant positions both map to
    zero.
    """
    x = np.asarray(x, dtype=np.float64)
    return x - x.mean(axis=(-3, -2), keepdims=True)


def s2com_global(x):
    """Shift each sample of x (..., C, T, J, E) by its center of mass over (T, J, E)."""
    x = np.asarray(x, dtype=np.float64)
    return x - x.mean(axis=(-3, -2, -1), keepdims=True)


def std_scale(x):
    """Center each sample globally, then scale each channel to unit standard deviation."""
    centered = s2com_global(x)
    std = centered.std(axis=(-3, -2, -1), keepdims=True)
    if np.any(std == 0.0):
        *sample, ch = np.argwhere(std[..., 0, 0, 0] == 0.0)[0]
        where = f"sample {', '.join(map(str, sample))}, " if sample else ""
        raise DegenerateInputError(f"{where}channel {ch} has zero standard deviation")
    return centered / std


class ChannelBatchNorm:
    """Per-channel batch normalization over all of (batch, T, J, E).

    Training mode normalizes with batch statistics and updates running
    statistics with momentum 0.1; eval mode uses only the stored statistics.
    """

    def __init__(self, num_channels, eps=1e-5, momentum=0.1):
        self.eps = eps
        self.momentum = momentum
        self.running_mean = np.zeros(num_channels)
        self.running_var = np.ones(num_channels)

    def __call__(self, batch, training):
        """batch: array (N, C, T, J, E) -> normalized array of the same shape."""
        batch = np.asarray(batch, dtype=np.float64)
        axes = (0, 2, 3, 4)
        if training:
            if batch.shape[0] < 2:
                raise ValueError(f"training-mode batch norm needs >= 2 samples, got {batch.shape[0]}")
            mean = batch.mean(axis=axes)
            var = batch.var(axis=axes)
            m = self.momentum
            self.running_mean = (1 - m) * self.running_mean + m * mean
            self.running_var = (1 - m) * self.running_var + m * var
        else:
            mean, var = self.running_mean, self.running_var
        shape = (1, -1, 1, 1, 1)
        return (batch - mean.reshape(shape)) / np.sqrt(var.reshape(shape) + self.eps)

    def state(self):
        return {"bn.mean": self.running_mean.copy(), "bn.var": self.running_var.copy()}

    def load_state(self, tensors):
        self.running_mean = np.array(tensors["bn.mean"], dtype=np.float64)
        self.running_var = np.array(tensors["bn.var"], dtype=np.float64)


def augment_random_shift(x, range_r, seed):
    """Add one uniform random vector in [-r, r]^C to every coordinate of each sample.

    x: array (..., C, T, J, E); the draws form one (..., C) block.
    """
    if range_r < 0:
        raise ValueError(f"shift range must be >= 0, got {range_r}")
    x = np.asarray(x, dtype=np.float64)
    rng = np.random.default_rng(seed)
    shift = rng.uniform(-range_r, range_r, size=x.shape[:-3])
    return x + shift[..., None, None, None]


@dataclass
class CorruptionConfig:
    """Test-time corruption: additive Gaussian noise then random joint masking."""

    noise_sigma: float = 0.0
    mask_prob: float = 0.0
    seed: object = 0

    def __post_init__(self):
        if self.noise_sigma < 0:
            raise ValueError(f"noise_sigma must be >= 0, got {self.noise_sigma}")
        if not 0.0 <= self.mask_prob <= 1.0:
            raise ValueError(f"mask_prob must lie in [0, 1], got {self.mask_prob}")


def corrupt(seq, cfg):
    """Add N(0, sigma^2) noise to every coordinate, then zero each (t, j, e)
    joint independently with probability mask_prob."""
    rng = np.random.default_rng(cfg.seed)
    coords = seq.coords.copy()
    if cfg.noise_sigma > 0:
        coords = coords + rng.normal(0.0, cfg.noise_sigma, size=coords.shape)
    if cfg.mask_prob > 0:
        mask = rng.random(coords.shape[1:]) < cfg.mask_prob  # (T, J, E), all channels drop
        coords = np.where(mask[None], 0.0, coords)
    return seq.with_coords(coords)


@dataclass
class GraphPrior:
    """Rooted directed joint graph: parent pointers plus the binary adjacency P.

    P[i, parent(i)] = 1; roots have no parent, so P is nilpotent with index
    bounded by the deepest root-to-leaf hop count.
    """

    num_joints: int
    parent: list
    adjacency: np.ndarray = field(init=False)

    def __post_init__(self):
        j = self.num_joints
        if len(self.parent) != j:
            raise DataValidationError(f"parent: expected {j} entries, got {len(self.parent)}")
        p = np.zeros((j, j))
        for i, par in enumerate(self.parent):
            if par is None:
                continue
            if not 0 <= par < j:
                raise DataValidationError(f"parent[{i}]: index {par} out of range")
            p[i, par] = 1.0
        # walking parents must terminate for every joint
        for i in range(j):
            seen, cur = set(), i
            while self.parent[cur] is not None:
                if cur in seen:
                    raise DataValidationError(f"parent: cycle through joint {i}")
                seen.add(cur)
                cur = self.parent[cur]
        self.adjacency = p

    @property
    def depth(self):
        """Longest hop count from any joint to its root."""
        best = 0
        for i in range(self.num_joints):
            hops, cur = 0, i
            while self.parent[cur] is not None:
                hops += 1
                cur = self.parent[cur]
            best = max(best, hops)
        return best

    @classmethod
    def chain(cls, num_joints):
        return cls(num_joints, [None] + list(range(num_joints - 1)))


def khop_bones(seq, prior, k):
    """Bone-style modality transform: per frame and entity, apply (I - P^k).

    Joints without a length-k ancestor chain keep their original coordinates
    (their row of P^k is zero).
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    j = prior.num_joints
    if seq.coords.shape[2] != j:
        raise DataValidationError(
            f"coords.shape[2]: {seq.coords.shape[2]} joints but graph has {j}")
    m = np.eye(j) - np.linalg.matrix_power(prior.adjacency, k)
    return seq.with_coords(np.einsum("ij,ctje->ctie", m, seq.coords))


def stack_coords(seqs):
    """Stack a list of sequences into one (N, C, T, J, E) array."""
    return np.stack([s.coords for s in seqs], axis=0)
