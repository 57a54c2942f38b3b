"""Late-fusion backbone stand-in, total objective, SGD loop and checkpoints.

The backbone encodes every entity with one shared multilayer perceptron on
its flattened (C, T, J) coordinates, averages the per-entity features, and
classifies with a linear head. Normalization happens in front of it, chosen
by name; the adaptive-shift normalizer is the only one whose parameters
train jointly with the backbone (classification gradients plus the pair-wise
discrepancy objective on the shifted coordinates).

All randomness is counter-based: every stream is keyed by (seed, purpose,
epoch, batch), so a checkpoint needs only (seed, epoch) to resume the exact
uninterrupted trajectory.
"""

from __future__ import annotations

import dataclasses
import json
import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import autodiff as ad
from .discrepancy import mpmmd_loss
from .errors import (
    ConfigError,
    FormatError,
    NonFiniteError,
    TrainingDiverged,
)
from .shift import (
    ClbParams,
    SegmentSpec,
    _kaiming_uniform,
    chase_forward,
    init_clb_params,
    sample_pairs,
)
from .skeleton import (
    ChannelBatchNorm,
    CorruptionConfig,
    augment_random_shift,
    corrupt,
    s2com_global,
    s2com_per_entity,
    stack_coords,
    std_scale,
)

__all__ = [
    "BackboneConfig",
    "TrainConfig",
    "Model",
    "build_model",
    "backbone_forward",
    "total_loss",
    "sgd_step",
    "train",
    "evaluate",
    "corruption_table",
    "build_normalize_fn",
    "save_checkpoint",
    "load_checkpoint",
    "model_from_checkpoint",
    "NORMALIZERS",
]

NORMALIZERS = (
    "vanilla",
    "s2com",
    "s2com_global",
    "s2com_global_std",
    "batchnorm",
    "aug",
    "chase",
)

# rng stream purposes
_STREAM_BACKBONE = 1
_STREAM_CLB = 2
_STREAM_SHUFFLE = 3
_STREAM_AUG = 4
_STREAM_PAIRS = 5
_STREAM_POINTS = 6


@dataclass
class BackboneConfig:
    hidden_widths: list = field(default_factory=lambda: [64])
    feature_dim: int = 32

    def __post_init__(self):
        if any(w < 1 for w in self.hidden_widths) or self.feature_dim < 1:
            raise ConfigError("backbone widths must be positive")


@dataclass
class TrainConfig:
    lr: float = 0.05
    momentum: float = 0.9
    lr_decay_epochs: list = field(default_factory=lambda: [20, 25])
    decay_rate: float = 0.1
    epochs: int = 30
    batch_size: int = 32
    lambda_: float = 0.1
    pairs_per_batch: int = 1
    points_per_entity: int = 256
    seed: int = 0
    normalizer: str = "chase"
    aug_range: float = 1.0
    c1: int = 16
    c2: int = 4
    seg: tuple = (1, 1, 1)
    backbone: BackboneConfig = field(default_factory=BackboneConfig)

    def __post_init__(self):
        if isinstance(self.backbone, dict):
            self.backbone = BackboneConfig(**self.backbone)
        self.seg = tuple(self.seg)
        if self.lr <= 0:
            raise ConfigError(f"lr must be positive, got {self.lr}")
        if self.lambda_ < 0:
            raise ConfigError(f"lambda must be >= 0, got {self.lambda_}")
        if self.pairs_per_batch < 1:
            raise ConfigError(f"pairs_per_batch must be >= 1, got {self.pairs_per_batch}")
        if self.epochs < 1 or self.batch_size < 1:
            raise ConfigError("epochs and batch_size must be >= 1")
        if self.normalizer not in NORMALIZERS:
            raise ConfigError(f"unknown normalizer {self.normalizer!r}; choose from {NORMALIZERS}")

    def to_dict(self):
        d = dataclasses.asdict(self)
        d["lambda"] = d.pop("lambda_")
        d["seg"] = list(d["seg"])
        return d

    @classmethod
    def from_dict(cls, d):
        d = dict(d)
        if "lambda" in d:
            d["lambda_"] = d.pop("lambda")
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(d) - known
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        return cls(**d)

    def lr_at(self, epoch):
        decays = sum(1 for d in self.lr_decay_epochs if epoch >= d)
        return self.lr * self.decay_rate ** decays


class Model:
    """Normalizer choice plus all trainable state."""

    def __init__(self, normalizer, dims, num_classes, backbone_params, clb=None, bn=None,
                 aug_range=1.0):
        self.normalizer = normalizer
        self.dims = tuple(dims)  # (C, T, J, E)
        self.num_classes = num_classes
        self.backbone = backbone_params  # dict name -> Value
        self.clb = clb
        self.bn = bn
        self.aug_range = aug_range

    def trainable(self):
        params = dict(self.backbone)
        if self.normalizer == "chase":
            params.update(self.clb.named_tensors())
        return params

    def named_tensors(self):
        tensors = {name: v.data for name, v in self.backbone.items()}
        if self.clb is not None:
            tensors.update({name: v.data for name, v in self.clb.named_tensors().items()})
        if self.bn is not None:
            tensors.update(self.bn.state())
        return tensors


def _init_backbone(input_dim, cfg, num_classes, rng):
    params = {}
    widths = list(cfg.hidden_widths) + [cfg.feature_dim]
    prev = input_dim
    for i, width in enumerate(widths):
        params[f"backbone.w{i}"] = ad.parameter(_kaiming_uniform(rng, prev, (prev, width)))
        params[f"backbone.b{i}"] = ad.parameter(np.zeros(width))
        prev = width
    params["backbone.head_w"] = ad.parameter(0.01 * rng.standard_normal((prev, num_classes)))
    params["backbone.head_b"] = ad.parameter(np.zeros(num_classes))
    return params


def build_model(cfg, dims, num_classes):
    """Fresh model for dataset dims (C, T, J, E) under the configured normalizer."""
    c, t, j, e = dims
    rng = np.random.default_rng([cfg.seed, _STREAM_BACKBONE])
    backbone = _init_backbone(c * t * j, cfg.backbone, num_classes, rng)
    clb = None
    bn = None
    if cfg.normalizer == "chase":
        clb = init_clb_params(c, t, j, e, cfg.c1, cfg.c2, seg=SegmentSpec(*cfg.seg),
                              seed=[cfg.seed, _STREAM_CLB])
    elif cfg.normalizer == "batchnorm":
        bn = ChannelBatchNorm(c)
    return Model(cfg.normalizer, dims, num_classes, backbone, clb=clb, bn=bn,
                 aug_range=cfg.aug_range)


def _layer_count(backbone):
    return sum(1 for name in backbone if name.startswith("backbone.w"))


def backbone_forward(backbone, x):
    """Shared per-entity MLP, feature average over entities, linear head.

    x: Value or array (N, C, T, J, E) -> logits Value (N, K). Averaging makes
    the logits invariant to entity order.
    """
    v = ad.as_value(x)
    n, c, t, j, e = v.shape
    per_entity = ad.reshape(ad.transpose(v, (0, 4, 1, 2, 3)), (n * e, c * t * j))
    h = per_entity
    for i in range(_layer_count(backbone)):
        w, b = backbone[f"backbone.w{i}"], backbone[f"backbone.b{i}"]
        h = ad.relu(ad.matmul(h, w) + ad.reshape(b, (1, b.shape[0])))
    feats = ad.vmean(ad.reshape(h, (n, e, h.shape[1])), axis=1)
    head_w, head_b = backbone["backbone.head_w"], backbone["backbone.head_b"]
    return ad.matmul(feats, head_w) + ad.reshape(head_b, (1, head_b.shape[0]))


def total_loss(logits, labels, x_hat=None, pairs=None, lambda_=0.0,
               points_per_entity=256, points_seed=0, bandwidth=None):
    """Classification loss plus the weighted pair-wise discrepancy term.

    With lambda 0 (or no pairs) this is exactly the classification loss.
    Returns (loss, cls_value, mpmmd_value_or_None).
    """
    if lambda_ < 0:
        raise ConfigError(f"lambda must be >= 0, got {lambda_}")
    cls = ad.cross_entropy(logits, labels)
    if lambda_ == 0.0 or not pairs:
        return cls, float(cls.data), None
    mp = mpmmd_loss(x_hat, pairs, points_per_entity=points_per_entity,
                    seed=points_seed, bandwidth=bandwidth)
    return cls + ad.scale(mp, lambda_), float(cls.data), float(mp.data)


def sgd_step(params, velocities, lr, momentum):
    """Nesterov momentum update: v <- mu v + g; p <- p - lr (g + mu v).

    With momentum 0 this reduces to plain gradient descent.
    """
    for name, p in params.items():
        if p.grad is None:
            raise ValueError(f"parameter {name} has no gradient")
        g = p.grad
        v = velocities[name]
        v *= momentum
        v += g
        p.data = p.data - lr * (g + momentum * v)


def _backbone_input(model, raw, training=False, aug_seed=None):
    """Apply the model's input normalizer to a raw (N, C, T, J, E) array.

    In training, `chase` returns a Value whose graph reaches the block's
    weights, and `aug` draws its shifts from the `aug_seed` stream; otherwise
    the result is an array.
    """
    kind = model.normalizer
    if kind == "chase":
        return chase_forward(ad.as_value(raw) if training else raw, model.clb)
    if kind == "s2com":
        return s2com_per_entity(raw)
    if kind == "s2com_global":
        return s2com_global(raw)
    if kind == "s2com_global_std":
        return std_scale(raw)
    if kind == "batchnorm":
        return model.bn(raw, training=training)
    if kind == "aug" and training and model.aug_range != 0.0:
        return augment_random_shift(raw, model.aug_range, aug_seed)
    if kind in ("vanilla", "aug"):
        return raw
    raise ConfigError(f"unknown normalizer {kind!r}")


def train(train_seqs, cfg, test_seqs=None, resume=None, on_epoch=None):
    """Run the configured loop; returns (model, metrics, velocities).

    `resume` is a checkpoint path: training continues from its stored epoch
    with restored parameters, optimizer velocities and normalizer state, and
    reproduces the uninterrupted run exactly. `on_epoch` is called with each
    metrics entry as it is produced.
    """
    if not train_seqs:
        raise ConfigError("training set is empty")
    dims = train_seqs[0].coords.shape
    num_classes = max(s.label for s in train_seqs) + 1
    if cfg.normalizer == "batchnorm" and cfg.batch_size < 2:
        raise ConfigError("batchnorm training requires batch_size >= 2")

    start_epoch = 0
    if resume is None:
        model = build_model(cfg, dims, num_classes)
        velocities = {name: np.zeros_like(p.data) for name, p in model.trainable().items()}
    else:
        model, velocities, meta = model_from_checkpoint(resume)
        stored = TrainConfig.from_dict(meta["config"]).to_dict()
        current = cfg.to_dict()
        mismatch = [k for k in current if k != "epochs" and stored.get(k) != current[k]]
        if mismatch:
            raise ConfigError(f"checkpoint config disagrees on {sorted(mismatch)}")
        start_epoch = meta["epoch"]

    labels_all = np.array([s.label for s in train_seqs], dtype=np.intp)
    coords_all = stack_coords(train_seqs)
    n = len(train_seqs)
    e = dims[3]
    params = model.trainable()

    metrics = []
    for epoch in range(start_epoch, cfg.epochs):
        lr = cfg.lr_at(epoch)
        order = np.random.default_rng([cfg.seed, _STREAM_SHUFFLE, epoch]).permutation(n)
        epoch_cls, epoch_mp, epoch_loss, batches = 0.0, 0.0, 0.0, 0
        mp_batches = 0
        try:
            for b, lo in enumerate(range(0, n, cfg.batch_size)):
                idx = order[lo:lo + cfg.batch_size]
                if idx.size < 2 and cfg.normalizer == "batchnorm":
                    continue
                x_hat = _backbone_input(model, coords_all[idx], training=True,
                                        aug_seed=[cfg.seed, _STREAM_AUG, epoch, b])
                logits = backbone_forward(model.backbone, x_hat)
                pairs = None
                if cfg.normalizer == "chase" and cfg.lambda_ > 0 and e >= 2:
                    pairs = sample_pairs(e, cfg.pairs_per_batch,
                                         seed=[cfg.seed, _STREAM_PAIRS, epoch, b])
                loss, cls_val, mp_val = total_loss(
                    logits, labels_all[idx], x_hat=x_hat, pairs=pairs,
                    lambda_=cfg.lambda_, points_per_entity=cfg.points_per_entity,
                    points_seed=[cfg.seed, _STREAM_POINTS, epoch, b],
                )
                ad.zero_grad(params.values())
                ad.backward(loss)
                sgd_step(params, velocities, lr, cfg.momentum)
                epoch_loss += float(loss.data)
                epoch_cls += cls_val
                if mp_val is not None:
                    epoch_mp += mp_val
                    mp_batches += 1
                batches += 1
        except NonFiniteError as err:
            raise TrainingDiverged(epoch, f"epoch {epoch}: {err}") from err

        entry = {
            "epoch": epoch,
            "lr": lr,
            "train_loss": epoch_loss / max(batches, 1),
            "cls_loss": epoch_cls / max(batches, 1),
        }
        if mp_batches:
            entry["mpmmd"] = epoch_mp / mp_batches
        if test_seqs:
            entry["eval_acc"] = evaluate(model, test_seqs)
        metrics.append(entry)
        if on_epoch is not None:
            on_epoch(entry)
    return model, metrics, velocities


def evaluate(model, seqs, corruption=None, batch_size=128):
    """Top-1 accuracy; optional per-sample corruption seeded by sample index."""
    if not seqs:
        raise ConfigError("evaluation set is empty")
    if corruption is not None:
        base = corruption.seed
        base = list(base) if isinstance(base, (list, tuple)) else [base]
        seqs = [
            corrupt(s, dataclasses.replace(corruption, seed=base + [i]))
            for i, s in enumerate(seqs)
        ]
    labels = np.array([s.label for s in seqs], dtype=np.intp)
    hits = 0
    for lo in range(0, len(seqs), batch_size):
        chunk = seqs[lo:lo + batch_size]
        logits = backbone_forward(model.backbone, _backbone_input(model, stack_coords(chunk)))
        hits += int(np.sum(np.argmax(logits.data, axis=1) == labels[lo:lo + len(chunk)]))
    return hits / len(seqs)


def corruption_table(model, seqs, sigmas=(1e-3, 1e-2), mask_probs=(1e-2, 1e-1), seed=0):
    """Noise-only and mask-only accuracy grid, one row per corruption kind."""
    return {
        "clean": evaluate(model, seqs),
        "noise": {
            repr(s): evaluate(model, seqs, CorruptionConfig(s, 0.0, seed=seed))
            for s in sigmas
        },
        "mask": {
            repr(p): evaluate(model, seqs, CorruptionConfig(0.0, p, seed=seed))
            for p in mask_probs
        },
    }


def build_normalize_fn(model):
    """Sequence-list -> normalized coordinate array, in eval mode."""
    return lambda seqs: _backbone_input(model, stack_coords(seqs))


# --- checkpoint file format -------------------------------------------------

CHCK_MAGIC = b"CHCK"
CHCK_VERSION = 1


def save_checkpoint(path, model, velocities, epoch, cfg):
    """Named float64 tensors plus a JSON trailer (config echo, epoch, dims)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tensors = dict(model.named_tensors())
    tensors.update({f"opt.{name}": v for name, v in velocities.items()})
    meta = {
        "config": cfg.to_dict(),
        "epoch": epoch,
        "dims": list(model.dims),
        "num_classes": model.num_classes,
        "normalizer": model.normalizer,
        "rng_state": {"seed": cfg.seed, "epoch": epoch},
    }
    blob = json.dumps(meta, sort_keys=True).encode()
    with open(path, "wb") as fh:
        fh.write(CHCK_MAGIC)
        fh.write(struct.pack("<HI", CHCK_VERSION, len(tensors)))
        for name in sorted(tensors):
            data = np.ascontiguousarray(tensors[name], dtype="<f8")
            encoded = name.encode()
            fh.write(struct.pack("<H", len(encoded)))
            fh.write(encoded)
            fh.write(struct.pack("<B", data.ndim))
            fh.write(struct.pack(f"<{data.ndim}I", *data.shape))
            fh.write(data.tobytes())
        fh.write(struct.pack("<I", len(blob)))
        fh.write(blob)
    return path


def load_checkpoint(path):
    """Read back (tensors dict, meta dict); bit-exact for float64 payloads."""
    raw = Path(path).read_bytes()
    if len(raw) < 10 or raw[:4] != CHCK_MAGIC:
        raise FormatError("bad magic at byte 0")
    version, count = struct.unpack_from("<HI", raw, 4)
    if version != CHCK_VERSION:
        raise FormatError("unsupported checkpoint version at byte 4")
    offset = 10
    tensors = {}
    try:
        for _ in range(count):
            (name_len,) = struct.unpack_from("<H", raw, offset)
            offset += 2
            name = raw[offset:offset + name_len].decode()
            offset += name_len
            (ndim,) = struct.unpack_from("<B", raw, offset)
            offset += 1
            shape = struct.unpack_from(f"<{ndim}I", raw, offset)
            offset += 4 * ndim
            size = int(np.prod(shape)) if ndim else 1
            tensors[name] = np.frombuffer(raw, dtype="<f8", count=size, offset=offset).reshape(shape)
            offset += 8 * size
        (meta_len,) = struct.unpack_from("<I", raw, offset)
        offset += 4
        meta = json.loads(raw[offset:offset + meta_len].decode())
    except (struct.error, UnicodeDecodeError, json.JSONDecodeError) as err:
        raise FormatError(f"corrupt checkpoint near byte {offset}: {err}") from err
    return tensors, meta


def model_from_checkpoint(path):
    """Rebuild (model, velocities, meta) from a checkpoint file."""
    tensors, meta = load_checkpoint(path)
    cfg = TrainConfig.from_dict(meta["config"])
    dims = tuple(meta["dims"])
    model = build_model(cfg, dims, meta["num_classes"])
    for name, value in model.backbone.items():
        value.data = np.array(tensors[name])
    if model.clb is not None:
        model.clb = ClbParams(
            np.array(tensors["clb.w1"]), np.array(tensors["clb.b"]),
            np.array(tensors["clb.w2"]), np.array(tensors["clb.w3"]),
            seg=SegmentSpec(*cfg.seg),
        )
    if model.bn is not None:
        model.bn.load_state(tensors)
    velocities = {
        name[len("opt."):]: np.array(value)
        for name, value in tensors.items()
        if name.startswith("opt.")
    }
    for name in model.trainable():
        velocities.setdefault(name, np.zeros_like(tensors[name]))
    return model, velocities, meta
