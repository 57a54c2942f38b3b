"""chase: sample-adaptive origin-shift normalization for multi-entity skeleton sequences.

The package trains a lightweight coefficient network that repositions each
sequence's origin to a learned point inside the convex hull of its own
coordinates, guided by a pair-wise maximum-mean-discrepancy objective, and
ships the baseline normalizers, distribution-discrepancy metric suite,
synthetic benchmark generator and CLI around it.
"""

__version__ = "0.1.0"

from .autodiff import Value, backward, grad_check
from .discrepancy import (
    DiscrepancyReport,
    KdeConfig,
    avg_kld,
    bd,
    hd,
    jsd,
    kde_estimate,
    mmd_sq,
    mpmmd_loss,
    report,
)
from .errors import (
    ChaseError,
    ConfigError,
    DataValidationError,
    DegenerateInputError,
    FormatError,
    NonFiniteError,
    ShapeError,
    TrainingDiverged,
)
from .shift import (
    ClbParams,
    EntityPair,
    SegmentSpec,
    ShiftCoefficients,
    chase_forward,
    clb_forward,
    flop_estimate,
    ichas_fixed,
    init_clb_params,
    jacobian_fixed_w,
    param_count,
    sample_pairs,
)
from .skeleton import (
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
from .synth import SynthConfig, load_dataset, save_dataset, synth_generate
from .training import (
    BackboneConfig,
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

__all__ = [name for name in dir() if not name.startswith("_")]
