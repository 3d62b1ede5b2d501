"""Core numerics: DMD, mrDMD, incremental SVD, I-mrDMD, spectrum, baselines.

This subpackage contains the paper's primary contribution — the incremental
multiresolution dynamic mode decomposition (:class:`IncrementalMrDMD`) — and
every numerical building block it relies on.  The public surface re-exported
here is what the examples, benchmarks, and higher-level pipeline use.
"""

from .baseline import (
    BaselineModel,
    BaselineSpec,
    ZScoreCategory,
    ZScoreResult,
    classify_zscores,
    compute_zscores,
    select_baseline_mask,
)
from .dmd import DMDResult, compute_dmd, compute_dmd_projected, slow_mode_mask
from .imrdmd import (
    MISSING_VALUE_POLICIES,
    RETENTION_POLICIES,
    IncrementalMrDMD,
    PoisonChunkError,
    TopologyChange,
    UpdateRecord,
)
from .isvd import IncrementalSVD, ISVDState
from .mrdmd import MrDMDConfig, compute_mrdmd, decompose_window
from .reconstruction import (
    ReconstructionReport,
    evaluate_reconstruction,
    frobenius_error,
    noise_reduction_ratio,
    reconstruction_traces,
    relative_error,
)
from .spectrum import MrDMDSpectrum, SpectrumBand, mode_frequencies, mode_power
from .svht import SVHTResult, svht_rank, svht_threshold
from .tree import ModeTable, MrDMDNode, MrDMDTree

__all__ = [
    "BaselineModel",
    "BaselineSpec",
    "ZScoreCategory",
    "ZScoreResult",
    "classify_zscores",
    "compute_zscores",
    "select_baseline_mask",
    "DMDResult",
    "compute_dmd",
    "compute_dmd_projected",
    "RETENTION_POLICIES",
    "MISSING_VALUE_POLICIES",
    "slow_mode_mask",
    "IncrementalMrDMD",
    "PoisonChunkError",
    "TopologyChange",
    "UpdateRecord",
    "IncrementalSVD",
    "ISVDState",
    "MrDMDConfig",
    "compute_mrdmd",
    "decompose_window",
    "ReconstructionReport",
    "evaluate_reconstruction",
    "frobenius_error",
    "noise_reduction_ratio",
    "reconstruction_traces",
    "relative_error",
    "MrDMDSpectrum",
    "SpectrumBand",
    "mode_frequencies",
    "mode_power",
    "SVHTResult",
    "svht_rank",
    "svht_threshold",
    "ModeTable",
    "MrDMDNode",
    "MrDMDTree",
]
