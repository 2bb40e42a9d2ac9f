"""Sparse-grid sampling recovery on [0,1]^d with the hierarchical hat basis."""

from .dyadic import (
    MAX_LEVEL,
    LevelVector,
    levels_up_to,
    node_count,
    node_set,
)
from .faber import (
    EvaluationError,
    FaberSeries,
    FunctionHandle,
    analyze,
    evaluate_batch,
    integrate,
    series_from_json,
    series_from_text,
    series_to_json,
    series_to_text,
    synthesize,
)
from .seqnorm import NormParams, decay_profile, level_lp, seq_norm, series_profile
from .measure import (
    CompositeGauss,
    MeasureSpec,
    StratifiedMC,
    SupGrid,
    block_lq_exact,
    default_spec,
    lq_error,
    lq_norm,
)
from .testbed import (
    SMOOTH_IDS,
    default_kink_anchor,
    extremal,
    hat_family,
    kink,
    smooth,
    spike,
)
from .experiments import (
    CubatureRecord,
    NoncompactReport,
    RateFit,
    RateRecord,
    WidthRecord,
    comb_check,
    convergence_study,
    cubature_study,
    fit_rate,
    noncompact_demo,
    reference_envelope,
    sampling_width_table,
)

__version__ = "0.1.0"
