"""Higher-order calibration from k-snapshot data.

Tools for building calibrated mixture predictors per partition from
repeated-label data, measuring k-th order calibration error in
Wasserstein-1 distance, recovering mixture moments, decomposing
predictive uncertainty into aleatoric and epistemic parts with proven
accuracy, and constructing higher-order prediction sets.
"""

from .calibrate import (
    CalibrationScore,
    CalibrationTable,
    SnapshotDataset,
    hoc_bound,
    koc_error,
    posthoc_calibrate,
    required_samples,
)
from .decompose import (
    LossBreakdown,
    UncertaintyReport,
    aleatoric_error,
    average_entropy,
    decompose,
    default_t_grid,
    loss_breakdown,
    mgf_diagnostic,
)
from .entropy import (
    EntropySpec,
    divergence,
    divergence_rows,
    entropy_rows,
    entropy_value,
    gradient,
    gradient_rows,
    loss_rows,
    proper_loss,
    shannon_modulus_bound,
)
from .errors import (
    CapExceeded,
    DimensionMismatch,
    DomainError,
    EmptyPartition,
    FormatError,
    HocalError,
    InvalidDistribution,
)
from .io import (
    read_calibration_table,
    read_snapshot_dataset,
    write_calibration_table,
    write_snapshot_dataset,
)
from .mixture import (
    Mixture,
    RngSeed,
    centroid,
    empirical_mixture,
    mixture_from_arrays,
    project_k,
    sample_snapshots,
)
from .moments import (
    MomentVector,
    PolyApprox,
    central_moment,
    chebyshev_fit,
    estimate_moments,
    moment_weight,
    poly_au_estimate,
)
from .predset import (
    IntervalSet,
    PredictionSet,
    build_mass_set,
    coverage,
    enlarge,
    moment_interval,
    sqrt_eps_rule,
)
from .simplex import (
    LabelSpace,
    SimplexPoint,
    Snapshot,
    enumerate_snapshot_space,
    l1_distance,
    snapshot_space_size,
    snapshot_to_point,
)
from .synth import (
    BinaryRegression,
    RandomMixtureSpec,
    TwoScenario,
    bayes_mixtures,
    gen_dataset,
    random_mixture,
    reference_table,
)
from .transport import (
    Coupling,
    SolverFailure,
    w1_lattice,
    wasserstein1,
)

__version__ = "0.1.0"

__all__ = [
    "BinaryRegression",
    "CalibrationScore",
    "CalibrationTable",
    "CapExceeded",
    "Coupling",
    "DimensionMismatch",
    "DomainError",
    "EmptyPartition",
    "EntropySpec",
    "FormatError",
    "HocalError",
    "IntervalSet",
    "InvalidDistribution",
    "LabelSpace",
    "LossBreakdown",
    "Mixture",
    "MomentVector",
    "PolyApprox",
    "PredictionSet",
    "RandomMixtureSpec",
    "RngSeed",
    "SimplexPoint",
    "Snapshot",
    "SnapshotDataset",
    "SolverFailure",
    "TwoScenario",
    "UncertaintyReport",
    "aleatoric_error",
    "average_entropy",
    "bayes_mixtures",
    "build_mass_set",
    "central_moment",
    "centroid",
    "chebyshev_fit",
    "coverage",
    "decompose",
    "default_t_grid",
    "divergence",
    "divergence_rows",
    "empirical_mixture",
    "enlarge",
    "entropy_rows",
    "entropy_value",
    "enumerate_snapshot_space",
    "estimate_moments",
    "gen_dataset",
    "gradient",
    "gradient_rows",
    "hoc_bound",
    "koc_error",
    "l1_distance",
    "loss_breakdown",
    "loss_rows",
    "mgf_diagnostic",
    "mixture_from_arrays",
    "moment_interval",
    "moment_weight",
    "poly_au_estimate",
    "posthoc_calibrate",
    "project_k",
    "proper_loss",
    "random_mixture",
    "read_calibration_table",
    "read_snapshot_dataset",
    "reference_table",
    "required_samples",
    "sample_snapshots",
    "shannon_modulus_bound",
    "snapshot_space_size",
    "snapshot_to_point",
    "sqrt_eps_rule",
    "w1_lattice",
    "wasserstein1",
]