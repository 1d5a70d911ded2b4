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
    divergence_rows,
    entropy_rows,
    gradient_rows,
    loss_rows,
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
    enumerate_snapshot_space,
    snapshot_space_size,
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
    SolverFailure,
    w1_lattice,
    wasserstein1,
)

__version__ = "0.3.0"

__all__ = [
    "BinaryRegression",
    "CalibrationScore",
    "CalibrationTable",
    "CapExceeded",
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
    "divergence_rows",
    "enlarge",
    "entropy_rows",
    "enumerate_snapshot_space",
    "estimate_moments",
    "gen_dataset",
    "gradient_rows",
    "hoc_bound",
    "koc_error",
    "loss_breakdown",
    "loss_rows",
    "mgf_diagnostic",
    "mixture_from_arrays",
    "moment_interval",
    "poly_au_estimate",
    "posthoc_calibrate",
    "project_k",
    "random_mixture",
    "read_calibration_table",
    "read_snapshot_dataset",
    "reference_table",
    "required_samples",
    "sample_snapshots",
    "shannon_modulus_bound",
    "snapshot_space_size",
    "sqrt_eps_rule",
    "w1_lattice",
    "wasserstein1",
    "write_calibration_table",
    "write_snapshot_dataset",
]