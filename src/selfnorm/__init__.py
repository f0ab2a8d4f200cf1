"""Simulation and numerical-verification toolkit for self-normalized partial
sums, maxima and l^p moduli of heavy-tailed (regularly varying) time series."""

__version__ = "0.1.0"

from .clusters import (
    BoundedFunctional,
    ClusterDraw,
    ClusterModel,
    Estimate,
    TiltedClusterDraw,
    ar1_cluster,
    cluster_moment,
    empirical_cluster,
    extremal_index,
    iid_cluster,
    sample_cluster,
    sample_tilted_cluster,
    standard_functionals,
    tilted_acceptance,
    verify_time_change,
)
from .errors import (
    ConfigurationError,
    DegeneratePathError,
    ModelError,
    NumericalError,
    SamplingError,
    SelfnormError,
    UnsupportedError,
)
from .experiments import (
    ExperimentConfig,
    Report,
    ReportRow,
    derive_cluster,
    ks_bound,
    ks_distance,
    load_config,
    run_experiment,
    simulate_statistics,
)
from .limits import (
    TransformGrid,
    TransformValue,
    hybrid_cf,
    joint_cf_laplace,
    laplace_zeta,
    ratio_cf,
    ratio_modulus_laplace,
    sample_limit_lepage_batch,
    stable_cf,
)
from .oracles import (
    expected_greenwood,
    expected_kurtosis_limit,
    expected_ratio_max,
    expected_ratio_student,
    gamma_identity_check,
)
from .processes import (
    NoiseSpec,
    Path,
    ProcessModel,
    SRELaw,
    ar1_model,
    iid_model,
    normalizing_an,
    sample_coupled_paths,
    sample_noise,
    sample_path,
    sre_model,
    stationary_mean,
    tail_constant,
)
