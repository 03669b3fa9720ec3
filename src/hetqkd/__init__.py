"""CV-QKD security analysis and simulation for imbalanced heterodyne receivers."""

from .channel import build_eb_covariance, build_pm_covariance, eb_from_measured
from .compensation import (
    DegenerateTransformError,
    Side,
    TransformSpec,
    alice_transform_angles,
    apply_transform_frame,
    apply_transform_gamma,
    bob_transform_angles,
    symmetrize,
)
from .estimation import (
    EstimationReport,
    NormalizationError,
    estimate_all,
    estimate_alpha,
    estimate_eta_bs,
    estimate_excess_noise,
    estimate_imbalance,
    estimate_transmission,
    residual_noise_variance,
    shot_noise_normalize,
    var_noise_hat,
    var_phi_hat,
    var_theta_hat,
    var_transmission_hat,
)
from .finite_size import (
    FiniteKeyReport,
    FiniteScheme,
    FiniteSizeConfig,
    WorstCaseParams,
    delta_n,
    finite_key_rate,
    optimize_fraction,
    worst_case,
)
from .gaussian import (
    CovMat4,
    SingularConditioningError,
    g_entropy,
    schur_condition,
    standard_form_eigenvalues,
    symplectic_eigenvalues,
    symplectic_form,
    von_neumann_entropy,
)
from .info import MiBreakdown, ignorant_mi, lost_mi_approx, mi_decomposition, true_mi
from .params import PhysicalParams
from .security import (
    HolevoMode,
    KeyRateReport,
    KeyRateVariant,
    MiMode,
    TransformOrderError,
    asymptotic_key_rate,
    asymptotic_key_rate_from_gamma,
    holevo_bound,
    holevo_from_gamma,
    max_tolerable_noise,
    phase_fluctuation_penalty,
)
from .simulator import (
    FrameMeta,
    QuadratureFrame,
    SimConfig,
    empirical_covariance,
    generate_frame,
    load_frame_csv,
    save_frame_csv,
)

__version__ = "0.1.0"
