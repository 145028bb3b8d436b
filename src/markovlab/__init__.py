"""markovlab: a numerical laboratory for Markov-type polynomial inequalities.

Evaluates admissible norm families on polynomials, computes finite-degree
Markov factors (exact in L2 settings, certified lower bounds otherwise), and
estimates Markov and asymptotic exponents from degree sweeps.
"""

__version__ = "0.1.0"

from .chebseries import (
    ChebSeries,
    chebyshev_t,
    chebyshev_u,
    legendre_orthonormal,
    monomial,
)
from .domains import (
    Interval,
    Measure,
    SampledRegion2D,
    UnionSet,
    box_region,
    chebyshev_measure,
    cusp_region,
    disk_boundary,
    jacobi_measure,
    lebesgue_measure,
    set_from_json,
    set_to_json,
)
from .errors import (
    ConfigError,
    DimensionMismatchError,
    MarkovLabError,
    OrthogonalityLossError,
    PrecisionOverflowError,
    QuadratureBudgetError,
    SpectralityError,
)
from .exponents import (
    MarkovTable,
    asymptotic_exponent,
    bernstein_schur_check,
    factor_table,
    family_exponent,
    fit_exponent,
    laplacian_vs_gradient_check,
    markov_factor_l2,
    markov_factor_search,
    norm_exponent_trend,
    qms_exact_exponent,
    spectral_exponent_floor,
)
from .fitting import AsymptoticTrend, ExponentFit, fit_power_law
from .norms import (
    LpSpec,
    MixedDerivSpec,
    NikolskiiCertificate,
    QmsSpec,
    SchurSpec,
    SupPlusLpSpec,
    SupSpec,
    TaylorDiskSpec,
    evaluate_norm,
    fit_nikolskii,
    lp_norm,
    mixed_deriv_norm,
    qms_log_norm,
    qms_norm,
    qms_norm_exact,
    qms_seminorm_terms,
    schur_norm,
    spec_from_json,
    spec_to_json,
    spectral_norm_estimate,
    sup_norm,
    sup_plus_lp_norm,
    taylor_disk_norm,
)
from .orthopoly import (
    OrthoSystem,
    expand,
    growth_exponent,
    jacobi_system,
    reconstruct,
    stieltjes_orthonormalize,
)
from .polynomials import (
    DerivOp,
    DirOp,
    HomOp,
    MultiPoly,
    UniPoly,
    power,
    power_identity_residual,
)
from .scalars import RationalComplex
from .verify import SuiteReport, run_suite
