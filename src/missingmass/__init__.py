"""Missing-mass analysis for discrete distributions and finite metric spaces.

Exact expected missing mass and Good-Turing expectations, distribution-free
upper bounds with matching constructions, the extremal one-heavy family and
its uniform-to-bivalent threshold, seeded Monte Carlo verification, and the
eps-ball extension with covering-number control.
"""

from .constructions import (
    geometric_targets,
    inverse_log_targets,
    rate_lb,
    tight_countable,
    tight_finite,
)
from .cover import (
    EpsNet,
    PointCloud,
    covering_bound_report,
    exact_covering_number,
    expected_eps_missing_mass,
    greedy_eps_net,
    mc_eps_missing_mass,
)
from .distributions import (
    BlockVector,
    CountableFamily,
    ProbVector,
    Truncation,
    doubling_operator,
    plateau_length,
    truncate,
)
from .errors import (
    ConstructionFailedError,
    InsufficientTruncationError,
    InvalidInputError,
    MissingMassError,
    ThresholdNotFoundError,
)
from .extremal import (
    ExtremalSolution,
    ThresholdResult,
    bivalent_missing_mass,
    bivalent_missing_mass_prime,
    find_threshold,
    maximize_missing_mass,
    simplex_grid_oracle,
)
from .mass import (
    DEFAULT_COUNTABLE_C,
    MassCurve,
    bound_countable,
    bound_finite,
    dyadic_bands,
    expected_missing_mass,
    expected_missing_mass_interval,
    gt_bias,
    gt_expected_estimate,
    kernel,
    kernel_prime,
    missing_mass_curve,
    singleton_mass_expectation,
)
from .sampling import (
    McReport,
    monte_carlo,
    verify_bias,
    verify_concentration,
)

__version__ = "0.1.0"
