"""Phase retrieval via smoothed amplitude flow.

Recovers a signal from magnitudes of Gaussian linear measurements by
gradient descent on a loss whose absolute-value kink is replaced with a
quadratic cap near zero; ships comparison solvers, experiment drivers, and
numerical verification of the closed-form landscape analysis.
"""

__version__ = "0.1.0"

from .calculus import (
    dir_second_derivative,
    gradient,
    loss,
    phi,
    psi,
    psi_u,
)
from .distances import dist, success
from .landscape import (
    MCEstimate,
    expected_abs_uv,
    expected_sgnuv_vsq,
    indicator_expectation_rate,
    landscape_scan,
    mc_indicator_expectation,
    orthogonal_curvature,
    region_radius,
    saddle_curvature,
)
from .measurement import (
    COMPLEX,
    REAL,
    add_noise,
    gen_sensing,
    gen_signal,
    observe,
    trial_seed,
)
from .metrics import (
    ExperimentSpec,
    run_beta_sweep,
    run_iteration_table,
    run_success_sweep,
)
from .solvers import (
    GdConfig,
    SolveTrace,
    baseline_solve,
    gd_saf,
    random_init,
    spectral_init,
)
