"""ueslab: a simulation lab for unbiased extremum-seeking control.

Closed-loop dither-based optimizers with time-varying amplitude/gain
schedules, their transformed and averaged comparison systems, a deterministic
fixed-step integrator, convergence-rate diagnostics, and a config-driven CLI.
"""

from .analysis import (
    EXPONENTIAL_DECAY,
    POWER_LAW,
    RateFit,
    fit_averaging_order,
    fit_exp_rate,
    fit_power_rate,
    fit_report_csv,
    oscillation_amplitude,
    window_slice,
)
from .averaging import (
    ProbeConfig,
    ProbeRow,
    averaged_closed_loop,
    lie_bracket,
    practical_stability_probe,
    probe_rows_csv,
    transformed_b_fields,
)
from .config import ExperimentConfig, config_from_text, load_config
from .controllers import (
    EsParams,
    assemble,
    default_omega_hat,
    es_closed_loop,
    transformed_closed_loop,
)
from .errors import (
    AssemblyError,
    AssumptionViolation,
    CapabilityError,
    ConfigError,
    IntegrationDiverged,
    WindowTooLate,
)
from .maps import (
    BUILTIN_MAPS,
    CostMap,
    PowerBounds,
    grad_fd,
    hess_fd,
    named_map,
    quadratic,
    quartic_paper,
    verify_power_bounds,
)
from .schedules import Schedule
from .sim import Lemma1Params, Trajectory, dither_step_bound, integrate, lemma1_rhs, lemma1_solution

__version__ = "0.1.0"
