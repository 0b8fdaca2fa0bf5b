"""Design, certify, and simulate cubic observers for LTI systems.

A cubic observer augments the familiar linear state observer with a
correction term that is cubic in the output residual,

    d/dt xhat = (a - lc c) xhat + lc y + b u - (r^T theta r) nc r,
    r = y - c xhat,

which leaves the estimate unbiased but injects extra damping while the
residual is large. This package provides the constructive choice of the
cubic gain from a Lyapunov solve, machine-checkable stability and
robustness certificates, a fixed-step simulator whose degenerate (gamma
to zero) runs are bit-identical to the linear observer, three bundled
benchmark studies, and a CLI that emits plot-ready CSV traces.
"""

from .design import (
    Certificate,
    CubicObserverDesign,
    certify_stability,
    degenerate_linear,
    error_field,
    explicit_cubic_design,
    feedback_certificate,
    lyapunov_derivative_at,
    place_poles_single_output,
    robustness_bound,
    search_nonzero_equilibria,
    synthesize_cubic_gain,
)
from .errors import (
    ConfigError,
    ContractError,
    DesignError,
    DimensionError,
    DivergenceError,
    NumericalError,
    ObserverToolkitError,
)
from .examples import (
    ObserverBenchmark,
    build_designs,
    compute_bundle,
    gamma_sweep,
    get_example,
)
from .sim import (
    Metrics,
    SimConfig,
    Trace,
    compute_metrics,
    integrate_rk4,
    simulate_closed_loop,
    simulate_cubic_observer,
    simulate_perturbed,
)
from .sysmodel import (
    ConstantInput,
    LinearSystem,
    PerturbedFamily,
    SampledInput,
    SinusoidInput,
    ZeroInput,
    evaluate_input,
    observability_matrix,
    perturb,
)

__version__ = "0.1.0"

__all__ = [
    "Certificate",
    "ConfigError",
    "ConstantInput",
    "ContractError",
    "CubicObserverDesign",
    "DesignError",
    "DimensionError",
    "DivergenceError",
    "LinearSystem",
    "Metrics",
    "NumericalError",
    "ObserverBenchmark",
    "ObserverToolkitError",
    "PerturbedFamily",
    "SampledInput",
    "SimConfig",
    "SinusoidInput",
    "Trace",
    "ZeroInput",
    "build_designs",
    "certify_stability",
    "compute_bundle",
    "compute_metrics",
    "degenerate_linear",
    "error_field",
    "evaluate_input",
    "explicit_cubic_design",
    "feedback_certificate",
    "gamma_sweep",
    "get_example",
    "integrate_rk4",
    "lyapunov_derivative_at",
    "observability_matrix",
    "perturb",
    "place_poles_single_output",
    "robustness_bound",
    "search_nonzero_equilibria",
    "simulate_closed_loop",
    "simulate_cubic_observer",
    "simulate_perturbed",
    "synthesize_cubic_gain",
]
