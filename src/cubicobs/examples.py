"""Bundled example systems and the study driver that exercises them.

Three benchmark fixtures ship with the package:

  1  double integrator driven by a unit sinusoid, observer poles {-2, -5},
     cubic design with gamma = 2; the classic side-by-side transient
     comparison between the linear and cubic observers.
  2  stable three-state single-output plant with fast observer poles
     {-30, -10, -5}; used for the gamma study, the robustness bound, and
     off-nominal runs with a + eps*I model error.
  3  unstable three-state plant stabilized by observer-based state
     feedback u = -k xhat; compares regulation cost between the linear
     and cubic observers in the loop.

The numeric values are frozen here so runs are reproducible; tests assert
against them. compute_bundle() performs every simulation and measurement a
bundle needs and returns plain objects for the CLI to serialize.

build_design(), simulate() and certify() make the three choices every run
makes (which design constructor, open or closed loop, which certificate),
for the bundles, the gamma sweep and the command line alike.
"""

import numbers
from dataclasses import dataclass

import numpy as np

from .design import (
    certify_stability,
    degenerate_linear,
    explicit_cubic_design,
    feedback_certificate,
    place_poles_single_output,
    synthesize_cubic_gain,
)
from .errors import ContractError
from .sim import (
    SimConfig,
    compute_metrics,
    simulate_closed_loop,
    simulate_cubic_observer,
    simulate_perturbed,
)
from .sysmodel import LinearSystem, SinusoidInput


@dataclass(frozen=True)
class ObserverBenchmark:
    """One bundled example: plant, observer parameters, and run settings."""

    name: str
    description: str
    system: LinearSystem
    gain_lc: np.ndarray
    q: np.ndarray
    theta: np.ndarray
    gamma: float
    gain_nc: np.ndarray | None  # explicit cubic gain; None means synthesize
    sim: SimConfig
    sweep_gammas: tuple | None = None
    eps_study: float | None = None
    feedback_k: np.ndarray | None = None
    lqr_weights: tuple | None = None


def example_1():
    """Double integrator with a sinusoidal drive."""
    system = LinearSystem(
        a=[[0.0, 1.0], [0.0, 0.0]],
        b=[[0.0], [1.0]],
        c=[[1.0, 0.0]],
    )
    gain_lc = place_poles_single_output(system, (-2.0, -5.0))
    return ObserverBenchmark(
        name="example1",
        description="double integrator, sinusoid input, poles {-2, -5}",
        system=system,
        gain_lc=gain_lc,
        q=10.0 * np.eye(2),
        theta=np.array([[10.0]]),
        gamma=2.0,
        gain_nc=None,
        sim=SimConfig(
            horizon=4.0,
            dt=1e-3,
            x0=[-3.0, -3.0],
            xhat0=None,
            input=SinusoidInput(amplitude=[1.0], angular_frequency=1.0),
        ),
        sweep_gammas=(0.0, 0.5, 1.0, 2.0, 5.0),
    )


def example_2():
    """Stable three-state plant with fast observer poles."""
    system = LinearSystem(
        a=[[-0.1, -0.2, 0.0], [0.3, 0.0, 0.0], [0.1, 0.2, -3.0]],
        b=np.zeros((3, 1)),
        c=[[1.0, 1.0, 2.0]],
    )
    gain_lc = place_poles_single_output(system, (-30.0, -10.0, -5.0))
    return ObserverBenchmark(
        name="example2",
        description="stable three-state plant, poles {-30, -10, -5}",
        system=system,
        gain_lc=gain_lc,
        q=10.0 * np.eye(3),
        theta=np.array([[1.0]]),
        gamma=0.1,
        gain_nc=None,
        sim=SimConfig(horizon=3.0, dt=1e-3, x0=[1.0, 1.0, 1.0]),
        sweep_gammas=(0.01, 0.05, 0.1, 0.5, 1.0),
        eps_study=0.02,
    )


def example_3():
    """Unstable plant under observer-based state feedback."""
    system = LinearSystem(
        a=[[0.1, -2.0, 0.0], [0.3, 0.0, -1.0], [0.1, 0.2, 3.0]],
        b=[[1.0, 2.0], [2.0, 0.0], [0.0, 1.0]],
        c=[[1.0, 1.0, 2.0]],
    )
    gain_lc = np.array([[0.267], [-1.429], [3.904]])
    # sign chosen so the cubic term damps the output residual (c @ nc < 0)
    gain_nc = -10.0 * gain_lc
    k = np.array([[-0.597, 2.004, 2.511], [-0.197, 0.757, 7.510]])
    return ObserverBenchmark(
        name="example3",
        description="unstable plant, observer-based feedback u = -k xhat",
        system=system,
        gain_lc=gain_lc,
        q=np.eye(3),
        theta=np.array([[10.0]]),
        gamma=1.0,
        gain_nc=gain_nc,
        sim=SimConfig(horizon=60.0, dt=1e-3, x0=[0.2, 0.2, 0.2]),
        feedback_k=k,
        lqr_weights=(np.eye(3), np.eye(2)),
    )


_EXAMPLES = {1: example_1, 2: example_2, 3: example_3}


def get_example(number):
    """The fixture of example 1, 2 or 3; a bool or a non-integer is refused."""
    integer = isinstance(number, numbers.Integral) and not isinstance(number, bool)
    if not (integer and number in _EXAMPLES):
        raise ContractError(f"no example numbered {number!r}; choose 1, 2, or 3")
    return _EXAMPLES[number]()


def build_design(sys, gain_lc, q, theta, gamma, gain_nc=None):
    """The observer design the parameters call for.

    A given gain_nc sets the cubic term as is; otherwise gamma = 0 gives
    the degenerate linear observer and any other gamma the synthesized
    cubic gain.
    """
    if gain_nc is not None:
        return explicit_cubic_design(sys, gain_lc, gain_nc, theta, q=q, gamma=gamma)
    if gamma == 0.0:
        return degenerate_linear(sys, gain_lc, q)
    return synthesize_cubic_gain(sys, gain_lc, q, theta, gamma)


def build_designs(fx):
    """The (linear-degenerate, cubic) design pair for a benchmark fixture."""
    linear = build_design(fx.system, fx.gain_lc, fx.q, fx.theta, 0.0)
    cubic = build_design(fx.system, fx.gain_lc, fx.q, fx.theta, fx.gamma, fx.gain_nc)
    return linear, cubic


def simulate(sys, design, cfg, feedback_k=None):
    """The observer run, closed through u = -k xhat when feedback_k is set."""
    if feedback_k is None:
        return simulate_cubic_observer(sys, design, cfg)
    return simulate_closed_loop(sys, design, feedback_k, cfg)


def certify(sys, design, feedback_k=None, equilibrium_search=False):
    """The loop certificate when feedback_k is set, else the observer's.

    equilibrium_search goes to either; the design decides the damping mode.
    """
    if feedback_k is None:
        return certify_stability(sys, design, equilibrium_search)
    return feedback_certificate(sys, design, feedback_k, equilibrium_search)


def gamma_sweep(sys, gain_lc, q, theta, gammas, cfg, feedback_k=None):
    """Simulate one observer per gamma and collect the metrics.

    gamma = 0 runs the degenerate linear observer and is flagged as such.
    Rows come back sorted by gamma regardless of input order, one per
    distinct value, -0.0 counting as 0.0; negative entries are rejected.
    """
    values = sorted({float(g) + 0.0 for g in gammas})
    if values and values[0] < 0.0:
        raise ContractError(f"gamma values must be nonnegative, got {values[0]}")
    rows = []
    for g in values:
        design = build_design(sys, gain_lc, q, theta, g)
        trace = simulate(sys, design, cfg, feedback_k)
        metrics = compute_metrics(trace)
        rows.append(
            {
                "gamma": g,
                "degenerate": g == 0.0,
                "design": design,
                "metrics": metrics,
            }
        )
    return rows


def compute_bundle(number):
    """Run everything one example needs and return the artifacts.

    The result is a dict of plain objects (designs, certificates, traces,
    metrics, sweep rows) that the command line serializes into a bundle
    directory. All runs are deterministic.
    """
    fx = get_example(number)
    linear, cubic = build_designs(fx)
    sys = fx.system

    cert = certify(sys, cubic, fx.feedback_k)

    # fixtures without feedback carry lqr_weights = None
    trace_linear = simulate(sys, linear, fx.sim, fx.feedback_k)
    trace_cubic = simulate(sys, cubic, fx.sim, fx.feedback_k)
    metrics_linear = compute_metrics(trace_linear, lqr_weights=fx.lqr_weights)
    metrics_cubic = compute_metrics(trace_cubic, lqr_weights=fx.lqr_weights)

    bundle = {
        "number": int(number),  # get_example took only an integer; the writer needs an int
        "fixture": fx,
        "linear_design": linear,
        "cubic_design": cubic,
        "certificate": cert,
        "traces": {"linear_trace": trace_linear, "cubic_trace": trace_cubic},
        "metrics": {"linear": metrics_linear, "cubic": metrics_cubic},
        "sweep": None,
    }

    if fx.sweep_gammas:
        bundle["sweep"] = gamma_sweep(
            sys, fx.gain_lc, fx.q, fx.theta, fx.sweep_gammas, fx.sim
        )

    if fx.eps_study is not None:
        trace_plin = simulate_perturbed(sys, linear, fx.eps_study, fx.sim)
        trace_pcub = simulate_perturbed(sys, cubic, fx.eps_study, fx.sim)
        bundle["traces"]["perturbed_linear_trace"] = trace_plin
        bundle["traces"]["perturbed_cubic_trace"] = trace_pcub
        bundle["metrics"]["perturbed_linear"] = compute_metrics(trace_plin)
        bundle["metrics"]["perturbed_cubic"] = compute_metrics(trace_pcub)

    return bundle
