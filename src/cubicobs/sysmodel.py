"""System descriptions: LTI plants and input signals.

A LinearSystem is the continuous-time triple (a, b, c) of

    dx/dt = a x + b u,    y = c x.

Construction validates shapes and rejects unobservable (a, c) pairs, since
every design routine downstream assumes observability. Model uncertainty
of the form a + eps*I is not a plant of its own: SimConfig.eps applies it
inside the simulator. Input signals are small frozen dataclasses with a
common sample(t) method.
"""

from dataclasses import dataclass

import numpy as np

from . import numlin
from .errors import ContractError, DimensionError

# relative singular-value threshold for the observability rank test
OBSERVABILITY_RTOL = 1e-9


def _observability_blocks(a, c):
    n = a.shape[0]
    blocks = [c]
    for _ in range(n - 1):
        blocks.append(blocks[-1] @ a)
    return np.vstack(blocks)


def _rank(m, rtol=OBSERVABILITY_RTOL):
    sv = np.linalg.svd(m, compute_uv=False)
    if sv.size == 0 or sv[0] == 0.0:
        return 0
    return int(np.count_nonzero(sv > rtol * sv[0]))


@dataclass(frozen=True)
class LinearSystem:
    """Observable LTI plant (a, b, c); arrays are copied and made read-only."""

    a: np.ndarray
    b: np.ndarray
    c: np.ndarray

    def __post_init__(self):
        a = numlin.require_square(self.a, "a")
        b = numlin.as_matrix(self.b, "b")
        c = numlin.as_matrix(self.c, "c")
        n = a.shape[0]
        if b.shape[0] != n:
            raise DimensionError(f"b must have {n} rows, got shape {b.shape}")
        if c.shape[1] != n:
            raise DimensionError(f"c must have {n} columns, got shape {c.shape}")
        rank = _rank(_observability_blocks(a, c))
        if rank < n:
            raise ContractError(
                f"(a, c) pair is not observable: rank {rank} < {n}"
            )
        for name, arr in (("a", a), ("b", b), ("c", c)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def n(self):
        return self.a.shape[0]

    @property
    def n_inputs(self):
        return self.b.shape[1]

    @property
    def n_outputs(self):
        return self.c.shape[0]


def observability_matrix(sys):
    """Stacked matrix [c; c a; ...; c a^(n-1)] of shape (n*n_y, n)."""
    return _observability_blocks(sys.a, sys.c)


@dataclass(frozen=True)
class ZeroInput:
    """u(t) = 0 with a fixed dimension."""

    dimension: int = 1

    def __post_init__(self):
        if int(self.dimension) < 1:
            raise ContractError("input dimension must be at least 1")
        object.__setattr__(self, "dimension", int(self.dimension))

    def sample(self, t):
        return np.zeros(self.dimension)


@dataclass(frozen=True)
class SinusoidInput:
    """u(t) = amplitude * sin(angular_frequency * t + phase), componentwise."""

    amplitude: np.ndarray
    angular_frequency: float
    phase: float = 0.0

    def __post_init__(self):
        amp = numlin.as_vector(self.amplitude, "amplitude")
        amp.setflags(write=False)
        object.__setattr__(self, "amplitude", amp)
        object.__setattr__(self, "angular_frequency", float(self.angular_frequency))
        object.__setattr__(self, "phase", float(self.phase))

    @property
    def dimension(self):
        return self.amplitude.size

    def sample(self, t):
        return self.amplitude * np.sin(self.angular_frequency * t + self.phase)


@dataclass(frozen=True)
class ConstantInput:
    """u(t) = level for all t."""

    level: np.ndarray

    def __post_init__(self):
        level = numlin.as_vector(self.level, "level")
        level.setflags(write=False)
        object.__setattr__(self, "level", level)

    @property
    def dimension(self):
        return self.level.size

    def sample(self, t):
        return self.level.copy()


@dataclass(frozen=True)
class SampledInput:
    """Zero-order hold over samples (times[k], values[k]).

    Queries before the first sample return the first value; queries past
    the last sample hold the last value.
    """

    times: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        times = numlin.as_vector(self.times, "times")
        values = np.array(self.values, dtype=float)
        if values.ndim == 1:
            values = values.reshape(-1, 1)
        if values.ndim != 2 or values.shape[0] != times.size:
            raise DimensionError(
                f"values must have one row per sample time, got {values.shape}"
            )
        if not np.all(np.isfinite(values)):
            raise ContractError("values contain non-finite entries")
        if np.any(np.diff(times) <= 0.0):
            raise ContractError("sample times must be strictly increasing")
        times.setflags(write=False)
        values.setflags(write=False)
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "values", values)

    @property
    def dimension(self):
        return self.values.shape[1]

    def sample(self, t):
        idx = int(np.searchsorted(self.times, t, side="right")) - 1
        idx = min(max(idx, 0), self.times.size - 1)
        return self.values[idx].copy()


def evaluate_input(signal, t):
    """Evaluate an input signal at time t >= 0."""
    t = float(t)
    if t < 0.0:
        raise ContractError(f"input signals are defined for t >= 0, got t={t}")
    u = signal.sample(t)
    return np.asarray(u, dtype=float).reshape(-1)
