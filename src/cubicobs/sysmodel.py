"""System descriptions: LTI plants and input signals.

A LinearSystem is the continuous-time triple (a, b, c) of

    dx/dt = a x + b u,    y = c x.

Construction checks shapes through numlin (b has n rows, c n columns) and
rejects unobservable (a, c) pairs, since every design routine downstream
assumes observability. Model uncertainty of the form a + eps*I is not a
plant of its own: SimConfig.eps applies it inside the simulator. Input
signals are small frozen dataclasses with a common sample(t) method: t is
a float, giving the input of shape (dimension,), or a 1-D array of times,
giving one row per time, shape (len(t), dimension), with the same bits as
sampling each time alone.
"""

from dataclasses import dataclass

import numpy as np

from . import numlin
from .errors import ContractError

# relative singular-value threshold for the observability rank test
OBSERVABILITY_RTOL = 1e-9


@numlin.refusing_overflow("observability matrix")
def _observability_blocks(a, c):
    n = a.shape[0]
    blocks = [c]
    for _ in range(n - 1):
        blocks.append(blocks[-1] @ a)
    return np.vstack(blocks)


@dataclass(frozen=True)
class LinearSystem:
    """Observable LTI plant (a, b, c); arrays are copied and made read-only."""

    a: np.ndarray
    b: np.ndarray
    c: np.ndarray

    def __post_init__(self):
        a = numlin.require_square(self.a, "a")
        n = a.shape[0]
        b = numlin.as_matrix(self.b, "b", (n, None))
        c = numlin.as_matrix(self.c, "c", (None, n))
        rank = numlin.rank(_observability_blocks(a, c), OBSERVABILITY_RTOL)
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
    """u(t) = 0 with a fixed dimension: fresh zeros, one row per time."""

    dimension: int = 1

    def __post_init__(self):
        dimension = numlin.as_count(self.dimension, "input dimension", 1)
        object.__setattr__(self, "dimension", dimension)

    def sample(self, t):
        return np.zeros(np.shape(t) + (self.dimension,))


@dataclass(frozen=True)
class SinusoidInput:
    """u(t) = amplitude * sin(angular_frequency * t + phase), componentwise.

    angular_frequency and phase must be finite. An array of times is one
    np.sin over all of them, bit for bit the per-time values.
    """

    amplitude: np.ndarray
    angular_frequency: float
    phase: float = 0.0

    def __post_init__(self):
        amp = numlin.as_vector(self.amplitude, "amplitude")
        amp.setflags(write=False)
        object.__setattr__(self, "amplitude", amp)
        for name in ("angular_frequency", "phase"):
            value = float(getattr(self, name))
            if not np.isfinite(value):
                raise ContractError(f"{name} must be finite, got {value}")
            object.__setattr__(self, name, value)

    @property
    def dimension(self):
        return self.amplitude.size

    def sample(self, t):
        t = np.asarray(t)[..., None]  # one row per time
        return self.amplitude * np.sin(self.angular_frequency * t + self.phase)


@dataclass(frozen=True)
class ConstantInput:
    """u(t) = level for all t, as a fresh copy per sample."""

    level: np.ndarray

    def __post_init__(self):
        level = numlin.as_vector(self.level, "level")
        level.setflags(write=False)
        object.__setattr__(self, "level", level)

    @property
    def dimension(self):
        return self.level.size

    def sample(self, t):
        return np.broadcast_to(self.level, np.shape(t) + self.level.shape).copy()


@dataclass(frozen=True)
class SampledInput:
    """Zero-order hold over samples (times[k], values[k]).

    Queries before the first sample return the first value; queries past
    the last sample hold the last value. An array of times is looked up by
    one searchsorted over the sample times.
    """

    times: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        times = numlin.as_vector(self.times, "times")
        values = numlin.as_columns(self.values, "values", (times.size, None))
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
        idx = np.searchsorted(self.times, t, side="right") - 1
        return self.values.take(np.clip(idx, 0, self.times.size - 1), axis=0)


def evaluate_input(signal, t):
    """Evaluate an input signal at a finite time t >= 0."""
    t = float(t)
    if not (np.isfinite(t) and t >= 0.0):
        raise ContractError(
            f"input signals are defined for finite t >= 0, got t={t}"
        )
    u = signal.sample(t)
    return np.asarray(u, dtype=float).reshape(-1)
