"""Exception types shared across the toolkit.

All domain failures derive from ObserverToolkitError so callers (and the
command line front end) can separate them from programming errors. Config
parsing problems get their own class because they map to a different exit
code than runtime failures.
"""


class ObserverToolkitError(Exception):
    """Base class for every failure raised by this package."""


class DimensionError(ObserverToolkitError):
    """Matrix or vector dimensions are inconsistent with the operation."""


class ContractError(ObserverToolkitError):
    """An argument violates a documented precondition."""


class DesignError(ObserverToolkitError):
    """A design premise fails (non-Hurwitz observer matrix, bad weights)."""


class NumericalError(ObserverToolkitError):
    """A numerical routine failed or produced an untrustworthy result."""


class ConfigError(ObserverToolkitError):
    """A run configuration file is malformed or inconsistent."""


class DivergenceError(ObserverToolkitError):
    """A simulated trajectory left the trusted numeric range.

    Carries the last time stamp that was still finite and the partial
    trajectory up to it: trace is the (times, states) tuple when
    integrate_rk4 raises, and a Trace when a simulate_* function raises.
    """

    def __init__(self, message, last_time, trace=None):
        super().__init__(message)
        self.last_time = float(last_time)
        self.trace = trace
