import numpy as np
import pytest
from hypothesis import HealthCheck, settings

import cubicobs as co

settings.register_profile(
    "ci",
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("ci")


@pytest.fixture(scope="session")
def fx1():
    return co.get_example(1)


@pytest.fixture(scope="session")
def fx2():
    return co.get_example(2)


@pytest.fixture(scope="session")
def fx3():
    return co.get_example(3)


@pytest.fixture(scope="session")
def designs1(fx1):
    return co.build_designs(fx1)


@pytest.fixture(scope="session")
def designs2(fx2):
    return co.build_designs(fx2)


@pytest.fixture(scope="session")
def bundle1():
    return co.compute_bundle(1)


@pytest.fixture(scope="session")
def bundle2():
    return co.compute_bundle(2)


@pytest.fixture(scope="session")
def bundle3():
    return co.compute_bundle(3)


# how many refused draws redraw_until_accepted allows before it fails
DRAW_ATTEMPTS = 100


def redraw_until_accepted(draw):
    """draw(), called again while the package refuses what it drew.

    draw takes its numbers from a generator it closes over, so each retry
    continues that generator's stream. After DRAW_ATTEMPTS refusals the
    test fails with the last refusal's text instead of retrying forever.
    """
    for _ in range(DRAW_ATTEMPTS):
        try:
            return draw()
        except co.ObserverToolkitError as exc:
            refusal = exc
    pytest.fail(f"no draw accepted in {DRAW_ATTEMPTS} attempts; the last was refused: {refusal}")


def random_observable_system(rng, n=None):
    """Draw a well-conditioned observable single-output system.

    The state matrix is normalized to unit spectral radius so pole
    placement and the Lyapunov solve stay far from their conditioning
    guards; draws that still trip a guard are skipped by the caller.
    """
    if n is None:
        n = int(rng.integers(2, 6))

    def draw():
        a = rng.normal(size=(n, n))
        radius = max(np.abs(np.linalg.eigvals(a)))
        if radius > 1e-6:
            a = a / radius
        c = rng.normal(size=(1, n))
        return co.LinearSystem(a=a, b=np.zeros((n, 1)), c=c)

    return redraw_until_accepted(draw)


def separated_stable_poles(rng, n, lo=0.6, hi=3.5, min_sep=0.3):
    """Distinct real stable poles with a minimum pairwise separation."""
    while True:
        reals = []
        for _ in range(200):
            cand = -float(rng.uniform(lo, hi))
            if all(abs(cand - r) >= min_sep for r in reals):
                reals.append(cand)
            if len(reals) == n:
                return [complex(r, 0.0) for r in reals]
        # separation infeasible for this draw budget; widen and retry
        min_sep *= 0.5
