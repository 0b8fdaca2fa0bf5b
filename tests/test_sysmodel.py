"""Unit tests for plant descriptions and input signals."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cubicobs import (
    ConstantInput,
    ContractError,
    DimensionError,
    LinearSystem,
    SampledInput,
    SinusoidInput,
    ZeroInput,
    evaluate_input,
    observability_matrix,
)


def double_integrator():
    return LinearSystem(a=[[0.0, 1.0], [0.0, 0.0]], b=[[0.0], [1.0]], c=[[1.0, 0.0]])


def test_linear_system_shapes_and_properties():
    sys = double_integrator()
    assert sys.n == 2
    assert sys.n_inputs == 1
    assert sys.n_outputs == 1
    assert not sys.a.flags.writeable
    assert not sys.b.flags.writeable
    assert not sys.c.flags.writeable


def test_linear_system_rejects_mismatched_shapes():
    with pytest.raises(DimensionError):
        LinearSystem(a=[[0.0, 1.0]], b=[[1.0]], c=[[1.0]])
    with pytest.raises(DimensionError):
        LinearSystem(a=np.zeros((2, 2)), b=np.zeros((3, 1)), c=[[1.0, 0.0]])
    with pytest.raises(DimensionError):
        LinearSystem(a=-np.eye(2), b=np.zeros((2, 1)), c=[[1.0]])


def test_plant_and_sampled_input_shapes_are_refused_in_numlins_words():
    b, c = [[0.0], [1.0]], [[1.0, 0.0]]
    with pytest.raises(DimensionError, match=r"^b must have shape \(2, any\), got \(3, 1\)$"):
        LinearSystem(a=np.eye(2), b=np.zeros((3, 1)), c=c)
    with pytest.raises(DimensionError, match=r"^c must have shape \(any, 2\), got \(1, 1\)$"):
        LinearSystem(a=np.eye(2), b=b, c=[[1.0]])
    with pytest.raises(DimensionError, match=r"^values must have shape \(2, any\), got \(1, 1\)$"):
        SampledInput(times=[0.0, 1.0], values=[[1.0]])
    with pytest.raises(DimensionError, match=r"^values must have shape \(2, any\), got \(3, 1\)$"):
        SampledInput(times=[0.0, 1.0], values=[1.0, 2.0, 3.0])  # 1-D values are one column
    with pytest.raises(ContractError, match="^values contains non-finite entries$"):
        SampledInput(times=[0.0, 1.0], values=[[1.0], [np.nan]])


def test_linear_system_rejects_unobservable_pair():
    # identical decoupled states seen through one of them only
    with pytest.raises(ContractError, match="not observable"):
        LinearSystem(a=np.eye(2), b=np.zeros((2, 1)), c=[[1.0, 0.0]])


def test_observability_matrix_double_integrator():
    sys = double_integrator()
    assert np.array_equal(observability_matrix(sys), np.eye(2))


def test_observability_matrix_stacks_n_blocks():
    sys = LinearSystem(
        a=[[-0.1, -0.2, 0.0], [0.3, 0.0, 0.0], [0.1, 0.2, -3.0]],
        b=np.zeros((3, 1)),
        c=[[1.0, 1.0, 2.0]],
    )
    obs = observability_matrix(sys)
    assert obs.shape == (3, 3)
    assert np.array_equal(obs[0], sys.c[0])
    assert np.allclose(obs[1], sys.c[0] @ sys.a)
    assert np.allclose(obs[2], sys.c[0] @ sys.a @ sys.a)


def test_zero_input():
    sig = ZeroInput(dimension=3)
    assert np.array_equal(sig.sample(1.7), np.zeros(3))
    assert ZeroInput().dimension == 1
    assert ZeroInput(np.int64(2)).dimension == 2
    assert type(ZeroInput(np.int64(2)).dimension) is int
    for bad in (0, -1, 2.7, 2.0, True, "x", "2", None):
        with pytest.raises(ContractError, match="^input dimension must be an integer of at least 1"):
            ZeroInput(dimension=bad)


def test_sinusoid_input_values():
    sig = SinusoidInput(amplitude=[2.0], angular_frequency=3.0, phase=0.5)
    t = 0.8
    assert sig.sample(t)[0] == pytest.approx(2.0 * np.sin(3.0 * t + 0.5), rel=1e-15)
    assert sig.dimension == 1
    sig = SinusoidInput([1.0], np.int64(2), np.float32(0.5))
    assert (sig.angular_frequency, sig.phase) == (2.0, 0.5)
    assert type(sig.angular_frequency) is float and type(sig.phase) is float


@pytest.mark.parametrize("name", ["angular_frequency", "phase"])
@pytest.mark.parametrize("bad", [True, np.True_, "0.5", None, [1.0], np.nan, -np.inf, 10**400])
def test_sinusoid_parameters_must_be_finite_real_numbers(name, bad):
    # a bool or a string is not coerced to a number
    args = {"amplitude": [1.0], "angular_frequency": 1.0, "phase": 0.0, name: bad}
    with pytest.raises(ContractError, match=f"^{name} must be a finite real number, got "):
        SinusoidInput(**args)


def test_constant_input():
    sig = ConstantInput(level=[1.0, -2.0])
    assert np.array_equal(sig.sample(0.0), [1.0, -2.0])
    assert np.array_equal(sig.sample(5.0), [1.0, -2.0])
    with pytest.raises(ContractError, match="^level contains non-finite entries$"):
        ConstantInput([1.0, np.inf])
    with pytest.raises(DimensionError, match="^level must be non-empty$"):
        ConstantInput([])


def test_sampled_input_zero_order_hold():
    sig = SampledInput(times=[0.0, 1.0, 2.0], values=[[10.0], [20.0], [30.0]])
    assert sig.sample(-0.5)[0] == 10.0  # hold first value before the record
    assert sig.sample(0.0)[0] == 10.0
    assert sig.sample(0.99)[0] == 10.0
    assert sig.sample(1.0)[0] == 20.0
    assert sig.sample(1.5)[0] == 20.0
    assert sig.sample(7.0)[0] == 30.0  # hold last value past the record


def test_sampled_input_validation():
    with pytest.raises(ContractError):
        SampledInput(times=[0.0, 0.0], values=[[1.0], [2.0]])
    with pytest.raises(DimensionError):
        SampledInput(times=[0.0, 1.0], values=[[1.0]])


@given(
    st.lists(
        st.floats(min_value=-50.0, max_value=50.0),
        min_size=1,
        max_size=6,
        unique=True,
    )
)
@settings(max_examples=60)
def test_sampled_input_hits_its_samples(times):
    times = sorted(times)
    values = [[float(i)] for i in range(len(times))]
    sig = SampledInput(times=times, values=values)
    for i, t in enumerate(times):
        assert sig.sample(t)[0] == float(i)


def test_evaluate_input_contract():
    sig = ZeroInput(dimension=2)
    out = evaluate_input(sig, 0.3)
    assert out.shape == (2,)
    with pytest.raises(ContractError):
        evaluate_input(sig, -0.1)
    # NaN passes a bare t < 0 test; a sinusoid would give NaN and a sampled
    # input its last value
    record = SampledInput(times=[0.0, 1.0], values=[[1.0], [2.0]])
    for signal in (SinusoidInput([1.0], 1.0), record):
        for t in (float("nan"), float("inf")):
            with pytest.raises(ContractError, match="finite t >= 0"):
                evaluate_input(signal, t)


# one of each signal kind, with signed zeros in what they return
SIGNALS = {
    "zero": ZeroInput(dimension=2),
    "sinusoid": SinusoidInput(amplitude=[1.5, -0.0, 0.0], angular_frequency=7.3),
    "constant": ConstantInput(level=[-0.0, 2.0]),
    "sampled": SampledInput(
        times=[0.5, 1.0, 2.5], values=[[1.0, -0.0], [0.0, -2.0], [3.0, 4.0]]
    ),
}


# a held input's value at every time: fresh zeros, or a copy of the level
HELD = {"zero": np.zeros(2), "constant": np.array([-0.0, 2.0])}


@pytest.mark.parametrize("kind", sorted(HELD))
def test_held_inputs_are_one_sample_records(kind):
    # a zero or constant input is a zero-order hold with one sample at t = 0,
    # so a rule for SampledInput sample times covers every held input
    sig, want = SIGNALS[kind], HELD[kind]
    assert type(sig) is SampledInput
    assert np.array_equal(sig.times, [0.0])
    times = np.array([-3.0, 0.0, 0.3, 7.0, 1e9])
    for t, expected in (
        (0.3, want),
        (-2.5, want),
        (times, np.tile(want, (times.size, 1))),
    ):
        got = sig.sample(t)
        assert got.shape == expected.shape
        assert np.array_equal(got, expected)
        assert np.array_equal(np.signbit(got), np.signbit(expected))
    sig.sample(0.3)[:] = 7.0  # each sample is a fresh array
    assert np.array_equal(sig.sample(0.3), want)


@pytest.mark.parametrize("kind", sorted(SIGNALS))
def test_sampling_an_array_of_times_matches_sampling_each_time(kind):
    # the simulator samples a block of stage times in one call; it must give
    # the per-time values bit for bit, signs of zeros included. The fixed
    # times fall before, on and past the sampled input's record.
    sig = SIGNALS[kind]
    rng = np.random.default_rng(11)
    fixed = [0.0, 0.25, 0.5, 1.0, 2.5, 3.0]
    times = np.concatenate([fixed, rng.uniform(0.0, 50.0, 5000)])
    got = sig.sample(times)
    want = np.stack([sig.sample(t) for t in times.tolist()])
    assert got.shape == (times.size, sig.dimension)
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(got), np.signbit(want))
    assert sig.sample(0.75).shape == (sig.dimension,)
