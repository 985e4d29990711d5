import numpy as np
import pytest

from infodyn.hilbert import DensityOperator, random_density
from infodyn.jsonio import (
    dump_json,
    json_to_complex,
    json_to_matrix,
    matrix_to_json,
    parse_basis,
    parse_channel,
    parse_experiment,
    parse_state,
    parse_value_batch,
)
from infodyn.recognition import ArgmaxPolicy, FixedPolicy, SamplePolicy, SignalBasis

RNG = np.random.default_rng(13)


def test_complex_round_trip():
    z = 1.5 - 2.25j
    assert json_to_complex(matrix_to_json([[z]])[0][0]) == z
    assert json_to_complex(3.0) == 3.0 + 0j


def test_matrix_round_trip():
    m = RNG.normal(size=(3, 3)) + 1j * RNG.normal(size=(3, 3))
    assert np.array_equal(json_to_matrix(matrix_to_json(m)), m)


def test_matrix_rejects_ragged_rows():
    with pytest.raises(ValueError):
        json_to_matrix([[1.0, 2.0], [3.0]])


def test_parse_state_bare_and_wrapped():
    rho = random_density(2, RNG)
    payload = matrix_to_json(rho.matrix)
    assert np.allclose(parse_state(payload).matrix, rho.matrix, atol=1e-12)
    assert np.allclose(parse_state({"matrix": payload}).matrix, rho.matrix, atol=1e-12)


def test_parse_state_rejects_unknown_keys():
    with pytest.raises(ValueError):
        parse_state({"matrix": [[1.0]], "extra": 1})


@pytest.mark.parametrize(
    "kind,payload",
    [
        ("unitary", {"matrix": [[0.0, 1.0], [1.0, 0.0]]}),
        ("ktau", {"matrix": [[0.5, 0.5], [0.5, 0.5]]}),
        ("kraus", {"kraus_ops": [[[1.0, 0.0], [0.0, 1.0]]]}),
        ("stochastic", {"P": [[0.5, 0.5], [0.0, 1.0]]}),
    ],
)
def test_parse_channel_kinds(kind, payload):
    ch = parse_channel({"kind": kind, **payload})
    assert ch.dim == 2


def test_parse_channel_rejects_unknown_kind():
    with pytest.raises(ValueError):
        parse_channel({"kind": "mystery", "matrix": [[1.0]]})
    # Trace-normalized damping is nonlinear, so it is not a channel kind.
    with pytest.raises(ValueError, match="channel kind must be one of"):
        parse_channel({"kind": "ktau_hat", "matrix": [[0.5, 0.0], [0.0, 0.5]]})


def test_parse_channel_rejects_complex_stochastic():
    with pytest.raises(ValueError):
        parse_channel({"kind": "stochastic", "P": [[[0.5, 0.1], [0.5, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]})


def test_parse_basis_names_and_custom():
    assert np.array_equal(parse_basis("fourier", 3).vectors, SignalBasis.fourier(3).vectors)
    assert np.array_equal(parse_basis("standard", 2).vectors, np.eye(2))
    custom = parse_basis({"custom": [[1.0, 0.0], [0.0, 1.0]]}, 2)
    assert custom.n == 2
    with pytest.raises(ValueError):
        parse_basis({"custom": [[1.0, 0.0], [0.0, 1.0]]}, 3)
    with pytest.raises(ValueError):
        parse_basis("hadamard", 2)


def experiment_payload(**overrides):
    payload = {
        "n": 2,
        "basis": "fourier",
        "rho": [[0.5, 0.0], [0.0, 0.5]],
        "gamma": [[1.0, 0.0], [0.0, 0.0]],
        "policy": "argmax",
        "steps": 3,
    }
    payload.update(overrides)
    return payload


def test_parse_experiment_single_state_repeats():
    gamma0, signals, bell, policy = parse_experiment(experiment_payload())
    signals = list(signals)
    assert len(signals) == 3
    assert bell.n == 2
    assert isinstance(policy, ArgmaxPolicy)
    assert np.allclose(gamma0.matrix, np.diag([1.0, 0.0]))


def test_parse_experiment_state_sequence():
    seq = [
        {"matrix": [[1.0, 0.0], [0.0, 0.0]]},
        {"matrix": [[0.0, 0.0], [0.0, 1.0]]},
    ]
    _, signals, _, _ = parse_experiment(experiment_payload(rho=seq, steps=2))
    assert len(signals) == 2
    assert np.allclose(signals[1].matrix, np.diag([0.0, 1.0]))


def test_parse_experiment_pair_entry_sequence():
    # Real matrices in a sequence use [re, im] entries; depth tells the
    # parser this is two states, not one.
    seq = [
        [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]],
        [[[0.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]],
    ]
    _, signals, _, _ = parse_experiment(experiment_payload(rho=seq, steps=2))
    assert len(signals) == 2


def test_parse_experiment_step_mismatch_rejected():
    seq = [{"matrix": [[1.0, 0.0], [0.0, 0.0]]}]
    with pytest.raises(ValueError):
        parse_experiment(experiment_payload(rho=seq, steps=5))


def test_parse_experiment_policies():
    _, _, _, sample = parse_experiment(experiment_payload(policy="sample", seed=4))
    assert isinstance(sample, SamplePolicy) and sample.seed == 4
    _, _, _, fixed = parse_experiment(experiment_payload(policy={"fixed": [1, 0]}))
    assert isinstance(fixed, FixedPolicy) and (fixed.i, fixed.j) == (1, 0)
    with pytest.raises(ValueError):
        parse_experiment(experiment_payload(policy="nonsense"))


def test_parse_experiment_rejects_unknown_fields():
    with pytest.raises(ValueError):
        parse_experiment(experiment_payload(surprise=1))


def test_dump_json_is_canonical():
    text = dump_json({"b": 1, "a": [1.5, 2]})
    assert text == '{\n  "a": [\n    1.5,\n    2\n  ],\n  "b": 1\n}\n'


@pytest.mark.parametrize("value, shown", [
    (True, "True"),
    ([1.0, False], "False"),
    (float("nan"), "nan"),
    (float("inf"), "inf"),
    ([0.5, float("-inf")], "-inf"),
])
def test_json_to_complex_rejects_booleans_and_non_finite(value, shown):
    with pytest.raises(ValueError, match=shown):
        json_to_complex(value)


@pytest.mark.parametrize("overrides", [
    {"n": True},
    {"steps": True},
    {"seed": False, "policy": "sample"},
    {"policy": {"fixed": [True, 0]}},
])
def test_parse_experiment_integer_fields_reject_booleans(overrides):
    with pytest.raises(ValueError):
        parse_experiment(experiment_payload(**overrides))


def test_parse_value_batch_returns_the_given_fields():
    spec = {"dim": 3, "pairs": 4, "kraus_terms": 2, "identical_channels": True}
    assert parse_value_batch(spec) == spec
    assert parse_value_batch({}) == {}


@pytest.mark.parametrize("value", [1, "no", None])
def test_parse_value_batch_identical_channels_must_be_boolean(value):
    with pytest.raises(ValueError, match=f"identical_channels must be a boolean, got {value!r}"):
        parse_value_batch({"identical_channels": value})
