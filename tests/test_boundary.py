"""Every public callable rejects a bad value with a named exception.

Each positional argument of each callable in `infodyn.__all__`, the
data of `Channel(kind, data)` for each kind, and the argument of
`Channel.apply_matrix`, `kraus_vectors` and `image_spectra` on a channel
of each kind, is fed each value of BAD_VALUES in turn while the other
arguments keep the valid values of CASES. The call must return, or raise
ValueError, TypeError or an `InfodynError` with a non-empty message. A
returned iterator is run to its end. Warnings are errors, as everywhere
in this suite, so a warning is a fault too.

Arguments documented as package objects are duck-typed, so they are not
fed: a `Channel`, `BellSystem`, `SignalBasis`, `Partition`, `MapSystem`,
a policy, a `Generator`, and the `ComplexityConfig`, `OrbitConfig` and
sweep rows that carry settings and results. The exception types are not
called, since the package raises them.
"""

import itertools
from collections.abc import Iterator

import numpy as np
import pytest

import infodyn
from infodyn import (
    ArgmaxPolicy,
    BellSystem,
    Channel,
    ComplexityConfig,
    InfodynError,
    OrbitConfig,
    Partition,
    SignalBasis,
    SweepRow,
    identity_channel,
    kraus_channel,
    logistic_map,
)

BAD_VALUES = {
    "nan": float("nan"),
    "inf": float("inf"),
    "true": True,
    "string": "abc",
    "none": None,
    "minus-one": -1,
    "zero": 0,
    "big": 10**400,
    "fraction": 2.5,
    "empty": [],
    "ragged": [[1.0], [1.0, 2.0]],
    "vector": [1.0, 2.0],
    "nan-matrix": np.full((2, 2), np.nan),
    "non-square": np.zeros((2, 3)),
    "empty-matrix": np.zeros((0, 0)),
    "object": object(),
    "imaginary": 1j,
}


class Fixed:
    """A package-object argument: passed as is and never fed a bad value."""

    def __init__(self, value):
        self.value = value


def _points(start, a):
    (x,) = start
    while True:
        x = a * x * (1.0 - x)
        yield x


def _jacobian(orbit, a):
    return a * (1.0 - 2.0 * orbit)


HALF = np.eye(2) / 2
CHANNEL = Fixed(identity_channel(2))
FAST = Fixed(ComplexityConfig(restarts=2, seed=0))
BELL = Fixed(BellSystem(SignalBasis.fourier(2)))
RNG = Fixed(np.random.default_rng(0))
MAP = Fixed(logistic_map())
ORBIT = Fixed(OrbitConfig(transient=10, samples=50))
PARTITION = Fixed(Partition(((0.0, 1.0),), bins=4))
UPDATE = (0, 0, HALF, HALF, BELL)

CASES = {
    "ArgmaxPolicy": (),
    "AxiomResult": (True, 0.0, 1e-10, 1, ""),
    "BellSystem": (Fixed(SignalBasis.fourier(2)),),
    "ChaosDegreeReport": (0.0, 0.0, 0.0, False, 1, 0, 0.0),
    "CompletePositivityReport": (True, 0.0, 0.0),
    "ComplexityConfig": (2, 0),
    "ConjectureOutcome": (0.0, 0.0, 0.0, 0.0, True),
    "DensityOperator": (HALF,),
    "Channel": ("kraus", np.eye(2)[None]),
    "EmpiricalChannel": ([0.1, 0.5, 0.9], PARTITION),
    "FixedPolicy": (0, 0),
    "MapSystem": ("map", ((0.0, 1.0),), (0.5,), 3.0, _points, _jacobian),
    "OrbitConfig": (None, 10, 50, None),
    "Partition": (((0.0, 1.0),), 4),
    "RecognitionStep": (0, 0, 0, 1.0, None),
    "SamplePolicy": (0,),
    "SignalBasis": (np.eye(2),),
    "SweepRow": (3.9, 0.1, 0.1, "chaotic"),
    "axiom_suite": (2, 1, 0),
    "baker_map": (),
    "chaos_degree": (HALF, CHANNEL, FAST),
    "choi_check": (CHANNEL, 2),
    "choi_matrix": (CHANNEL, 2),
    "complexity": (HALF,),
    "conjecture_batch": (2, 1, 0, 2, False),
    "conjecture_experiment": (HALF, [[1.0]], CHANNEL, CHANNEL, np.eye(2), FAST),
    "depolarizing_channel": (2, 1.0),
    "diag_embedding": (2,),
    "empirical_channel": ([0.1, 0.5, 0.9], PARTITION),
    "entangle": (HALF,),
    "identity_channel": (2,),
    "iterate_orbit": (MAP, ORBIT),
    "kraus_channel": ([np.eye(2)],),
    "logistic_map": (),
    "lyapunov_exponent": (MAP, ORBIT),
    "measured_operator": UPDATE,
    "mult_operator": ([1.0, 2.0],),
    "orbit_chaos_degree": (MAP, ORBIT, PARTITION),
    "outcome_probabilities": (HALF, HALF, BELL),
    "outcome_probability": UPDATE,
    "partial_trace": (np.eye(4) / 4, [2, 2], [0]),
    "random_density": (2, RNG, None),
    "random_kraus_channel": (2, 2, RNG),
    "random_state": (2, RNG),
    "random_unitary": (2, RNG),
    "recognize_sequence": (HALF, [HALF], BELL, Fixed(ArgmaxPolicy())),
    "relative_entropy": (HALF, HALF),
    "schur_apply_from_terms": ([(1.0, [1.0, 1.0])], HALF),
    "schur_channel_apply": (np.eye(2), HALF),
    "shift_unitary": (1, 2),
    "sweep": (MAP, 3.9, 4.0, 0.1, ORBIT, PARTITION),
    "sweep_to_csv": (Fixed([SweepRow(3.9, 0.1, 0.1, "chaotic")]),),
    "tensor": (np.eye(2), np.eye(2)),
    "tinkerbell_map": (),
    "transfer_operator": (BELL, 0, 0),
    "transmitted_complexity": (HALF, CHANNEL, FAST),
    "update_composed": UPDATE,
    "update_direct": UPDATE,
    "update_spectral": UPDATE,
    "value_of_information": (HALF, [[1.0]], CHANNEL, np.eye(2)),
    "von_neumann_entropy": (HALF,),
}
# `Channel` of each kind other than "kraus", fed its data as "Channel" above
# is fed a Kraus stack.
KINDS = {f"{kind}_channel": (lambda data, kind=kind: Channel(kind, data), (np.eye(2),))
         for kind in ("schur", "stochastic", "unitary")}
CHANNELS = {
    "unitary": identity_channel(2),
    "kraus": kraus_channel([np.sqrt(0.5) * np.eye(2), np.sqrt(0.5) * np.diag([1.0, -1.0])]),
    "schur": Channel("schur", np.ones((2, 2))),
    "stochastic": Channel("stochastic", [[0.5, 0.5], [0.25, 0.75]]),
}
METHODS = {"apply_matrix": (HALF,), "kraus_vectors": ([[1.0, 0.0]],), "image_spectra": ([[1.0, 0.0]],)}
TARGETS = {
    **{name: (getattr(infodyn, name), args) for name, args in CASES.items()},
    **KINDS,
    **{f"{kind}.{method}": (getattr(channel, method), args)
       for (kind, channel), (method, args) in itertools.product(CHANNELS.items(), METHODS.items())},
}


def test_every_public_callable_has_a_case():
    exported = {name: getattr(infodyn, name) for name in infodyn.__all__}
    callables = {
        name for name, value in exported.items()
        if callable(value)
        and not (isinstance(value, type) and issubclass(value, BaseException))
    }
    assert sorted(callables ^ CASES.keys()) == []


def _call(function, args):
    """Call `function`, and run a returned iterator to its end."""
    result = function(*args)
    if isinstance(result, Iterator):
        list(result)


def _fault(function, args):
    """What is wrong with the call, or None when it returns or raises a named error."""
    try:
        _call(function, args)
    except Exception as exc:
        if not isinstance(exc, (ValueError, TypeError, InfodynError)):
            return f"{type(exc).__name__}: {exc}"
        if not str(exc):
            return f"{type(exc).__name__} with no message"
    return None


@pytest.mark.parametrize("name", sorted(TARGETS))
def test_each_argument_rejects_bad_values_by_name(name):
    function, valid = TARGETS[name]
    plain = [arg.value if isinstance(arg, Fixed) else arg for arg in valid]
    _call(function, plain)
    found = []
    for position, arg in enumerate(valid):
        if isinstance(arg, Fixed):
            continue
        for label, bad in BAD_VALUES.items():
            fault = _fault(function, plain[:position] + [bad] + plain[position + 1:])
            if fault is not None:
                found.append(f"argument {position} = {label}: {fault}")
    assert found == []


# Finite entries whose Gram product, entrywise product or row sum would
# overflow; the rule each call breaks is named before the arithmetic, so no
# RuntimeWarning comes first. The two "-under" rows lie under the Kraus and
# unitary bounds and keep their own messages. A channel's vector methods
# bound their rows by the channel's scale, a Schur weight's included.
OVERFLOWING = {
    **{f"{kind}.image_spectra": (channel.image_spectra, [1e200, 1.0], "vector has a non-finite entry")
       for kind, channel in CHANNELS.items()},
    "stochastic.kraus_vectors": (CHANNELS["stochastic"].kraus_vectors, [1e200, 1.0],
                                 "vector has a non-finite entry"),
    "schur_channel.apply_matrix": (Channel("schur", 1e200 * np.eye(2)).apply_matrix,
                                   [[1e200, 0.0], [0.0, 1.0]], "damped state has a non-finite entry"),
    "kraus_channel": (infodyn.kraus_channel, [1e200 * np.eye(3)],
                      "Kraus operators have a non-finite entry"),
    "schur_channel_apply": (lambda rho: infodyn.schur_channel_apply(1e200 * np.eye(2), rho),
                            [[1e200, 0.0], [0.0, 1.0]], "damped state has a non-finite entry"),
    "unitary_channel": (lambda u: Channel("unitary", u), 1e200 * np.eye(2),
                        "matrix is not unitary: deviation inf"),
    "SignalBasis": (SignalBasis, 1e200 * np.eye(2), "rows are not orthonormal: Gram error inf"),
    "stochastic_channel": (lambda p: Channel("stochastic", p), [[1e308, 1e308], [0.5, 0.5]],
                           "stochastic matrix rows must sum to 1"),
    "kraus_channel-under": (infodyn.kraus_channel, [1e150 * np.eye(3)],
                            "Kraus sum exceeds identity by 1.000e+300"),
    "unitary_channel-under": (lambda u: Channel("unitary", u), 1e150 * np.eye(2),
                              "matrix is not unitary: deviation 1.000e+300"),
}


@pytest.mark.parametrize("name", sorted(OVERFLOWING))
def test_an_overflowing_product_is_named_without_a_warning(name):
    function, arg, message = OVERFLOWING[name]
    with pytest.raises(ValueError) as err:
        function(arg)
    assert str(err.value) == message


# Arrays a value type's constructor refuses, naming the field or the rule
# they break together. Kept unchecked, a raw Kraus stack of the wrong shape
# would fail with an IndexError or give a channel of the wrong dimension,
# and a box, `x0` or `default_x0` of the wrong shape would fail with an
# unpacking or iteration error that names no field.
REJECTED = {
    "Channel-unknown-kind": (lambda: Channel("ktau", np.eye(2)),
                             "channel kind must be one of ('kraus', 'schur', 'unitary', "
                             "'stochastic'), got 'ktau'"),
    "Channel-kraus-matrix": (lambda: Channel("kraus", np.eye(2)),
                             "Kraus stack must have shape (..., r, n, n), got (2, 2)"),
    "Channel-kraus-non-square": (lambda: Channel("kraus", np.ones((1, 2, 3))),
                                 "Kraus stack must have shape (..., r, n, n), got (1, 2, 3)"),
    "Channel-kraus-empty": (lambda: Channel("kraus", np.zeros((0, 2, 2))),
                            "Kraus stack must have shape (..., r, n, n), got (0, 2, 2)"),
    "Channel-kraus-string": (lambda: Channel("kraus", "abc"),
                             "Kraus operator must be an array of numbers, got str"),
    "Channel-unitary-stack": (lambda: Channel("unitary", np.eye(2)[None]),
                              "unitary must be a square matrix, got shape (1, 2, 2)"),
    "Channel-schur-vector": (lambda: Channel("schur", np.ones(2)),
                             "weight must be a square matrix, got shape (2,)"),
    "Channel-stochastic-string": (lambda: Channel("stochastic", "abc"),
                                  "stochastic matrix must be an array of numbers, got str"),
    "Partition-triple-interval": (lambda: Partition(((0, 1, 2),), 4),
                                  "box interval must be a pair (lo, hi), got (0, 1, 2)"),
    "Partition-scalar-box": (lambda: Partition(5, 4),
                             "box must be a sequence of (lo, hi) pairs, got 5"),
    "OrbitConfig-scalar-x0": (lambda: OrbitConfig(x0=0.5),
                              "x0 must be a sequence of real numbers, got 0.5"),
    "MapSystem-scalar-default-x0": (lambda: infodyn.MapSystem("map", ((0.0, 1.0),), 0.5, 3.0,
                                                              _points, _jacobian),
                                    "default_x0 must be a sequence of real numbers, got 0.5"),
}


@pytest.mark.parametrize("name", sorted(REJECTED))
def test_a_value_type_names_the_field_of_a_bad_array(name):
    build, message = REJECTED[name]
    with pytest.raises(ValueError) as err:
        build()
    assert str(err.value) == message


# Integers that pass the type rule but would build an array beyond the
# budget of MAX_MATRIX_DIM^2 complex entries. Each call names the field it
# reads, or the product of fields that sizes the array, before numpy is
# asked for the array.
OVERSIZED = {
    "random_kraus_channel-n": (lambda: infodyn.random_kraus_channel(10**5000, 2, RNG.value),
                               "n=1" + "0" * 79 + "... exceeds the limit MAX_MATRIX_DIM=2048"),
    "random_kraus_channel-terms": (lambda: infodyn.random_kraus_channel(2, 10**5000, RNG.value),
                                   "terms * n^2=4" + "0" * 79 + "... exceeds the limit "
                                   "MAX_VECTOR_DIM=4194304"),
    "random_kraus_channel-terms-cap": (lambda: infodyn.random_kraus_channel(2, 2**20 + 1, RNG.value),
                                       "terms * n^2=4194308 exceeds the limit MAX_VECTOR_DIM=4194304"),
    # Products that wrap past the cap in int64.
    "random_kraus_channel-int64-terms": (
        lambda: infodyn.random_kraus_channel(np.int64(4), np.int64(2**60 + 1), RNG.value),
        "terms * n^2=18446744073709551632 exceeds the limit MAX_VECTOR_DIM=4194304"),
    "random_kraus_channel-int64-n": (
        lambda: infodyn.random_kraus_channel(np.int64(2048), np.int64(2**43), RNG.value),
        "terms * n^2=36893488147419103232 exceeds the limit MAX_VECTOR_DIM=4194304"),
    "choi_matrix-dim": (lambda: infodyn.choi_matrix(lambda m: m, 10**5000),
                        "dim=1" + "0" * 79 + "... exceeds the limit MAX_CHOI_DIM=45"),
    "choi_matrix-dim-cap": (lambda: infodyn.choi_matrix(lambda m: m, 46),
                            "dim=46 exceeds the limit MAX_CHOI_DIM=45"),
}


@pytest.mark.parametrize("name", sorted(OVERSIZED))
def test_an_oversized_dimension_names_its_field(name):
    build, message = OVERSIZED[name]
    with pytest.raises(ValueError) as err:
        build()
    assert str(err.value) == message


def test_partial_trace_names_dims_whose_product_wraps_in_int64():
    # 2^62 * 4 is 0 in int64, which an empty matrix's shape would match.
    with pytest.raises(infodyn.DimensionMismatch) as err:
        infodyn.partial_trace(np.zeros((0, 0)), (2**62, 4), [0])
    assert str(err.value) == "matrix shape (0, 0) does not factor as (4611686018427387904, 4)"
