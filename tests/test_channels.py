import itertools

import numpy as np
import pytest

from infodyn.channels import (
    Channel,
    SchurWeight,
    choi_check,
    choi_matrix,
    depolarizing_channel,
    identity_channel,
    kraus_channel,
    random_kraus_channel,
    schur_apply_from_terms,
    schur_channel,
    schur_channel_apply,
    stochastic_channel,
    unitary_channel,
)
from infodyn.exceptions import DimensionMismatch, OutsideDomain
from infodyn.hilbert import (
    DensityOperator,
    mult_operator,
    partial_trace,
    random_density,
    random_state,
    random_unitary,
    relative_entropy,
    shift_unitary,
    tensor,
    von_neumann_entropy,
)
from infodyn.metrics import chaos_degree, conjecture_experiment, value_of_information
from infodyn.recognition import SignalBasis

RNG = np.random.default_rng(77)


def ones_weight(n):
    return SchurWeight(np.ones((n, n)))


def test_schur_with_all_ones_weight_is_identity():
    rho = random_density(3, RNG)
    assert np.allclose(schur_channel(ones_weight(3)).apply_matrix(rho.matrix), rho.matrix)


def test_schur_with_zero_weight_annihilates():
    rho = random_density(3, RNG)
    assert np.allclose(schur_channel(SchurWeight(np.zeros((3, 3)))).apply_matrix(rho.matrix), 0)


def test_schur_weight_rejects_indefinite():
    with pytest.raises(ValueError):
        SchurWeight(np.array([[0.0, 1.0], [1.0, 0.0]]))


def test_a_rank_zero_schur_weight_has_empty_image_spectra():
    # No spectral term, so no Kraus vector: each image is 0 with an empty spectrum.
    assert schur_channel(np.zeros((2, 2))).image_spectra(np.eye(2)).shape == (2, 0)


def test_schur_channel_decomposes_its_weight_once(monkeypatch):
    weight = random_density(3, RNG).matrix
    calls = []
    eigh = np.linalg.eigh

    def counted(m, *args, **kwargs):
        calls.append(m.shape)
        return eigh(m, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counted)
    monkeypatch.setattr(np.linalg, "eigvalsh", None)
    schur_channel(weight)
    assert calls == [(3, 3)]


def test_schur_matches_expansion_over_spectral_terms():
    w = SchurWeight(random_density(4, RNG).matrix)
    rho = random_density(4, RNG).matrix
    assert np.allclose(
        schur_channel(w).apply_matrix(rho),
        schur_apply_from_terms(w.spectral_terms(), rho),
        atol=1e-12,
    )


def test_schur_value_independent_of_spectral_representation():
    # A degenerate weight admits many eigenbases; the channel must not
    # see which one was picked.
    n = 4
    standard = [(1.0 / n, np.eye(n)[:, k].astype(complex)) for k in range(n)]
    u = random_unitary(n, RNG)
    rotated = [(1.0 / n, u[:, k]) for k in range(n)]
    rho = random_density(n, RNG).matrix
    out_a = schur_apply_from_terms(standard, rho)
    out_b = schur_apply_from_terms(rotated, rho)
    assert np.max(np.abs(out_a - out_b)) <= 1e-12
    assert np.allclose(out_a, schur_channel(SchurWeight(np.eye(n) / n)).apply_matrix(rho), atol=1e-12)


def test_normalized_schur_keeps_unimodular_weight_unitary():
    h = np.exp(1j * RNG.uniform(0, 2 * np.pi, size=3))
    rho = random_density(3, RNG)
    out = schur_channel_apply(SchurWeight(np.outer(h, h.conj())), rho)
    direct = np.diag(h) @ rho.matrix @ np.diag(h).conj().T
    assert np.allclose(out.matrix, direct, atol=1e-12)


def test_normalized_schur_identity_weight_gives_diagonal():
    rho = random_density(3, RNG)
    out = schur_channel_apply(SchurWeight(np.eye(3) / 3), rho)
    assert np.allclose(out.matrix, np.diag(np.diag(rho.matrix)), atol=1e-12)


def test_normalized_schur_zero_weight_raises():
    rho = random_density(2, RNG)
    with pytest.raises(OutsideDomain):
        schur_channel_apply(SchurWeight(np.zeros((2, 2))), rho)


def test_normalized_schur_names_an_overflowing_trace_without_a_warning():
    # Warnings are errors in this suite, so a warning from the sum fails here.
    with pytest.raises(ValueError, match="^damped trace inf is not finite$"):
        schur_channel_apply(np.eye(2), [[1e308, 0.0], [0.0, 1e308]])


@pytest.mark.parametrize("diagonal", [[0.8e308, 0.8e308, 1e306], [1e308, 1.0], [0.25, 0.75]],
                         ids=["large", "one-large", "small"])
def test_normalized_schur_keeps_every_bit_of_a_finite_trace(diagonal):
    # The first two take the scaled sum, the last the plain one; each gives
    # the bits of numpy's own trace, which does not overflow here.
    state = np.diag(diagonal).astype(complex)
    out = schur_channel_apply(np.eye(len(diagonal)), state)
    expect = DensityOperator(state / float(state.trace().real))
    assert out.matrix.tobytes() == expect.matrix.tobytes()


def test_normalized_schur_rejects_a_non_finite_trace_before_dividing():
    # Warnings are errors in this suite, so a division by the trace would
    # fail first; the state's NaN is named as the state is read.
    state = np.array([[np.nan, 0.0], [0.0, 0.5]])
    with pytest.raises(ValueError, match="^state has a non-finite entry$"):
        schur_channel_apply(SchurWeight(np.eye(2)), state)


def test_shift_channel_moves_basis_state():
    out = unitary_channel(shift_unitary(1, 2))(DensityOperator(np.diag([1.0, 0.0])))
    assert np.allclose(out.matrix, np.diag([0.0, 1.0]))


def test_shift_channel_at_zero_is_identity():
    rho = random_density(3, RNG)
    assert np.allclose(unitary_channel(shift_unitary(0, 3))(rho).matrix, rho.matrix)


def test_unitary_conjugation_preserves_entropy():
    rho = random_density(3, RNG)
    ch = unitary_channel(random_unitary(3, RNG))
    assert von_neumann_entropy(ch(rho)) == pytest.approx(von_neumann_entropy(rho), abs=1e-10)


def test_unitary_channel_rejects_nonunitary():
    with pytest.raises(ValueError):
        unitary_channel(np.array([[1.0, 1.0], [0.0, 1.0]]))


SQUARE_INPUTS = [
    (DensityOperator, "density operator"),
    (SignalBasis, "basis"),
    (SchurWeight, "weight"),
    (unitary_channel, "unitary"),
    (stochastic_channel, "stochastic matrix"),
]


@pytest.mark.parametrize("build, name", SQUARE_INPUTS)
def test_square_matrix_inputs_share_one_message(build, name):
    with pytest.raises(ValueError) as exc:
        build(np.zeros((2, 3)))
    assert str(exc.value) == f"{name} must be a square matrix, got shape (2, 3)"


@pytest.mark.parametrize("build, name", SQUARE_INPUTS + [
    (lambda m: schur_channel_apply(np.eye(2), m), "state"),
    (lambda m: kraus_channel([m]), "Kraus operator"),
])
def test_an_empty_matrix_is_named_before_any_arithmetic(build, name):
    with pytest.raises(ValueError) as exc:
        build(np.zeros((0, 0)))
    assert str(exc.value) == f"{name} must be a non-empty matrix, got shape (0, 0)"


# Raw data of each kind, with the dimension and trace-preservation flag that
# the constructor derives from it; a factory given the same data agrees.
LOSSY_KRAUS = np.stack([0.5 * np.eye(3)])
DERIVED = {
    "lossy-kraus": (("kraus", LOSSY_KRAUS), 3, False, lambda: kraus_channel(list(LOSSY_KRAUS))),
    "kraus": (("kraus", np.stack([np.sqrt(0.5) * np.eye(2), np.sqrt(0.5) * np.diag([1.0, -1.0])])),
              2, True, None),
    "schur-off-diagonal-one": (("schur", [[1.0, 0.5], [0.5, 0.8]]), 2, False,
                               lambda: schur_channel([[1.0, 0.5], [0.5, 0.8]])),
    "schur": (("schur", np.ones((2, 2))), 2, True, lambda: schur_channel(np.ones((2, 2)))),
    "stack-with-one-lossy-family": (
        ("kraus", np.stack([np.eye(3)[None], LOSSY_KRAUS, np.eye(3)[None]])), 3, False, None),
    "stack": (("kraus", np.stack([np.eye(3)[None]] * 3)), 3, True, None),
    "unitary": (("unitary", [[0.0, 1.0], [1.0, 0.0]]), 2, True,
                lambda: unitary_channel([[0.0, 1.0], [1.0, 0.0]])),
    "stochastic": (("stochastic", [[0.5, 0.5], [0.25, 0.75]]), 2, True,
                   lambda: stochastic_channel([[0.5, 0.5], [0.25, 0.75]])),
}


@pytest.mark.parametrize("case", DERIVED)
def test_a_channel_derives_its_dimension_and_trace_preservation_from_its_data(case):
    (kind, data), dim, preserving, factory = DERIVED[case]
    channel = Channel(kind, data)
    assert (channel.kind, channel.dim, channel.is_trace_preserving) == (kind, dim, preserving)
    if factory is not None:
        built = factory()
        assert (built.kind, built.dim, built.is_trace_preserving) == (kind, dim, preserving)
        assert np.array_equal(built.apply_matrix(np.eye(dim)), channel.apply_matrix(np.eye(dim)))


def test_a_raw_channel_checks_its_data_as_its_factory_does():
    with pytest.raises(ValueError, match="^Kraus sum exceeds identity by 3.000e"):
        Channel("kraus", 2 * np.eye(2)[None])
    with pytest.raises(ValueError, match="^matrix is not unitary: deviation 3.000e"):
        Channel("unitary", 2 * np.eye(2))
    with pytest.raises(ValueError, match="^weight has negative eigenvalue"):
        Channel("schur", -np.eye(2))
    for p, message in [([[1.0j, 0.0], [0.0, 1.0]], "must be real"),
                       ([[1.5, -0.5], [0.0, 1.0]], "entries must be nonnegative"),
                       ([[0.5, 0.4], [0.0, 1.0]], "rows must sum to 1")]:
        with pytest.raises(ValueError, match=f"^stochastic matrix {message}$"):
            Channel("stochastic", p)


def test_channel_is_immutable():
    lossy = kraus_channel([0.5 * np.eye(4)])
    with pytest.raises(AttributeError, match="^Channel is immutable$"):
        lossy.is_trace_preserving = True
    assert not lossy.is_trace_preserving
    kinds = [lossy, random_kraus_channel(3, 2, RNG), schur_channel(np.ones((3, 3))),
             unitary_channel(random_unitary(3, RNG)), stochastic_channel(np.full((3, 3), 1 / 3))]
    arrays = [getattr(ch, name) for ch in kinds for name in Channel.__slots__]
    arrays += [ch._data.matrix for ch in kinds if ch.kind == "schur"]
    arrays = [a for a in arrays if isinstance(a, np.ndarray)]
    # `_data` and `_factor` of each; a Schur channel's data is its weight, and
    # a stochastic channel has no factor.
    assert len(arrays) == 9
    assert not any(a.flags.writeable for a in arrays)


@pytest.mark.parametrize("kind, data", [
    ("kraus", np.stack([np.sqrt(0.5) * np.eye(2), np.sqrt(0.5) * np.diag([1.0, -1.0])]).astype(complex)),
    ("unitary", np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)),
    ("schur", np.ones((2, 2), dtype=complex)),
    ("stochastic", np.array([[0.5, 0.5], [0.25, 0.75]])),
])
def test_a_raw_channel_leaves_the_callers_array_writable_and_its_own(kind, data):
    # A complex array passes `_as_array` as itself; the channel keeps a copy,
    # so writing the caller's array neither raises nor changes the channel.
    channel = Channel(kind, data)
    rho = np.diag([0.75, 0.25]).astype(complex)
    image = channel.apply_matrix(rho)
    data[..., 0, 0] = 2
    assert data.flags.writeable
    assert np.array_equal(channel.apply_matrix(rho), image)


def test_weight_and_density_are_immutable_and_compare_by_identity():
    # A frozen dataclass with array fields can neither compare nor hash.
    for build in (lambda: SchurWeight(np.eye(2)), lambda: DensityOperator(np.eye(2) / 2)):
        a, b = build(), build()
        assert a == a and a != b
        assert len({a, b, a}) == 2
        assert not a.matrix.flags.writeable
        with pytest.raises(AttributeError, match=f"^{type(a).__name__} is immutable$"):
            a.matrix = b.matrix
    # A weight's terms are read-only too, since a Schur channel is built from them.
    assert not any(h.flags.writeable for _, h in SchurWeight(np.eye(2)).spectral_terms())


def test_kraus_channel_requires_completeness():
    with pytest.raises(ValueError):
        kraus_channel([np.eye(2), np.eye(2)])


@pytest.mark.parametrize("ops", [
    [np.array(1.0)],
    [np.ones(2)],
    [np.eye(2), np.eye(3)],
    [np.zeros((0, 2))],
], ids=["scalar", "vector", "two-shapes", "empty-non-square"])
def test_kraus_channel_rejects_operators_that_are_not_one_square_shape(ops):
    with pytest.raises(DimensionMismatch, match="Kraus operators must share one square shape"):
        kraus_channel(ops)


def test_kraus_channel_matches_explicit_sum():
    ops = [op for op in random_kraus_channel(3, 2, RNG)._data]
    ch = kraus_channel(ops)
    rho = random_density(3, RNG)
    expect = sum(a @ rho.matrix @ a.conj().T for a in ops)
    assert np.allclose(ch(rho).matrix, expect, atol=1e-12)


def test_kraus_sum_check_of_a_stack_matches_each_channel():
    from infodyn.hilbert import _check_kraus_sums

    stacks = [random_kraus_channel(3, 2, RNG)._data for _ in range(3)]
    stacks.insert(1, np.stack([np.sqrt(0.5) * np.eye(3), 0.5 * np.eye(3)]))
    flags = _check_kraus_sums(np.stack(stacks))
    assert flags.tolist() == [kraus_channel(ops).is_trace_preserving for ops in stacks]
    assert flags.tolist() == [True, False, True, True]
    over = np.stack([np.eye(3), 0.1 * np.eye(3)])
    with pytest.raises(ValueError, match=r"Kraus sum exceeds identity by 1\.000e-02"):
        kraus_channel(over)
    with pytest.raises(ValueError, match=r"Kraus sum exceeds identity by 1\.000e-02"):
        _check_kraus_sums(np.stack([stacks[0], over, stacks[2]]))
    with pytest.raises(ValueError, match="^Kraus operator has a non-finite entry$"):
        kraus_channel(np.stack([np.eye(3), np.diag([np.nan, 0.0, 0.0])]))
    # Finite operators whose sum would overflow: the check names the sum's
    # non-finite entry before it multiplies.
    huge = np.stack([np.eye(3), 1e200 * np.eye(3)]).astype(complex)
    with pytest.raises(ValueError, match="^Kraus operators have a non-finite entry$"):
        _check_kraus_sums(np.stack([stacks[0], huge, stacks[2]]))


def test_kraus_sum_check_keeps_the_order_of_two_leading_axes():
    from infodyn.hilbert import _check_kraus_sums

    ops = np.stack([[random_kraus_channel(3, 2, RNG)._data for _ in range(3)] for _ in range(2)])
    ops[1, 0] *= 0.5
    flags = _check_kraus_sums(ops)
    assert flags.shape == (2, 3)
    assert flags.tolist() == [[True, True, True], [False, True, True]]


def test_kraus_sum_check_takes_eigenvalues_only_where_the_check_can_fail(monkeypatch):
    from infodyn.hilbert import _check_kraus_sums

    calls = []
    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda m: calls.append(m.shape) or eigvalsh(m))

    def kraus_with_gap(gap):
        # One Kraus operator A = (1 + gap)^(1/2), so sum A*A - 1 is the gap.
        lam, vec = np.linalg.eigh(np.eye(3) + gap)
        return ((vec * np.sqrt(lam)) @ vec.conj().T)[None]

    # Every |entry| within 1e-10 / n: no eigenvalue can exceed 1e-10.
    assert _check_kraus_sums(np.stack([random_kraus_channel(3, 2, RNG)._data for _ in range(4)])).all()
    assert calls == []
    # An entry just above 1e-10 / 3 with top eigenvalue 5e-11: checked, and passes.
    assert bool(_check_kraus_sums(kraus_with_gap(np.diag([5e-11, 0.0, 0.0]))))
    assert len(calls) == 1
    # Entries of 4e-11 everywhere: the top eigenvalue 3 x 4e-11 exceeds 1e-10.
    with pytest.raises(ValueError, match=r"Kraus sum exceeds identity by 1\.200e-10"):
        _check_kraus_sums(kraus_with_gap(np.full((3, 3), 4e-11)))


def test_random_kraus_channel_is_trace_preserving():
    for terms in (1, 2, 4):
        ch = random_kraus_channel(3, terms, RNG)
        assert ch.is_trace_preserving
        rho = random_density(3, RNG)
        assert np.trace(ch(rho).matrix) == pytest.approx(1, abs=1e-12)


def test_stochastic_identity_fixes_distributions():
    rho = DensityOperator(np.diag([0.2, 0.3, 0.5]))
    out = stochastic_channel(np.eye(3))(rho)
    assert np.allclose(out.matrix, rho.matrix)


def test_stochastic_identical_rows_forget_input():
    r = np.array([0.1, 0.6, 0.3])
    ch = stochastic_channel(np.tile(r, (3, 1)))
    for _ in range(5):
        out = ch(random_density(3, RNG))
        assert np.allclose(out.matrix, np.diag(r), atol=1e-12)


def test_stochastic_diagonal_action_is_row_vector_product():
    p = RNG.dirichlet(np.ones(4))
    rows = RNG.dirichlet(np.ones(4), size=4)
    out = stochastic_channel(rows)(DensityOperator(np.diag(p)))
    assert np.allclose(np.diag(out.matrix), p @ rows, atol=1e-12)


def test_stochastic_rejects_bad_rows():
    with pytest.raises(ValueError):
        stochastic_channel(np.array([[0.5, 0.4], [0.5, 0.5]]))


def test_stochastic_rejects_a_complex_matrix():
    with pytest.raises(ValueError, match="^stochastic matrix must be real$"):
        stochastic_channel([[1.0, 0.0], [0.5j, 1.0]])


NAN, INF, BIG = float("nan"), float("inf"), 10**400  # BIG overflows a float


def _purpose_check(q):
    half = DensityOperator(np.eye(2) / 2)
    value_of_information(half, DensityOperator([[1.0]]), identity_channel(2), q)


# Callables that read a square matrix through `hilbert._square` (a Schur
# channel's `apply_matrix` through `_as_array` and its own square check).
# Each must reject an inf and an integer beyond the float range by name,
# before an OverflowError in conversion or a warning in arithmetic.
SQUARE_READERS = {
    "entropy": von_neumann_entropy,
    "relative": lambda m: relative_entropy(m, np.eye(2) / 2),
    "chaos": lambda m: chaos_degree(m, identity_channel(2)),
    "value": lambda m: value_of_information(m, [[1.0]], identity_channel(2), np.eye(2)),
    "experiment": lambda m: conjecture_experiment(m, [[1.0]], identity_channel(2),
                                                  identity_channel(2), np.eye(2)),
    "purpose": _purpose_check,
    "basis": SignalBasis,
    "weight": SchurWeight,
    "schur": schur_channel,
    "unitary": unitary_channel,
    "schur-apply": lambda m: schur_channel(np.eye(2)).apply_matrix(m),
    "schur-normalized": lambda m: schur_channel_apply(np.eye(2), m),
    "choi-image": lambda m: choi_matrix(lambda unit: m, 2),
}
# Callables that read a matrix or vector through `hilbert._as_array` alone;
# the vector readers take the second row, which holds the bad entry.
ARRAY_READERS = {
    "tensor": lambda m: tensor(m, np.eye(2)),
    "partial-trace": lambda m: partial_trace(m, [2], [0]),
    "mult-operator": lambda m: mult_operator(m[1]),
    "apply-matrix": lambda m: identity_channel(2).apply_matrix(m),
    "kraus-vectors": lambda m: identity_channel(2).kraus_vectors(m),
}
NEW_ROWS = [
    (DensityOperator, [[BIG, 0.0], [0.0, 0.5]], "density-big"),
    *[(build, [[1.0, 0.0], [bad, 1.0]], f"{name}-{tag}")
      for name, build in SQUARE_READERS.items() for tag, bad in [("inf", INF), ("big", BIG)]],
    (lambda m: kraus_channel([np.array(m)]), [[1.0, 0.0], [0.0, INF]], "kraus-inf"),
    (stochastic_channel, [[INF, 1.0], [0.0, 1.0]], "stochastic-inf"),
    (lambda m: kraus_channel([m]), [[1.0, 0.0], [0.0, BIG]], "kraus-big"),
    (stochastic_channel, [[BIG, 1.0], [0.0, 1.0]], "stochastic-big"),
    *[(build, [[1.0, 0.0], [bad, 1.0]], f"{name}-{tag}")
      for name, build in ARRAY_READERS.items()
      for tag, bad in [("nan", NAN), ("inf", INF), ("big", BIG)]],
]


# Values that are no array of numbers, with their type's name: `_as_array`
# names the field before numpy's own conversion error.
NOT_NUMBERS = {"string": ("abc", "str"), "ragged": ([[1.0, 0.0], [0.5]], "list"),
               "mapping": ({"a": 1.0}, "dict")}


@pytest.mark.parametrize("kind", sorted(NOT_NUMBERS))
@pytest.mark.parametrize("reader", sorted(SQUARE_READERS.keys() | {"tensor", "partial-trace",
                                                                      "apply-matrix"}))
def test_readers_name_a_value_that_is_no_array_of_numbers(reader, kind):
    value, type_name = NOT_NUMBERS[kind]
    with pytest.raises(ValueError, match=f"^[A-Za-z ]+ must be an array of numbers, got {type_name}$"):
        {**SQUARE_READERS, **ARRAY_READERS}[reader](value)


@pytest.mark.parametrize("kind", sorted(NOT_NUMBERS))
def test_density_operator_names_a_value_that_is_no_array_of_numbers(kind):
    value, type_name = NOT_NUMBERS[kind]
    with pytest.raises(ValueError) as err:
        DensityOperator(value)
    assert str(err.value) == f"density operator must be an array of numbers, got {type_name}"


@pytest.mark.parametrize("build, entries", [
    (DensityOperator, [[NAN, 0.0], [0.0, 0.5]]),
    (DensityOperator, [[0.5, NAN], [NAN, 0.5]]),
    (DensityOperator, [[INF, 0.0], [0.0, 0.5]]),
    (SignalBasis, [[1.0, 0.0], [NAN, 1.0]]),
    (SchurWeight, [[1.0, NAN], [NAN, 1.0]]),
    (schur_channel, [[NAN, 0.0], [0.0, 1.0]]),
    (lambda m: kraus_channel([np.array(m)]), [[1.0, 0.0], [0.0, NAN]]),
    (unitary_channel, [[1.0, 0.0], [0.0, NAN]]),
    (stochastic_channel, [[NAN, 1.0], [0.0, 1.0]]),
    *[row[:2] for row in NEW_ROWS],
], ids=["density-diagonal", "density-offdiagonal", "density-inf", "basis", "weight",
        "schur", "kraus", "unitary", "stochastic",
        *[row[2] for row in NEW_ROWS]])
def test_constructors_reject_non_finite_entries(build, entries):
    with pytest.raises(ValueError, match="non-finite entry"):
        build(entries)


# Each site names its subject for a NaN entry and its deviation otherwise.
@pytest.mark.parametrize("build, subject, bad, complaint", [
    (DensityOperator, "density operator", [[0.5, 0.1], [0.0, 0.5]],
     "matrix is not self-adjoint: deviation 1.000e-01"),
    (SchurWeight, "weight", [[1.0, 0.1], [0.0, 1.0]],
     "weight is not self-adjoint: deviation 1.000e-01"),
    (unitary_channel, "unitary", 2.0 * np.eye(2),
     "matrix is not unitary: deviation 3.000e+00"),
    (_purpose_check, "purpose operator", [[0.0, 0.1], [0.0, 0.0]],
     "purpose operator is not self-adjoint: deviation 1.000e-01"),
    (SignalBasis, "basis", 2.0 * np.eye(2),
     "rows are not orthonormal: Gram error 3.000e+00"),
], ids=["density", "weight", "unitary", "purpose", "basis"])
def test_tolerance_check_messages(build, subject, bad, complaint):
    with pytest.raises(ValueError) as err:
        build(np.array(bad, dtype=complex))
    assert str(err.value) == complaint
    with pytest.raises(ValueError) as err:
        build(np.array([[NAN, 0.0], [0.0, 1.0]]))
    assert str(err.value) == f"{subject} has a non-finite entry"


def test_unitary_channel_conjugates_a_stack():
    u = random_unitary(3, RNG)
    ch = unitary_channel(u)
    stack = np.stack([random_density(3, RNG).matrix for _ in range(4)])
    assert np.allclose(ch.apply_matrix(stack), u @ stack @ u.conj().T, atol=1e-14)
    vectors = np.stack([random_state(3, RNG) for _ in range(5)])
    spectra = ch.image_spectra(vectors)
    assert spectra.shape == (5, 1)
    images = ch.apply_matrix(vectors[:, :, None] * vectors[:, None, :].conj())
    assert np.allclose(spectra, np.linalg.eigvalsh(images)[:, -1:], atol=1e-12)


def test_depolarizing_full_strength_outputs_maximally_mixed():
    for n in (2, 3, 4):
        ch = depolarizing_channel(n, 1.0)
        out = ch(random_density(n, RNG))
        assert np.max(np.abs(out.matrix - np.eye(n) / n)) <= 1e-12


def test_depolarizing_zero_strength_is_identity():
    rho = random_density(3, RNG)
    assert np.allclose(depolarizing_channel(3, 0.0)(rho).matrix, rho.matrix, atol=1e-12)


@pytest.mark.parametrize("call, error, message", [
    (lambda: schur_channel_apply(ones_weight(2), np.eye(3) / 3), DimensionMismatch,
     "weight dim 2 vs state dim 3"),
    (lambda: identity_channel(2).apply_matrix(np.ones((2, 3))), ValueError,
     "operand must be a square matrix or a stack of them, got shape (2, 3)"),
    (lambda: kraus_channel([]), ValueError, "at least one Kraus operator is required"),
    (lambda: choi_matrix(np.trace, 2), ValueError, "image must be a square matrix, got shape ()"),
    (lambda: choi_matrix(identity_channel(2), 10**5000), DimensionMismatch,
     "channel dim 2 vs dim 1" + "0" * 79 + "..."),
], ids=["schur-dim", "apply-non-square", "kraus-empty", "choi-image", "choi-dim-huge"])
def test_channel_input_errors_name_the_problem(call, error, message):
    with pytest.raises(error) as err:
        call()
    assert str(err.value) == message


def test_choi_identity_is_cp_with_zero_floor():
    report = choi_check(identity_channel(3))
    assert report.is_cp
    assert report.min_eigenvalue == pytest.approx(0, abs=1e-12)


def test_choi_transpose_map_is_not_cp():
    report = choi_check(lambda m: m.T, dim=2)
    assert not report.is_cp
    assert report.min_eigenvalue < -0.5


def test_choi_check_rejects_a_non_finite_image():
    # A bad map output is bad input, not a verdict on complete positivity.
    with pytest.raises(ValueError, match="^image has a non-finite entry$"):
        choi_check(lambda m: m * np.nan, 2)


def test_choi_schur_channels_are_cp():
    for _ in range(5):
        w = SchurWeight(random_density(3, RNG).matrix)
        assert choi_check(schur_channel(w)).is_cp


def test_choi_matrix_of_identity_is_maximally_entangled():
    c = choi_matrix(identity_channel(2))
    omega = np.zeros((4, 4))
    for a in (0, 1):
        for b in (0, 1):
            omega[a * 2 + a, b * 2 + b] = 1.0
    assert np.allclose(c, omega, atol=1e-12)


def test_choi_matrix_is_the_sum_of_numpy_kron_blocks_bit_for_bit():
    channel = random_kraus_channel(3, 2, RNG)
    expected = np.zeros((9, 9), dtype=complex)
    for a, b in itertools.product(range(3), repeat=2):
        unit = np.zeros((3, 3), dtype=complex)
        unit[a, b] = 1.0
        expected += np.kron(unit, channel.apply_matrix(unit))
    assert np.array_equal(choi_matrix(channel), expected)


def test_choi_requires_dim_for_bare_callable():
    with pytest.raises(ValueError):
        choi_matrix(lambda m: m)


def test_choi_rejects_a_dim_that_contradicts_the_channel():
    channel = identity_channel(2)
    assert np.array_equal(choi_matrix(channel, 2), choi_matrix(channel))
    with pytest.raises(DimensionMismatch, match="channel dim 2 vs dim 3"):
        choi_check(channel, 3)
    with pytest.raises(ValueError, match="dim must be a positive integer, got 2.0"):
        choi_matrix(channel, 2.0)


def test_channel_dimension_guard():
    from infodyn.exceptions import DimensionMismatch

    with pytest.raises(DimensionMismatch):
        identity_channel(2)(random_density(3, RNG))


def test_apply_on_channel_not_preserving_trace_raises_naming_trace():
    # A weight with diagonal 0.5 halves the trace: `apply` has one return
    # type, a state, so it refuses; `apply_matrix` gives the raw image.
    w = np.array([[0.5, 0.25], [0.25, 0.5]])
    damping = schur_channel(w)
    rho = random_density(2, RNG)
    with pytest.raises(ValueError, match="trace"):
        damping.apply(rho)
    assert np.array_equal(damping.apply_matrix(rho.matrix), w * rho.matrix)


def _stack_cases():
    """(id, channel) for every kind, with the Gram matrix on both sides of n."""
    rng = np.random.default_rng(5)
    n = 4
    u = random_unitary(n, rng)
    g = rng.normal(size=(n, 2)) + 1j * rng.normal(size=(n, 2))
    unit_rows = g / np.linalg.norm(g, axis=1, keepdims=True)
    damping = schur_channel(0.5 * (g @ g.conj().T))
    assert not damping.is_trace_preserving
    return [
        ("kraus", random_kraus_channel(n, 3, rng)),
        # Two proportional operators: a rank-one family written with r = 2.
        ("kraus-rank-deficient", kraus_channel([np.sqrt(0.3) * u, np.sqrt(0.7) * u])),
        # r = 16 > n: the spectrum comes from the n x n side.
        ("kraus-wide", depolarizing_channel(n, 0.6)),
        ("unitary", unitary_channel(u)),
        ("schur", schur_channel(unit_rows @ unit_rows.conj().T)),
        ("schur-not-trace-preserving", damping),
        ("stochastic", stochastic_channel(rng.dirichlet(np.ones(n), size=n))),
    ]


STACK_CASES = _stack_cases()


def _padded_descending(lam, size):
    lam = np.sort(np.asarray(lam).real)[::-1]
    return np.pad(lam, (0, size - lam.size))


@pytest.mark.parametrize("channel", [c for _, c in STACK_CASES],
                         ids=[name for name, _ in STACK_CASES])
def test_image_spectra_match_spectrum_of_the_image(channel):
    rng = np.random.default_rng(8)
    vecs = rng.normal(size=(2, 3, channel.dim)) + 1j * rng.normal(size=(2, 3, channel.dim))
    vecs /= np.linalg.norm(vecs, axis=-1, keepdims=True)
    spectra = channel.image_spectra(vecs)
    assert spectra.shape[:2] == (2, 3)
    for idx in np.ndindex(2, 3):
        v = vecs[idx]
        reference = np.linalg.eigvalsh(channel.apply_matrix(np.outer(v, v.conj())))
        size = max(reference.size, spectra[idx].size)
        assert np.max(np.abs(_padded_descending(spectra[idx], size)
                             - _padded_descending(reference, size))) <= 1e-12


@pytest.mark.parametrize("channel", [c for _, c in STACK_CASES],
                         ids=[name for name, _ in STACK_CASES])
def test_kraus_vectors_reproduce_the_image(channel):
    rng = np.random.default_rng(10)
    vecs = rng.normal(size=(2, 3, channel.dim)) + 1j * rng.normal(size=(2, 3, channel.dim))
    w = channel.kraus_vectors(vecs)
    assert w.shape == (2, 3, channel.image_width, channel.dim)
    images = channel.apply_matrix(vecs[..., :, None] * vecs[..., None, :].conj())
    assert np.max(np.abs(w.mT @ w.conj() - images)) <= 1e-12


@pytest.mark.parametrize("terms", [1, 3, 20], ids=["unitary-rank", "narrow", "wide"])
def test_a_stack_of_kraus_families_acts_as_each_family_alone(terms):
    # Four families of one stacked channel; each row set holds two
    # candidates of four pieces, as the stacked kernels pass them.
    rng = np.random.default_rng(12)
    n = 4
    families = [random_kraus_channel(n, terms, rng) for _ in range(4)]
    stack = Channel("kraus", np.stack([ch._data for ch in families]))
    assert (stack.dim, stack.image_width) == (n, terms)
    states = np.stack([random_density(n, rng).matrix for _ in families])
    vecs = rng.normal(size=(4, 2, n, n)) + 1j * rng.normal(size=(4, 2, n, n))
    images, w, spectra = stack.apply_matrix(states), stack.kraus_vectors(vecs), stack.image_spectra(vecs)
    assert w.shape == (4, 2, n, terms, n)
    for t, ch in enumerate(families):
        assert np.array_equal(images[t], ch.apply_matrix(states[t]))
        assert np.array_equal(w[t], ch.kraus_vectors(vecs[t]))
        assert np.array_equal(spectra[t], ch.image_spectra(vecs[t]))


def test_unitary_channel_keeps_its_own_copy_of_the_matrix():
    u = np.eye(2, dtype=complex)
    ch = unitary_channel(u)
    u *= 2
    image = ch.apply_matrix(np.diag([0.7, 0.3]))
    assert np.array_equal(image, np.diag([0.7, 0.3]).astype(complex))
    assert np.array_equal(ch.kraus_vectors([1.0, 0.0]), [[1.0, 0.0]])
    assert ch.is_trace_preserving
    with pytest.raises(ValueError, match="read-only"):
        ch._data[0, 0, 0] = 3.0


@pytest.mark.parametrize("channel", [c for _, c in STACK_CASES],
                         ids=[name for name, _ in STACK_CASES])
def test_stacked_apply_matrix_matches_per_matrix_loop(channel):
    rng = np.random.default_rng(9)
    n = channel.dim
    stack = rng.normal(size=(3, 2, n, n)) + 1j * rng.normal(size=(3, 2, n, n))
    out = channel.apply_matrix(stack)
    assert out.shape == stack.shape
    loop = np.array([[channel.apply_matrix(m) for m in row] for row in stack])
    assert np.max(np.abs(out - loop)) <= 1e-14


def test_image_spectra_dimension_guard():
    # Every kind, through both readers of a pure state's image.
    for (_, channel), method in itertools.product(STACK_CASES, ["image_spectra", "kraus_vectors"]):
        for bad in (np.ones((2, channel.dim + 1)), np.ones((channel.dim - 1,)), np.array(1.0)):
            with pytest.raises(DimensionMismatch):
                getattr(channel, method)(bad)
