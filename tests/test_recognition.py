import itertools
import json
import tracemalloc

import numpy as np
import pytest

from infodyn import jsonio, recognition
from infodyn.exceptions import DimensionMismatch, OutsideDomain, ZeroProbabilityOutcome
from infodyn.hilbert import (
    DensityOperator,
    partial_trace,
    random_density,
    random_unitary,
    von_neumann_entropy,
)
from infodyn.recognition import (
    ARGMAX_TIE_TOL,
    ArgmaxPolicy,
    BellSystem,
    FixedPolicy,
    SamplePolicy,
    SignalBasis,
    entangle,
    measured_operator,
    outcome_probabilities,
    outcome_probability,
    recognize_sequence,
    transfer_operator,
    update_composed,
    update_direct,
    update_spectral,
)

RNG = np.random.default_rng(55)


def fourier_bell(n):
    return BellSystem(SignalBasis.fourier(n))


def test_fourier_basis_is_orthonormal_and_uniform():
    basis = SignalBasis.fourier(5)
    gram = basis.vectors.conj() @ basis.vectors.T
    assert np.max(np.abs(gram - np.eye(5))) <= 1e-12
    assert basis.uniform_modulus


def test_standard_basis_not_uniform_modulus():
    basis = SignalBasis.standard(3)
    assert not basis.uniform_modulus


def test_basis_rejects_nonorthonormal_rows():
    with pytest.raises(ValueError):
        SignalBasis(np.array([[1.0, 0.0], [1.0, 0.0]]))


def test_basis_is_immutable():
    basis = SignalBasis.fourier(2)
    with pytest.raises(AttributeError):
        basis.uniform_modulus = False


@pytest.mark.parametrize("n", [2, 3, 5])
def test_bell_vectors_resolve_identity(n):
    bell = fourier_bell(n)
    assert bell.gram_error() <= 1e-12
    assert bell.completeness_error() <= 1e-12


def test_bell_system_builds_vectors_on_demand():
    # The n^2 vectors of length n^2 would take 268 MB at n = 64.
    tracemalloc.start()
    try:
        bell = fourier_bell(64)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000
    v = bell.vector(3, 5)
    m = np.arange(64)
    assert np.array_equal(v[m * 64 + (m - 5) % 64], bell.basis.vectors[3])
    assert np.count_nonzero(v) == 64


def test_bell_system_gather_tables_depend_on_the_basis_alone():
    bell = BellSystem(SignalBasis(random_unitary(4, RNG)))
    m = np.arange(4)
    assert np.array_equal(bell._weights, np.abs(bell.basis.vectors) ** 2)
    for j in range(4):
        assert np.array_equal(bell._circulant[:, j], (m - j) % 4)
        assert np.array_equal(bell._shifted[j], (m + j) % 4)
    for table in (bell._weights, bell._circulant, bell._shifted):
        assert not table.flags.writeable


def test_bell_projections_are_rank_one():
    bell = fourier_bell(3)
    p = bell.projection(1, 2)
    assert np.allclose(p @ p, p, atol=1e-12)
    assert np.trace(p) == pytest.approx(1)


def test_entangle_pure_stays_pure():
    h = RNG.normal(size=3) + 1j * RNG.normal(size=3)
    h /= np.linalg.norm(h)
    e = entangle(DensityOperator.from_pure(h))
    assert von_neumann_entropy(e) <= 1e-12


def test_entangle_has_unit_trace():
    e = entangle(random_density(4, RNG))
    assert np.trace(e.matrix) == pytest.approx(1, abs=1e-12)


def test_entangle_maximally_mixed_qubit():
    e = entangle(DensityOperator.maximally_mixed(2)).matrix
    expect = np.zeros((4, 4))
    expect[0, 0] = expect[3, 3] = 0.5
    assert np.allclose(e, expect, atol=1e-14)


def test_probabilities_sum_to_one():
    for n in (2, 3, 4):
        bell = fourier_bell(n)
        probs = outcome_probabilities(random_density(n, RNG), random_density(n, RNG), bell)
        assert np.all(probs >= 0)
        assert probs.sum() == pytest.approx(1, abs=1e-12)


def test_probabilities_uniform_for_maximally_mixed_pair():
    bell = fourier_bell(2)
    mixed = DensityOperator.maximally_mixed(2)
    assert np.allclose(outcome_probabilities(mixed, mixed, bell), 0.25, atol=1e-14)


def test_probability_matches_spectral_norm_formula():
    # Independent evaluation: weight alpha_k beta_l on the norm of the
    # compressed product vector, summed over both spectra (the total
    # image weight of update_spectral).
    for n in (2, 3, 5, 8):
        states = [(random_density(n, RNG), random_density(n, RNG)),
                  (random_density(n, RNG, rank=1), random_density(n, RNG, rank=max(n - 1, 1))),
                  (random_density(n, RNG, rank=max(n // 2, 1)), random_density(n, RNG, rank=1))]
        bases = [SignalBasis.fourier(n), SignalBasis.standard(n),
                 SignalBasis(random_unitary(n, RNG).T)]
        for basis in bases:
            bell = BellSystem(basis)
            for rho, gamma in states:
                rd, gd = rho.spectral(), gamma.spectral()
                probs = outcome_probabilities(rho, gamma, bell)
                for i in range(n):
                    for j in range(n):
                        op = transfer_operator(bell, i, j)
                        total = 0.0
                        for k in range(n):
                            for l in range(n):
                                image = op @ np.kron(rd.vectors[:, k], gd.vectors[:, l])
                                total += rd.weights[k] * gd.weights[l] * float(np.vdot(image, image).real)
                        assert probs[i, j] == pytest.approx(total, abs=1e-12)
                        assert outcome_probability(i, j, rho, gamma, bell) == pytest.approx(total, abs=1e-12)


def test_measured_operator_traces_to_probability():
    n = 3
    bell = fourier_bell(n)
    rho, gamma = random_density(n, RNG), random_density(n, RNG)
    total = 0.0
    for i in range(n):
        for j in range(n):
            m = measured_operator(i, j, rho, gamma, bell)
            p = float(np.trace(m).real)
            assert p == pytest.approx(outcome_probability(i, j, rho, gamma, bell), abs=1e-12)
            total += p
    assert total == pytest.approx(1, abs=1e-12)


@pytest.mark.parametrize("n", [2, 3])
def test_measured_operator_contracts_to_direct_update(n):
    bell = fourier_bell(n)
    rho, gamma = random_density(n, RNG), random_density(n, RNG)
    for i in range(n):
        for j in range(n):
            m = measured_operator(i, j, rho, gamma, bell)
            block = partial_trace(m, (n, n, n), (0, 1))
            p = outcome_probability(i, j, rho, gamma, bell)
            updated = update_direct(i, j, rho, gamma, bell)
            assert np.allclose(block, p * updated.matrix, atol=1e-12)


def test_update_hand_example_shift_controls_output():
    bell = fourier_bell(2)
    rho = DensityOperator.from_pure([1, 0])
    gamma = DensityOperator.maximally_mixed(2)
    for i in (0, 1):
        assert np.allclose(update_direct(i, 0, rho, gamma, bell).matrix, np.diag([1.0, 0.0]), atol=1e-12)
        assert np.allclose(update_direct(i, 1, rho, gamma, bell).matrix, np.diag([0.0, 1.0]), atol=1e-12)


def test_update_routes_agree_on_random_faithful_instances():
    for n in (2, 3, 5):
        bell = fourier_bell(n)
        for _ in range(5):
            rho = random_density(n, RNG)
            gamma = random_density(n, RNG)
            for i in range(n):
                for j in range(n):
                    a = update_direct(i, j, rho, gamma, bell).matrix
                    b = update_spectral(i, j, rho, gamma, bell).matrix
                    c = update_composed(i, j, rho, gamma, bell).matrix
                    assert np.max(np.abs(a - b)) <= 1e-10
                    assert np.max(np.abs(a - c)) <= 1e-10


def test_update_spectral_pure_inputs_give_pure_output():
    bell = fourier_bell(3)
    rho = DensityOperator.from_pure(bell.basis.vectors[1])
    gamma = DensityOperator.from_pure(np.eye(3)[:, 2])
    out = update_spectral(1, 0, rho, gamma, bell)
    assert von_neumann_entropy(out) <= 1e-10


def test_update_output_is_normalized_state():
    bell = fourier_bell(4)
    for _ in range(10):
        rho, gamma = random_density(4, RNG), random_density(4, RNG)
        i, j = int(RNG.integers(4)), int(RNG.integers(4))
        out = update_direct(i, j, rho, gamma, bell)
        assert np.trace(out.matrix) == pytest.approx(1, abs=1e-12)
        assert np.min(out.eigenvalues) >= -1e-12


def test_zero_probability_outcome_raises_on_every_route():
    # Standard-basis conditioning keeps the signal diagonal; the shift
    # then lands it exactly on the memory's null entry.
    bell = BellSystem(SignalBasis.standard(2))
    rho = DensityOperator(np.diag([1.0, 0.0]))
    gamma = DensityOperator(np.diag([1.0, 0.0]))
    with pytest.raises(ZeroProbabilityOutcome):
        update_direct(0, 1, rho, gamma, bell)
    with pytest.raises(ZeroProbabilityOutcome):
        update_spectral(0, 1, rho, gamma, bell)
    with pytest.raises(OutsideDomain):
        update_composed(0, 1, rho, gamma, bell)


@pytest.mark.parametrize("signal, stage", [
    ([0.0, 1.0], "signal"),  # the signal has no weight on basis vector 0
    ([1.0, 0.0], "memory"),  # the shifted signal lands on the memory's null entry
])
def test_update_composed_names_the_stage_that_failed(signal, stage):
    bell = BellSystem(SignalBasis.standard(2))
    rho, gamma = DensityOperator(np.diag(signal)), DensityOperator(np.diag([1.0, 0.0]))
    with pytest.raises(OutsideDomain) as err:
        update_composed(0, 1, rho, gamma, bell)
    assert str(err.value) == (f"{stage} conditioning for outcome (0, 1) failed: damped trace "
                              "0.000e+00 is below the probability floor; state is outside the "
                              "conditioning domain")


def test_update_rejects_mismatched_dimensions():
    bell = fourier_bell(2)
    with pytest.raises(DimensionMismatch):
        update_direct(0, 0, random_density(3, RNG), random_density(2, RNG), bell)


@pytest.mark.parametrize("i, j, message", [
    (0, -1, "j must be a nonnegative integer, got -1"),
    (0, True, "j must be a nonnegative integer, got True"),
    (0, 5, r"outcome indices must lie in \[0, 2\), got \(0, 5\)"),
    (-1, 0, "i must be a nonnegative integer, got -1"),
    (5, 0, r"outcome indices must lie in \[0, 2\), got \(5, 0\)"),
    pytest.param(10**5000, 0, r"outcome indices must lie in \[0, 2\), got \(1" + "0" * 78 + r"\.\.\.",
                 id="huge-i"),
])
def test_transfer_operator_checks_its_outcome_indices(i, j, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        transfer_operator(fourier_bell(2), i, j)


def test_update_rejects_out_of_range_outcome():
    bell = fourier_bell(2)
    rho = random_density(2, RNG)
    with pytest.raises(ValueError):
        update_direct(2, 0, rho, rho, bell)


@pytest.mark.parametrize(
    "basis",
    [SignalBasis.fourier(5), SignalBasis(random_unitary(4, np.random.default_rng(4)).T)],
    ids=["fourier5", "custom4"],
)
def test_recognize_step_matches_every_update_route(basis):
    bell = BellSystem(basis)
    n = bell.n
    rng = np.random.default_rng(7)
    gamma = random_density(n, rng)
    signals = [random_density(n, rng, rank=1 + t % n) for t in range(20)]
    steps = list(recognize_sequence(gamma, signals, bell, SamplePolicy(seed=3)))
    assert len(steps) == 20
    composed = 0
    memory = gamma
    for signal, step in zip(signals, steps):
        i, j = step.i, step.j
        assert step.probability == pytest.approx(
            outcome_probabilities(signal, memory, bell)[i, j], abs=1e-15)
        for route in (update_direct, update_spectral):
            ref = route(i, j, signal, memory, bell).matrix
            assert np.max(np.abs(step.memory.matrix - ref)) <= 1e-12
        try:
            ref = update_composed(i, j, signal, memory, bell).matrix
        except OutsideDomain:
            pass
        else:
            composed += 1
            assert np.max(np.abs(step.memory.matrix - ref)) <= 1e-12
        memory = step.memory
    assert composed > 0


def test_production_path_never_builds_the_entangled_register(monkeypatch):
    def refuse(gamma):
        raise AssertionError("entangle called on the production path")

    monkeypatch.setattr(recognition, "entangle", refuse)
    bell = fourier_bell(4)
    gamma = random_density(4, RNG)
    signals = [random_density(4, RNG) for _ in range(3)]
    probs = outcome_probabilities(signals[0], gamma, bell)
    assert probs.sum() == pytest.approx(1, abs=1e-12)
    for policy in (ArgmaxPolicy(), SamplePolicy(seed=1), FixedPolicy(1, 2)):
        assert len(list(recognize_sequence(gamma, signals, bell, policy))) == 3
    with pytest.raises(AssertionError):
        update_direct(0, 0, signals[0], gamma, bell)


def test_recognize_fixed_zero_probability_names_the_step():
    # Step 0 moves the memory onto e_1; at step 1 the signal has no
    # weight on e_0, so outcome (0, 1) of the standard basis is impossible.
    bell = BellSystem(SignalBasis.standard(2))
    signals = [DensityOperator(np.diag([1.0, 0.0])), DensityOperator(np.diag([0.0, 1.0]))]
    with pytest.raises(ZeroProbabilityOutcome, match=r"outcome \(0, 1\) has probability .* at step 1"):
        list(recognize_sequence(DensityOperator.maximally_mixed(2), signals, bell, FixedPolicy(0, 1)))


@pytest.mark.parametrize("policy", [ArgmaxPolicy(), SamplePolicy(seed=3), FixedPolicy(1, 2)])
def test_recognize_memory_is_block_over_step_probability(policy):
    # The step normalizes by the table entry p(i, j) it reports, not by
    # a second evaluation of the same probability.
    rng = np.random.default_rng(21)
    bell = fourier_bell(4)
    memory = random_density(4, rng)
    signals = [random_density(4, rng) for _ in range(8)]
    for signal, step in zip(signals, recognize_sequence(memory, signals, bell, policy)):
        block = recognition._closed_form_block(step.i, step.j, signal, memory, bell)
        assert np.array_equal(step.memory.matrix, DensityOperator(block / step.probability).matrix)
        memory = step.memory


def test_recognize_empty_sequence():
    bell = fourier_bell(2)
    gamma = random_density(2, RNG)
    steps = list(recognize_sequence(gamma, [], bell, ArgmaxPolicy()))
    assert len(steps) == 0


def test_recognize_full_storage_demo():
    # Repeated identical signals drive the memory to a pure basis state
    # and keep it there.
    bell = fourier_bell(2)
    steps = list(recognize_sequence(
        DensityOperator.maximally_mixed(2),
        [DensityOperator.from_pure([1, 0])] * 5,
        bell,
        ArgmaxPolicy(),
    ))
    assert len(steps) == 5
    assert von_neumann_entropy(steps[-1].memory) <= 1e-12
    for step in steps:
        assert von_neumann_entropy(step.memory) <= 1e-12


def test_argmax_breaks_rounding_noise_ties_by_lowest_outcome():
    # Under the Fourier basis p(i, j) does not depend on i, but the
    # computed values differ by about 1e-17; every step must pick i = 0.
    rng = np.random.default_rng(0)
    bell = fourier_bell(5)
    rho, gamma = random_density(5, rng), random_density(5, rng)
    steps = list(recognize_sequence(gamma, [rho] * 4, bell, ArgmaxPolicy()))
    memory = gamma
    for step in steps:
        probs = outcome_probabilities(rho, memory, bell)
        assert np.ptp(probs, axis=0).max() <= ARGMAX_TIE_TOL
        assert step.i == 0
        assert step.j == int(np.argmax(probs[0] >= probs.max() - ARGMAX_TIE_TOL))
        assert step.probability >= probs.max() - ARGMAX_TIE_TOL
        memory = step.memory


def test_recognize_sampling_is_seed_deterministic():
    bell = fourier_bell(3)
    gamma = random_density(3, RNG)
    signals = [random_density(3, RNG) for _ in range(4)]
    a = list(recognize_sequence(gamma, signals, bell, SamplePolicy(seed=9)))
    b = list(recognize_sequence(gamma, signals, bell, SamplePolicy(seed=9)))
    assert [(s.i, s.j) for s in a] == [(s.i, s.j) for s in b]
    for sa, sb in zip(a, b):
        assert np.array_equal(sa.memory.matrix, sb.memory.matrix)


def test_sample_policy_rejects_a_negative_seed():
    with pytest.raises(ValueError, match="seed must be a nonnegative integer, got -1"):
        SamplePolicy(seed=-1)


def test_recognize_fixed_policy_follows_requested_outcome():
    bell = fourier_bell(2)
    gamma = DensityOperator.maximally_mixed(2)
    steps = list(recognize_sequence(gamma, [DensityOperator.from_pure([1, 0])], bell,
                                    FixedPolicy(1, 1)))
    assert (steps[0].i, steps[0].j) == (1, 1)


def test_recognize_fixed_policy_rejects_out_of_range():
    # The one outcome-index rule, `_check_outcome`, names the range.
    bell = fourier_bell(2)
    gamma = DensityOperator.maximally_mixed(2)
    for i, j in [(5, 0), (0, 2)]:
        message = rf"^outcome indices must lie in \[0, 2\), got \({i}, {j}\)$"
        with pytest.raises(ValueError, match=message):
            recognize_sequence(gamma, [gamma], bell, FixedPolicy(i, j))


@pytest.mark.parametrize("gamma_dim, policy, error", [
    (2, FixedPolicy(5, 0), ValueError),
    (2, FixedPolicy(0, 2), ValueError),
    (2, "argmax", TypeError),
    (3, ArgmaxPolicy(), DimensionMismatch),
])
def test_recognize_checks_policy_and_memory_at_the_call(gamma_dim, policy, error):
    # No signal is ever consumed, so each check must run before the first step.
    with pytest.raises(error):
        recognize_sequence(DensityOperator.maximally_mixed(gamma_dim), [], fourier_bell(2), policy)


def test_an_unknown_policy_is_named_by_its_cut_repr():
    for policy, shown in [("argmax", "'argmax'"), (10**5000, "1" + "0" * 79 + "...")]:
        with pytest.raises(TypeError) as err:
            recognize_sequence(DensityOperator.maximally_mixed(2), [], fourier_bell(2), policy)
        assert str(err.value) == f"unknown policy {shown}"


def test_recognize_yields_the_steps_before_a_failing_one():
    bell = BellSystem(SignalBasis.standard(2))
    signals = [DensityOperator(np.diag([1.0, 0.0]))] * 3 + [DensityOperator(np.diag([0.0, 1.0]))]
    steps = recognize_sequence(DensityOperator.maximally_mixed(2), signals, bell, FixedPolicy(0, 1))
    assert [next(steps).t for _ in range(3)] == [0, 1, 2]
    with pytest.raises(ZeroProbabilityOutcome, match="at step 3"):
        next(steps)


@pytest.mark.parametrize("bad, error, message", [
    (np.eye(2) / 2, DimensionMismatch, "^signal dim 2 and memory dim 3 must equal system dim 3$"),
    (np.diag([1.2, -0.1, -0.1]), ValueError,
     "^matrix is not positive semidefinite: eigenvalue -1.000e-01$"),
])
def test_recognize_checks_each_signal_of_a_lazy_stream_when_it_is_reached(bad, error, message):
    # The loop checks only the signal of each step; a bad one read lazily at
    # step 2 still raises, after steps 0 and 1.
    rng = np.random.default_rng(36)
    gamma = random_density(3, rng)

    def signals():
        yield random_density(3, rng)
        yield random_density(3, rng).matrix
        yield bad

    steps = recognize_sequence(gamma, signals(), fourier_bell(3), ArgmaxPolicy())
    assert [next(steps).t for _ in range(2)] == [0, 1]
    with pytest.raises(error, match=message):
        next(steps)


def peak_traced_bytes(run):
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_trajectory_memory_does_not_grow_with_its_length():
    bell = fourier_bell(16)
    rng = np.random.default_rng(16)
    rho, gamma = random_density(16, rng), random_density(16, rng)

    def consume(count):
        signals = itertools.repeat(rho, count)
        for _ in recognize_sequence(gamma, signals, bell, SamplePolicy(seed=1)):
            pass

    consume(1)  # numpy's one-time set-up is not growth with the step count
    long_run = peak_traced_bytes(lambda: consume(2000))
    short_run = peak_traced_bytes(lambda: consume(200))
    assert long_run <= 1.5 * short_run, (long_run, short_run)


def test_recognition_step_serializes():
    bell = fourier_bell(2)
    steps = list(recognize_sequence(
        DensityOperator.maximally_mixed(2),
        [DensityOperator.from_pure([1, 0])],
        bell,
        ArgmaxPolicy(),
    ))
    text = jsonio.step_lines(steps)
    assert text.count("\n") == 1 and text.endswith("\n")
    payload = json.loads(text)
    assert set(payload) == {"t", "i", "j", "probability", "gamma", "entropy_of_gamma"}
    json.dumps(payload)  # round-trippable without custom encoders
