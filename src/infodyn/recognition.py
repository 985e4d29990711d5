"""Selective memory-update channels driven by joint measurements.

The model couples three copies of an n-dimensional space: a processing
register carrying an incoming signal state, the memory before the
update, and the memory after it. A family of n^2 rank-one projections,
built from a signal basis and cyclic shifts of a maximally entangled
vector, measures the first two factors jointly; conditioning on an
outcome (i, j) and tracing the measured factors leaves the updated
memory state.

Production path. Because the entangled memory is supported on the
diagonal of its doubled space, the measurement reduces to a closed form
in the entries of the signal rho, the memory gamma and the basis row
b_i, with indices taken mod n:

    p(i, j)      = sum_s gamma_ss |b_i(s + j)|^2 rho_{s+j, s+j}
    gamma'(i, j) = (gamma o M_ij) / p(i, j)
    M_ij[s, t]   = conj(b_i(s + j)) rho_{s+j, t+j} b_i(t + j)

where o is the entrywise product. One function evaluates the first line
for all n^2 outcomes at once (a gather over the cyclic index and a
product with diag gamma), for `outcome_probabilities` and for each step
of `recognize_sequence`, which applies the second, so a step costs
O(n^3) arithmetic plus one eigendecomposition of the new n x n memory;
the n^2 x n^2 entangled register is never built. A step checks only the
dimension of its signal: the memory it conditions is the state the step
before built.
The gathers read index tables that depend on the basis alone, so
`BellSystem` builds them once: the weights |b_i(m)|^2, the circulant
index (m - j) mod n and the shifted index (s + j) mod n.
A trajectory is a stream: `recognize_sequence` returns an iterator of
steps, each computed on demand from the previous memory alone, so
nothing grows with the number of steps.

Test oracles. Three algebraically equal routes to the update are
implemented independently and kept apart on purpose: a contraction of
the measured operator (`update_direct`), a rank-one expansion over the
spectra of signal and memory (`update_spectral`), and a composition of
an entrywise conditioning, a shift, and a second conditioning
(`update_composed`). Their agreement with each other and with the
closed form is a test target, so none of them may borrow another's
arithmetic or the closed form's.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .channels import PROBABILITY_FLOOR, schur_channel_apply
from .exceptions import DimensionMismatch, OutsideDomain, ZeroProbabilityOutcome
from .hilbert import (
    DensityOperator,
    _Frozen,
    _brief,
    _check_integer,
    _check_orthonormal,
    _square,
    as_density,
    diag_embedding,
    shift_unitary,
)

BASIS_TOL = 1e-12
ARGMAX_TIE_TOL = 1e-12


class SignalBasis(_Frozen):
    """Orthonormal family of n signal vectors in C^n.

    Row k of `vectors` is the k-th signal. `uniform_modulus` records
    whether every signal has constant component modulus, which is what
    makes the first conditioning stage of the composed update total.
    """

    __slots__ = ("vectors", "uniform_modulus")

    def __init__(self, vectors):
        v = _square(vectors, "basis")
        _check_orthonormal(v.T, BASIS_TOL, "basis", "rows are not orthonormal: Gram error")
        mags = np.abs(v)
        uniform = bool(np.max(mags.max(axis=1) - mags.min(axis=1)) <= BASIS_TOL)
        self._set(vectors=v.copy(), uniform_modulus=uniform)

    @property
    def n(self) -> int:
        return self.vectors.shape[0]

    @classmethod
    def fourier(cls, n: int) -> "SignalBasis":
        m = np.arange(_check_integer("n", n, 1))
        v = np.exp(2j * np.pi * np.outer(m, m) / n) / np.sqrt(n)
        return cls(v)

    @classmethod
    def standard(cls, n: int) -> "SignalBasis":
        return cls(np.eye(_check_integer("n", n, 1), dtype=complex))


class BellSystem(_Frozen):
    """The n^2 measurement vectors and projections built from a basis.

    Vector (k, l) lives on the doubled space and has amplitude b_k(m)
    at the pair (m, m - l mod n): the basis labels the first slot, the
    shift labels the offset between the slots. Together they form an
    orthonormal basis of the doubled space, so the associated
    projections resolve the identity and outcome probabilities are a
    complete distribution. Each vector is built when asked for. Beside
    the basis, the system stores the three read-only gather tables of
    the closed-form step, which depend on the basis alone: the weights
    |b_i(m)|^2 as `_weights[i, m]`, the circulant index (m - j) mod n
    as `_circulant[m, j]` and the shifted index (s + j) mod n as
    `_shifted[j, s]`.
    """

    __slots__ = ("basis", "_weights", "_circulant", "_shifted")

    def __init__(self, basis: SignalBasis):
        m = np.arange(basis.n)
        self._set(basis=basis, _weights=np.abs(basis.vectors) ** 2,
                  _circulant=(m[:, None] - m[None, :]) % basis.n,
                  _shifted=(m[:, None] + m[None, :]) % basis.n)

    @property
    def n(self) -> int:
        return self.basis.n

    def vector(self, i: int, j: int) -> np.ndarray:
        n = self.n
        _check_outcome(i, j, n)
        rows = np.arange(n)
        v = np.zeros(n * n, dtype=complex)
        v[rows * n + (rows - j) % n] = self.basis.vectors[i]
        return v

    def projection(self, i: int, j: int) -> np.ndarray:
        v = self.vector(i, j)
        return np.outer(v, v.conj())

    def _family(self) -> np.ndarray:
        """All n^2 vectors as rows, built one by one, (i, j) row-major."""
        return np.array([self.vector(i, j) for i in range(self.n) for j in range(self.n)])

    def gram_error(self) -> float:
        flat = self._family()
        gram = flat.conj() @ flat.T
        return float(np.max(np.abs(gram - np.eye(self.n * self.n))))

    def completeness_error(self) -> float:
        flat = self._family()
        total = flat.T @ flat.conj()
        return float(np.max(np.abs(total - np.eye(self.n * self.n))))


def entangle(gamma) -> DensityOperator:
    """Lift a memory state to the doubled space along the diagonal."""
    g = as_density(gamma)
    j = diag_embedding(g.n)
    return DensityOperator(j @ g.matrix @ j.conj().T)


def transfer_operator(bell: BellSystem, i: int, j: int) -> np.ndarray:
    """The (i, j) compression from the doubled space to one factor.

    Maps Phi to the function m -> conj(b_i(j + m)) Phi(j + m, m); the
    rank-one expansion of the memory update is built from its images.
    """
    n = bell.n
    _check_outcome(i, j, n)
    b = bell.basis.vectors[i]
    g = np.zeros((n, n * n), dtype=complex)
    for m in range(n):
        shifted = (j + m) % n
        g[m, shifted * n + m] = np.conj(b[shifted])
    return g


def _check_outcome(i: int, j: int, n: int) -> None:
    """Outcome indices: nonnegative integers below n."""
    _check_integer("i", i, 0)
    _check_integer("j", j, 0)
    if not (i < n and j < n):
        raise ValueError(f"outcome indices must lie in [0, {n}), got {_brief((int(i), int(j)))}")


def _check_inputs(rho, gamma, bell: BellSystem, i: int, j: int):
    r, g = as_density(rho), as_density(gamma)
    _check_dims(r.n, g.n, bell.n)
    _check_outcome(i, j, bell.n)
    return r, g


def _check_dims(signal_dim: int, memory_dim: int, n: int) -> None:
    """Signal and memory states: both of the system dimension n."""
    if signal_dim != n or memory_dim != n:
        raise DimensionMismatch(
            f"signal dim {signal_dim} and memory dim {memory_dim} must equal system dim {n}"
        )


def _conditioned_block(i: int, j: int, rho: DensityOperator, gamma: DensityOperator,
                       bell: BellSystem) -> np.ndarray:
    """Unnormalized post-outcome memory operator from the measured state.

    Contracts (xi* (x) 1)(rho (x) e(gamma))(xi (x) 1) with the entangled
    operator materialized, which is the partial trace over the measured
    factors of the full sandwiched operator.
    """
    n = bell.n
    xi = bell.vector(i, j).reshape(n, n)
    ent = entangle(gamma).matrix.reshape(n, n, n, n)
    return np.einsum("ab,ac,bsdt,cd->st", xi.conj(), rho.matrix, ent, xi, optimize=True)


def measured_operator(i: int, j: int, rho, gamma, bell: BellSystem) -> np.ndarray:
    """The sandwiched operator on all three factors, assembled literally.

    Cubic in dimension on each side; intended for small-n inspection
    and as the reference for the contraction-based routes.
    """
    r, g = _check_inputs(rho, gamma, bell, i, j)
    f = np.kron(bell.projection(i, j), np.eye(bell.n))
    joint = np.kron(r.matrix, entangle(g).matrix)
    return f @ joint @ f


def _closed_form_probabilities(r: DensityOperator, g: DensityOperator,
                               bell: BellSystem) -> np.ndarray:
    """p(i, j) = sum_s gamma_ss |b_i(s + j)|^2 rho_{s+j, s+j} for all outcomes.

    With m = s + j the sum is a matrix product of |b_i(m)|^2 rho_mm with
    the circulant of diag gamma gathered over the cyclic index.
    """
    circulant = g.matrix.diagonal().real[bell._circulant]  # [m, j]: s = m - j
    weights = bell._weights * r.matrix.diagonal().real  # [i, m]
    # Diagonals of states clamped to PSD can dip a rounding step below 0.
    return np.maximum(weights @ circulant, 0.0)


def _closed_form_block(i: int, j: int, r: DensityOperator, g: DensityOperator,
                       bell: BellSystem) -> np.ndarray:
    """Unnormalized post-outcome memory gamma o M_ij; its trace is p(i, j)."""
    k = bell._shifted[j]
    c = bell.basis.vectors[i, k]
    return g.matrix * (c.conj()[:, None] * r.matrix[k[:, None], k] * c[None, :])


def outcome_probability(i: int, j: int, rho, gamma, bell: BellSystem) -> float:
    """Probability of outcome (i, j); the full distribution sums to 1."""
    r, g = _check_inputs(rho, gamma, bell, i, j)
    return float(_closed_form_probabilities(r, g, bell)[i, j])


def outcome_probabilities(rho, gamma, bell: BellSystem) -> np.ndarray:
    """All n^2 outcome probabilities as an (i, j)-indexed array."""
    r, g = _check_inputs(rho, gamma, bell, 0, 0)
    return _closed_form_probabilities(r, g, bell)


def update_direct(i: int, j: int, rho, gamma, bell: BellSystem) -> DensityOperator:
    """Post-outcome memory via contraction of the measured operator."""
    r, g = _check_inputs(rho, gamma, bell, i, j)
    block = _conditioned_block(i, j, r, g, bell)
    tr = float(np.trace(block).real)
    if tr <= PROBABILITY_FLOOR:
        raise ZeroProbabilityOutcome(
            f"outcome ({i}, {j}) has probability {tr:.3e}"
        )
    return DensityOperator(block / tr)


def update_spectral(i: int, j: int, rho, gamma, bell: BellSystem) -> DensityOperator:
    """Post-outcome memory via the rank-one expansion over both spectra.

    Sums weight alpha_k beta_l on the image of g_k (x) h_l under the
    (i, j) transfer operator and normalizes by the total image weight.
    """
    r, g = _check_inputs(rho, gamma, bell, i, j)
    n = bell.n
    op = transfer_operator(bell, i, j)
    rd, gd = r.spectral(), g.spectral()
    acc = np.zeros((n, n), dtype=complex)
    weight = 0.0
    for k in range(n):
        alpha = float(rd.weights[k])
        if alpha <= 1e-15:
            continue
        for l in range(n):
            beta = float(gd.weights[l])
            if beta <= 1e-15:
                continue
            image = op @ np.kron(rd.vectors[:, k], gd.vectors[:, l])
            acc += (alpha * beta) * np.outer(image, image.conj())
            weight += alpha * beta * float(np.vdot(image, image).real)
    if weight <= PROBABILITY_FLOOR:
        raise ZeroProbabilityOutcome(
            f"outcome ({i}, {j}) has total image weight {weight:.3e}"
        )
    return DensityOperator(acc / weight)


def update_composed(i: int, j: int, rho, gamma, bell: BellSystem) -> DensityOperator:
    """Post-outcome memory as conditioning, shift, conditioning.

    The first stage conditions the signal on the conjugated basis
    vector's rank-one weight, the shift rotates the index, and the
    second stage conditions on the memory state itself. Each stage can
    fail on its own domain; the error says which one did.
    """
    r, g = _check_inputs(rho, gamma, bell, i, j)
    b = bell.basis.vectors[i]
    try:
        staged = schur_channel_apply(np.outer(b.conj(), b), r)
    except OutsideDomain as exc:
        raise OutsideDomain(
            f"signal conditioning for outcome ({i}, {j}) failed: {exc}"
        ) from exc
    u = shift_unitary(j, bell.n)
    shifted = u @ staged.matrix @ u.conj().T
    try:
        return schur_channel_apply(g.matrix, shifted)
    except OutsideDomain as exc:
        raise OutsideDomain(
            f"memory conditioning for outcome ({i}, {j}) failed: {exc}"
        ) from exc


@dataclass(frozen=True)
class SamplePolicy:
    """Draw outcomes from their probabilities with a seeded generator."""

    seed: int = 0

    def __post_init__(self):
        _check_integer("seed", self.seed, 0)


@dataclass(frozen=True)
class ArgmaxPolicy:
    """Always take the most probable outcome.

    Outcomes within ARGMAX_TIE_TOL of the maximum probability count as
    tied, and the lowest flat (i, j) among them wins, so rounding noise
    between mathematically equal probabilities never decides.
    """


@dataclass(frozen=True)
class FixedPolicy:
    """Force one outcome every step; zero-probability selection raises.

    `i` and `j` are nonnegative integers; their range against the system
    dimension is checked when a trajectory starts.
    """

    i: int
    j: int

    def __post_init__(self):
        _check_integer("i", self.i, 0)
        _check_integer("j", self.j, 0)


@dataclass(frozen=True)
class RecognitionStep:
    t: int
    i: int
    j: int
    probability: float
    memory: DensityOperator


def recognize_sequence(gamma0, signals, bell: BellSystem, policy) -> Iterator[RecognitionStep]:
    """Iterate the memory update over a sequence of signal states.

    Each step measures the current signal against the current memory,
    picks an outcome per the policy, and replaces the memory with the
    conditioned post-outcome state. The memory's dimension, the policy
    type and a fixed outcome's range are checked here, at the call; the
    returned iterator then computes each step when it is asked for and
    holds only the current memory, so a trajectory of any length runs in
    constant memory and `signals` may itself be a lazy iterable. A step
    whose outcome has probability zero raises when it is reached, after
    the earlier steps have been yielded. Sampling is reproducible: one
    generator is seeded up front and consumes one draw per step.
    """
    memory = as_density(gamma0)
    n = bell.n
    if memory.n != n:
        raise DimensionMismatch(f"memory dim {memory.n} must equal system dim {n}")
    return _steps(memory, signals, bell, _chooser(policy, n))


def _chooser(policy, n: int):
    """The policy as one function from the outcome table to an outcome (i, j)."""
    if isinstance(policy, FixedPolicy):
        _check_outcome(policy.i, policy.j, n)
        return lambda probs: (policy.i, policy.j)
    if isinstance(policy, ArgmaxPolicy):
        return lambda probs: divmod(int(np.argmax(probs >= probs.max() - ARGMAX_TIE_TOL)), n)
    if isinstance(policy, SamplePolicy):
        rng = np.random.default_rng(policy.seed)

        def sample(probs):
            cumulative = np.cumsum(probs.reshape(-1))
            flat = int(np.searchsorted(cumulative, rng.random() * cumulative[-1], side="right"))
            return divmod(min(flat, n * n - 1), n)
        return sample
    raise TypeError(f"unknown policy {_brief(policy)}")


def _steps(memory: DensityOperator, signals, bell: BellSystem, choose) -> Iterator[RecognitionStep]:
    # Each memory is an n x n state by construction, so only the signal's
    # dimension is checked, with `outcome_probabilities`' message.
    n = bell.n
    for t, signal in enumerate(signals):
        signal = as_density(signal)
        _check_dims(signal.n, n, n)
        probs = _closed_form_probabilities(signal, memory, bell)
        i, j = choose(probs)
        p = float(probs[i, j])
        if p <= PROBABILITY_FLOOR:
            raise ZeroProbabilityOutcome(f"outcome ({i}, {j}) has probability {p:.3e} at step {t}")
        memory = DensityOperator(_closed_form_block(i, j, signal, memory, bell) / p)
        yield RecognitionStep(t=t, i=i, j=j, probability=p, memory=memory)
