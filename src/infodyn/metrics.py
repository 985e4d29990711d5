"""State complexity, transmitted complexity, and the chaos degree.

The complexity of a state is its von Neumann entropy. The transmitted
complexity of a state through a channel is the mutual-entropy value
sup over extremal decompositions of sum p_k S(channel(E_k) || channel(rho)),
and the chaos degree is inf over the same decompositions of
sum p_k S(channel(E_k)). For a trace-preserving linear channel the two
optimizers coincide because every decomposition satisfies
sum p_k channel(E_k) = channel(rho), which pins their sum to the output
entropy; one search therefore serves both quantities.

A non-degenerate spectrum has a unique decomposition and both values
are exact. A degenerate spectrum, with eigenvalues closer than
`hilbert.DEGENERACY_GAP`, is handled by a random search over
intra-eigenspace rotations, all drawn from one generator seeded by the
configured seed: the reported chaos degree is an upper bound on the
infimum and the transmitted value a lower bound on the supremum. The
bound is loose: for a dephasing channel in a Haar basis at the
maximally mixed state the infimum is 0, yet 1000 restarts report about
0.6, 1.5 and 2.3 nats at n = 4, 8 and 16, against output entropies of
1.39, 2.08 and 2.77; sampling alone does not close that gap.

`_search` is the one search: `chaos_degree` reports from it, and
`conjecture_experiment`, which reads only the chaos degree, calls it
directly. It evaluates the eigenbasis once, then the rotations of
`_rotation_chunks`, the one rotation stream (one generator per seed, one
QR per block per chunk for all seeds), chunk by chunk (sized to
CHUNK_BYTES), re-scoring only the degenerate blocks' live columns with
the image entropies of `Channel.image_spectra`. The report does not
depend on the chunk size. The transmitted value is that of
`_transmitted_stacks`, the one T formula, which reads each piece's image
from its Kraus vectors, as the search does, checks its spectrum as a
density operator's, and takes `hilbert._relative_entropies` once for a
whole stack of states; it is never the output entropy minus the chaos
degree. A single state is a stack of one.

`conjecture_batch` and `axiom_suite` evaluate their pairs and trials in
stacks: `_pair_outcomes` runs each step of the per-pair path
(`conjecture_experiment`) once for a chunk, with its bits, and
`_axiom_trials` evaluates every trial at its states' eigenbases, through
what the per-item paths use: a "kraus" `Channel` holding one Kraus family
per item, read through the same `image_spectra`, `kraus_vectors` and
`apply_matrix`, `hilbert._density_spectra` for every state,
`hilbert._kron` for the tensor product, `_eigenbasis_values` for the
eigenbasis chaos degree, `_transmitted_stacks` for T and one
`_rotation_chunks` call, with every trial's seed, for the probes'
rotations; no step loops over the items of a stack. In both, the Kraus
stacks become one `Channel` each, whose constructor derives the
trace-preservation flag of every family, and a family that is not
trace-preserving raises through `_require_trace_preserving`.
A pair's chaos degree is its eigenbasis value unless its joint spectrum
has a degenerate block or a weight at or below WEIGHT_FLOOR; only such a
pair, where that value is not `_search`'s D, goes through `_search`
itself, once per channel, on the state and channels that
`conjecture_experiment` builds. No pair's cost depends on its chunk-mates.

Every function here that takes a channel checks it through
`_check_channel` before any arithmetic: a non-`Channel` raises
TypeError and a channel of another dimension than the state (or the
joint state, for the value functions) raises DimensionMismatch. The
search then requires a trace-preserving channel, as `Channel` decides it
from its data; `conjecture_experiment` requires it of both channels
before it searches either.

All values are in nats; `jsonio` writes the reports, in a display base
for `quantum-ecd`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channels import Channel, identity_channel, kraus_channel
from .exceptions import DimensionMismatch
from .hilbert import (
    DensityOperator,
    SchattenDecomposition,
    _block_starts,
    _brief,
    _check_deviation,
    _check_integer,
    _check_real,
    _complex_gaussians,
    _degenerate_blocks,
    _density_spectra,
    _entropy_of_spectrum,
    _gram_spectra,
    _haar_unitaries,
    _isometry_blocks,
    _kron,
    _normalized_grams,
    _relative_entropies,
    _square,
    _unit_spectra,
    as_density,
    von_neumann_entropy,
)

WEIGHT_FLOOR = 1e-15
ORDER_TOL = 1e-10
# Largest search budget. A candidate costs about 3 us at n = 4 (one 4-fold
# block) and 9 us at n = 16 (one 8-fold block), Kraus rank 2 (2-core x86-64
# host, one BLAS thread), so the cap bounds a search at about 10 s there.
MAX_RESTARTS = 1_000_000
# Largest `axiom_suite` trial count and dimension. Evaluated in stacks, a
# trial costs about 0.4 ms at dim 2, 0.6 ms at dim 4, 1.5 ms at dim 6 and
# 3.5 ms at dim 8 (same host), so the caps bound a suite at about 4 s at
# dim 2 and 35 s at dim 8.
MAX_AXIOM_TRIALS = 10_000
MAX_AXIOM_DIM = 8
# Largest `conjecture_batch` pair count and dimension. A pair works on
# the dim^2-dimensional joint space; evaluated in stacks, it costs about
# 0.04 ms at dim 2, 0.15 ms at dim 3, 0.5 ms at dim 4, 2.5 ms at dim 6,
# 7 ms at dim 8 and 45 ms at dim 12 (same host), so the caps bound a
# batch at about 0.5 s at dim 2 and 75 s at dim 8.
MAX_VALUE_PAIRS = 10_000
MAX_VALUE_DIM = 8
# Largest `conjecture_batch` Kraus rank. Each term adds about 3.5 ms to a
# pair at MAX_VALUE_DIM: 7 ms at 2 terms, 86 ms at 32, 0.23 s at 64 and
# 0.36 s at 128 (same host; at this dim every chunk holds one pair), so
# the cap keeps one pair under a second.
MAX_KRAUS_TERMS = 64
# Working memory of one chunk of search candidates, value pairs or axiom
# trials. A chunk holds as many as fit, and at least one; the candidate
# stream, the report, the batch outcomes and the axiom results do not
# depend on the chunk size.
CHUNK_BYTES = 1 << 20


def complexity(rho) -> float:
    """Complexity of a state: its entropy, in nats."""
    return von_neumann_entropy(rho)


@dataclass(frozen=True)
class ComplexityConfig:
    """Budget and seed for the decomposition search."""

    restarts: int = 1000
    seed: int = 0

    def __post_init__(self):
        _check_integer("restarts", self.restarts, 1, "MAX_RESTARTS", MAX_RESTARTS)
        _check_integer("seed", self.seed, 0)


DEFAULT_CONFIG = ComplexityConfig()


@dataclass(frozen=True)
class ChaosDegreeReport:
    """Chaos degree, transmitted complexity, and search statistics.

    `worst` is the largest chaos-degree value seen during the search;
    for a unique decomposition it equals the chaos degree.
    """

    chaos_degree: float
    transmitted: float
    output_entropy: float
    degenerate: bool
    restarts: int
    seed: int
    worst: float
    decomposition: SchattenDecomposition


def _rotation_chunks(blocks, restarts: int, seeds, candidate_bytes: int):
    """Yield the Haar rotations of `restarts` candidates per seed in chunks.

    Each chunk is a list with one stack (s, c, k, k) of unitaries per block,
    row i drawn from the generator of `seeds[i]`, all made by one QR. A seed's
    Gaussians come from `hilbert._complex_gaussians`, so its stream, and every
    value computed from it, depends neither on c nor on the other seeds. A
    chunk holds as many candidates per seed as fit CHUNK_BYTES at `candidate_bytes` each.
    """
    rngs = [np.random.default_rng(seed) for seed in seeds]
    shapes = [(hi - lo, hi - lo) for lo, hi in blocks]
    chunk = max(1, CHUNK_BYTES // candidate_bytes)
    for start in range(0, restarts, chunk):
        # A seed's stream is one `hilbert.random_unitary` draw per block per restart.
        draws = [_complex_gaussians(rng, min(chunk, restarts - start), shapes) for rng in rngs]
        yield [_haar_unitaries(np.stack(z)) for z in zip(*draws)]


def _rotated(vec: np.ndarray, blocks, rotations) -> np.ndarray:
    """`vec` with each block's columns rotated; stacks of rotations broadcast."""
    out = np.broadcast_to(vec, rotations[0].shape[:-2] + vec.shape).copy()
    for (lo, hi), u in zip(blocks, rotations):
        out[..., lo:hi] = vec[:, lo:hi] @ u
    return out


def _transmitted_stacks(lam: np.ndarray, w: np.ndarray, mu: np.ndarray, v: np.ndarray) -> np.ndarray:
    """sum_k lam_k S(W_k W_k* || sigma) for each decomposition of each state of a stack.

    `lam` (T, k) are the states' weights, `w` (T, ..., k, r, n) the Kraus
    vectors of their decompositions' pieces, and `mu` (T, n), `v` (T, n, n)
    the spectral data of each state's sigma; returns (T, ...). Each image's
    spectrum is checked as `DensityOperator` checks a state's (a Gram image is
    self-adjoint by construction); an image whose support leaves sigma's gives
    +inf. A piece of weight at or below WEIGHT_FLOOR adds nothing.
    """
    g = _gram_spectra(w)
    s = _relative_entropies(_unit_spectra(g.sum(axis=-1), g), w, mu, v)
    lam = np.expand_dims(lam, tuple(range(1, s.ndim - 1)))
    # Zeroed before the product, so a light piece's +inf never meets its weight.
    return np.sum(np.where(lam > WEIGHT_FLOOR, s, 0.0) * lam, axis=-1)


def _transmitted(lam: np.ndarray, vecs: np.ndarray, channel: Channel,
                 sigma: DensityOperator) -> np.ndarray:
    """`_transmitted_stacks` for one state's decompositions (..., n, n), over its weights above WEIGHT_FLOOR."""
    live = lam > WEIGHT_FLOOR
    return _transmitted_stacks(lam[None, live], channel.kraus_vectors(vecs[..., live].mT)[None],
                               sigma.eigenvalues[None], sigma.eigenvectors[None])[0]


def _check_channel(channel, n: int, subject: str) -> None:
    """The one channel check: a `Channel` whose dimension is the subject's `n`."""
    if not isinstance(channel, Channel):
        raise TypeError("expected a Channel")
    if n != channel.dim:
        raise DimensionMismatch(f"{subject} dim {n} vs channel dim {channel.dim}")


def _require_trace_preserving(*channels: Channel) -> None:
    """The decomposition metrics' channel rule: every given channel, each family of a stack, preserves trace."""
    if not all(channel.is_trace_preserving for channel in channels):
        raise ValueError("decomposition metrics require a trace-preserving channel")


def _search(state: DensityOperator, channel: Channel, cfg: ComplexityConfig):
    """Minimize sum p_k S(channel(E_k)) over the state's extremal decompositions.

    The channel must be a trace-preserving `Channel` of the state's
    dimension. The eigenbasis is evaluated once; each chunk of rotated
    candidates then re-scores only the live columns of the degenerate
    blocks, with image entropies from `Channel.image_spectra`. Returns
    D, the worst value seen, the candidate count, the degenerate blocks
    and the minimizing eigenvector columns.
    """
    _check_channel(channel, state.n, "state")
    _require_trace_preserving(channel)

    lam, vec = state.eigenvalues, state.eigenvectors
    live = lam > WEIGHT_FLOOR
    base = _entropy_of_spectrum(channel.image_spectra(vec.T))
    best_val = worst_val = float(np.sum(lam[live] * base[live]))
    best_rotations = None
    evaluated = 1

    blocks = _degenerate_blocks(lam)
    if blocks:
        fixed = live.copy()
        for lo, hi in blocks:
            fixed[lo:hi] = False
        constant = float(np.sum(lam[fixed] * base[fixed]))
        scored = [np.flatnonzero(live[lo:hi]) for lo, hi in blocks]
        n, width = channel.dim, channel.image_width
        candidate_bytes = 16 * sum(
            4 * (hi - lo) ** 2 + cols.size * n * (2 * width + 1)
            for (lo, hi), cols in zip(blocks, scored)
        )
        for chunk in _rotation_chunks(blocks, cfg.restarts, [cfg.seed], candidate_bytes):
            rotations = [u[0] for u in chunk]
            values = np.full(rotations[0].shape[0], constant)
            for (lo, hi), cols, u in zip(blocks, scored, rotations):
                if cols.size:
                    rows = np.swapaxes(vec[:, lo:hi] @ u, -1, -2)[:, cols]
                    ents = _entropy_of_spectrum(channel.image_spectra(rows))
                    values = values + np.sum(ents * lam[lo:hi][cols], axis=-1)
            evaluated += values.size
            i = int(np.argmin(values))
            if values[i] < best_val:
                best_val, best_rotations = float(values[i]), [u[i] for u in rotations]
            worst_val = max(worst_val, float(values.max()))

    best_vec = vec if best_rotations is None else _rotated(vec, blocks, best_rotations)
    return best_val, worst_val, evaluated, blocks, best_vec


def chaos_degree(rho, channel: Channel, config: ComplexityConfig | None = None) -> ChaosDegreeReport:
    """Chaos degree of a state under a trace-preserving linear channel.

    `_search` finds the minimizing decomposition; the transmitted
    complexity is evaluated there through its own relative-entropy formula.
    """
    cfg = config or DEFAULT_CONFIG
    state = as_density(rho)
    best_val, worst_val, evaluated, blocks, best_vec = _search(state, channel, cfg)
    sigma = channel.apply(state)
    return ChaosDegreeReport(
        chaos_degree=best_val,
        transmitted=float(_transmitted(state.eigenvalues, best_vec, channel, sigma)),
        output_entropy=von_neumann_entropy(sigma),
        degenerate=bool(blocks),
        restarts=evaluated,
        seed=cfg.seed,
        worst=worst_val,
        decomposition=SchattenDecomposition(weights=state.eigenvalues, vectors=best_vec),
    )


def transmitted_complexity(rho, channel: Channel, config: ComplexityConfig | None = None) -> float:
    """Mutual-entropy value of the state through the channel, in nats.

    Exact for a non-degenerate spectrum; a lower bound on the supremum
    otherwise (see module docstring).
    """
    return chaos_degree(rho, channel, config).transmitted


# Default `classify_dynamics` thresholds: a window of D values is "stable"
# within DEFAULT_EPS_ZERO of 0 and "weak_stable" within DEFAULT_EPS_CONST
# of a constant.
DEFAULT_EPS_ZERO = 1e-3
DEFAULT_EPS_CONST = 1e-3


def classify_dynamics(d_values, eps_zero: float = DEFAULT_EPS_ZERO,
                      eps_const: float = DEFAULT_EPS_CONST) -> str:
    """Label a window of chaos-degree values.

    "stable" when the values all vanish, "weak_stable" when they sit at
    a constant positive level, "chaotic" otherwise. Each value must be a
    finite real number and each threshold one >= 0, or ValueError is raised.
    """
    eps_zero = _check_real("eps_zero", eps_zero, 0.0)
    eps_const = _check_real("eps_const", eps_const, 0.0)
    vals = np.asarray([_check_real("d_values", v) for v in d_values])
    if vals.size == 0:
        raise ValueError("classification needs at least one value")
    if np.all(np.abs(vals) <= eps_zero):
        return "stable"
    if float(vals.max() - vals.min()) <= eps_const and float(vals.mean()) > eps_zero:
        return "weak_stable"
    return "chaotic"


def _self_adjoint_purposes(m: np.ndarray) -> np.ndarray:
    """`m`, a purpose operator or a stack of them, once each is self-adjoint within 1e-10."""
    _check_deviation(m - m.conj().mT, 1e-10, "purpose operator",
                     "purpose operator is not self-adjoint: deviation")
    return m


def _real_values(images: np.ndarray, q: np.ndarray) -> np.ndarray:
    """tr(image q) for an image and a purpose operator, or for stacks of them.

    A value whose imaginary part exceeds 1e-10 raises ValueError (the
    first such value is named); the real parts are returned.
    """
    v = np.trace(images @ q, axis1=-2, axis2=-1)
    residue = np.atleast_1d(v.imag)
    bad = np.abs(residue) > 1e-10
    if bad.any():
        raise ValueError(f"value has non-real residue {residue[np.argmax(bad)]:.3e}")
    return v.real


def _joint_values(rho_p, gamma_o, channels, purpose) -> tuple[DensityOperator, list[float]]:
    """The joint state rho_p (x) gamma_o and tr(channel(joint) Q) for each channel.

    The channels must fit the joint state, and then Q, read through
    `hilbert._square`, must be of its size and self-adjoint.
    """
    joint = as_density(rho_p).tensor(as_density(gamma_o))
    for channel in channels:
        _check_channel(channel, joint.n, "joint")
    q = _square(purpose, "purpose operator")
    if q.shape[0] != joint.n:
        raise DimensionMismatch(f"purpose operator shape {q.shape}, expected {(joint.n, joint.n)}")
    _self_adjoint_purposes(q)
    return joint, [float(_real_values(ch.apply_matrix(joint.matrix), q)) for ch in channels]


def value_of_information(rho_p, gamma_o, channel: Channel, purpose) -> float:
    """Expected purpose-operator value of the processed joint state.

    The processing state and the reference state are tensored, pushed
    through the channel, and paired with the self-adjoint purpose
    operator. The result is real up to numerical residue; a residue
    above 1e-10 signals an input bug and raises.
    """
    return _joint_values(rho_p, gamma_o, (channel,), purpose)[1][0]


def _preference(v_first: float, v_second: float) -> str:
    if v_first > v_second + ORDER_TOL:
        return "first"
    if v_second > v_first + ORDER_TOL:
        return "second"
    return "tie"


@dataclass(frozen=True)
class ConjectureOutcome:
    """One exploratory check of the chaos-versus-value ordering.

    `agree` records whether the lower-chaos channel is the higher-value
    channel (ties matching ties). Informational only; no invariant of
    the package asserts anything about the agreement rate.
    """

    d_first: float
    d_second: float
    value_first: float
    value_second: float
    agree: bool


def conjecture_experiment(rho_p, gamma_o, channel_a: Channel, channel_b: Channel,
                          purpose, config: ComplexityConfig | None = None) -> ConjectureOutcome:
    """Compare chaos-degree ordering with value ordering for two channels."""
    joint, (v_a, v_b) = _joint_values(rho_p, gamma_o, (channel_a, channel_b), purpose)
    _require_trace_preserving(channel_a, channel_b)
    cfg = config or DEFAULT_CONFIG
    return _outcome(_search(joint, channel_a, cfg)[0], _search(joint, channel_b, cfg)[0], v_a, v_b)


def _outcome(d_a: float, d_b: float, v_a: float, v_b: float) -> ConjectureOutcome:
    """The outcome of two channels' chaos degrees and values."""
    # Lower chaos degree should pair with higher value; compare the two
    # preference labels so ties must match ties.
    return ConjectureOutcome(d_a, d_b, v_a, v_b, _preference(d_b, d_a) == _preference(v_a, v_b))


def conjecture_batch(dim: int, pairs: int, seed: int,
                     kraus_terms: int = 2,
                     identical_channels: bool = False) -> tuple[list[ConjectureOutcome], float]:
    """Run the ordering check on random instances; returns outcomes and rate.

    Pair by pair, the instances are those of `random_density` (rho,
    then gamma), `random_kraus_channel` (channel A, then channel B unless
    the channels are identical) and a Gaussian self-adjoint purpose
    operator, drawn in that order from one generator; each outcome is
    that of `conjecture_experiment` on them. The pairs are evaluated in
    chunks by `_pair_outcomes`, with as many pairs as fit CHUNK_BYTES
    (at least one); the outcomes do not depend on the chunk size. Only a
    pair whose joint spectrum is degenerate or light is searched, through
    `_search`; a lossy channel raises.
    """
    if not isinstance(identical_channels, (bool, np.bool_)):
        raise ValueError(f"identical_channels must be a boolean, got {_brief(identical_channels)}")
    _check_integer("dim", dim, 2, "MAX_VALUE_DIM", MAX_VALUE_DIM)
    _check_integer("pairs", pairs, 1, "MAX_VALUE_PAIRS", MAX_VALUE_PAIRS)
    _check_integer("kraus_terms", kraus_terms, 1, "MAX_KRAUS_TERMS", MAX_KRAUS_TERMS)
    _check_integer("seed", seed, 0)
    n = dim * dim
    channels = 1 if identical_channels else 2
    shapes = [(dim, dim), (dim, dim), *[(kraus_terms * n, n)] * channels, (n, n)]
    # A pair's working set: per channel its draws, Kraus stack, factor and
    # image vectors, and the Gram matrices; the joint state's few matrices.
    width = min(kraus_terms, n)
    pair_bytes = 16 * (channels * (4 * kraus_terms * n * n + n * width * width) + 8 * n * n)
    chunk = max(1, CHUNK_BYTES // pair_bytes)
    rng = np.random.default_rng(seed)
    outcomes = []
    for start in range(0, pairs, chunk):
        draws = _complex_gaussians(rng, min(chunk, pairs - start), shapes)
        outcomes += _pair_outcomes(draws, kraus_terms)
    rate = sum(o.agree for o in outcomes) / len(outcomes)
    return outcomes, rate


def _eigenbasis_values(lam: np.ndarray, vec: np.ndarray, channel: Channel) -> np.ndarray:
    """The eigenbasis value of `_search` for each state of a stack through its family of `channel`.

    Each eigenvector's image entropy, weighted by its eigenvalue.
    """
    return np.sum(lam * _entropy_of_spectrum(channel.image_spectra(vec.mT)), axis=-1)


def _pair_outcomes(draws, terms: int) -> list[ConjectureOutcome]:
    """`conjecture_experiment` on each pair of a chunk, evaluated as stacks.

    `draws` are the chunk's Gaussian stacks in `conjecture_batch`'s
    order, from which the pairs' states, Kraus stacks (one per distinct
    channel) and purpose operators are built as the public samplers build
    them, with every check those run; a family that is not trace-preserving
    raises the search's ValueError before any value. Each step is the
    per-pair step applied to a stack, so each value has the bits of the
    per-pair path. A pair whose joint spectrum has a degenerate block or
    a weight at or below WEIGHT_FLOOR takes its chaos degrees from
    `_search` on its own joint state and Kraus channels instead of the
    stacked eigenbasis values.
    """
    g_rho, g_gamma, *g_kraus, g_purpose = draws
    grams = [_normalized_grams(g) for g in (g_rho, g_gamma)]
    rho, gamma = (_density_spectra(m)[0] for m in grams)
    joint, lam, vec = _density_spectra(_kron(rho, gamma))
    kraus = [_isometry_blocks(z, terms) for z in g_kraus]
    channels = [Channel("kraus", ops) for ops in kraus]
    _require_trace_preserving(*channels)
    q = _self_adjoint_purposes(0.5 * (g_purpose + g_purpose.conj().mT))
    d = [_eigenbasis_values(lam, vec, ch) for ch in channels]
    v = [_real_values(ch.apply_matrix(joint), q).tolist() for ch in channels]
    # Off their eigenbasis value: a degenerate block, or a weight the search leaves out.
    for k in np.flatnonzero(~(_block_starts(lam).all(axis=-1) & (lam[:, -1] > WEIGHT_FLOOR))):
        state = DensityOperator(_kron(rho[k], gamma[k]))
        for values, ops in zip(d, kraus):
            values[k] = _search(state, kraus_channel(ops[k]), DEFAULT_CONFIG)[0]
    d = [values.tolist() for values in d]
    return [_outcome(*values) for values in zip(d[0], d[-1], v[0], v[-1])]


@dataclass(frozen=True)
class AxiomResult:
    passed: bool
    worst_deviation: float
    tolerance: float
    trials: int
    note: str = ""


def axiom_suite(dim: int, trials: int, seed: int) -> dict[str, AxiomResult]:
    """Property checks of the five complexity axioms on random instances.

    Invariance under relabeling is asserted for the state complexity
    only; the transmitted side is genuinely basis-dependent for a fixed
    channel, so its drift is reported in the result note, not asserted.

    Trial by trial, the instances are those of `random_density` (rho,
    then sigma), `random_kraus_channel` (rank 2 + t % 2 for trial t),
    `random_unitary` (the relabeling), `rng.random` (the probe spectrum,
    its second entry made equal to its first) and `random_unitary` (the
    probe basis), drawn in that order from one generator. The axioms hold
    at every extremal decomposition, and each check is evaluated at these:
    C >= 0, T >= 0 and D >= 0 at rho's eigenbasis; relabeling and
    additivity on the spectra; T <= C at rho's eigenbasis and at the
    probe's eigenbasis and 20 rotations of its first tied pair of
    eigenvectors, drawn with seed + t as `chaos_degree` draws them;
    identity recovery through the identity channel at rho's eigenbasis;
    the drift between rho's T and the relabeled state's, each at its
    eigenbasis. For a non-degenerate state the eigenbasis is the
    decomposition that `chaos_degree` reports. The trials are evaluated
    in chunks by `_axiom_trials`, one stack per Kraus rank, each stack
    with as many trials as fit CHUNK_BYTES (at least one); the results
    do not depend on the chunk size.
    """
    _check_integer("dim", dim, 2, "MAX_AXIOM_DIM", MAX_AXIOM_DIM)
    _check_integer("trials", trials, 1, "MAX_AXIOM_TRIALS", MAX_AXIOM_TRIALS)
    _check_integer("seed", seed, 0)
    rng = np.random.default_rng(seed)
    restarts = 20
    # A chunk is two stacks, one per Kraus rank, evaluated in turn. A
    # trial's working set peaks while its probe's candidates are
    # evaluated: about ten complex dim-vectors for each of their
    # (restarts + 1) * dim pieces (the piece, its two or three Kraus
    # vectors and their overlaps), and 10 KB of small arrays.
    trial_bytes = 16 * (10 * (restarts + 1) * dim ** 2 + 640)
    chunk = 2 * max(1, CHUNK_BYTES // trial_bytes)

    # One entry per check, in `_axiom_trials`' row order.
    worst = [0.0, 0.0, 0.0, -math.inf, 0.0, 0.0]
    for start in range(0, trials, chunk):
        stop = min(trials, start + chunk)
        # Trial by trial: `rng.random` sits between the Gaussians, and a
        # normal draw takes a varying number of the generator's words.
        draws = []
        for t in range(start, stop):
            g = _complex_gaussians(rng, 1, [(dim, dim), (dim, dim), ((2 + t % 2) * dim, dim), (dim, dim)])
            spectrum = rng.random((1, dim))
            draws.append((*g, spectrum, *_complex_gaussians(rng, 1, [(dim, dim)])))
        deviations = {}
        for terms in (2, 3):
            group = [t for t in range(start, stop) if 2 + t % 2 == terms]
            if group:
                stacks = [np.concatenate(arrays) for arrays in zip(*(draws[t - start] for t in group))]
                deviations.update(zip(group, _axiom_trials(stacks, terms, [seed + t for t in group], restarts)))
        # Folded in trial order as Python floats, so a -0.0 never replaces 0.0.
        worst = [max(column) for column in zip(worst, *(deviations[t] for t in range(start, stop)))]
    *checked, t_drift = worst

    # Each check's tolerance, in `_axiom_trials`' row order; the last row, the drift, is not asserted.
    tolerances = {"nonnegativity": 0.0, "relabel_invariance": 1e-10, "additivity": 1e-10,
                  "transmitted_bounded": 1e-8, "identity_recovery": 1e-10}
    notes = {"relabel_invariance": f"transmitted drift under relabeling (observed, not asserted): {t_drift:.3e}"}
    return {name: AxiomResult(deviation <= tol, deviation, tol, trials, notes.get(name, ""))
            for (name, tol), deviation in zip(tolerances.items(), checked)}


def _axiom_trials(draws, terms: int, rotation_seeds, restarts: int) -> list:
    """The rows of the `axiom_suite` trials of a stack with one Kraus rank, evaluated as stacks.

    `draws` are the trials' Gaussian stacks and probe spectra in
    `axiom_suite`'s order, from which the states, Kraus stacks, unitaries
    and probes are built as the public samplers build them, with every
    check those run; a family that is not trace-preserving raises
    ValueError. Every state is read at its eigenbasis, a valid extremal
    decomposition whether or not its spectrum is degenerate. A trial's row
    holds one Python float per check: the largest nonnegativity term, the
    relabeling deviation, the additivity deviation, the largest T - C
    term, the identity deviation and the transmitted drift.
    """
    g_rho, g_sigma, g_kraus, g_u, raw, g_basis = draws
    n = g_rho.shape[1]
    grams = [_normalized_grams(g) for g in (g_rho, g_sigma)]
    (rho, lam, vec), (sigma, lam_sigma, _) = map(_density_spectra, grams)
    channel = Channel("kraus", _isometry_blocks(g_kraus, terms))
    _require_trace_preserving(channel)
    u = _haar_unitaries(g_u)
    relabeled, lam_rel, vec_rel = _density_spectra(u @ rho @ u.conj().mT)
    raw[:, 1] = raw[:, 0]
    spectrum = raw / raw.sum(axis=-1, keepdims=True)
    basis = _haar_unitaries(g_basis)
    probe, lam_probe, vec_probe = _density_spectra(
        (basis * spectrum[:, None, :]) @ basis.conj().mT)

    def transmitted(channel, lam, vecs, state):  # T at `vecs` through `channel` against each state's checked image
        return _transmitted_stacks(lam, channel.kraus_vectors(vecs.mT),
                                   *_density_spectra(channel.apply_matrix(state))[1:])

    # rho's D and T at its eigenbasis (for a unique spectrum, the decomposition
    # `chaos_degree` reports); then the relabeled state's T and rho's T through the identity.
    d_val = _eigenbasis_values(lam, vec, channel)
    t_val = transmitted(channel, lam, vec[:, None], rho)[:, 0]
    t_rel = transmitted(channel, lam_rel, vec_rel[:, None], relabeled)[:, 0]
    t_id = transmitted(identity_channel(n), lam, vec[:, None], rho)[:, 0]

    # The probe's eigenbasis, then its first tied pair of columns (still
    # eigenvectors within a larger block) rotated by each trial's
    # `_rotation_chunks` stream (at one byte a candidate, usually one chunk).
    chunks = _rotation_chunks([(0, 2)], restarts, rotation_seeds, 1)
    rotations = np.concatenate([r for r, in chunks], axis=1)
    cols = np.argmin(_block_starts(lam_probe), axis=-1)[:, None] + np.arange(2)
    block = np.take_along_axis(vec_probe, cols[:, None, :], axis=-1)
    candidates = np.repeat(vec_probe[:, None], restarts + 1, axis=1)
    np.put_along_axis(candidates[:, 1:], cols[:, None, None, :], block[:, None] @ rotations, axis=-1)
    t_probe = transmitted(channel, lam_probe, candidates, probe)

    c_val, c_rel, c_sigma, c_joint, ceiling = (
        _entropy_of_spectrum(x)
        for x in (lam, lam_rel, lam_sigma, _density_spectra(_kron(rho, sigma))[1], lam_probe))
    # Row maxima over Python floats, as `axiom_suite` folds the rows.
    return list(zip(
        map(max, np.stack([-c_val, -t_val, -d_val], axis=-1).tolist()),
        abs(c_rel - c_val).tolist(),
        abs(c_joint - c_val - c_sigma).tolist(),
        map(max, np.stack([t_val - c_val, t_probe[:, 0] - ceiling,
                           t_probe[:, 1:].max(axis=-1) - ceiling], axis=-1).tolist()),
        abs(t_id - c_val).tolist(),
        abs(t_rel - t_val).tolist(),
    ))
