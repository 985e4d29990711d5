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

Every value of a decomposition, D's sum_k lam_k S(channel(E_k)) and T's
sum_k lam_k S(channel(E_k) || channel(rho)) alike, is summed by one rule,
`_floor_sum`: a piece of weight at or below WEIGHT_FLOOR adds nothing,
its term zeroed in place, so every path that sums one decomposition's
terms gives the same bits.

`_piece_terms` is the one decomposition kernel. It reads the pieces of
one or more decompositions through a channel, forms their Kraus vectors
and Gram spectra once, and returns each piece's term of D, the entropy
of its image, and, given the output state's spectral data, its term of T,
the relative entropy of its image to the output, through
`hilbert._relative_entropies` with the image's spectrum checked as a
density operator's; T is never the output entropy minus the chaos
degree. A stochastic channel's D reads its image's distribution
|v|^2 P as `Channel.image_spectra` gives it, and its Kraus vectors are
formed for T alone.

`_search` is the one search: `chaos_degree` reports from it, and
`conjecture_experiment`, which reads only the chaos degree, calls it
directly. Like every decomposition function here, it takes the weights
and eigenvector columns, not a state. It evaluates the eigenbasis once,
through `_piece_terms`, with T's terms when `chaos_degree` asks for them,
then the rotations of `_rotation_chunks`, the one rotation stream (one
generator per seed, one QR per block per chunk for all seeds), chunk by
chunk (sized to CHUNK_BYTES), re-scoring only the degenerate blocks'
live columns through `Channel.rotated_image_spectra`. A Kraus vector is
linear in its vector, so a Kraus or unitary channel forms a block's
Kraus vectors once per chunk and rotates them, with no rotated column
formed; a Schur or stochastic channel reads the rotated columns. The
report does not depend on the chunk size. A non-degenerate state, or
one whose eigenbasis no rotation beats, has D and T from one kernel
call; only a rotated minimizer is read by the kernel again.

`conjecture_batch` and `axiom_suite` evaluate their pairs and trials in
stacks, one pass per chunk: `_pair_outcomes` runs each step of the
per-pair path (`conjecture_experiment`) once for a chunk, with its bits,
and `_axiom_trials` evaluates every trial at its states' eigenbases and
its probe at the basis the probe is drawn from, through what the
per-item paths use: a "kraus" `Channel` holding one Kraus family per
item, read through the same `_piece_terms` and `apply_matrix`,
`hilbert._density_spectra` for every state but the probe and every
image, `hilbert._kron` for the tensor product, and one `_rotation_chunks`
call, with every trial's seed, for the probes' rotations; no step loops
over the items of a stack. A Kraus rank's trials read rho's D and T and
the relabeled state's T from one `_piece_terms` call. A stacked kernel
gives an item the bits it gets alone, so items that share a call
(rho and sigma, a trial's states of one Kraus rank, a pair's two
channels) share it without changing a value. `_pair_outcomes` holds both
channels' Kraus families in one `Channel`; `_axiom_trials` builds what no
channel touches once for the chunk and one `Channel` per Kraus rank. Each
constructor derives the trace-preservation flag of every family, and a
family that is not trace-preserving raises through
`_require_trace_preserving`.
A pair's chaos degree is its eigenbasis value unless its joint spectrum
has a degenerate block; only such a pair goes through `_search` itself,
once per channel, on its stacked joint spectrum and its own Kraus
channel. A light weight needs no search, since `_search` sums the
eigenbasis by the same `_floor_sum`. No pair's cost depends on its
chunk-mates.

Every function here that takes a channel checks it through
`_check_channel` before any arithmetic: a non-`Channel` raises
TypeError, a "kraus" `Channel` holding a stack of families (which only
the stacked kernels build) raises ValueError, and a channel of another
dimension than the state (or the joint state, for the value functions)
raises DimensionMismatch. A decomposition metric then requires a
trace-preserving channel, as `Channel` decides it from its data:
`chaos_degree` before it forms the output state, `conjecture_experiment`
of both channels before it searches either.

All values are in nats; `jsonio` writes the reports, in a display base
for `quantum-ecd`.
"""

from __future__ import annotations

import math

import numpy as np

from .channels import Channel, identity_channel
from .exceptions import DimensionMismatch
from .hilbert import (
    DensityOperator,
    _Record,
    _block_starts,
    _brief,
    _check_deviation,
    _check_integer,
    _complex_gaussians,
    _degenerate_blocks,
    _density_spectra,
    _entropy_of_spectrum,
    _gram_spectra,
    _haar_unitaries,
    _hermitian_part,
    _isometry_blocks,
    _kron,
    _relative_entropies,
    _square,
    _unit_spectra,
    _unit_trace,
    as_density,
    von_neumann_entropy,
)

WEIGHT_FLOOR = 1e-15
ORDER_TOL = 1e-10
# Largest search budget. A candidate costs about 2.8 us at n = 4 (one 4-fold
# block) and 9 us at n = 16 (one 8-fold block), Kraus rank 2 (2-core x86-64
# host, one BLAS thread; the best of 7 searches of 20,000 candidates), so the
# cap bounds a search at about 10 s there.
MAX_RESTARTS = 1_000_000
# Largest `axiom_suite` trial count and dimension. Evaluated in stacks, a
# trial costs about 0.16 ms at dim 2, 0.38 ms at dim 4, 0.74 ms at dim 6
# and 1.7 ms at dim 8 (same host at full speed; the best of 3 suites of
# 400 to 60 trials), so the caps bound a suite at about 1.6 s at dim 2
# and 17 s at dim 8, and at twice that on a slow phase of the host.
MAX_AXIOM_TRIALS = 10_000
MAX_AXIOM_DIM = 8
# Largest `conjecture_batch` pair count and dimension. A pair works on
# the dim^2-dimensional joint space; evaluated in stacks, it costs about
# 0.03 ms at dim 2, 0.09 ms at dim 3, 0.22 ms at dim 4, 1.3 ms at dim 6,
# 4 ms at dim 8 and 26 ms at dim 12 (same host, as above), so the caps
# bound a batch at about 0.3 s at dim 2 and 40 s at dim 8.
MAX_VALUE_PAIRS = 10_000
MAX_VALUE_DIM = 8
# Largest `conjecture_batch` Kraus rank. Each term adds about 2.7 ms to a
# pair at MAX_VALUE_DIM: 4 ms at 2 terms, 64 ms at 32 and 0.17 s at 64
# (same host, as above; at this dim every chunk holds one pair), so the
# cap keeps one pair under a second.
MAX_KRAUS_TERMS = 64
# Working memory of one chunk of search candidates, value pairs or axiom
# trials. A chunk holds as many as fit, and at least one; the candidate
# stream, the report, the batch outcomes and the axiom results do not
# depend on the chunk size.
CHUNK_BYTES = 1 << 20


def complexity(rho) -> float:
    """Complexity of a state: its entropy, in nats."""
    return von_neumann_entropy(rho)


class ComplexityConfig(_Record):
    """Budget and seed for the decomposition search."""

    __slots__ = ("restarts", "seed")

    def __init__(self, restarts: int = 1000, seed: int = 0):
        self._set(restarts=_check_integer("restarts", restarts, 1, "MAX_RESTARTS", MAX_RESTARTS),
                  seed=_check_integer("seed", seed, 0))


DEFAULT_CONFIG = ComplexityConfig()


class ChaosDegreeReport(_Record):
    """Chaos degree, transmitted complexity, and search statistics.

    `worst` is the largest chaos-degree value seen during the search;
    for a unique decomposition it equals the chaos degree. The
    transmitted complexity is evaluated at the minimizing decomposition,
    whose pieces the report does not keep: a state's spectral data live
    in its `DensityOperator`. The fields: `chaos_degree`, `transmitted`
    and `output_entropy` (floats), `degenerate` (bool), `restarts` and
    `seed` (ints) and `worst` (float).
    """

    __slots__ = ("chaos_degree", "transmitted", "output_entropy", "degenerate", "restarts", "seed", "worst")


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


def _floor_sum(lam: np.ndarray, s: np.ndarray) -> np.ndarray:
    """sum_k lam_k s_k over the last axis: the one sum of a decomposition's value.

    A piece of weight at or below WEIGHT_FLOOR adds nothing; its term is
    zeroed before the product, so a light piece's +inf never meets its weight.
    """
    return np.sum(np.where(lam > WEIGHT_FLOOR, s, 0.0) * lam, axis=-1)


def _piece_terms(channel: Channel, pieces: np.ndarray, sigma=None):
    """Each piece's term of D and, given sigma, of T: the one decomposition kernel.

    `pieces` (..., k, n) holds the vectors p_k of the pieces |p_k><p_k| of
    one or more decompositions, read through `channel`, whose families (a
    "kraus" stack) meet them on their leading axes. `sigma`, when T is
    wanted, is the spectral data (mu (..., n), v (..., n, n)) of each
    decomposition's output state, broadcast against the pieces' leading
    axes. The pieces' Kraus vectors w and their Gram spectra g are formed
    once: D's term S(channel(E_k)) is the entropy of g, and T's term
    S(channel(E_k) || sigma) is `hilbert._relative_entropies` of w with g
    checked as a state's spectrum (a Gram image is self-adjoint by
    construction), +inf for an image whose support leaves sigma's. A
    stochastic channel's D reads the distribution |p_k|^2 P of its image,
    as `Channel.image_spectra` gives it, and forms w only for T. Returns
    (D's terms, T's terms or None), each (..., k); `_floor_sum` sums them.
    """
    stochastic = channel.kind == "stochastic"
    d = _entropy_of_spectrum(channel.image_spectra(pieces)) if stochastic else None
    if stochastic and sigma is None:
        return d, None
    w = channel.kraus_vectors(pieces)
    g = _gram_spectra(w)
    t = None if sigma is None else _relative_entropies(_unit_spectra(g.sum(axis=-1), g), w, *sigma)
    return (_entropy_of_spectrum(g) if d is None else d), t


def _check_channel(channel, n: int, subject: str) -> None:
    """The one channel check: a `Channel` of one family whose dimension is the subject's `n`."""
    if not isinstance(channel, Channel):
        raise TypeError("expected a Channel")
    if channel.families:
        raise ValueError(f"expected one channel, got a stack of {channel.families} Kraus families")
    if n != channel.dim:
        raise DimensionMismatch(f"{subject} dim {n} vs channel dim {channel.dim}")


def _require_trace_preserving(*channels: Channel) -> None:
    """The decomposition metrics' channel rule: every given channel, each family of a stack, preserves trace."""
    if not all(channel.is_trace_preserving for channel in channels):
        raise ValueError("decomposition metrics require a trace-preserving channel")


def _search(lam: np.ndarray, vec: np.ndarray, channel: Channel, cfg: ComplexityConfig, sigma=None):
    """Minimize sum p_k S(channel(E_k)) over the extremal decompositions with weights `lam`, basis `vec`.

    The caller has checked that the channel is a trace-preserving `Channel`
    of the state's dimension. The eigenbasis is evaluated once, by
    `_piece_terms`, with T's terms when `sigma`, the output state's
    spectral data, is given; each chunk of rotated candidates then
    re-scores only the live columns of the degenerate blocks (a dead
    column adds nothing under `_floor_sum`), block by block, through
    `Channel.rotated_image_spectra` of the block's eigenvector columns and
    the chunk's rotations: a Kraus or unitary channel rotates the block's
    Kraus vectors, so its values agree with those of the rotated columns
    to rounding. Returns D, the worst value seen, the candidate count, the
    degenerate blocks and T's terms at the minimizer (None without
    `sigma`); a rotated minimizer's columns are formed once, by `_rotated`,
    and read by `_piece_terms` again.
    """
    base, rel = _piece_terms(channel, vec.T, sigma)
    best_val = worst_val = float(_floor_sum(lam, base))
    best_rotations = None
    evaluated = 1

    blocks = _degenerate_blocks(lam)
    if blocks:
        outside = np.ones(lam.size, dtype=bool)
        for lo, hi in blocks:
            outside[lo:hi] = False
        constant = float(_floor_sum(lam[outside], base[outside]))
        scored = [np.flatnonzero(lam[lo:hi] > WEIGHT_FLOOR) for lo, hi in blocks]
        # A candidate's working set, per block of side k: its Gaussians,
        # their stack, the QR and the rotation, about four k x k matrices; and
        # for each live column the arrays its image's spectrum is read from.
        # A Kraus or unitary channel forms its rotated Kraus vectors and their
        # Gram data, a Schur channel the rotated column and its Kraus vectors:
        # at most (2r + 1) n complex numbers, for r Kraus vectors per state. A
        # stochastic channel forms the rotated column, its copy and the real
        # arrays of its distribution, about 3n. A full chunk of one block peaks
        # at 0.19 to 0.94 MiB at n = 4 to 16 for Kraus and unitary channels,
        # at 0.62 to 0.88 MiB for stochastic ones, and at 1.02 MiB for a
        # rank-3 Schur weight (tracemalloc).
        n = channel.dim
        per_column = 3 * n if channel.kind == "stochastic" else n * (2 * channel.image_width + 1)
        candidate_bytes = 16 * sum(4 * (hi - lo) ** 2 + cols.size * per_column
                                   for (lo, hi), cols in zip(blocks, scored))
        for chunk in _rotation_chunks(blocks, cfg.restarts, [cfg.seed], candidate_bytes):
            rotations = [u[0] for u in chunk]
            values = np.full(rotations[0].shape[0], constant)
            for (lo, hi), cols, u in zip(blocks, scored, rotations):
                if cols.size:
                    entropies = _entropy_of_spectrum(channel.rotated_image_spectra(vec[:, lo:hi], u, cols))
                    values = values + _floor_sum(lam[lo:hi][cols], entropies)
            evaluated += values.size
            i = int(np.argmin(values))
            if values[i] < best_val:
                best_val, best_rotations = float(values[i]), [u[i] for u in rotations]
            worst_val = max(worst_val, float(values.max()))

    if best_rotations is not None and sigma is not None:
        rel = _piece_terms(channel, _rotated(vec, blocks, best_rotations).T, sigma)[1]
    return best_val, worst_val, evaluated, blocks, rel


def chaos_degree(rho, channel: Channel, config: ComplexityConfig | None = None) -> ChaosDegreeReport:
    """Chaos degree of a state under a trace-preserving linear channel.

    `_search` finds the minimizing decomposition and reads T's terms there
    through their own relative-entropy formula: from the same
    `_piece_terms` call as D when the eigenbasis is the minimizer.
    """
    cfg = config or DEFAULT_CONFIG
    state = as_density(rho)
    _check_channel(channel, state.n, "state")
    _require_trace_preserving(channel)
    sigma = channel.apply(state)
    best_val, worst_val, evaluated, blocks, rel = _search(state.eigenvalues, state.eigenvectors, channel, cfg,
                                                          (sigma.eigenvalues, sigma.eigenvectors))
    return ChaosDegreeReport(
        chaos_degree=best_val,
        transmitted=float(_floor_sum(state.eigenvalues, rel)),
        output_entropy=von_neumann_entropy(sigma),
        degenerate=bool(blocks),
        restarts=evaluated,
        seed=cfg.seed,
        worst=worst_val,
    )


def transmitted_complexity(rho, channel: Channel, config: ComplexityConfig | None = None) -> float:
    """Mutual-entropy value of the state through the channel, in nats.

    Exact for a non-degenerate spectrum; a lower bound on the supremum
    otherwise (see module docstring).
    """
    return chaos_degree(rho, channel, config).transmitted


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


class ConjectureOutcome(_Record):
    """One exploratory check of the chaos-versus-value ordering.

    `agree` records whether the lower-chaos channel is the higher-value
    channel (ties matching ties). Informational only; no invariant of
    the package asserts anything about the agreement rate. The fields:
    `d_first`, `d_second`, `value_first` and `value_second` (floats) and
    `agree` (bool).
    """

    __slots__ = ("d_first", "d_second", "value_first", "value_second", "agree")


def conjecture_experiment(rho_p, gamma_o, channel_a: Channel, channel_b: Channel,
                          purpose, config: ComplexityConfig | None = None) -> ConjectureOutcome:
    """Compare chaos-degree ordering with value ordering for two channels."""
    joint, (v_a, v_b) = _joint_values(rho_p, gamma_o, (channel_a, channel_b), purpose)
    _require_trace_preserving(channel_a, channel_b)
    cfg = config or DEFAULT_CONFIG
    d_a, d_b = (_search(joint.eigenvalues, joint.eigenvectors, ch, cfg)[0] for ch in (channel_a, channel_b))
    return _outcome(d_a, d_b, v_a, v_b)


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
    pair whose joint spectrum is degenerate is searched, through
    `_search`; a lossy channel raises.
    """
    if not isinstance(identical_channels, (bool, np.bool_)):
        raise ValueError(f"identical_channels must be a boolean, got {_brief(identical_channels)}")
    dim = _check_integer("dim", dim, 2, "MAX_VALUE_DIM", MAX_VALUE_DIM)
    pairs = _check_integer("pairs", pairs, 1, "MAX_VALUE_PAIRS", MAX_VALUE_PAIRS)
    kraus_terms = _check_integer("kraus_terms", kraus_terms, 1, "MAX_KRAUS_TERMS", MAX_KRAUS_TERMS)
    seed = _check_integer("seed", seed, 0)
    n = dim * dim
    channels = 1 if identical_channels else 2
    shapes = [(dim, dim), (dim, dim), *[(kraus_terms * n, n)] * channels, (n, n)]
    # A pair's working set: per channel its draws (or the stack of both
    # channels' draws, which replaces them), the Kraus stack, its factor and
    # the image vectors, and the Gram matrices; the joint state's few matrices.
    width = min(kraus_terms, n)
    pair_bytes = 16 * (channels * (4 * kraus_terms * n * n + n * width * width) + 8 * n * n)
    chunk = max(1, CHUNK_BYTES // pair_bytes)
    rng = np.random.default_rng(seed)
    outcomes = []
    for start in range(0, pairs, chunk):
        outcomes += _pair_outcomes(rng, min(chunk, pairs - start), shapes, kraus_terms)
    rate = sum(o.agree for o in outcomes) / len(outcomes)
    return outcomes, rate


def _pair_outcomes(rng, count: int, shapes, terms: int) -> list[ConjectureOutcome]:
    """`conjecture_experiment` on each pair of a chunk, evaluated as stacks.

    The chunk's `count` pairs draw their Gaussian stacks of `shapes` from
    `rng` in `conjecture_batch`'s order, and the pairs' states, Kraus stacks
    (one per distinct channel) and purpose operators are built from them as
    the public samplers build them, with every check those run; the Kraus
    draws are held once, as one stack. A family that is not trace-preserving
    raises the search's ValueError before any value. rho and gamma come
    from one `_density_spectra`, and every channel's Kraus family from one
    `_isometry_blocks` on a (channels, pairs, terms * n, n) stack, held by
    one `Channel` through which D and V are read. Each step is the
    per-pair step applied to a stack, so each value has the bits of the
    per-pair path. A pair whose joint spectrum has a degenerate block
    takes its chaos degrees from `_search` on its row of the stacked
    spectral data and its own Kraus channels instead of the stacked
    eigenbasis values; a light pair keeps its eigenbasis value, which is
    `_search`'s D, since both sum through `_floor_sum`.
    """
    g_rho, g_gamma, *g_kraus, g_purpose = _complex_gaussians(rng, count, shapes)
    g = np.concatenate([g_rho, g_gamma])
    states = _density_spectra(_unit_trace(g @ g.conj().mT))[0]
    rho, gamma = states[:len(g_rho)], states[len(g_rho):]
    joint, lam, vec = _density_spectra(_kron(rho, gamma))
    # One family per channel and pair: (channels, pairs, terms, n, n). The
    # stack is the draws' one copy: they go before the QR, and it after.
    kraus = np.stack(g_kraus)
    del g_kraus
    kraus = _isometry_blocks(kraus, terms)
    channel = Channel("kraus", kraus)
    _require_trace_preserving(channel)
    q = _self_adjoint_purposes(_hermitian_part(g_purpose))
    d = _floor_sum(lam, _piece_terms(channel, vec.mT)[0])
    v = _real_values(channel.apply_matrix(joint), q).tolist()
    # Only a degenerate block takes D off the eigenbasis value.
    for k in np.flatnonzero(~_block_starts(lam).all(axis=-1)):
        for values, ops in zip(d, kraus):
            values[k] = _search(lam[k], vec[k], Channel("kraus", ops[k]), DEFAULT_CONFIG)[0]
    d = d.tolist()
    return [_outcome(*values) for values in zip(d[0], d[-1], v[0], v[-1])]


class AxiomResult(_Record):
    """One axiom's check: whether it passed, its worst deviation against
    its tolerance over `trials` trials, and a note."""

    __slots__ = ("passed", "worst_deviation", "tolerance", "trials", "note")

    def __init__(self, passed: bool, worst_deviation: float, tolerance: float, trials: int, note: str = ""):
        self._set(passed=passed, worst_deviation=worst_deviation, tolerance=tolerance, trials=trials,
                  note=note)


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
    probe's basis (weights the probe spectrum, the tie in columns 0 and
    1) and 20 rotations of its first two columns, drawn with seed + t as
    `chaos_degree` draws them;
    identity recovery through the identity channel at rho's eigenbasis;
    the drift between rho's T and the relabeled state's, each at its
    eigenbasis. For a non-degenerate state the eigenbasis is the
    decomposition that `chaos_degree` finds. The trials are evaluated
    in chunks by `_axiom_trials`, one pass per chunk of an even number of
    trials, as many as fit CHUNK_BYTES (at least two); the results do not
    depend on the chunk size.
    """
    dim = _check_integer("dim", dim, 2, "MAX_AXIOM_DIM", MAX_AXIOM_DIM)
    trials = _check_integer("trials", trials, 1, "MAX_AXIOM_TRIALS", MAX_AXIOM_TRIALS)
    seed = _check_integer("seed", seed, 0)
    rng = np.random.default_rng(seed)
    restarts = 20
    # A chunk is one pass over an even number of trials. Each trial holds
    # its draws, states, unitaries and rotations throughout, about 640
    # complex numbers of small arrays. The peak comes in one Kraus rank's
    # pass over every other trial: while its probes' candidates are
    # evaluated, about eight complex dim-vectors for each of their
    # (restarts + 1) * dim pieces (the piece, its two or three Kraus
    # vectors and their overlaps), four per trial of the chunk; or while
    # its joint states are decomposed, about two dim^2 x dim^2 matrices
    # each, one per trial of the chunk. A full chunk peaks at 0.74 to 0.93
    # MiB at dim 2 to 8 (tracemalloc).
    trial_bytes = 16 * (4 * (restarts + 1) * dim ** 2 + dim ** 4 + 640)
    chunk = 2 * max(1, CHUNK_BYTES // (2 * trial_bytes))

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
        rows = _axiom_trials(draws, range(seed + start, seed + stop), restarts)
        # Folded in trial order as Python floats, so a -0.0 never replaces 0.0.
        worst = [max(column) for column in zip(worst, *rows)]
    *checked, t_drift = worst

    # Each check's tolerance, in `_axiom_trials`' row order; the last row, the drift, is not asserted.
    tolerances = {"nonnegativity": 0.0, "relabel_invariance": 1e-10, "additivity": 1e-10,
                  "transmitted_bounded": 1e-8, "identity_recovery": 1e-10}
    notes = {"relabel_invariance": f"transmitted drift under relabeling (observed, not asserted): {t_drift:.3e}"}
    return {name: AxiomResult(deviation <= tol, deviation, tol, trials, notes.get(name, ""))
            for (name, tol), deviation in zip(tolerances.items(), checked)}


def _axiom_trials(draws, rotation_seeds, restarts: int) -> list:
    """The rows of a chunk of `axiom_suite` trials, evaluated as stacks in one pass.

    `draws` are the trials' Gaussian stacks and probe spectra, one tuple
    per trial in `axiom_suite`'s order, the chunk starting on an even
    trial, so trial i has Kraus rank 2 + i % 2. The states, Kraus stacks,
    unitaries and probes are built from them as the public samplers build
    them, with every check those run; a family that is not
    trace-preserving raises ValueError before anything is evaluated.
    What no channel touches is built once for the chunk: rho and sigma
    through one `_density_spectra`, the relabelings and probe bases
    through one `_haar_unitaries`, the relabeled states and rho's image
    through the identity through one `_density_spectra`, the probes, the
    probes' rotations (one `_rotation_chunks` call with `rotation_seeds`,
    one seed per trial) and T through the identity. Each Kraus rank,
    every other trial, has one `Channel`, the joint states'
    `_density_spectra`, one `apply_matrix` and one `_density_spectra` of
    the images of rho, the relabeled state and the probe, one
    `_piece_terms` call for the probe's candidates and one for rho's D and
    T and the relabeled state's T. Every state but the probe is read at
    its eigenbasis, a valid extremal decomposition whether or not its
    spectrum is degenerate. The probe is read at (spectrum, basis), the decomposition
    it is drawn from, with its tie in columns 0 and 1, so no eigensolver
    picks a basis inside the tie; its image is checked as a state's. A
    trial's row holds one Python float per check: the largest
    nonnegativity term, the relabeling deviation, the additivity
    deviation, the largest T - C term, the identity deviation and the
    transmitted drift.
    """
    g_rho, g_sigma, g_kraus, g_u, raw, g_basis = zip(*draws)
    count, n = len(draws), g_rho[0].shape[-1]
    # Kraus rank 2 + parity: every other trial.
    ranks = [slice(parity, None, 2) for parity in range(min(2, count))]
    channels = [Channel("kraus", _isometry_blocks(np.concatenate(g_kraus[rank]), terms))
                for terms, rank in enumerate(ranks, 2)]
    _require_trace_preserving(*channels)
    g = np.concatenate(g_rho + g_sigma)
    states, lam_both, vec_both = _density_spectra(_unit_trace(g @ g.conj().mT))
    rho, sigma, lam, lam_sigma, vec = (states[:count], states[count:], lam_both[:count],
                                       lam_both[count:], vec_both[:count])
    # The joint states, n^2 x n^2, are decomposed one Kraus rank's trials at
    # a time, while the chunk holds few other stacks.
    c_joint = np.empty(count)
    for rank in ranks:
        c_joint[rank] = _entropy_of_spectrum(_density_spectra(_kron(rho[rank], sigma[rank]))[1])
    unitaries = _haar_unitaries(np.concatenate(g_u + g_basis))
    u, basis = unitaries[:count], unitaries[count:]
    # The relabeled states and rho's image through the identity, decomposed as one stack.
    ident = identity_channel(n)
    (relabeled, _), (lam_rel, mu_id), (vec_rel, v_id) = _density_spectra(
        np.stack([u @ rho @ u.conj().mT, ident.apply_matrix(rho)]))
    raw = np.concatenate(raw)
    raw[:, 1] = raw[:, 0]
    spectrum = raw / raw.sum(axis=-1, keepdims=True)
    probe = (basis * spectrum[:, None, :]) @ basis.conj().mT
    # rho's T through the identity, at its eigenbasis.
    t_id = _floor_sum(lam, _piece_terms(ident, vec.mT, (mu_id, v_id))[1])

    # The rotations of the probes' tied columns 0 and 1, from each trial's
    # `_rotation_chunks` stream (at one byte a candidate, usually one chunk).
    chunks = _rotation_chunks([(0, 2)], restarts, rotation_seeds, 1)
    rotations = np.concatenate([r for r, in chunks], axis=1)

    d_val, t_val, t_rel = (np.empty(count) for _ in range(3))
    t_probe = np.empty((count, restarts + 1))
    for rank, channel in zip(ranks, channels):
        # The checked images of rho, the relabeled state and the probe, against which T is read.
        mu, v = _density_spectra(channel.apply_matrix(np.stack([rho[rank], relabeled[rank], probe[rank]])))[1:]
        # The probe's basis, then its tied columns (still eigenvectors within a larger block) rotated.
        candidates = np.repeat(basis[rank, None], restarts + 1, axis=1)
        candidates[:, 1:, :, :2] = basis[rank, None, :, :2] @ rotations[rank]
        t_probe[rank] = _floor_sum(spectrum[rank, None],
                                   _piece_terms(channel, candidates.mT, (mu[2, :, None], v[2, :, None]))[1])
        # rho's D and T and the relabeled state's T, each at its eigenbasis
        # (for a unique spectrum, the decomposition `chaos_degree` finds), from
        # one call: one decomposition per state, each trial's in turn.
        s, rel = _piece_terms(channel, np.stack([vec[rank], vec_rel[rank]], axis=1).mT,
                              (mu[:2].swapaxes(0, 1), v[:2].swapaxes(0, 1)))
        d_val[rank] = _floor_sum(lam[rank], s[:, 0])
        t_val[rank], t_rel[rank] = _floor_sum(np.stack([lam[rank], lam_rel[rank]], axis=1), rel).T

    c_val, c_rel, c_sigma, ceiling = (_entropy_of_spectrum(x) for x in (lam, lam_rel, lam_sigma, spectrum))
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
