import json
import types

import numpy as np
import pytest

from infodyn.channels import (
    depolarizing_channel,
    identity_channel,
    kraus_channel,
    random_kraus_channel,
    stochastic_channel,
    unitary_channel,
)
from infodyn.exceptions import DimensionMismatch
from infodyn.hilbert import (
    DensityOperator,
    random_density,
    random_unitary,
    von_neumann_entropy,
)
from infodyn.metrics import (
    MAX_AXIOM_DIM,
    ComplexityConfig,
    axiom_suite,
    chaos_degree,
    classify_dynamics,
    complexity,
    conjecture_batch,
    conjecture_experiment,
    transmitted_complexity,
    value_of_information,
)
from infodyn import channels, hilbert, jsonio, metrics
from infodyn.channels import Channel, schur_channel
from infodyn.hilbert import _degenerate_blocks, relative_entropy
from infodyn.metrics import AxiomResult, _rotated, _rotation_chunks, _transmitted

RNG = np.random.default_rng(99)
FAST = ComplexityConfig(restarts=50, seed=0)

# -0.25 ln 0.25 - 0.75 ln 0.75
H_QUARTER = 0.5623351446188083


def bit_flip(p):
    x = np.array([[0.0, 1.0], [1.0, 0.0]])
    return kraus_channel([np.sqrt(1 - p) * np.eye(2), np.sqrt(p) * x])


def test_complexity_matches_entropy():
    assert complexity(DensityOperator.from_pure([0, 1, 0])) == 0.0
    assert complexity(DensityOperator.maximally_mixed(4)) == pytest.approx(np.log(4))


def test_complexity_additive_over_tensor():
    rho, sigma = random_density(2, RNG), random_density(3, RNG)
    assert complexity(rho.tensor(sigma)) == pytest.approx(
        complexity(rho) + complexity(sigma), abs=1e-10
    )


def test_chaos_degree_identity_is_zero():
    for n in (2, 3, 5):
        rep = chaos_degree(random_density(n, RNG), identity_channel(n), FAST)
        assert rep.chaos_degree <= 1e-12


def test_chaos_degree_full_depolarizing_is_log_dim():
    for n in (2, 3, 4):
        rep = chaos_degree(random_density(n, RNG), depolarizing_channel(n, 1.0), FAST)
        assert rep.chaos_degree == pytest.approx(np.log(n), abs=1e-9)


def test_chaos_degree_bit_flip_frozen_value():
    # Unique decomposition of diag(0.7, 0.3); both images have spectrum
    # (0.75, 0.25), so the weighted entropy sum collapses to one number.
    rep = chaos_degree(DensityOperator(np.diag([0.7, 0.3])), bit_flip(0.25), FAST)
    assert rep.chaos_degree == pytest.approx(H_QUARTER, abs=1e-12)
    assert not rep.degenerate
    assert rep.restarts == 1


def test_chaos_degree_bit_flip_matches_search_oracle():
    # Brute force over the same search space: orthogonal rank-one
    # decompositions that actually reconstruct the state. A grid plus
    # random bases, filtered by reconstruction error, evaluated with
    # entropy code independent of the package's.
    rho = np.diag([0.7, 0.3]).astype(complex)
    p_flip = 0.25
    x = np.array([[0.0, 1.0], [1.0, 0.0]])

    def apply(m):
        return (1 - p_flip) * m + p_flip * (x @ m @ x)

    def entropy(m):
        lam = np.linalg.eigvalsh(m)
        lam = lam[lam > 1e-15]
        return float(-np.sum(lam * np.log(lam)))

    rng = np.random.default_rng(2024)
    best = np.inf
    thetas = np.linspace(0, np.pi, 100)
    candidates = [(t, ph) for t in thetas for ph in (0.0, np.pi / 2)]
    candidates += list(zip(rng.uniform(0, np.pi, 10**4), rng.uniform(0, 2 * np.pi, 10**4)))
    for theta, phi in candidates:
        v = np.array([np.cos(theta / 2), np.exp(1j * phi) * np.sin(theta / 2)])
        w = np.array([-np.conj(v[1]), np.conj(v[0])])
        pv = float(np.real(v.conj() @ rho @ v))
        recon = pv * np.outer(v, v.conj()) + (1 - pv) * np.outer(w, w.conj())
        if np.max(np.abs(recon - rho)) > 1e-8:
            continue
        val = pv * entropy(apply(np.outer(v, v.conj())))
        val += (1 - pv) * entropy(apply(np.outer(w, w.conj())))
        best = min(best, val)
    rep = chaos_degree(DensityOperator(rho), bit_flip(p_flip), FAST)
    assert rep.chaos_degree == pytest.approx(best, abs=1e-6)


def test_chaos_degree_degenerate_search_improves_on_base():
    # For the maximally mixed qubit every basis is admissible; the
    # invariant basis of the flip drives the value to zero, far below
    # the standard-basis value. The search result is an upper bound
    # that should get most of the way there.
    rep = chaos_degree(
        DensityOperator.maximally_mixed(2),
        bit_flip(0.25),
        ComplexityConfig(restarts=2000, seed=3),
    )
    assert rep.degenerate
    assert rep.restarts == 2001
    assert rep.worst >= rep.chaos_degree
    assert rep.chaos_degree <= 0.05


def test_candidate_rotations_of_neighbouring_seeds_are_disjoint():
    # Each seed starts its own stream, so no rotation drawn under one
    # seed reappears under the next.
    def rotations(seed):
        # One 3-fold block, in chunks of 30 candidates.
        chunks = _rotation_chunks([(0, 3)], 100, [seed], metrics.CHUNK_BYTES // 30)
        return [u for (stack,) in chunks for u in stack[0]]

    first, second = rotations(0), rotations(1)
    assert len(first) == len(second) == 100
    assert not any(np.allclose(a, b) for a in first for b in second)


@pytest.mark.parametrize("gap, blocks", [(0.5e-9, [(1, 3)]), (2e-9, [])])
def test_degeneracy_rule_agrees_at_its_boundary(gap, blocks):
    # One eigenvalue pair either side of DEGENERACY_GAP = 1e-9: the
    # state's flag, the block split and the search read the same rule.
    state = DensityOperator(np.diag([0.6, 0.2, 0.2 - gap]) / (1.0 - gap))
    assert _degenerate_blocks(state.eigenvalues) == blocks
    assert state.degenerate is bool(blocks)
    rep = chaos_degree(state, identity_channel(3), ComplexityConfig(restarts=7, seed=0))
    assert rep.degenerate is bool(blocks)
    assert rep.restarts == (8 if blocks else 1)


def two_block_state():
    """n = 6 with a 3-fold and a 2-fold eigenvalue in a random basis."""
    rng = np.random.default_rng(17)
    u = random_unitary(6, rng)
    spectrum = np.array([0.25, 0.25, 0.25, 0.1, 0.1, 0.05])
    return DensityOperator((u * spectrum) @ u.conj().T)


def search_channels():
    rng = np.random.default_rng(23)
    g = rng.normal(size=(6, 3)) + 1j * rng.normal(size=(6, 3))
    g /= np.linalg.norm(g, axis=1, keepdims=True)
    return [
        random_kraus_channel(6, 2, rng),
        unitary_channel(random_unitary(6, rng)),
        schur_channel(g @ g.conj().T),
        stochastic_channel(rng.dirichlet(np.ones(6), size=6)),
    ]


def per_candidate_search(state, channel, restarts, seed):
    """The search one candidate and one piece at a time: one Haar
    unitary per block per restart from one generator, one n x n image
    and eigvalsh per piece, relative entropies through DensityOperator."""
    lam, vec = state.eigenvalues, state.eigenvectors
    cuts = [0, *(np.flatnonzero(-np.diff(lam) > 1e-9) + 1), lam.size]
    blocks = [(lo, hi) for lo, hi in zip(cuts, cuts[1:]) if hi - lo > 1]
    rng = np.random.default_rng(seed)

    def value(v):
        total = 0.0
        for k in range(lam.size):
            if lam[k] > 1e-15:
                img = channel.apply_matrix(np.outer(v[:, k], v[:, k].conj()))
                w = np.linalg.eigvalsh(img)
                w = w[w > 0]
                total += lam[k] * float(-np.sum(w * np.log(w)))
        return total

    values, candidates = [value(vec)], [vec]
    for _ in range(restarts):
        rotated = np.array(vec)
        for lo, hi in blocks:
            rotated[:, lo:hi] = vec[:, lo:hi] @ random_unitary(hi - lo, rng)
        values.append(value(rotated))
        candidates.append(rotated)
    best = candidates[int(np.argmin(values))]
    sigma = channel.apply(state)
    transmitted = sum(
        lam[k] * relative_entropy(DensityOperator(
            channel.apply_matrix(np.outer(best[:, k], best[:, k].conj()))), sigma)
        for k in range(lam.size) if lam[k] > 1e-15
    )
    return min(values), max(values), transmitted


@pytest.mark.parametrize("channel", search_channels(), ids=lambda c: c.kind)
def test_batched_search_matches_per_candidate_loop(channel):
    state = two_block_state()
    rep = chaos_degree(state, channel, ComplexityConfig(restarts=60, seed=4))
    d_ref, worst_ref, t_ref = per_candidate_search(state, channel, 60, 4)
    assert rep.restarts == 61
    assert rep.chaos_degree == pytest.approx(d_ref, abs=1e-12)
    assert rep.worst == pytest.approx(worst_ref, abs=1e-12)
    assert rep.transmitted == pytest.approx(t_ref, abs=1e-12)
    assert abs(rep.chaos_degree + rep.transmitted - rep.output_entropy) <= 1e-8


@pytest.mark.parametrize("channel", search_channels(), ids=lambda c: c.kind)
def test_chaos_degree_report_does_not_depend_on_chunk_size(channel, monkeypatch):
    state = two_block_state()
    cfg = ComplexityConfig(restarts=50, seed=9)

    def report(budget):
        monkeypatch.setattr(metrics, "CHUNK_BYTES", budget)
        rep = chaos_degree(state, channel, cfg)
        return (rep.chaos_degree, rep.transmitted, rep.output_entropy, rep.worst,
                rep.restarts, rep.decomposition.vectors.tobytes())

    # One candidate per chunk, several uneven chunks, and one chunk.
    reports = [report(1), report(20_000), report(1 << 30)]
    assert reports[0] == reports[1] == reports[2]
    assert reports[0][4] == 51


def test_transmitted_stacks_equals_each_state_transmitted_call():
    # Four states, each with its own Kraus stack, sigma and three decompositions.
    rng = np.random.default_rng(17)
    states = [random_density(3, rng) for _ in range(4)]
    chans = [random_kraus_channel(3, 2, rng) for _ in range(4)]
    sigmas = [ch.apply(rho) for ch, rho in zip(chans, states)]
    vecs = np.stack([np.stack([rho.eigenvectors @ random_unitary(3, rng) for _ in range(3)])
                     for rho in states])
    # Each state's pieces through its own family of one stacked channel, over the decompositions.
    stack = Channel("kraus", np.stack([ch._data for ch in chans]))
    stacked = metrics._transmitted_stacks(
        np.stack([rho.eigenvalues for rho in states]), stack.kraus_vectors(vecs.mT),
        np.stack([s.eigenvalues for s in sigmas]), np.stack([s.eigenvectors for s in sigmas]))
    assert stacked.shape == (4, 3)
    for row, rho, v, ch, sigma in zip(stacked, states, vecs, chans, sigmas):
        assert np.array_equal(row, _transmitted(rho.eigenvalues, v, ch, sigma))


def test_relative_entropies_of_a_stack_equal_each_state_alone():
    # Five states, each with 2 x 3 W's of two Kraus vectors in C^4: two
    # full-rank sigmas, one singular sigma that W leaks out of (+inf), one
    # singular sigma whose support holds W (finite), and a full-rank one.
    rng = np.random.default_rng(23)
    n, states = 4, 5
    v = np.stack([random_unitary(n, rng) for _ in range(states)])
    mu = rng.random((states, n))
    mu[2:4, -1] = 0.0
    mu /= mu.sum(axis=-1, keepdims=True)
    coeffs = hilbert._complex_gaussians(rng, states, [(2, 3, 2, n)])[0]
    coeffs[3, ..., -1] = 0.0  # no component along sigma's null direction
    w = coeffs @ np.expand_dims(v, (1, 2)).mT
    g = hilbert._gram_spectra(w)
    stacked = hilbert._relative_entropies(g, w, mu, v)
    assert stacked.shape == (states, 2, 3)
    for t in range(states):
        alone = hilbert._relative_entropies(g[t:t + 1], w[t:t + 1], mu[t:t + 1], v[t:t + 1])[0]
        assert np.array_equal(stacked[t], alone), t
    assert np.isinf(stacked[2]).all()
    assert np.isfinite(stacked[[0, 1, 3, 4]]).all()


@pytest.mark.parametrize("per_chunk", [4, 10])
def test_rotation_chunks_of_several_seeds_equal_each_seed_alone(per_chunk):
    blocks, seeds = [(0, 2), (2, 5)], [3, 4, 9]

    def joined(seeds):
        chunks = list(_rotation_chunks(blocks, 10, seeds, metrics.CHUNK_BYTES // per_chunk))
        assert len(chunks) == -(-10 // per_chunk)
        return [np.concatenate(stacks, axis=1) for stacks in zip(*chunks)]

    together = joined(seeds)
    for i, seed in enumerate(seeds):
        for stack, alone in zip(together, joined([seed])):
            assert np.array_equal(stack[i], alone[0])


def gram_schur_channel(n):
    """The Schur channel of the unit-diagonal Gram weight of Gaussians seeded by n."""
    g = hilbert._complex_gaussians(np.random.default_rng(n), 1, [(n, n)])[0][0]
    w = g @ g.conj().T
    d = np.sqrt(np.diag(w).real)
    return schur_channel(w / np.outer(d, d))


@pytest.mark.parametrize("n, state, d, worst", [
    (4, "random", 0.7620549690237641, 0.7620549690237641),
    (5, "random", 0.8915373083934559, 0.8915373083934559),
    (4, "mixed", 4.4422572946353934e-15, 0.8662174212954067),
])
def test_schur_chaos_degree_keeps_the_bits_of_its_entrywise_kraus_vectors(n, state, d, worst):
    # The Kraus vectors of a Schur channel are v * sqrt(g) h, entrywise.
    # A product with a factor of the diagonal operators sqrt(g) diag(h)
    # rounds otherwise (D 0.7620549690237644, 0.8915373083934556 and worst
    # 0.8662174212954066 here).
    rho = (random_density(n, np.random.default_rng(100)) if state == "random"
           else DensityOperator.maximally_mixed(n))
    rep = chaos_degree(rho, gram_schur_channel(n), ComplexityConfig(restarts=5, seed=0))
    assert (rep.chaos_degree, rep.worst) == (d, worst)


def oracle_relative_entropy(rho, sigma):
    """S(rho || sigma) from both eigendecompositions, by the overlap formula."""
    r, s = hilbert.as_density(rho), hilbert.as_density(sigma)
    overlap = np.abs(r.eigenvectors.conj().T @ s.eigenvectors) ** 2
    null = s.eigenvalues <= 1e-12
    if r.eigenvalues @ overlap[:, null].sum(axis=1) > 1e-10:
        return np.inf
    lam = r.eigenvalues[r.eigenvalues > 0]
    return float(lam @ np.log(lam)
                 - r.eigenvalues @ overlap[:, ~null] @ np.log(s.eigenvalues[~null]))


def oracle_transmitted(lam, vecs, channel, sigma):
    """sum_k lam_k S(channel(p_k p_k*) || sigma), each image formed as an n x n matrix."""
    return sum(w * oracle_relative_entropy(channel.apply_matrix(np.outer(p, p.conj())), sigma)
               for w, p in zip(lam, vecs.T) if w > metrics.WEIGHT_FLOOR)


def oracle_channels(n, rng):
    """A trace-preserving channel of each kind."""
    g = rng.normal(size=(n, 2)) + 1j * rng.normal(size=(n, 2))
    return {
        "kraus": random_kraus_channel(n, 3, rng),
        "unitary": unitary_channel(random_unitary(n, rng)),
        "schur": schur_channel(g @ g.conj().T / np.outer(*2 * [np.linalg.norm(g, axis=1)])),
        "stochastic": stochastic_channel(rng.dirichlet(np.ones(n), size=n)),
    }


@pytest.mark.parametrize("kind", ["kraus", "unitary", "schur", "stochastic"])
def test_transmitted_and_relative_entropy_match_the_image_matrix_oracle(kind):
    rng = np.random.default_rng(23)
    for n in (2, 3, 5, 8, 16):
        channel = oracle_channels(n, rng)[kind]
        lam = np.sort(rng.dirichlet(np.ones(n)))[::-1]
        for vecs in (np.eye(n, dtype=complex), random_unitary(n, rng)):
            sigma = channel.apply((vecs * lam) @ vecs.conj().T)
            assert abs(_transmitted(lam, vecs, channel, sigma)
                       - oracle_transmitted(lam, vecs, channel, sigma)) <= 1e-12
            image = channel.apply_matrix(np.outer(vecs[:, 0], vecs[:, 0].conj()))
            for rho in (image, random_density(n, rng, rank=1 + n // 2).matrix):
                assert abs(relative_entropy(rho, sigma) - oracle_relative_entropy(rho, sigma)) <= 1e-12


@pytest.mark.parametrize("kind", ["kraus", "unitary", "schur", "stochastic"])
def test_transmitted_and_relative_entropy_are_infinite_where_the_oracle_is(kind):
    # sigma has no weight on the last basis vector, which every image reaches.
    rng = np.random.default_rng(29)
    n = 4
    channel = oracle_channels(n, rng)[kind]
    sigma = DensityOperator(np.diag([0.4, 0.3, 0.3, 0.0]))
    lam, vecs = np.array([0.4, 0.3, 0.2, 0.1]), random_unitary(n, rng)
    assert oracle_transmitted(lam, vecs, channel, sigma) == np.inf
    assert _transmitted(lam, vecs, channel, sigma) == np.inf
    image = channel.apply_matrix(np.outer(vecs[:, 0], vecs[:, 0].conj()))
    assert oracle_relative_entropy(image, sigma) == relative_entropy(image, sigma) == np.inf


def test_transmitted_is_infinite_on_a_support_escape():
    # sigma has no weight on the third basis vector. The second
    # decomposition puts a live piece there; the first stays inside.
    sigma = DensityOperator(np.diag([0.5, 0.5, 0.0]))
    lam = np.array([0.6, 0.4, 0.0])
    inside = np.eye(3, dtype=complex)
    escaping = inside[:, [0, 2, 1]]
    values = _transmitted(lam, np.stack([inside, escaping]), identity_channel(3), sigma)
    expect = sum(lam[k] * relative_entropy(DensityOperator(np.diag(inside[:, k].real)), sigma)
                 for k in range(2))
    assert values[0] == pytest.approx(expect, abs=1e-12)
    assert values[1] == np.inf


# Each bad image comes from a patch (target, name, replacement).
@pytest.mark.parametrize("image, message", [
    # A Gram matrix is positive by construction, so its spectrum is what is patched.
    ((metrics, "_gram_spectra", lambda w: np.broadcast_to([-0.2, 1.2], w.shape[:-2] + (2,))),
     "not positive semidefinite"),
    # Kraus vectors of squared norm 0.9: an image of trace 0.9.
    ((Channel, "kraus_vectors", lambda self, v: np.sqrt(0.9) * np.asarray(v)[..., None, :]),
     "trace must be 1"),
])
def test_transmitted_validates_every_image(monkeypatch, image, message):
    # A channel whose images are not density operators must be refused,
    # as DensityOperator would refuse each one.
    monkeypatch.setattr(*image)
    with pytest.raises(ValueError, match=message):
        _transmitted(np.array([0.5, 0.5]), np.eye(2, dtype=complex), identity_channel(2),
                     DensityOperator.maximally_mixed(2))


def test_chaos_degree_bounded_by_output_entropy():
    for _ in range(10):
        rho = random_density(3, RNG)
        ch = random_kraus_channel(3, 2, RNG)
        rep = chaos_degree(rho, ch, FAST)
        assert -1e-12 <= rep.chaos_degree <= rep.output_entropy + 1e-9


def test_chaos_degree_identity_sum_rule():
    for _ in range(10):
        rho = random_density(2, RNG)
        ch = random_kraus_channel(2, 2, RNG)
        rep = chaos_degree(rho, ch, FAST)
        assert rep.chaos_degree + rep.transmitted == pytest.approx(
            rep.output_entropy, abs=1e-8
        )


def test_chaos_degree_classical_diagonal_identity():
    # Diagonal state + stochastic channel reproduce the pair-count
    # conditional-entropy formula exactly.
    p = RNG.dirichlet(np.ones(4))
    rows = RNG.dirichlet(np.ones(4) * 2, size=4)
    rep = chaos_degree(DensityOperator(np.diag(p)), stochastic_channel(rows), FAST)
    direct = -np.sum((p[:, None] * rows) * np.log(rows, where=rows > 0, out=np.zeros_like(rows)))
    assert rep.chaos_degree == pytest.approx(direct, abs=1e-10)


def test_chaos_degree_rejects_mismatched_dims():
    with pytest.raises(DimensionMismatch):
        chaos_degree(random_density(2, RNG), identity_channel(3), FAST)


def test_chaos_degree_rejects_non_channel():
    with pytest.raises(TypeError):
        chaos_degree(random_density(2, RNG), lambda m: m, FAST)


def test_chaos_degree_checks_dimension_before_trace_preservation():
    lossy = kraus_channel([0.5 * np.eye(3)])
    assert not lossy.is_trace_preserving
    with pytest.raises(DimensionMismatch, match="state dim 2 vs channel dim 3"):
        chaos_degree(random_density(2, RNG), lossy, FAST)


def test_transmitted_identity_recovers_entropy():
    rho = random_density(3, RNG)
    assert transmitted_complexity(rho, identity_channel(3), FAST) == pytest.approx(
        von_neumann_entropy(rho), abs=1e-10
    )


def test_transmitted_full_depolarizing_is_zero():
    rho = random_density(3, RNG)
    assert transmitted_complexity(rho, depolarizing_channel(3, 1.0), FAST) == pytest.approx(
        0, abs=1e-10
    )


def test_transmitted_equals_entropy_defect():
    # Independent evaluation of both sides of the decomposition rule.
    for _ in range(10):
        rho = random_density(2, RNG)
        ch = random_kraus_channel(2, 3, RNG)
        t = transmitted_complexity(rho, ch, FAST)
        lam, vec = rho.eigenvalues, rho.eigenvectors
        terms = 0.0
        for k in range(2):
            img = ch.apply_matrix(np.outer(vec[:, k], vec[:, k].conj()))
            terms += lam[k] * von_neumann_entropy(DensityOperator(img))
        expect = von_neumann_entropy(ch.apply(rho)) - terms
        assert t == pytest.approx(expect, abs=1e-8)


def test_classify_dynamics_rules():
    assert classify_dynamics([0.0, 0.0, 0.0]) == "stable"
    assert classify_dynamics([0.4, 0.4, 0.4]) == "weak_stable"
    assert classify_dynamics([0.1, 0.5, 0.02, 0.7]) == "chaotic"


def test_classify_dynamics_thresholds():
    assert classify_dynamics([5e-4, 9e-4]) == "stable"
    assert classify_dynamics([0.2, 0.2 + 5e-4]) == "weak_stable"
    assert classify_dynamics([0.2, 0.3]) == "chaotic"
    with pytest.raises(ValueError):
        classify_dynamics([])


@pytest.mark.parametrize("thresholds, message", [
    ({"eps_zero": -1.0}, "eps_zero must be a finite real number >= 0, got -1.0"),
    ({"eps_const": float("nan")}, "eps_const must be a finite real number >= 0, got nan"),
], ids=["eps_zero", "eps_const"])
def test_classify_dynamics_rejects_negative_or_nan_thresholds(thresholds, message):
    # At eps_zero = -1 a window of zeros would otherwise be labelled weak_stable.
    with pytest.raises(ValueError, match=message):
        classify_dynamics([0.0, 0.0], **thresholds)


@pytest.mark.parametrize("values, shown", [
    ([float("nan"), float("nan")], "nan"), ([True, True], "True"), ([0.1, float("inf")], "inf"),
], ids=["nan", "bool", "inf"])
def test_classify_dynamics_reads_each_value_as_a_finite_real(values, shown):
    # Unchecked, a window of NaNs was "chaotic" and one of booleans "weak_stable".
    with pytest.raises(ValueError, match=f"d_values must be a finite real number, got {shown}"):
        classify_dynamics(values)


def test_value_identity_purpose_gives_one():
    rho, gamma = random_density(2, RNG), random_density(2, RNG)
    ch = random_kraus_channel(4, 2, RNG)
    assert value_of_information(rho, gamma, ch, np.eye(4)) == pytest.approx(1, abs=1e-10)


def test_value_zero_purpose_gives_zero():
    rho, gamma = random_density(2, RNG), random_density(2, RNG)
    ch = random_kraus_channel(4, 2, RNG)
    assert value_of_information(rho, gamma, ch, np.zeros((4, 4))) == 0


def test_value_projection_onto_fixed_pure_state():
    v = np.kron([1, 0], [0, 1]).astype(complex)
    rho = DensityOperator.from_pure([1, 0])
    gamma = DensityOperator.from_pure([0, 1])
    q = np.outer(v, v.conj())
    assert value_of_information(rho, gamma, identity_channel(4), q) == pytest.approx(1)


def test_value_rejects_non_selfadjoint_purpose():
    rho, gamma = random_density(2, RNG), random_density(2, RNG)
    q = np.zeros((4, 4))
    q[0, 1] = 1.0
    with pytest.raises(ValueError):
        value_of_information(rho, gamma, identity_channel(4), q)


def test_value_rejects_non_finite_purpose():
    rho, gamma = random_density(2, RNG), random_density(2, RNG)
    q = np.eye(4)
    q[1, 1] = np.nan
    with pytest.raises(ValueError, match="non-finite entry"):
        value_of_information(rho, gamma, identity_channel(4), q)


def test_value_rejects_a_purpose_operator_of_the_wrong_shape():
    rho, gamma = random_density(2, RNG), random_density(2, RNG)
    with pytest.raises(DimensionMismatch) as err:
        value_of_information(rho, gamma, identity_channel(4), np.eye(3))
    assert str(err.value) == "purpose operator shape (3, 3), expected (4, 4)"


def test_identity_purpose_values_every_trace_preserving_channel_at_one():
    # tr(channel(joint) 1) is the image's trace, so any two such channels tie.
    rho, gamma = random_density(2, RNG), random_density(2, RNG)
    for channel in (random_kraus_channel(4, 2, RNG), random_kraus_channel(4, 3, RNG)):
        assert value_of_information(rho, gamma, channel, np.eye(4)) == pytest.approx(1.0, abs=1e-12)


def test_value_pair_builds_the_joint_state_once(monkeypatch):
    rho, gamma = random_density(2, RNG), random_density(2, RNG)
    a, b = random_kraus_channel(4, 2, RNG), random_kraus_channel(4, 2, RNG)
    g = RNG.normal(size=(4, 4))
    q = 0.5 * (g + g.T)
    expected = (value_of_information(rho, gamma, a, q), value_of_information(rho, gamma, b, q))
    joints = []
    tensor = DensityOperator.tensor
    monkeypatch.setattr(DensityOperator, "tensor",
                        lambda self, other: joints.append(other) or tensor(self, other))
    outcome = conjecture_experiment(rho, gamma, a, b, q)
    assert len(joints) == 1
    assert (outcome.value_first, outcome.value_second) == expected


def test_value_pair_runs_only_the_decomposition_search(monkeypatch):
    rho, gamma = random_density(2, RNG), random_density(2, RNG)
    a, b = random_kraus_channel(4, 2, RNG), random_kraus_channel(4, 2, RNG)
    g = RNG.normal(size=(4, 4))
    q = 0.5 * (g + g.T)
    joint = rho.tensor(gamma)
    expected = (chaos_degree(joint, a).chaos_degree, chaos_degree(joint, b).chaos_degree)
    calls = []
    report, transmitted, apply = metrics.chaos_degree, metrics._transmitted, Channel.apply
    monkeypatch.setattr(metrics, "chaos_degree",
                        lambda *args: calls.append("chaos_degree") or report(*args))
    monkeypatch.setattr(metrics, "_transmitted",
                        lambda *args: calls.append("_transmitted") or transmitted(*args))
    monkeypatch.setattr(Channel, "apply", lambda self, rho: calls.append("apply") or apply(self, rho))
    outcome = conjecture_experiment(rho, gamma, a, b, q)
    assert calls == []
    assert (outcome.d_first, outcome.d_second) == expected


def test_value_pair_chaos_degree_is_the_report_value_on_a_degenerate_state():
    mixed = DensityOperator.maximally_mixed(2)
    joint = mixed.tensor(mixed)
    cfg = ComplexityConfig(restarts=7, seed=3)
    a, b = random_kraus_channel(4, 2, RNG), random_kraus_channel(4, 3, RNG)
    out = conjecture_experiment(mixed, mixed, a, b, np.diag([1.0, 0.0, 0.0, -1.0]), cfg)
    report_a, report_b = chaos_degree(joint, a, cfg), chaos_degree(joint, b, cfg)
    assert report_a.degenerate and report_a.restarts == 8
    assert out.d_first == report_a.chaos_degree
    assert out.d_second == report_b.chaos_degree


def test_value_pair_checks_each_channel_before_the_search():
    rho, gamma = random_density(2, RNG), random_density(2, RNG)
    ch = random_kraus_channel(4, 2, RNG)
    q = np.eye(4)
    # A stand-in of the right dimension passes the purpose check; the
    # search takes only a Channel.
    stand_in = types.SimpleNamespace(dim=4, is_trace_preserving=True)
    for pair in [(stand_in, ch), (ch, stand_in)]:
        with pytest.raises(TypeError, match="expected a Channel"):
            conjecture_experiment(rho, gamma, *pair, q)
    lossy = kraus_channel([0.5 * np.eye(4)])
    assert not lossy.is_trace_preserving
    for pair in [(lossy, ch), (ch, lossy)]:
        with pytest.raises(ValueError, match="require a trace-preserving channel"):
            conjecture_experiment(rho, gamma, *pair, q)


def test_a_raw_lossy_channel_fails_the_search_before_any_candidate(monkeypatch):
    # A raw Kraus stack that keeps a quarter of the trace: its flag is
    # derived from its data, so the search refuses it at once.
    lossy = Channel("kraus", [0.5 * np.eye(4)])
    assert not lossy.is_trace_preserving
    monkeypatch.setattr(metrics, "_entropy_of_spectrum", lambda *args: pytest.fail("evaluated"))
    message = "^decomposition metrics require a trace-preserving channel$"
    with pytest.raises(ValueError, match=message):
        chaos_degree(np.eye(4) / 4, lossy, ComplexityConfig(restarts=2))
    rho, gamma = random_density(2, RNG), random_density(2, RNG)
    with pytest.raises(ValueError, match=message):
        conjecture_experiment(rho, gamma, lossy, random_kraus_channel(4, 2, RNG), np.eye(4))


def test_value_functions_reject_a_non_channel():
    rho, gamma = random_density(2, RNG), random_density(2, RNG)
    ch = random_kraus_channel(4, 2, RNG)
    q = np.eye(4)
    calls = [
        lambda: value_of_information(rho, gamma, "x", q),
        lambda: conjecture_experiment(rho, gamma, "x", ch, q),
        lambda: conjecture_experiment(rho, gamma, ch, "x", q),
    ]
    for call in calls:
        with pytest.raises(TypeError, match="expected a Channel"):
            call()


def test_conjecture_identical_channels_agree_as_ties():
    rho, gamma = random_density(2, RNG), random_density(2, RNG)
    ch = random_kraus_channel(4, 2, RNG)
    g = RNG.normal(size=(4, 4))
    out = conjecture_experiment(rho, gamma, ch, ch, 0.5 * (g + g.T), FAST)
    assert out.agree
    assert out.d_first == out.d_second


def test_conjecture_identity_vs_depolarizing_records_ordering():
    rho, gamma = random_density(2, RNG), random_density(2, RNG)
    ident = identity_channel(4)
    depol = depolarizing_channel(4, 1.0)
    target = ident.apply(rho.tensor(gamma)).matrix
    out = conjecture_experiment(rho, gamma, ident, depol, target, FAST)
    assert out.d_first == pytest.approx(0, abs=1e-12)
    assert out.d_second == pytest.approx(np.log(4), abs=1e-9)
    # projection onto the identity output favors the identity channel
    assert out.value_first > out.value_second
    assert out.agree


def test_conjecture_batch_rate_in_unit_interval():
    outcomes, rate = conjecture_batch(2, 20, 5)
    assert len(outcomes) == 20
    assert 0.0 <= rate <= 1.0


def test_conjecture_batch_identical_channels_rate_is_one():
    for flag in (True, np.True_):
        _, rate = conjecture_batch(2, 10, 0, identical_channels=flag)
        assert rate == 1.0


def test_conjecture_batch_deterministic():
    a, rate_a = conjecture_batch(2, 8, 11)
    b, rate_b = conjecture_batch(2, 8, 11)
    assert rate_a == rate_b
    assert jsonio.value_json(a, rate_a, 2, 11) == jsonio.value_json(b, rate_b, 2, 11)


def replayed_batch(dim, pairs, seed, kraus_terms, identical_channels):
    """The batch pair by pair: the public samplers, then `conjecture_experiment`."""
    rng = np.random.default_rng(seed)
    outcomes = []
    for _ in range(pairs):
        rho, gamma = random_density(dim, rng), random_density(dim, rng)
        ch_a = random_kraus_channel(dim * dim, kraus_terms, rng)
        ch_b = ch_a if identical_channels else random_kraus_channel(dim * dim, kraus_terms, rng)
        g = rng.normal(size=(dim * dim, dim * dim)) + 1j * rng.normal(size=(dim * dim, dim * dim))
        outcomes.append(conjecture_experiment(rho, gamma, ch_a, ch_b, 0.5 * (g + g.conj().T)))
    return outcomes, sum(o.agree for o in outcomes) / pairs


@pytest.fixture
def batch_calls(monkeypatch):
    """Counts of the batch's chunks and of its pairs sent to `conjecture_experiment`."""
    calls = {"chunks": 0, "fallback": 0}
    chunk, experiment = metrics._pair_outcomes, metrics.conjecture_experiment

    def counted(key, fn):
        def wrapper(*args):
            calls[key] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(metrics, "_pair_outcomes", counted("chunks", chunk))
    monkeypatch.setattr(metrics, "conjecture_experiment", counted("fallback", experiment))
    return calls


@pytest.mark.parametrize("dim, kraus_terms, identical, seed", [
    (2, 1, False, 0), (2, 2, True, 1), (2, 3, False, 2),
    (3, 1, True, 3), (3, 2, False, 4), (3, 3, True, 5),
    (4, 1, False, 6), (4, 2, True, 7), (4, 3, False, 8),
])
def test_conjecture_batch_equals_the_per_pair_replay(dim, kraus_terms, identical, seed,
                                                      batch_calls, monkeypatch):
    # A budget small enough that every case spans several chunks.
    monkeypatch.setattr(metrics, "CHUNK_BYTES", 1 << 15)
    outcomes, rate = conjecture_batch(dim, 20, seed, kraus_terms, identical)
    assert (outcomes, rate) == replayed_batch(dim, 20, seed, kraus_terms, identical)
    assert batch_calls["chunks"] >= 3
    assert batch_calls["fallback"] == 0


def test_conjecture_batch_does_not_depend_on_chunk_size(monkeypatch):
    def batch(budget, *args):
        monkeypatch.setattr(metrics, "CHUNK_BYTES", budget)
        return conjecture_batch(*args)

    for args in [(3, 12, 21, 2, False), (2, 15, 22, 3, True)]:
        # One pair per chunk, the default chunks, and one chunk.
        results = [batch(budget, *args) for budget in (1, metrics.CHUNK_BYTES, 1 << 40)]
        assert results[0] == results[1] == results[2]


@pytest.mark.parametrize("module, name, value, searches", [
    (hilbert, "DEGENERACY_GAP", 1.0, 16),  # every joint spectrum is one block
    (metrics, "WEIGHT_FLOOR", 0.01, 6),  # three of the pairs have a smaller weight
], ids=["degenerate", "weight-floor"])
def test_conjecture_batch_sends_degenerate_or_light_pairs_to_the_experiment(
        module, name, value, searches, batch_calls, monkeypatch):
    # One chunk: only the pairs off their eigenbasis value go through the
    # experiment's search, once per channel, and their chunk-mates stay stacked.
    monkeypatch.setattr(metrics, "CHUNK_BYTES", 1 << 40)
    monkeypatch.setattr(module, name, value)
    calls = []
    search = metrics._search
    monkeypatch.setattr(metrics, "_search", lambda *args: calls.append(args) or search(*args))
    outcomes = conjecture_batch(2, 8, 3)
    assert len(calls) == searches  # counted before the replay, which searches too
    assert outcomes == replayed_batch(2, 8, 3, 2, False)
    assert batch_calls["chunks"] == 1
    assert batch_calls["fallback"] == 0


def test_conjecture_batch_raises_the_trace_preservation_error_before_any_pair(
        batch_calls, monkeypatch):
    # Every channel flagged as not trace-preserving: the stacked kernel
    # raises the per-pair path's error itself, and no pair reaches it.
    def lossy(ops):
        return np.zeros(ops.shape[:-3], dtype=bool)

    monkeypatch.setattr(channels, "_check_kraus_sums", lossy)
    message = "^decomposition metrics require a trace-preserving channel$"
    with pytest.raises(ValueError, match=message):
        replayed_batch(2, 4, 0, 2, False)
    with pytest.raises(ValueError, match=message):
        conjecture_batch(2, 4, 0)
    assert batch_calls["fallback"] == 0


def replayed_axioms(dim, trials, seed):
    """The suite trial by trial: the public samplers, then `chaos_degree` and its formulas."""
    rng = np.random.default_rng(seed)
    cfg = ComplexityConfig(restarts=20, seed=seed)
    ident = identity_channel(dim)
    worst_neg = worst_relabel = worst_additivity = worst_identity = t_drift = 0.0
    worst_bound = -np.inf
    for t in range(trials):
        rho = random_density(dim, rng)
        sigma = random_density(dim, rng)
        channel = random_kraus_channel(dim, 2 + t % 2, rng)
        u = random_unitary(dim, rng)

        report = chaos_degree(rho, channel, cfg)
        c_val = complexity(rho)
        worst_neg = max(worst_neg, -c_val, -report.transmitted, -report.chaos_degree)
        relabeled = DensityOperator(u @ rho.matrix @ u.conj().T)
        worst_relabel = max(worst_relabel, abs(complexity(relabeled) - c_val))
        t_drift = max(t_drift, abs(chaos_degree(relabeled, channel, cfg).transmitted
                                   - report.transmitted))
        worst_additivity = max(worst_additivity, abs(
            complexity(rho.tensor(sigma)) - c_val - complexity(sigma)))

        worst_bound = max(worst_bound, report.transmitted - c_val)
        spectrum = rng.random(dim)
        spectrum[1] = spectrum[0]
        spectrum = spectrum / spectrum.sum()
        basis = random_unitary(dim, rng)
        probe = DensityOperator((basis * spectrum) @ basis.conj().T)
        lam, vec = probe.eigenvalues, probe.eigenvectors
        blocks = _degenerate_blocks(lam)
        out, ceiling = channel.apply(probe), complexity(probe)
        chunks = _rotation_chunks(blocks, cfg.restarts, [seed + t], 16 * dim * dim * (1 + 4 * dim))
        for vecs in (vec[None], *(_rotated(vec, blocks, [u[0] for u in r]) for r in chunks)):
            worst_bound = max(worst_bound,
                              float(np.max(_transmitted(lam, vecs, channel, out))) - ceiling)

        worst_identity = max(worst_identity, abs(
            chaos_degree(rho, ident, cfg).transmitted - c_val))
    return {
        "nonnegativity": AxiomResult(worst_neg <= 0.0, worst_neg, 0.0, trials),
        "relabel_invariance": AxiomResult(
            worst_relabel <= 1e-10, worst_relabel, 1e-10, trials,
            note=f"transmitted drift under relabeling (observed, not asserted): {t_drift:.3e}"),
        "additivity": AxiomResult(worst_additivity <= 1e-10, worst_additivity, 1e-10, trials),
        "transmitted_bounded": AxiomResult(worst_bound <= 1e-8, worst_bound, 1e-8, trials),
        "identity_recovery": AxiomResult(worst_identity <= 1e-10, worst_identity, 1e-10, trials),
    }


def axiom_bytes(results):
    """The results as the command line prints them: a float's bits, its sign included, show."""
    return jsonio.axioms_json(results)


@pytest.fixture
def axiom_calls(monkeypatch):
    """The count of the suite's stacks."""
    calls = {"stacks": 0}
    stacks = metrics._axiom_trials

    def counted(*args):
        calls["stacks"] += 1
        return stacks(*args)

    monkeypatch.setattr(metrics, "_axiom_trials", counted)
    return calls


@pytest.mark.parametrize("trials", [1, 2, 5, 13])
@pytest.mark.parametrize("dim", [2, 3, 4, 6, 8])
def test_axiom_suite_equals_the_per_trial_replay(dim, trials, axiom_calls):
    for seed in (0, 1, 7):
        assert axiom_bytes(axiom_suite(dim, trials, seed)) == axiom_bytes(
            replayed_axioms(dim, trials, seed))
    # Each chunk evaluates its trials of each Kraus rank as one stack.
    assert axiom_calls["stacks"] >= 3 * min(trials, 2)


def test_axiom_suite_does_not_depend_on_chunk_size(axiom_calls, monkeypatch):
    expected = axiom_bytes(replayed_axioms(3, 7, 5))
    # One trial per stack (four chunks), two (two chunks), the default chunks, and one chunk.
    two_trials = 2 * 16 * (10 * 21 * 9 + 640)
    for budget, stacks in [(1, 7), (two_trials, 4), (metrics.CHUNK_BYTES, 2), (1 << 40, 2)]:
        monkeypatch.setattr(metrics, "CHUNK_BYTES", budget)
        axiom_calls["stacks"] = 0
        assert axiom_bytes(axiom_suite(3, 7, 5)) == expected
        assert axiom_calls["stacks"] == stacks


def test_axiom_suite_runs_no_search(monkeypatch):
    def searched(*args):
        raise AssertionError("the axiom suite ran a decomposition search")

    monkeypatch.setattr(metrics, "_search", searched)
    monkeypatch.setattr(metrics, "chaos_degree", searched)
    for dim in range(2, MAX_AXIOM_DIM + 1):
        results = axiom_suite(dim, 5, dim)
        assert all(res.passed for res in results.values()), dim
    # Every spectrum one block: each trial is degenerate, and still takes the stacked path.
    monkeypatch.setattr(hilbert, "DEGENERACY_GAP", 1.0)
    for dim in range(2, MAX_AXIOM_DIM + 1):
        assert len(axiom_suite(dim, 5, dim)) == 5


def eigenbasis_row(g_rho, g_sigma, kraus, u, spectrum, basis, seed, restarts):
    """One `_axiom_trials` row, piece by piece through the public state and channel functions.

    Every state is read at its eigenbasis over its weights above WEIGHT_FLOOR,
    and the probe's first tied pair of eigenvectors at `restarts` rotations,
    one `random_unitary` per rotation from the generator of `seed`.
    """
    rho, sigma = (DensityOperator(hilbert._normalized_grams(g)) for g in (g_rho, g_sigma))
    channel, n = kraus_channel(kraus), rho.n

    def d_and_t(state, channel, vecs):
        out = channel.apply(state)
        images = [(w, channel.apply(np.outer(v, v.conj())))
                  for w, v in zip(state.eigenvalues, vecs.T) if w > metrics.WEIGHT_FLOOR]
        return (sum(w * von_neumann_entropy(image) for w, image in images),
                sum(w * relative_entropy(image, out) for w, image in images))

    c = complexity(rho)
    d, t = d_and_t(rho, channel, rho.eigenvectors)
    relabeled = DensityOperator(u @ rho.matrix @ u.conj().T)
    t_rel = d_and_t(relabeled, channel, relabeled.eigenvectors)[1]
    t_id = d_and_t(rho, identity_channel(n), rho.eigenvectors)[1]

    probe = DensityOperator((basis * spectrum) @ basis.conj().T)
    vecs, ceiling = probe.eigenvectors, complexity(probe)
    lo = _degenerate_blocks(probe.eigenvalues)[0][0]
    rng = np.random.default_rng(seed)
    bounds = [t - c, d_and_t(probe, channel, vecs)[1] - ceiling]
    for _ in range(restarts):
        rotated = vecs.copy()
        rotated[:, lo:lo + 2] = vecs[:, lo:lo + 2] @ random_unitary(2, rng)
        bounds.append(d_and_t(probe, channel, rotated)[1] - ceiling)
    return (max(-c, -t, -d), abs(complexity(relabeled) - c),
            abs(complexity(rho.tensor(sigma)) - c - complexity(sigma)),
            max(bounds), abs(t_id - c), abs(t_rel - t))


def test_axiom_trials_evaluate_non_generic_trials_at_their_eigenbases():
    # Trial 0: rho from identity Gaussians, so maximally mixed. Trial 1: a
    # rank-deficient rho and a probe weight of 0. Trial 2: a probe with a
    # 3-fold tie. Trial 3: a diagonal rho with an exact 0 weight, whose
    # piece leaves rho's support (T +inf through the identity, times 0).
    # Warnings are errors in this suite.
    dim, terms, restarts, seeds = 4, 2, 20, [3, 4, 5, 6]
    rng = np.random.default_rng(11)
    draws = hilbert._complex_gaussians(rng, 4, [(dim, dim), (dim, dim), (terms * dim, dim), (dim, dim)])
    raw = rng.random((4, dim))
    draws.insert(4, raw)
    draws += hilbert._complex_gaussians(rng, 4, [(dim, dim)])
    draws[0][0] = np.eye(dim)
    draws[0][1, :, -1] = 0.0
    draws[0][3] = np.diag([1.0, 2.0, 3.0, 0.0])
    raw[1, -1] = 0.0
    raw[2, 2] = raw[2, 0]
    g_rho, g_sigma, g_kraus, g_u, _, g_basis = draws
    rows = metrics._axiom_trials([d.copy() for d in draws], terms, seeds, restarts)

    kraus = hilbert._isometry_blocks(g_kraus, terms)
    u, basis = hilbert._haar_unitaries(g_u), hilbert._haar_unitaries(g_basis)
    raw[:, 1] = raw[:, 0]
    spectra = raw / raw.sum(axis=-1, keepdims=True)
    assert [np.sum(hilbert._block_starts(DensityOperator((b * s) @ b.conj().T).eigenvalues))
            for b, s in zip(basis, spectra)] == [dim - 2, dim - 2, dim - 3, dim - 2]
    for i, row in enumerate(rows):
        expected = eigenbasis_row(g_rho[i], g_sigma[i], kraus[i], u[i], spectra[i], basis[i],
                                  seeds[i], restarts)
        assert np.isfinite(row).all()
        assert np.allclose(row, expected, rtol=0.0, atol=1e-12), (i, row, expected)


def test_axiom_suite_raises_the_trace_preservation_error_through_the_per_trial_path(monkeypatch):
    # Every channel flagged as not trace-preserving.
    def lossy(ops):
        return np.zeros(ops.shape[:-3], dtype=bool)

    monkeypatch.setattr(channels, "_check_kraus_sums", lossy)
    message = "^decomposition metrics require a trace-preserving channel$"
    with pytest.raises(ValueError, match=message):
        replayed_axioms(3, 4, 0)
    with pytest.raises(ValueError, match=message):
        axiom_suite(3, 4, 0)


def test_axiom_suite_passes_small():
    results = axiom_suite(2, 10, 0)
    assert set(results) == {
        "nonnegativity",
        "relabel_invariance",
        "additivity",
        "transmitted_bounded",
        "identity_recovery",
    }
    for name, res in results.items():
        assert res.passed, (name, res.worst_deviation)
        assert res.trials == 10


def test_axiom_suite_rejects_bad_dim():
    with pytest.raises(ValueError, match="dim must be an integer >= 2, got 1"):
        axiom_suite(1, 10, 0)
    with pytest.raises(ValueError, match=f"dim={MAX_AXIOM_DIM + 1} exceeds the limit "
                                         f"MAX_AXIOM_DIM={MAX_AXIOM_DIM}"):
        axiom_suite(MAX_AXIOM_DIM + 1, 10, 0)


def test_axiom_result_serializes():
    res = json.loads(jsonio.axioms_json(axiom_suite(2, 3, 1)))["additivity"]
    assert res["passed"] is True
    assert res["trials"] == 3


@pytest.mark.parametrize("base", [0.5, 1])
def test_report_serialization_rejects_a_log_base_not_above_one(base):
    rep = chaos_degree(np.diag([0.7, 0.3]), depolarizing_channel(2, 0.5), FAST)
    with pytest.raises(ValueError, match=f"log_base must exceed 1, got {base}"):
        jsonio.chaos_degree_json(rep, base)


def test_report_serialization_log_base():
    rep = chaos_degree(random_density(2, RNG), depolarizing_channel(2, 1.0), FAST)
    nats = json.loads(jsonio.chaos_degree_json(rep, np.e))
    bits = json.loads(jsonio.chaos_degree_json(rep, 2.0))
    assert nats["D"] == pytest.approx(np.log(2))
    assert bits["D"] == pytest.approx(1.0)
    assert bits["seed"] == 0
