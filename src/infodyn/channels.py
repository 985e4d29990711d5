"""Channels on finite-dimensional state spaces.

Four concrete families of linear channels cover everything the rest of
the package needs: Kraus-sum channels, entrywise (Schur) damping by a
positive weight matrix, unitary conjugation, and the classical
row-stochastic push-forward embedded on diagonal densities.

A `Channel` acts on one matrix or on a stack (..., n, n) of them.
`Channel.kraus_vectors` gives the images of a stack of pure states as
their Kraus vectors, which the chaos degree (through the Gram spectra of
`Channel.image_spectra`) and the transmitted complexity in
:mod:`infodyn.metrics` both read. A Schur channel's Kraus operators are
diagonal, so its vectors are entrywise products of the state with the
rows sqrt(g) h of its weight's spectral terms. The Kraus-form
arithmetic lives in `Channel` alone. A "kraus" channel may hold a stack
of Kraus families, one per item, which only the stacked kernels of
:mod:`infodyn.metrics` build; they read it through the same methods as
the per-item paths. A constructor that takes a dimension `n` checks it
through `hilbert._check_integer` first.

Trace-normalized damping, which conditions a state on a weight, is not
a channel: it divides by the trace of the damped output, so it is
nonlinear and partial. It lives in :func:`schur_channel_apply`, whose
inputs with vanishing damped trace raise
:class:`~infodyn.exceptions.OutsideDomain` (a non-finite one ValueError).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .exceptions import DimensionMismatch, OutsideDomain
from .hilbert import (
    EIGENVALUE_FLOOR,
    HERMITIAN_TOL,
    DensityOperator,
    _check_deviation,
    _check_integer,
    _check_kraus_sums,
    _check_real,
    _complex_gaussians,
    _gram_spectra,
    _isometry_blocks,
    _kron,
    _square,
    as_density,
    mult_operator,
    shift_unitary,
)

PROBABILITY_FLOOR = 1e-12
UNITARY_TOL = 1e-10
CP_EIGENVALUE_TOL = 1e-9


@dataclass(frozen=True)
class SchurWeight:
    """Positive semidefinite weight for entrywise damping.

    The null matrix is allowed; the weight need not have unit trace.
    """

    matrix: np.ndarray
    _terms: list = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        m = _square(self.matrix, "weight")
        _check_deviation(m - m.conj().T, HERMITIAN_TOL, "weight",
                         "weight is not self-adjoint: deviation")
        m = 0.5 * (m + m.conj().T)
        lam, vec = np.linalg.eigh(m)
        if not float(lam[0]) >= EIGENVALUE_FLOOR:
            raise ValueError(f"weight has negative eigenvalue {float(lam[0]):.3e}")
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "_terms", [
            (float(lam[k]), vec[:, k].copy()) for k in range(m.shape[0]) if lam[k] > 1e-14
        ])

    @property
    def n(self) -> int:
        return self.matrix.shape[0]

    def spectral_terms(self) -> list[tuple[float, np.ndarray]]:
        """One (coefficient, function) pair per positive eigenvalue."""
        return list(self._terms)


def as_weight(obj) -> SchurWeight:
    if isinstance(obj, SchurWeight):
        return obj
    return SchurWeight(np.asarray(obj, dtype=complex))


def schur_apply(weight, rho) -> np.ndarray:
    """Entrywise damping of a state by a positive weight matrix.

    The output is positive but in general not of unit trace. Acting
    entrywise is equivalent to the sum of multiplication-operator
    conjugations over any spectral representation of the weight, which
    is exercised by :func:`schur_apply_from_terms`.
    """
    w = as_weight(weight)
    m = rho.matrix if isinstance(rho, DensityOperator) else _square(rho, "state")
    if w.n != m.shape[0]:
        raise DimensionMismatch(f"weight dim {w.n} vs state dim {m.shape[0]}")
    return w.matrix * m


def schur_apply_from_terms(terms, rho) -> np.ndarray:
    """Damping evaluated from an explicit spectral representation.

    `terms` is a sequence of (coefficient, function) pairs. Kept as the
    definitional route; production code uses :func:`schur_apply`.
    """
    m = rho.matrix if isinstance(rho, DensityOperator) else _square(rho, "state")
    out = np.zeros_like(m)
    for gamma, h in terms:
        o = mult_operator(h)
        out = out + gamma * (o @ m @ o.conj().T)
    return out


def schur_channel_apply(weight, rho) -> DensityOperator:
    """Trace-normalized entrywise damping; nonlinear and partial.

    A non-finite damped trace raises ValueError before any division; a
    finite one at or below PROBABILITY_FLOOR raises OutsideDomain.
    """
    raw = schur_apply(weight, rho)
    tr = float(raw.trace().real)
    if not np.isfinite(tr):
        raise ValueError(f"damped trace {tr!r} is not finite")
    if tr <= PROBABILITY_FLOOR:
        raise OutsideDomain(
            f"damped trace {tr:.3e} is below the probability floor; "
            "state is outside the conditioning domain"
        )
    return DensityOperator(raw / tr)


@dataclass(frozen=True)
class BranchDilation:
    """Isometry splitting a state into a kept and a discarded branch.

    Built from a function h with 0 < ||h|| and |h(k)| <= 1 for all k.
    The first branch modulates by h, the second by sqrt(1 - |h|^2);
    together they stack into an isometric 2n x n matrix, and the
    Heisenberg-picture compression is unital.
    """

    h: np.ndarray
    matrix: np.ndarray = field(init=False)

    def __post_init__(self):
        h = np.asarray(self.h, dtype=complex)
        if h.ndim != 1:
            raise ValueError(f"h must be a vector, got shape {h.shape}")
        mags = np.abs(h)
        top = float(mags.max(initial=0.0))
        if not top <= 1.0 + 1e-12:  # NaN fails this too
            raise ValueError(
                "h has a non-finite entry" if not np.isfinite(top)
                else "h must satisfy |h(k)| <= 1 for all k"
            )
        if float(np.linalg.norm(h)) == 0.0:
            raise ValueError("h must be nonzero")
        h = h.copy()
        h.setflags(write=False)
        object.__setattr__(self, "h", h)
        n = h.shape[0]
        t = np.zeros((2 * n, n), dtype=complex)
        t[:n, :] = np.diag(h)
        t[n:, :] = np.diag(self.complement())
        t.setflags(write=False)
        object.__setattr__(self, "matrix", t)

    @property
    def n(self) -> int:
        return self.h.shape[0]

    def complement(self) -> np.ndarray:
        """The second-branch modulation function sqrt(1 - |h|^2)."""
        return np.sqrt(np.clip(1.0 - np.abs(self.h) ** 2, 0.0, None))

    def heisenberg(self, operator) -> np.ndarray:
        """Unital compression t* B t of an operator on the doubled space."""
        b = _square(operator, "operator")
        if b.shape[0] != 2 * self.n:
            raise DimensionMismatch(f"expected dim {2 * self.n}, got {b.shape[0]}")
        return self.matrix.conj().T @ b @ self.matrix

    def _branch_function(self, branch: int) -> np.ndarray:
        if branch == 1:
            return self.h
        if branch == 2:
            return self.complement().astype(complex)
        raise ValueError(f"branch must be 1 or 2, got {branch}")

    def branch_probability(self, rho, branch: int) -> float:
        g = self._branch_function(branch)
        raw = schur_apply(np.outer(g, g.conj()), rho)
        return float(raw.trace().real)

    def branch_state(self, rho, branch: int) -> DensityOperator:
        """Post-measurement state of the selected branch, normalized."""
        g = self._branch_function(branch)
        return schur_channel_apply(np.outer(g, g.conj()), rho)


class Channel:
    """A linear map from states to states, tagged by construction kind.

    Kinds: "kraus", "schur", "unitary", "stochastic". A "kraus" channel
    with sum A*A below the identity, or a "schur" channel whose weight
    has a diagonal entry other than 1, does not preserve trace. `apply`
    always returns a DensityOperator, so on such a channel it raises
    when the image's trace is not 1; `apply_matrix` gives the raw image.
    A unitary channel is the rank-one Kraus form {U}: "kraus" and
    "unitary" channels both hold a Kraus stack (r, n, n) and share one
    arithmetic. A "kraus" channel may hold a stack (L, r, n, n) of
    families instead; it then acts on matrices (L, n, n) and on rows
    (L, ..., k, n), family by family. Only the stacked kernels of
    :mod:`infodyn.metrics` build one, once every family's Kraus sums pass.

    `apply_matrix` acts on one matrix or on a stack of them. A pure
    state's image is never formed as an n x n matrix: the image of
    |v><v| is W W* for the Kraus vectors W = [A_1 v ... A_r v] of a
    Kraus form {A_k} of the channel, which `kraus_vectors` returns for a
    stack of states, and `image_spectra` reads its spectrum from the
    Gram matrix W* W. Instances are immutable.
    """

    __slots__ = ("kind", "dim", "is_trace_preserving", "image_width", "_data", "_factor")

    def __init__(self, kind, dim, is_trace_preserving, data):
        dim = int(dim)
        # What `kraus_vectors` applies to a row v: the (..., n, r n) matrix whose
        # product with v lists A_1 v, ..., A_r v (kraus, unitary), or the rows
        # sqrt(g) h (r, n) of a Schur weight's spectral terms, which v multiplies
        # entrywise. `image_width` is r, the number of Kraus vectors per state (n for stochastic).
        if kind == "schur":
            factor = np.array([np.sqrt(g) * h for g, h in data.spectral_terms()],
                              dtype=complex).reshape(-1, dim)
            width = factor.shape[0]
        elif kind == "stochastic":
            factor, width = None, dim
        else:
            # (..., r, i, j) -> (..., j, r, i), then r and i flattened.
            factor = data.swapaxes(-1, -3).swapaxes(-1, -2).reshape(data.shape[:-3] + (dim, -1))
            width = data.shape[-3]
        for name, value in (("kind", kind), ("dim", dim),
                            ("is_trace_preserving", bool(is_trace_preserving)),
                            ("image_width", width), ("_data", data), ("_factor", factor)):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError("Channel is immutable")

    def __repr__(self):
        return f"Channel(kind={self.kind!r}, dim={self.dim})"

    def apply_matrix(self, m) -> np.ndarray:
        """Linear action on a matrix, or on each matrix of a stack (..., n, n)."""
        x = np.asarray(m, dtype=complex)
        if x.ndim < 2 or x.shape[-1] != x.shape[-2]:
            raise ValueError(f"operand must be a square matrix or a stack of them, got shape {x.shape}")
        if x.shape[-1] != self.dim:
            raise DimensionMismatch(f"channel dim {self.dim} vs operand {x.shape[-1]}")
        if self.kind == "schur":
            return self._data.matrix * x
        out = np.zeros_like(x)
        if self.kind == "stochastic":
            idx = np.arange(self.dim)
            out[..., idx, idx] = np.diagonal(x, axis1=-2, axis2=-1) @ self._data.astype(complex)
            return out
        # One operator at a time, so a stack never holds r products at once.
        for a in np.moveaxis(self._data, -3, 0):
            out = out + a @ x @ a.conj().mT
        return out

    def _rows(self, vectors) -> np.ndarray:
        """`vectors` (..., n) as a complex array, once its last axis is the channel's dimension."""
        v = np.asarray(vectors, dtype=complex)
        if v.ndim < 1 or v.shape[-1] != self.dim:
            raise DimensionMismatch(f"channel dim {self.dim} vs vectors of shape {v.shape}")
        return v

    def kraus_vectors(self, vectors) -> np.ndarray:
        """The Kraus vectors W = [A_1 v ... A_r v], rows (..., r, n), of each row v of `vectors`.

        The image of |v><v| is W W*; r is `image_width`. A Schur channel's
        vectors are v * sqrt(g_k) h_k, entrywise; a stochastic channel's
        image diag(q), q = |v|^2 P, has the vectors sqrt(q_i) e_i.
        """
        if self.kind == "stochastic":
            return np.sqrt(self.image_spectra(vectors))[..., None] * np.eye(self.dim)
        v = self._rows(vectors)
        if self.kind == "schur":
            return v[..., None, :] * self._factor
        # A stack of families meets the rows on their leading axes.
        f = self._factor
        w = v @ f.reshape(f.shape[:-2] + (1,) * (v.ndim - f.ndim) + f.shape[-2:])
        return w.reshape(w.shape[:-1] + (self.image_width, self.dim))

    def image_spectra(self, vectors) -> np.ndarray:
        """Spectrum of channel(|v><v|) for each row v of `vectors` (..., n).

        Returns (..., r): `_gram_spectra` of `kraus_vectors`; r is the
        number of Kraus operators (kraus), 1 (unitary) or the rank of the
        weight (schur). A stochastic channel's image is the diagonal
        distribution |v|^2 P, returned as is, with no eigensolver.
        """
        if self.kind == "stochastic":
            return (np.abs(self._rows(vectors)) ** 2) @ self._data
        return _gram_spectra(self.kraus_vectors(vectors))

    def apply(self, rho) -> DensityOperator:
        """Image of a state as a state; see the class docstring."""
        return DensityOperator(self.apply_matrix(as_density(rho).matrix))

    def __call__(self, rho):
        return self.apply(rho)

def kraus_channel(operators) -> Channel:
    """Channel from a Kraus family; requires sum A*A <= identity."""
    ops = [np.asarray(a, dtype=complex) for a in operators]
    if not ops:
        raise ValueError("at least one Kraus operator is required")
    shape = ops[0].shape
    if len(shape) != 2 or shape[0] != shape[1] or any(a.shape != shape for a in ops):
        raise DimensionMismatch("Kraus operators must share one square shape")
    stacked = np.stack(ops)
    tp = _check_kraus_sums(stacked)
    stacked.setflags(write=False)
    return Channel("kraus", shape[0], is_trace_preserving=tp, data=stacked)


def schur_channel(weight) -> Channel:
    w = as_weight(weight)
    diag = np.diagonal(w.matrix).real
    tp = bool(np.max(np.abs(diag - 1.0)) <= 1e-12)
    return Channel("schur", w.n, is_trace_preserving=tp, data=w)


def unitary_channel(u) -> Channel:
    """Conjugation by a unitary, stored as its one-operator Kraus form."""
    um = _square(u, "unitary")
    n = um.shape[0]
    _check_deviation(um.conj().T @ um - np.eye(n), UNITARY_TOL, "unitary",
                     "matrix is not unitary: deviation")
    ops = um[None].copy()
    ops.setflags(write=False)
    return Channel("unitary", n, is_trace_preserving=True, data=ops)


def identity_channel(n: int) -> Channel:
    _check_integer("n", n, 1)
    return unitary_channel(np.eye(n, dtype=complex))


def shift_channel(k: int, n: int) -> Channel:
    """Unitary conjugation by the index-shift operator."""
    return unitary_channel(shift_unitary(k, n))


def stochastic_channel(p) -> Channel:
    """Classical push-forward by a row-stochastic matrix.

    Acts on diagonal densities as the distribution map p -> p P and
    extends linearly to all matrices by reading only the diagonal.
    """
    pm = np.asarray(p, dtype=float)
    if pm.ndim != 2 or pm.shape[0] != pm.shape[1]:
        raise ValueError(f"stochastic matrix must be square, got shape {pm.shape}")
    if not np.all(pm >= -1e-14):  # NaN fails this too
        raise ValueError(
            "stochastic matrix has a non-finite entry" if np.isnan(pm).any()
            else "stochastic matrix entries must be nonnegative"
        )
    rows = pm.sum(axis=1)
    if not float(np.max(np.abs(rows - 1.0))) <= 1e-10:
        raise ValueError("stochastic matrix rows must sum to 1")
    pm = np.clip(pm, 0.0, None)
    pm.setflags(write=False)
    return Channel("stochastic", pm.shape[0], is_trace_preserving=True, data=pm)


def depolarizing_channel(n: int, p: float = 1.0) -> Channel:
    """Mixes a state toward the maximally mixed state with weight p.

    Realized as a Kraus family of discrete Weyl (shift and clock)
    unitaries; p = 1 sends every state exactly to identity / n.
    """
    _check_integer("n", n, 1)
    p = _check_real("p", p, 0.0, 1.0)
    omega = np.exp(2j * np.pi / n)
    clock = np.diag(omega ** np.arange(n))
    ops = []
    for a in range(n):
        for b in range(n):
            coeff = 1.0 - p + p / n**2 if a == 0 and b == 0 else p / n**2
            if coeff <= 0.0:
                continue
            ops.append(np.sqrt(coeff) * (shift_unitary((-a) % n, n) @
                                         np.linalg.matrix_power(clock, b)))
    return kraus_channel(ops)


def random_kraus_channel(n: int, terms: int, rng: np.random.Generator) -> Channel:
    """Random trace-preserving channel with the given Kraus rank."""
    _check_integer("n", n, 1)
    _check_integer("terms", terms, 1)
    z = _complex_gaussians(rng, 1, [(terms * n, n)])[0][0]
    return kraus_channel(_isometry_blocks(z, terms))


@dataclass(frozen=True)
class CompletePositivityReport:
    is_cp: bool
    min_eigenvalue: float
    hermiticity_error: float


def choi_matrix(channel, dim: int | None = None) -> np.ndarray:
    """Choi matrix assembled column by column from matrix units.

    `dim` is required for a bare callable; given with a Channel, it must
    equal the channel's dimension.
    """
    if isinstance(channel, Channel):
        n = channel.dim
        if dim is not None and _check_integer("dim", dim, 1) != n:
            raise DimensionMismatch(f"channel dim {n} vs dim {dim}")
        action = channel.apply_matrix
    else:
        if dim is None:
            raise ValueError("dim is required for a bare callable")
        n = _check_integer("dim", dim, 1)
        action = channel
    c = np.zeros((n * n, n * n), dtype=complex)
    for a in range(n):
        for b in range(n):
            unit = np.zeros((n, n), dtype=complex)
            unit[a, b] = 1.0
            c += _kron(unit, _square(action(unit), "image"))
    return c


def choi_check(channel, dim: int | None = None) -> CompletePositivityReport:
    """Complete-positivity test via the spectrum of the Choi matrix."""
    c = choi_matrix(channel, dim)
    herm = float(np.max(np.abs(c - c.conj().T)))
    if not herm <= 1e-8:  # NaN fails this too
        return CompletePositivityReport(False, float("nan"), herm)
    lam = np.linalg.eigvalsh(0.5 * (c + c.conj().T))
    low = float(lam[0])
    return CompletePositivityReport(low >= -CP_EIGENVALUE_TOL, low, herm)
