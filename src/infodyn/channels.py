"""Channels on finite-dimensional state spaces.

Four concrete families of linear channels cover everything the rest of
the package needs: Kraus-sum channels, entrywise (Schur) damping by a
positive weight matrix, unitary conjugation, and the classical
row-stochastic push-forward embedded on diagonal densities.

A `Channel` is built from its kind and its data alone. The constructor
derives the dimension and the trace-preservation flag from the data, by
the rule of each kind, and checks the data as that kind requires, so the
flag is decided here and nowhere else; each factory below only shapes its
argument. A "kraus" stack preserves trace when `hilbert._check_kraus_sums`
passes every family of it, a Schur channel when its weight's diagonal is
1 within 1e-12; a unitary must pass `hilbert._check_orthonormal` and a
stochastic matrix must be real, nonnegative and row-stochastic, and both
preserve trace.

A `Channel` acts on one matrix or on a stack (..., n, n) of them.
`Channel.kraus_vectors` gives the images of a stack of pure states as
their Kraus vectors, which the chaos degree (through the Gram spectra of
`Channel.image_spectra`) and the transmitted complexity in
:mod:`infodyn.metrics` both read. A Gram side of at most 2, as for a
unitary, a rank-2 Kraus family or any channel at dimension 2, has its
spectrum in closed form (`hilbert._gram_spectra`). A Schur channel's Kraus operators are
diagonal, so its vectors are entrywise products of the state with the
rows sqrt(g) h of its weight's spectral terms. The Kraus-form
arithmetic lives in `Channel` alone. A "kraus" channel may hold a stack
of Kraus families, one per item, which only the stacked kernels of
:mod:`infodyn.metrics` build; they read it through the same methods as
the per-item paths. A constructor that takes a dimension `n` checks it
through `hilbert._check_integer` first.

Linear damping by a weight has one public route, a Schur channel's
`apply_matrix`; `schur_apply_from_terms` sums the same damping over
explicit spectral terms and is kept only as its test oracle.
Trace-normalized damping, which conditions a state on a weight, is not
a channel: it divides by the trace of the damped output, so it is
nonlinear and partial. It lives in :func:`schur_channel_apply`, whose
inputs with vanishing damped trace raise
:class:`~infodyn.exceptions.OutsideDomain`. The damping itself has one
entrywise product, `_damped`, with its overflow bound, which
`schur_channel_apply` and a Schur channel's `apply_matrix` share. The
damped trace has one sum, `_damped_trace`; a non-finite one raises
ValueError, with no overflow warning. A Schur weight is
decomposed by `hilbert._self_adjoint_spectra`, the one
eigendecomposition, and a unitary is checked by
`hilbert._check_orthonormal`, the one unitarity check.
Every matrix or vector argument read here, from a state or a Kraus
operator to the operand of `Channel.apply_matrix`, goes through
`hilbert._as_array`, so a NaN, inf or too-large entry raises ValueError
naming it before any arithmetic. A finite entry large enough for a Kraus
or unitary Gram sum, a damping product or a stochastic row sum to
overflow raises the error of the rule it breaks before that arithmetic,
with no RuntimeWarning first; so does a row of `kraus_vectors` or
`image_spectra` above the channel's row bound (see `Channel._rows`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .exceptions import DimensionMismatch, OutsideDomain
from .hilbert import (
    EIGENVALUE_FLOOR,
    DensityOperator,
    _Frozen,
    _as_array,
    _brief,
    _check_integer,
    _check_kraus_sums,
    _check_orthonormal,
    _check_real,
    _complex_gaussians,
    _gram_spectra,
    _isometry_blocks,
    _kron,
    _self_adjoint_spectra,
    _square,
    as_density,
    mult_operator,
    shift_unitary,
)

PROBABILITY_FLOOR = 1e-12
# Largest `depolarizing_channel` dimension. The channel holds n^2 Kraus
# operators of n x n, so n^4 complex entries: 16 MB, built in about 0.1 s
# at 32 (2-core x86-64 host, one BLAS thread).
MAX_DEPOLARIZING_DIM = 32
UNITARY_TOL = 1e-10
CP_EIGENVALUE_TOL = 1e-9


class SchurWeight(_Frozen):
    """Positive semidefinite weight for entrywise damping.

    The null matrix is allowed; the weight need not have unit trace.
    Instances are immutable.
    """

    __slots__ = ("matrix", "_weights", "_vectors")

    def __init__(self, matrix):
        m, lam, vec = _self_adjoint_spectra(_square(matrix, "weight"), "weight")
        if not float(lam[0]) >= EIGENVALUE_FLOOR:
            raise ValueError(f"weight has negative eigenvalue {float(lam[0]):.3e}")
        kept = lam > 1e-14
        self._set(matrix=m, _weights=lam[kept], _vectors=vec[:, kept].T.copy())

    @property
    def n(self) -> int:
        return self.matrix.shape[0]

    def spectral_terms(self) -> list[tuple[float, np.ndarray]]:
        """One (coefficient, function) pair per positive eigenvalue."""
        return [(float(g), h) for g, h in zip(self._weights, self._vectors)]


def as_weight(obj) -> SchurWeight:
    if isinstance(obj, SchurWeight):
        return obj
    return SchurWeight(obj)


def _damped(weight: np.ndarray, m: np.ndarray) -> np.ndarray:
    """The one damping product: `weight` times a matrix or each matrix of a stack (..., n, n), entrywise.

    A product that could overflow raises ValueError "damped state has a
    non-finite entry" before it is taken, with no warning.
    """
    # Entry by entry, |w| |m| within the float maximum, less 0.1 % for
    # rounding, keeps both parts of the product finite.
    if not (np.abs(m) <= 0.999 * np.finfo(float).max / np.maximum(np.abs(weight), 1.0)).all():
        raise ValueError("damped state has a non-finite entry")
    return weight * m


def schur_apply_from_terms(terms, rho) -> np.ndarray:
    """Damping evaluated from an explicit spectral representation.

    `terms` is a sequence of (coefficient, function) pairs. Kept as the
    definitional route and the test oracle of the production route, a
    Schur channel's `apply_matrix`.
    """
    m = rho.matrix if isinstance(rho, DensityOperator) else _square(rho, "state")
    out = np.zeros_like(m)
    for gamma, h in terms:
        o = mult_operator(h)
        out = out + gamma * (o @ m @ o.conj().T)
    return out


def _damped_trace(raw: np.ndarray) -> float:
    """The real trace of a damped state; a non-finite one raises ValueError, with no warning."""
    d = raw.diagonal()
    # n terms of modulus up to max / 2n sum without overflow. Larger ones are
    # summed at a power-of-two scale, which keeps their bits, and scaled back
    # by a Python product, which overflows to inf without numpy's warning.
    if np.abs(d).max() <= np.finfo(float).max / (2 * d.size):
        tr = float(d.sum().real)
    else:
        scale = 2.0 ** d.size.bit_length()
        tr = float((d / scale).sum().real) * scale
    if not np.isfinite(tr):
        raise ValueError(f"damped trace {tr!r} is not finite")
    return tr


def schur_channel_apply(weight, rho) -> DensityOperator:
    """Trace-normalized entrywise damping (w o rho) / tr(w o rho); nonlinear and partial.

    A weight of another dimension than the state raises DimensionMismatch
    "weight dim <n> vs state dim <m>". A state with a non-finite entry
    raises ValueError as it is read, and a non-finite damped trace before
    any division; a finite one at or below PROBABILITY_FLOOR raises
    OutsideDomain.
    """
    w = as_weight(weight)
    m = rho.matrix if isinstance(rho, DensityOperator) else _square(rho, "state")
    if w.n != m.shape[0]:
        raise DimensionMismatch(f"weight dim {w.n} vs state dim {m.shape[0]}")
    raw = _damped(w.matrix, m)
    tr = _damped_trace(raw)
    if tr <= PROBABILITY_FLOOR:
        raise OutsideDomain(
            f"damped trace {tr:.3e} is below the probability floor; "
            "state is outside the conditioning domain"
        )
    return DensityOperator(raw / tr)


class Channel(_Frozen):
    """A linear map from states to states, tagged by construction kind.

    Built as `Channel(kind, data)`, with the data of its kind: "kraus", a
    Kraus stack (r, n, n); "unitary", an n x n unitary matrix; "schur", a
    positive weight matrix or `SchurWeight`; "stochastic", a row-stochastic
    matrix. The constructor derives `dim` and `is_trace_preserving` from
    the data and raises ValueError on data of the wrong form, on data its
    kind's check rejects and on any other kind. A "kraus" channel with sum
    A*A below the identity, or a "schur" channel whose weight has a
    diagonal entry other than 1, does not preserve trace. `apply`
    always returns a DensityOperator, so on such a channel it raises
    when the image's trace is not 1; `apply_matrix` gives the raw image.
    A unitary channel is the rank-one Kraus form {U}: "kraus" and
    "unitary" channels both hold a Kraus stack (r, n, n) and share one
    arithmetic. A "kraus" channel may hold a stack (L, r, n, n) of
    families instead; it then acts on matrices (L, n, n) and on rows
    (L, ..., k, n), family by family, and preserves trace only if every
    family does. Only the stacked kernels of :mod:`infodyn.metrics` build
    one.

    `apply_matrix` acts on one matrix or on a stack of them. A pure
    state's image is never formed as an n x n matrix: the image of
    |v><v| is W W* for the Kraus vectors W = [A_1 v ... A_r v] of a
    Kraus form {A_k} of the channel, which `kraus_vectors` returns for a
    stack of states, and `image_spectra` reads its spectrum from the
    Gram matrix W* W. Instances are immutable and hold a copy of their
    data, so a caller's array stays the caller's.
    """

    __slots__ = ("kind", "dim", "is_trace_preserving", "image_width", "_data", "_factor", "_row_bound")

    def __init__(self, kind, data):
        # Each kind reads its data, derives the trace-preservation flag, and
        # sets what `kraus_vectors` applies to a row v: the (..., n, r n)
        # matrix whose product with v lists A_1 v, ..., A_r v (kraus, unitary),
        # or the rows sqrt(g) h (r, n) of a Schur weight's spectral terms, which
        # v multiplies entrywise. `image_width` is r, the number of Kraus
        # vectors per state (n for stochastic).
        if kind == "kraus":
            data = _as_array(data, "Kraus operator").copy()
            if data.ndim < 3 or data.shape[-1] != data.shape[-2] or not data.size:
                raise ValueError(f"Kraus stack must have shape (..., r, n, n), got {data.shape}")
            tp = bool(_check_kraus_sums(data).all())
        elif kind == "unitary":
            data = _square(data, "unitary")[None].copy()
            _check_orthonormal(data[0], UNITARY_TOL, "unitary", "matrix is not unitary: deviation")
            tp = True
        elif kind == "schur":
            data = as_weight(data)
            tp = bool(np.max(np.abs(np.diagonal(data.matrix).real - 1.0)) <= 1e-12)
            factor = np.array([np.sqrt(g) * h for g, h in data.spectral_terms()]).reshape(-1, data.n)
            width = factor.shape[0]
        elif kind == "stochastic":
            p = _square(data, "stochastic matrix")
            # n entries of at most max / n sum without overflow; a larger one fails the row rule.
            rows = p.real.sum(axis=1) if p.real.max() <= np.finfo(float).max / p.shape[0] else np.inf
            for broken, rule in ((np.any(p.imag), "must be real"),
                                 (not np.all(p.real >= -1e-14), "entries must be nonnegative"),
                                 (not np.max(np.abs(rows - 1.0)) <= 1e-10, "rows must sum to 1")):
                if broken:
                    raise ValueError(f"stochastic matrix {rule}")
            data, tp, factor, width = np.clip(p.real, 0.0, None), True, None, p.shape[0]
        else:
            raise ValueError("channel kind must be one of ('kraus', 'schur', 'unitary', "
                             f"'stochastic'), got {_brief(kind)}")
        dim = data.n if kind == "schur" else data.shape[-1]
        if kind in ("kraus", "unitary"):
            # (..., r, i, j) -> (..., j, r, i), then r and i flattened.
            factor = data.swapaxes(-1, -3).swapaxes(-1, -2).reshape(data.shape[:-3] + (dim, -1))
            width = data.shape[-3]
        # The bound of `_rows`. A Kraus vector entry sums n products of an entry of v
        # with one of the factor (of P, stochastic) of modulus at most `scale`, and an
        # image's trace sums the r n squared moduli of such entries. Rows within the
        # bound keep both, and every Gram entry and eigenvalue below the trace, under a
        # sixteenth of the float maximum.
        scale = float(np.abs(data if factor is None else factor).max(initial=0.0))
        bound = math.sqrt(np.finfo(float).max / (4 * max(width, 1) * dim)) / (2 * dim * max(scale, 1.0))
        self._set(kind=kind, dim=dim, is_trace_preserving=tp,
                  image_width=width, _data=data, _factor=factor, _row_bound=bound)

    def __repr__(self):
        return f"Channel(kind={self.kind!r}, dim={self.dim})"

    def apply_matrix(self, m) -> np.ndarray:
        """Linear action on a matrix, or on each matrix of a stack (..., n, n)."""
        x = _as_array(m, "operand")
        if x.ndim < 2 or x.shape[-1] != x.shape[-2]:
            raise ValueError(f"operand must be a square matrix or a stack of them, got shape {x.shape}")
        if x.shape[-1] != self.dim:
            raise DimensionMismatch(f"channel dim {self.dim} vs operand {x.shape[-1]}")
        if self.kind == "schur":
            return _damped(self._data.matrix, x)
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
        """`vectors` (..., n) as a complex array, once its last axis is the channel's dimension.

        An entry above the channel's row bound, past which a Kraus vector or
        an image's spectrum could overflow, raises ValueError "vector has a
        non-finite entry" before any arithmetic.
        """
        v = _as_array(vectors, "vector")
        if v.ndim < 1 or v.shape[-1] != self.dim:
            raise DimensionMismatch(f"channel dim {self.dim} vs vectors of shape {v.shape}")
        if not float(np.abs(v).max(initial=0.0)) <= self._row_bound:
            raise ValueError("vector has a non-finite entry")
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

        Returns (..., min(r, n)): `_gram_spectra` of `kraus_vectors`; r
        is the number of Kraus operators (kraus), 1 (unitary) or the rank
        of the weight (schur). A side min(r, n) of at most 2 is read in
        closed form, larger ones through `np.linalg.eigvalsh`. A stochastic
        channel's image is the diagonal distribution |v|^2 P, returned as
        is (..., n), with no eigensolver.
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
    ops = [_as_array(a, "Kraus operator") for a in operators]
    if not ops:
        raise ValueError("at least one Kraus operator is required")
    shape = ops[0].shape
    if len(shape) != 2 or shape[0] != shape[1] or any(a.shape != shape for a in ops):
        raise DimensionMismatch("Kraus operators must share one square shape")
    if not shape[0]:
        raise ValueError(f"Kraus operator must be a non-empty matrix, got shape {shape}")
    return Channel("kraus", np.stack(ops))


def schur_channel(weight) -> Channel:
    return Channel("schur", weight)


def unitary_channel(u) -> Channel:
    """Conjugation by a unitary, stored as its one-operator Kraus form."""
    return Channel("unitary", u)


def identity_channel(n: int) -> Channel:
    _check_integer("n", n, 1)
    return unitary_channel(np.eye(n, dtype=complex))


def stochastic_channel(p) -> Channel:
    """Classical push-forward by a row-stochastic matrix.

    Acts on diagonal densities as the distribution map p -> p P and
    extends linearly to all matrices by reading only the diagonal.
    """
    return Channel("stochastic", p)


def depolarizing_channel(n: int, p: float = 1.0) -> Channel:
    """Mixes a state toward the maximally mixed state with weight p.

    Realized as a Kraus family of discrete Weyl (shift and clock)
    unitaries; p = 1 sends every state exactly to identity / n.
    """
    _check_integer("n", n, 1, "MAX_DEPOLARIZING_DIM", MAX_DEPOLARIZING_DIM)
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
            raise DimensionMismatch(f"channel dim {n} vs dim {_brief(dim)}")
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
