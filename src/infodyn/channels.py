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
their Kraus vectors, which the chaos degree and the transmitted
complexity in :mod:`infodyn.metrics` both read, through one kernel that
forms their Gram spectra once (the spectra `Channel.image_spectra`
gives). The decomposition search reads the
images of a block's rotated columns through
`Channel.rotated_image_spectra`, which rotates the block's Kraus vectors
instead of its columns where the vectors are a product with the Kraus
operators. A Gram side of at most 2, as for a unitary, a rank-2 Kraus
family or any channel at dimension 2, has its spectrum in closed form
(`hilbert._gram_spectra`). A Schur channel's Kraus operators are
diagonal, so its vectors are entrywise products of the state with the
rows sqrt(g) h of its weight's spectral terms. The Kraus-form
arithmetic lives in `Channel` alone. A "kraus" channel may hold a stack
of Kraus families, one per item, which only the stacked kernels of
:mod:`infodyn.metrics` build; they read it through the same methods as
the per-item paths, and its `families`, the stack's leading shape, lets
the single-channel functions refuse it. A constructor that takes a
dimension `n` checks it through `hilbert._check_integer` first.

A Schur weight is a channel's data, a plain matrix. One rule,
`_schur_weight`, checks it (self-adjoint, no negative eigenvalue) and
gives its factor rows, from `hilbert._self_adjoint_spectra`, the one
eigendecomposition; a unitary is checked by `hilbert._check_orthonormal`,
the one unitarity check. Linear damping by a weight has one route, a
Schur channel's `apply_matrix`, which forms the one entrywise product
with its overflow bound; `schur_apply_from_terms` sums the same damping
over explicit spectral terms and is kept only as its test oracle.
Trace-normalized damping, which conditions a state on a weight, is not
a channel: it divides by the trace of the damped output, so it is
nonlinear and partial. :func:`schur_channel_apply` takes a Schur
channel's `apply_matrix` and normalizes it, and its inputs with
vanishing damped trace raise :class:`~infodyn.exceptions.OutsideDomain`.
The damped trace has one sum, `_damped_trace`; a non-finite one raises
ValueError, with no overflow warning.
Every matrix or vector argument read here, from a state or a Kraus
operator to the operand of `Channel.apply_matrix`, goes through
`hilbert._as_array`, so a NaN, inf or too-large entry raises ValueError
naming it before any arithmetic. A finite entry large enough for a Kraus
or unitary Gram sum, a damping product or a stochastic row sum to
overflow raises the error of the rule it breaks before that arithmetic,
with no RuntimeWarning first; so does a row of `kraus_vectors` or
`image_spectra` above the channel's row bound (see `Channel._rows`), and
a row of a block whose norm is above it, where a Kraus or unitary
channel's `rotated_image_spectra` rotates the block's Kraus vectors.
"""

from __future__ import annotations

import math

import numpy as np

from .exceptions import DimensionMismatch, OutsideDomain
from .hilbert import (
    EIGENVALUE_FLOOR,
    MAX_MATRIX_DIM,
    MAX_VECTOR_DIM,
    DensityOperator,
    _Frozen,
    _Record,
    _as_array,
    _brief,
    _check_integer,
    _check_kraus_sums,
    _check_orthonormal,
    _check_real,
    _complex_gaussians,
    _gram_spectra,
    _hermitian_part,
    _isometry_blocks,
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
# Largest `choi_matrix` dimension: the Choi matrix is n^2 x n^2, so n^4
# complex entries stay within the MAX_MATRIX_DIM^2 budget (64 MB) for
# n^2 <= MAX_MATRIX_DIM. Written block by block, it takes about 0.1 s at
# 32 and 0.36 s at 45 for a rank-2 Kraus channel, with a 99 MB peak
# resident size, 36 MB before the call (2-core x86-64 host, one BLAS thread).
MAX_CHOI_DIM = math.isqrt(MAX_MATRIX_DIM)
UNITARY_TOL = 1e-10
CP_EIGENVALUE_TOL = 1e-9


def _schur_weight(matrix) -> tuple[np.ndarray, np.ndarray]:
    """The one weight rule: a Schur weight's symmetrized matrix and its factor rows.

    The weight must be positive semidefinite; the null matrix is allowed,
    and the weight need not have unit trace. The rows are sqrt(g_k) h_k,
    one per eigenvalue g_k above 1e-14 with its eigenvector h_k.
    """
    m, lam, vec = _self_adjoint_spectra(_square(matrix, "weight"), "weight")
    if not float(lam[0]) >= EIGENVALUE_FLOOR:
        raise ValueError(f"weight has negative eigenvalue {float(lam[0]):.3e}")
    kept = lam > 1e-14
    return m, np.sqrt(lam[kept])[:, None] * vec[:, kept].T


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

    The damping is `schur_channel(weight).apply_matrix(rho)`, so the weight
    is checked as that channel checks it, before the state is read. A
    weight of another dimension than the state raises DimensionMismatch
    "weight dim <n> vs state dim <m>". A state with a non-finite entry
    raises ValueError as it is read, and a non-finite damped trace before
    any division; a finite one at or below PROBABILITY_FLOOR raises
    OutsideDomain.
    """
    channel = schur_channel(weight)
    m = rho.matrix if isinstance(rho, DensityOperator) else _square(rho, "state")
    if channel.dim != m.shape[0]:
        raise DimensionMismatch(f"weight dim {channel.dim} vs state dim {m.shape[0]}")
    raw = channel.apply_matrix(m)
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
    positive semidefinite weight matrix, which the channel holds, made
    exactly self-adjoint, as its data; "stochastic", a row-stochastic
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
    one. `families` is the leading shape of such a stack, () for one
    channel of any kind.

    `apply_matrix` acts on one matrix or on a stack of them. A pure
    state's image is never formed as an n x n matrix: the image of
    |v><v| is W W* for the Kraus vectors W = [A_1 v ... A_r v] of a
    Kraus form {A_k} of the channel, which `kraus_vectors` returns for a
    stack of states, and `image_spectra` reads its spectrum from the
    Gram matrix W* W. `rotated_image_spectra` reads the spectra of the
    columns of a block rotated by a stack of unitaries, rotating the
    block's W where W is linear in v through the factor (kraus, unitary).
    Instances are immutable and hold a copy of their data, so a caller's
    array stays the caller's.
    """

    __slots__ = ("kind", "dim", "is_trace_preserving", "image_width", "families", "_data", "_factor",
                 "_row_bound")

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
            data, factor = _schur_weight(data)
            tp = bool(np.max(np.abs(np.diagonal(data).real - 1.0)) <= 1e-12)
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
        dim = data.shape[-1]
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
        self._set(kind=kind, dim=dim, is_trace_preserving=tp, image_width=width,
                  families=data.shape[:-3], _data=data, _factor=factor, _row_bound=bound)

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
            # The one damping product. Entry by entry, |w| |x| within the float
            # maximum, less 0.1 % for rounding, keeps both parts of it finite.
            if not (np.abs(x) <= 0.999 * np.finfo(float).max / np.maximum(np.abs(self._data), 1.0)).all():
                raise ValueError("damped state has a non-finite entry")
            return self._data * x
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

    def rotated_image_spectra(self, block, rotations, columns) -> np.ndarray:
        """`image_spectra` of columns `columns` of block @ u, for each unitary u of `rotations` (..., k, k).

        `block` (n, k) holds k vectors as its columns, and `columns`, an
        index array, picks the k' rotated columns read; returns (..., k', s)
        for the side s of `image_spectra`. A Kraus vector is linear in its
        vector, A_a (block @ u)_j = sum_i u_ij A_a b_i, so a "kraus" or
        "unitary" channel rotates the block's Kraus vectors B, W = u^T B, in
        one (k' x k)(k x r n) product for the whole stack and forms no
        rotated vector; its spectra agree with `image_spectra` of the
        rotated columns to rounding. A unitary keeps the norm of each
        row of the block, which bounds every entry of block @ u, so there a
        row whose norm is above the row bound raises ValueError "vector has
        a non-finite entry". A Schur or stochastic channel reads a C-ordered
        copy of the rotated columns through `image_spectra`, with its bits,
        so a candidate's spectrum is summed in one order at any chunk size.
        A stack of Kraus families raises ValueError.
        """
        if self.families:
            raise ValueError(f"expected one channel, got a stack of {self.families} Kraus families")
        v = _as_array(block, "vector")
        if self.kind in ("schur", "stochastic"):
            return self.image_spectra(np.ascontiguousarray((v @ rotations)[..., columns].mT))
        b = self.kraus_vectors(v.T)
        if not float(np.sqrt(np.vecdot(v, v).real).max(initial=0.0)) <= self._row_bound:
            raise ValueError("vector has a non-finite entry")
        u = rotations[..., columns]
        k = b.shape[0]
        if u.shape[-2] != k:
            raise DimensionMismatch(f"block of {k} columns vs rotations of shape {u.shape}")
        w = u.mT.reshape(-1, k) @ b.reshape(k, -1)
        return _gram_spectra(w.reshape(u.shape[:-2] + (u.shape[-1],) + b.shape[1:]))

    def apply(self, rho) -> DensityOperator:
        """Image of a state as a state; see the class docstring."""
        return DensityOperator(self.apply_matrix(as_density(rho).matrix))


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
    """Conjugation by the identity, `shift_unitary(0, n)`, which checks `n` against MAX_MATRIX_DIM."""
    return unitary_channel(shift_unitary(0, n))


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
    """Random trace-preserving channel with the given Kraus rank.

    Its `terms` Kraus operators hold terms * n^2 complex entries, which
    must stay within the MAX_MATRIX_DIM^2 budget (MAX_VECTOR_DIM): 2^20
    terms of 1 x 1 take about 4 s (2-core x86-64 host), most of it in the
    term-by-term sum of `hilbert._check_kraus_sums`.
    """
    n = _check_integer("n", n, 1, "MAX_MATRIX_DIM", MAX_MATRIX_DIM)
    terms = _check_integer("terms", terms, 1)
    # Python ints, so the product cannot wrap as a numpy integer's would.
    _check_integer("terms * n^2", terms * n * n, 1, "MAX_VECTOR_DIM", MAX_VECTOR_DIM)
    z = _complex_gaussians(rng, 1, [(terms * n, n)])[0][0]
    return Channel("kraus", _isometry_blocks(z, terms))


class CompletePositivityReport(_Record):
    """`is_cp` (bool), the lowest Choi eigenvalue `min_eigenvalue` (NaN
    when the Choi matrix is not self-adjoint) and `hermiticity_error`,
    the largest entry of its deviation from self-adjoint (floats)."""

    __slots__ = ("is_cp", "min_eigenvalue", "hermiticity_error")


def choi_matrix(channel, dim: int | None = None) -> np.ndarray:
    """Choi matrix sum_ab E_ab (x) action(E_ab), written block by block from matrix units.

    `dim` is required for a bare callable, at most MAX_CHOI_DIM; given
    with a Channel, it must equal the channel's dimension. An image of
    another dimension raises DimensionMismatch.
    """
    if isinstance(channel, Channel):
        n = channel.dim
        if dim is not None and _check_integer("dim", dim, 1) != n:
            raise DimensionMismatch(f"channel dim {n} vs dim {_brief(dim)}")
        action = channel.apply_matrix
    else:
        if dim is None:
            raise ValueError("dim is required for a bare callable")
        n = _check_integer("dim", dim, 1, "MAX_CHOI_DIM", MAX_CHOI_DIM)
        action = channel
    # Block (a, b) of the Choi matrix, c[a, :, b, :], is the image of E_ab.
    c = np.zeros((n, n, n, n), dtype=complex)
    for a in range(n):
        for b in range(n):
            unit = np.zeros((n, n), dtype=complex)
            unit[a, b] = 1.0
            image = _square(action(unit), "image")
            if image.shape[0] != n:
                raise DimensionMismatch(f"map dim {n} vs image dim {image.shape[0]}")
            # Added to zeros, as the Kronecker sum adds it, so a -0.0 reads 0.0.
            c[a, :, b, :] += image
    return c.reshape(n * n, n * n)


def choi_check(channel, dim: int | None = None) -> CompletePositivityReport:
    """Complete-positivity test via the spectrum of the Choi matrix."""
    c = choi_matrix(channel, dim)
    herm = float(np.max(np.abs(c - c.conj().T)))
    if not herm <= 1e-8:  # NaN fails this too
        return CompletePositivityReport(False, float("nan"), herm)
    lam = np.linalg.eigvalsh(_hermitian_part(c))
    low = float(lam[0])
    return CompletePositivityReport(low >= -CP_EIGENVALUE_TOL, low, herm)
