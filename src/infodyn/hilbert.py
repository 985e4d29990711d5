"""Finite-dimensional Hilbert space over a cyclic index set.

The state space is L2 of the set {0, ..., n-1} under counting measure,
which is C^n with the standard inner product. Index arithmetic wraps
mod n. Everything here is a dense complex matrix or vector; all values
are immutable after construction and every function is pure.

One rule reads every matrix or vector argument on the state space:
`_as_array` converts it to a complex array, and NaN, inf or an integer
beyond the float range raises ValueError "<name> has a non-finite
entry" before any arithmetic; a string, a ragged sequence or a mapping
raises ValueError "<name> must be an array of numbers, got <type>".

Entropies use the natural logarithm. Base conversion is a display
concern and lives with the report writers in `jsonio`, not here.

The package-wide private helpers live here, one per rule:
`_Frozen`, the one immutability rule, which `DensityOperator`,
`channels.Channel`, `classical.EmpiricalChannel`,
`recognition.SignalBasis`, `recognition.BellSystem` and every `_Record`
derive from (each slot set once, an array slot read-only, any later
assignment an AttributeError, a copy or an unpickled value filled the
same way), `_Record`, the records that compare, hash and print by their
fields (`channels.CompletePositivityReport`, `classical.MapSystem`,
`OrbitConfig`, `Partition` and `SweepRow`, `metrics.ComplexityConfig`,
`ChaosDegreeReport`, `ConjectureOutcome` and `AxiomResult`, and
`recognition.SamplePolicy`, `ArgmaxPolicy`, `FixedPolicy` and
`RecognitionStep`), `_check_deviation`, the one tolerance check that a
matrix equals its adjoint or the identity (a NaN deviation fails it as
"<subject> has a non-finite entry"), `_as_array`, the one conversion of
an array argument, `_square`, `_as_array` plus the check that it is one
non-empty square matrix: a state, a weight, a unitary, a signal basis, a
purpose operator or a map's image, `_check_integer`, the
integer-input rule (type, then lower bound, then cap) with its predicate
`_is_integer`, `_check_real`, the real-input rule (a finite
real number within optional closed bounds), `_brief`, the one echo of
an input value in an error message (its repr, cut at a fixed length
without building the rest), `_haar_unitaries`, the Haar
sampler, `_complex_gaussians`, the one Gaussian stream of every sampler,
`_block_starts`, the one degeneracy rule, which `_degenerate_blocks`
reads, `_self_adjoint_spectra`, the one eigendecomposition (the
self-adjointness check within HERMITIAN_TOL, the symmetrization and the
one `np.linalg.eigh`), which a state's and a Schur weight's eigenvectors
both come from, `_hermitian_part`, the one symmetrization (of a matrix
before its eigendecomposition, of a Kraus sum's excess, of a Choi
matrix and of a sampled purpose), and `_unit_trace`, the one trace
normalization, which a recognition step also applies to its new memory
before the block of memories is checked and a sampler to its Gram
matrices g g*, `_density_spectra`, the one density-operator check,
which returns the trace-normalized matrices with their spectra and which
`DensityOperator` reads for one matrix (a stack of one) and
`_density_operators` for a stack, `_unit_spectra`, the one state rule
on traces and lowest eigenvalues, which also checks images' spectra,
`_kron`, the one Kronecker product (of states, of `tensor`'s
operators and of the recognition oracles' factors), and
`_relative_entropies`, the one relative-entropy formula, for images
each against its own sigma (a sigma broadcasts over the images that
share it), which `relative_entropy` (one image) and the transmitted
complexity share.
The Kraus-form helpers that `channels` and the stacked kernels of
`metrics` use live here too, each taking one operand or a stack:
`_check_kraus_sums`, the one Kraus-sum check, which only the constructor
of `channels.Channel` calls, `_gram_fits`, the bound
under which a Gram sum sum A*A cannot overflow, which no other module
names, `_check_orthonormal`, the one unitarity check (of a unitary's
columns and of a signal basis's rows), `_isometry_blocks`, and
`_gram_spectra`, the image spectra from the Kraus vectors
W = [A_1 v ... A_r v] of pure states, which represent their images: in
closed form when the smaller Gram side min(r, n) is at most 2, through
`np.linalg.eigvalsh` otherwise. The Kraus vectors and images themselves
come from `channels.Channel` alone.
"""

from __future__ import annotations

import functools
import math
import numbers

import numpy as np

from .exceptions import DimensionMismatch

HERMITIAN_TOL = 1e-8
TRACE_TOL = 1e-8
EIGENVALUE_FLOOR = -1e-10
DEGENERACY_GAP = 1e-9
SUPPORT_TOL = 1e-12
# Largest dimensions of the constructors and samplers that build an array
# from a dimension alone, each sized so that array holds at most
# MAX_MATRIX_DIM^2 complex entries (64 MB). An n x n matrix
# (`random_unitary`, `random_density`, `shift_unitary`,
# `DensityOperator.maximally_mixed`, `channels.identity_channel`,
# `recognition.SignalBasis.fourier` and `.standard`) is built and checked
# in 2-5 s at 2048 (2-core x86-64 host, one BLAS thread), with a peak of
# about 0.5 GB; `diag_embedding` builds n^2 x n and `random_state` n.
MAX_MATRIX_DIM = 2048
MAX_EMBEDDING_DIM = int(MAX_MATRIX_DIM ** (2 / 3))
MAX_VECTOR_DIM = MAX_MATRIX_DIM ** 2


def as_vector(f) -> np.ndarray:
    v = _as_array(f, "vector")
    if v.ndim != 1:
        raise ValueError(f"expected a vector, got shape {v.shape}")
    return v


def mult_operator(g) -> np.ndarray:
    """Multiplication by the function g, as a diagonal matrix."""
    return np.diag(as_vector(g))


def shift_unitary(k: int, n: int) -> np.ndarray:
    """Unitary U_k acting by (U_k f)(m) = f((k + m) mod n)."""
    _check_integer("n", n, 1, "MAX_MATRIX_DIM", MAX_MATRIX_DIM)
    _check_integer("k", k, 0)
    if k >= n:
        raise ValueError(f"shift index must satisfy 0 <= k < {_brief(n)}, got {_brief(k)}")
    u = np.zeros((n, n), dtype=complex)
    for m in range(n):
        u[m, (k + m) % n] = 1.0
    return u


def diag_embedding(n: int) -> np.ndarray:
    """Isometry J from C^n into C^(n*n) supported on the diagonal.

    (J f)(k, l) = f(k) when k = l and 0 otherwise, with pairs (k, l)
    flattened row-major. The adjoint restricts a function on the square
    to its diagonal, so J.conj().T @ J is the identity on C^n.
    """
    _check_integer("n", n, 1, "MAX_EMBEDDING_DIM", MAX_EMBEDDING_DIM)
    j = np.zeros((n * n, n), dtype=complex)
    for k in range(n):
        j[k * n + k, k] = 1.0
    return j


def tensor(*operators) -> np.ndarray:
    """Kronecker product of two or more operators (matrices), left to right."""
    if len(operators) < 2:
        raise ValueError("tensor needs at least two operators")
    ops = [_as_array(op, "operator") for op in operators]
    for op in ops:
        if op.ndim != 2:
            raise ValueError(f"tensor takes matrices, got shape {op.shape}")
    return functools.reduce(_kron, ops)


def partial_trace(x, dims, trace_out) -> np.ndarray:
    """Trace out the listed tensor factors of a square operator.

    Parameters
    ----------
    x : array_like
        Square matrix on the tensor product of spaces with sizes `dims`.
    dims : sequence of int
        Factor dimensions, in tensor order.
    trace_out : iterable of int
        Indices (0-based) of the factors to remove.

    Returns
    -------
    ndarray
        Operator on the remaining factors, in their original order.
    """
    xm = _as_array(x, "matrix")
    dims = tuple(_check_integer("dims", d, 1) for d in dims)
    # Python ints: np.prod would wrap in int64.
    total = math.prod(dims)
    if xm.shape != (total, total):
        raise DimensionMismatch(
            f"matrix shape {xm.shape} does not factor as {_brief(dims)}"
        )
    drop = sorted(set(_check_integer("trace_out", i, 0) for i in trace_out))
    if any(i >= len(dims) for i in drop):
        raise ValueError(f"subsystem index out of range for {len(dims)} factors")
    keep = [i for i in range(len(dims)) if i not in drop]

    tensor_view = xm.reshape(dims + dims)
    k = len(dims)
    row_sub = list(range(k))
    col_sub = list(range(k, 2 * k))
    for i in drop:
        col_sub[i] = row_sub[i]
    out_sub = [row_sub[i] for i in keep] + [col_sub[i] for i in keep]
    reduced = np.einsum(tensor_view, row_sub + col_sub, out_sub)
    side = math.prod(dims[i] for i in keep)
    return reduced.reshape(side, side)


def _check_deviation(diff, tol: float, subject: str, complaint: str) -> None:
    """Raise ValueError unless every entry of `diff` is within `tol` in modulus.

    A NaN deviation fails the comparison too; it comes from a non-finite
    entry of the checked matrix and is reported as "<subject> has a
    non-finite entry". Any other failure is "<complaint> <deviation>".
    """
    dev = float(np.abs(diff).max())
    if not dev <= tol:
        raise ValueError(
            f"{subject} has a non-finite entry" if np.isnan(dev)
            else f"{complaint} {dev:.3e}"
        )


def _as_array(value, name: str) -> np.ndarray:
    """`value` as a complex array of finite entries: the one conversion of an array argument.

    NaN, inf or an integer beyond the float range raises "<name> has a
    non-finite entry" before any arithmetic; a value that is no array of
    numbers (a string, a ragged sequence, a mapping) raises "<name> must be
    an array of numbers, got <type>".
    """
    try:
        a = np.asarray(value, dtype=complex)
        if np.isfinite(a).all():
            return a
    except OverflowError:
        pass
    except (TypeError, ValueError):
        raise ValueError(f"{name} must be an array of numbers, "
                         f"got {type(value).__name__}") from None
    raise ValueError(f"{name} has a non-finite entry")


def _square(matrix, name: str) -> np.ndarray:
    """`matrix` through `_as_array`, which must then be one non-empty square matrix."""
    m = _as_array(matrix, name)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"{name} must be a square matrix, got shape {m.shape}")
    if not m.size:
        raise ValueError(f"{name} must be a non-empty matrix, got shape {m.shape}")
    return m


def _brief(value, limit: int = 80) -> str:
    """`repr(value)` for an input-error message, cut to its first `limit` characters and "...".

    Lists and dicts, the containers of JSON, tuples, strings and integers
    are rendered only as far as the cut, so a long or deeply nested value
    costs no more than its first `limit` characters, and an integer of any
    length shows its leading digits. A value whose repr fits keeps it
    unchanged.
    """
    # repr(v), or a text longer than `room` whose first `room` + 1 characters
    # are those of repr(v), up to the quotes a cut string is given.
    def head(v, room: int) -> str:
        if type(v) in (list, tuple, dict):
            text, end = {list: "[]", tuple: "()", dict: "{}"}[type(v)]
            items = (x for kv in v.items() for x in kv) if type(v) is dict else v
            for i, item in enumerate(items):
                if len(text) > room:
                    return text
                sep = ": " if i % 2 and type(v) is dict else ", " if i else ""
                text += sep + head(item, room - len(text))
            return text + ("," if type(v) is tuple and len(v) == 1 else "") + end
        if type(v) is int:
            # One division by a power of ten keeps at least room + 2 leading
            # digits, by the lower bound on the digit count that bit_length
            # gives, so a long integer is never converted whole (repr refuses
            # one of more than 4300 digits).
            shift = int((abs(v).bit_length() - 1) * math.log10(2)) - room - 2
            if shift > 0:
                return ("-" if v < 0 else "") + repr(abs(v) // 10**shift)
        return repr(v[:room + 1] if type(v) is str else v)

    text = head(value, limit)
    return text if len(text) <= limit else text[:limit] + "..."


def _is_integer(value) -> bool:
    """True for an integer, numpy's included; booleans do not count."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _check_integer(name: str, value, low: int | None = None,
                   limit_name: str | None = None, limit: int | None = None) -> int:
    """The one integer-input rule: an integer, at least `low` and at most `limit` if given.

    The type and the lower bound are checked first, then the cap named
    `limit_name`. Returns the value as a Python int, so that a numpy
    integer stored from it reaches the JSON writers as a plain number.
    """
    if not _is_integer(value) or (low is not None and value < low):
        kind = {None: "an integer", 0: "a nonnegative integer",
                1: "a positive integer"}.get(low, f"an integer >= {low}")
        raise ValueError(f"{name} must be {kind}, got {_brief(value)}")
    if limit is not None and value > limit:
        raise ValueError(f"{name}={_brief(int(value))} exceeds the limit {limit_name}={limit}")
    return int(value)


def _check_real(name: str, value, low: float | None = None, high: float | None = None) -> float:
    """The one real-input rule: a finite real number, in [low, high] where a bound is given.

    Numpy's reals count and booleans do not. Returns the value as a float.
    """
    number = math.nan
    if isinstance(value, numbers.Real) and not isinstance(value, bool):
        try:
            number = float(value)
        except OverflowError:  # an integer beyond the float range
            pass
    if not (math.isfinite(number) and (low is None or number >= low)
            and (high is None or number <= high)):
        bounds = ("" if low is None and high is None
                  else f" >= {low:g}" if high is None
                  else f" <= {high:g}" if low is None
                  else f" in [{low:g}, {high:g}]")
        raise ValueError(f"{name} must be a finite real number{bounds}, got {_brief(value)}")
    return number


def _self_adjoint_spectra(m: np.ndarray, subject: str):
    """The one eigendecomposition, of a complex square matrix or a stack (..., n, n) of them.

    Every matrix must be self-adjoint within HERMITIAN_TOL, or ValueError
    "<subject> is not self-adjoint: deviation <worst>" is raised; a NaN
    deviation is "<subject> has a non-finite entry". Returns (the
    symmetrized matrices, their eigenvalues ascending, matching
    eigenvector columns).
    """
    adjoint = m.conj().swapaxes(-1, -2)
    _check_deviation(m - adjoint, HERMITIAN_TOL, subject, f"{subject} is not self-adjoint: deviation")
    m = _hermitian_part(m, adjoint)
    return (m, *np.linalg.eigh(m))


def _hermitian_part(m: np.ndarray, adjoint=None) -> np.ndarray:
    """(m + m*) / 2 of a complex square matrix or a stack (..., n, n): the one symmetrization.

    `adjoint` is m* where the caller has it already.
    """
    return 0.5 * (m + (m.conj().swapaxes(-1, -2) if adjoint is None else adjoint))


def _unit_trace(h: np.ndarray, tr=None) -> np.ndarray:
    """Self-adjoint `h`, a matrix or a stack (..., n, n), divided by its real trace `tr`.

    The one normalization of a state's matrix; `tr` is computed when not
    given. `_density_spectra` returns it once the trace has passed the
    state rule, and a recognition step conditions on it without a
    decomposition, so the memory a step conditions on has the bits of the
    one it reports.
    """
    if tr is None:
        tr = h.trace(axis1=-2, axis2=-1).real
    return h / tr[..., None, None]


def _density_spectra(m: np.ndarray):
    """Checked spectral data of a complex square density matrix or a stack (..., n, n) of them.

    Every matrix goes through `_self_adjoint_spectra`, and its spectrum
    through `_unit_spectra`; for a stack the error names the worst
    matrix's deviation. Returns (symmetrized matrices divided by their
    traces, eigenvalues sorted descending, matching eigenvector columns);
    the spectra are those of the symmetrized matrices before the division.
    One matrix is checked as a stack of one, so it gets the bits it gets
    in any stack.
    """
    # Every comparison here and in `_unit_spectra` is written so that NaN
    # fails it; a non-finite entry is caught by the self-adjointness check.
    # eigh sorts ascending and clamping keeps the order, so reversed
    # (contiguous) copies are sorted descending.
    m, lam, vec = _self_adjoint_spectra(m, "matrix")
    tr = m.trace(axis1=-2, axis2=-1).real
    lam = _unit_spectra(tr, lam)
    return _unit_trace(m, tr), lam[..., ::-1].copy(), vec[..., ::-1].copy()


def _unit_spectra(tr, lam) -> np.ndarray:
    """Ascending spectra `lam` (..., m) of matrices with traces `tr`, checked and normalized as states'.

    The one state rule, in this order: the worst trace must be 1 within
    TRACE_TOL and the lowest eigenvalue at least EIGENVALUE_FLOOR, and a
    NaN fails either test. The eigenvalues are then clamped to 0 and
    renormalized to unit sum.
    """
    gap = np.abs(tr - 1.0)
    if not gap.max() <= TRACE_TOL:
        raise ValueError(f"trace must be 1, got {float(tr.flat[np.argmax(gap)])!r}")
    low = float(lam[..., 0].min())
    if not low >= EIGENVALUE_FLOOR:
        raise ValueError(f"matrix is not positive semidefinite: eigenvalue {low:.3e}")
    # The ufunc that np.clip(lam, 0.0, None) calls, without its wrapper.
    lam = np.maximum(lam, 0.0)
    return lam / lam.sum(axis=-1, keepdims=True)


def _block_starts(lam: np.ndarray) -> np.ndarray:
    """Whether each eigenvalue after the first starts a block, for a spectrum or a stack.

    Eigenvalues are sorted descending; a block of (near-)equal values
    ends wherever the next one is more than DEGENERACY_GAP below.
    """
    return -np.diff(lam, axis=-1) > DEGENERACY_GAP


def _degenerate_blocks(lam: np.ndarray) -> list[tuple[int, int]]:
    """Column ranges (lo, hi) of the eigenvalue blocks with more than one member."""
    cuts = [0, *(np.flatnonzero(_block_starts(lam)) + 1), lam.size]
    return [(lo, hi) for lo, hi in zip(cuts, cuts[1:]) if hi - lo > 1]


def _kron(a, b) -> np.ndarray:
    """np.kron of two matrices, or pair by pair of stacks (..., p, q) and (..., r, s), with its bits."""
    out = a[..., :, None, :, None] * b[..., None, :, None, :]
    return out.reshape(out.shape[:-4] + (a.shape[-2] * b.shape[-2], a.shape[-1] * b.shape[-1]))


class _Frozen:
    """Base of the package's immutable value types.

    A subclass declares its `__slots__` and fills them once through
    `_set`, which makes an ndarray value read-only, so it is handed a
    fresh array, never one a caller passed in. Any other assignment
    raises AttributeError "<Type> is immutable". `pickle` and `copy`
    restore a value's slots through `_set` as well.
    """

    __slots__ = ()

    def _set(self, **fields) -> None:
        # Bound once per call, not per field: each recognition step builds two values here.
        store = object.__setattr__
        for name, value in fields.items():
            if isinstance(value, np.ndarray):
                value.setflags(write=False)
            store(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __setstate__(self, state) -> None:
        # The state of a value with slots and no __dict__ is (None, slots).
        self._set(**state[1])


class _Record(_Frozen):
    """Base of the package's records: `_Frozen` values that compare, hash
    and print by their fields, the slots in order, as a dataclass does.

    Positional and keyword arguments fill the slots in order, each slot
    once; any other set of arguments raises TypeError. A record that
    checks a field or has a default, and `recognition.RecognitionStep`,
    define their own `__init__`.
    """

    __slots__ = ()

    def __init__(self, *values, **named):
        names = self.__slots__
        fields = dict(zip(names, values), **named)
        if len(values) + len(named) != len(names) or fields.keys() != set(names):
            raise TypeError(f"{type(self).__name__} takes the fields {', '.join(names) or 'none'}")
        self._set(**fields)

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        return self._fields() == other._fields() if type(other) is type(self) else NotImplemented

    def __hash__(self):
        return hash(self._fields())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"


class DensityOperator(_Frozen):
    """Positive unit-trace operator with cached spectral data.

    Construction validates self-adjointness and positivity, clamps
    eigenvalues in [-1e-10, 0) to zero, and renormalizes the spectrum
    to unit sum. Eigenvalues are stored descending with matching
    eigenvector columns. Instances are immutable. The matrix is checked
    by `_density_spectra` as a stack of one, so every slot has the bits
    of the same matrix checked in any stack.
    """

    __slots__ = ("matrix", "eigenvalues", "eigenvectors")

    def __init__(self, matrix):
        m, lam, vec = _density_spectra(_square(matrix, "density operator"))
        self._set(matrix=m, eigenvalues=lam, eigenvectors=vec)

    @property
    def n(self) -> int:
        return self.matrix.shape[0]

    @property
    def degenerate(self) -> bool:
        """Whether two eigenvalues lie within DEGENERACY_GAP of each other."""
        return bool(_degenerate_blocks(self.eigenvalues))

    @classmethod
    def from_pure(cls, vector) -> "DensityOperator":
        v = as_vector(vector)
        norm = np.linalg.norm(v)
        if norm == 0:
            raise ValueError("cannot normalize the zero vector")
        v = v / norm
        return cls(np.outer(v, v.conj()))

    @classmethod
    def maximally_mixed(cls, n: int) -> "DensityOperator":
        _check_integer("n", n, 1, "MAX_MATRIX_DIM", MAX_MATRIX_DIM)
        return cls(np.eye(n, dtype=complex) / n)

    def tensor(self, other: "DensityOperator") -> "DensityOperator":
        return DensityOperator(_kron(self.matrix, as_density(other).matrix))

    def __repr__(self):
        return f"DensityOperator(n={self.n}, degenerate={self.degenerate})"


def _density_operators(matrices: np.ndarray) -> list[DensityOperator]:
    """A DensityOperator for each matrix of a complex stack (T, n, m), checked as one.

    Each operator has the bits of `DensityOperator(matrices[t])`, and its
    slots are read-only views of the stack's spectral arrays. Raises
    ValueError when the matrices are not square, an entry is not finite
    (through `_as_array`) or any fails a check, without naming which one.
    """
    if matrices.ndim != 3 or matrices.shape[1] != matrices.shape[2]:
        raise ValueError(f"expected a stack of square matrices, got shape {matrices.shape}")
    m, lam, vec = _density_spectra(_as_array(matrices, "density operator"))
    operators = []
    for t in range(matrices.shape[0]):
        rho = DensityOperator.__new__(DensityOperator)
        rho._set(matrix=m[t], eigenvalues=lam[t], eigenvectors=vec[t])
        operators.append(rho)
    return operators


def as_density(obj) -> DensityOperator:
    """Coerce a matrix-like object to a DensityOperator."""
    if isinstance(obj, DensityOperator):
        return obj
    return DensityOperator(obj)


def _entropy_of_spectrum(lam) -> np.ndarray:
    """-sum lam ln lam over the last axis of a spectrum or a stack of them."""
    lam = np.asarray(lam)
    # 0 ln 0 = 0 by continuity: a zero (or rounding-negative) eigenvalue
    # meets ln 1 and adds a zero term. Adding 0.0 turns the -0.0 of a
    # pure spectrum into plain 0.0.
    return -(lam * np.log(np.where(lam > 0, lam, 1.0))).sum(axis=-1) + 0.0


def von_neumann_entropy(rho) -> float:
    """Entropy -Tr(rho ln rho) in nats."""
    return float(_entropy_of_spectrum(as_density(rho).eigenvalues))


def _relative_entropies(g, w, mu, v) -> np.ndarray:
    """S(W W* || sigma) for each W of rows w (..., k, r, n) with spectra `g` (..., k, m).

    Each W's sigma is given by its eigenvalues `mu` (..., n) and eigenvector
    columns `v` (..., n, n), which broadcast against w's leading axes, those
    before the k pieces. S is -H(g) - sum_j (sum_a |<v_j, w_a>|^2) ln mu_j; a
    W whose weight outside the support of its sigma exceeds 1e-10 gets +inf.
    No value depends on another W.
    """
    mu, v = mu[..., None, :], v[..., None, :, :]
    # Column-major: BLAS then sums the products with ln mu in the order that gave T its golden bits.
    weight = np.sum(np.abs(w @ v.conj()) ** 2, axis=-2).mT.copy().mT
    null = mu <= SUPPORT_TOL
    # ln 1 = 0: a direction outside the support adds a zero term.
    out = -_entropy_of_spectrum(g) - (weight @ np.log(np.where(null, 1.0, mu)).mT)[..., 0]
    if np.any(null):
        out = np.where(np.sum(weight * null, axis=-1) > 1e-10, np.inf, out)
    return out


def relative_entropy(rho, sigma) -> float:
    """Relative entropy Tr rho (ln rho - ln sigma) in nats.

    Returns +inf when the support of `rho` is not contained in the
    support of `sigma`; that is a value of the functional, not an error.
    """
    r, s = as_density(rho), as_density(sigma)
    if r.n != s.n:
        raise DimensionMismatch(f"dimensions differ: {r.n} vs {s.n}")
    # rho = W W* for the rows sqrt(lam_k) u_k of its spectral pieces: one state, one W.
    w = np.sqrt(r.eigenvalues)[:, None] * r.eigenvectors.T
    return _relative_entropies(r.eigenvalues[None], w[None], s.eigenvalues, s.eigenvectors).item()


def _haar_unitaries(z) -> np.ndarray:
    """Haar unitaries from complex Gaussian matrices z (..., k, k).

    The Q factor of each QR, with the phases of R's diagonal moved into
    its columns; without that fix the QR's phase convention biases Q.
    """
    q, r = np.linalg.qr(z)
    d = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (d / np.abs(d))[..., None, :]


def _complex_gaussians(rng: np.random.Generator, count: int, shapes) -> list[np.ndarray]:
    """Stacks (count, *shape) of standard complex Gaussian arrays, one stack per shape.

    Each of the `count` instances draws, shape by shape, the real parts
    and then the imaginary parts of its array: the stream of one
    rng.normal call per part. All are drawn as one
    rng.normal(size=(count, L)), which fills row by row, so the stream,
    and every array, does not depend on `count`. Every Gaussian sampler
    of the package draws through here.
    """
    sizes = [math.prod(shape) for shape in shapes]
    g = rng.normal(size=(count, 2 * sum(sizes)))
    out, off = [], 0
    for shape, k in zip(shapes, sizes):
        # Both parts written into one complex array, one pass each.
        z = np.empty((count, k), dtype=complex)
        z.real, z.imag = g[:, off:off + k], g[:, off + k:off + 2 * k]
        out.append(z.reshape((count, *shape)))
        off += 2 * k
    return out


def random_unitary(n: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed unitary via QR of a complex Gaussian matrix."""
    _check_integer("n", n, 1, "MAX_MATRIX_DIM", MAX_MATRIX_DIM)
    return _haar_unitaries(_complex_gaussians(rng, 1, [(n, n)])[0][0])


def random_state(n: int, rng: np.random.Generator) -> np.ndarray:
    _check_integer("n", n, 1, "MAX_VECTOR_DIM", MAX_VECTOR_DIM)
    v = _complex_gaussians(rng, 1, [(n,)])[0][0]
    return v / np.linalg.norm(v)


def random_density(n: int, rng: np.random.Generator, rank: int | None = None) -> DensityOperator:
    """Random full-rank (or fixed-rank) density operator."""
    _check_integer("n", n, 1, "MAX_MATRIX_DIM", MAX_MATRIX_DIM)
    k = n if rank is None else _check_integer("rank", rank, 1)
    if k > n:
        raise ValueError(f"rank must be in [1, {_brief(n)}], got {_brief(k)}")
    g = _complex_gaussians(rng, 1, [(n, k)])[0][0]
    return DensityOperator(_unit_trace(g @ g.conj().mT))


def _isometry_blocks(z, terms: int) -> np.ndarray:
    """Kraus stacks (..., terms, n, n) from complex Gaussians z (..., terms * n, n).

    Each is the Q factor of z's QR cut into `terms` square blocks of
    rows. The columns of Q are orthonormal, so the blocks satisfy the
    trace-preservation identity sum A*A = 1 up to rounding.
    """
    n = z.shape[-1]
    return np.linalg.qr(z)[0].reshape(z.shape[:-2] + (terms, n, n))


def _gram_fits(ops) -> bool:
    """Whether sum_k A_k* A_k of finite operators (..., r, n, n) is sure to stay finite.

    Each entry of the sum adds 2rn products of real or imaginary parts,
    and `_check_kraus_sums` adds the sum to its adjoint, so no operator
    entry above sqrt(max / 4rn) in modulus keeps both below the float
    maximum, rounding included.
    """
    # Taken first: an empty stack raises numpy's ValueError before the bound divides by 0.
    top = np.abs(ops).max()
    return bool(top <= math.sqrt(np.finfo(float).max / (4 * ops.shape[-3] * ops.shape[-1])))


def _check_orthonormal(m, tol: float, subject: str, complaint: str) -> None:
    """The one unitarity check: the columns of a finite square matrix `m` are orthonormal within `tol`.

    The Gram matrix m* m must be the identity within `tol` entrywise, or
    `_check_deviation` raises "<complaint> <deviation>". A Gram product
    that could overflow (see `_gram_fits`) is not formed and counts as an
    infinite deviation.
    """
    gram = m.conj().T @ m if _gram_fits(m[None]) else np.inf
    _check_deviation(gram - np.eye(m.shape[0]), tol, subject, complaint)


def _check_kraus_sums(ops) -> np.ndarray:
    """The one Kraus-sum check, on a Kraus stack (r, n, n) or a stack (..., r, n, n) of them.

    The operators must be finite, as `_as_array` or a QR of Gaussians
    leaves them. Raises ValueError when their sum could overflow (see
    `_gram_fits`), or when sum A*A exceeds the identity by more than 1e-10
    in its top eigenvalue (the message gives the largest such excess).
    Returns the trace-preservation flag of each stack: its sum is the
    identity within 1e-10 entrywise.
    """
    if not _gram_fits(ops):
        raise ValueError("Kraus operators have a non-finite entry")
    # Summed term by term, so a stack of stacks rounds as each stack alone.
    total = sum(a.conj().mT @ a for a in np.moveaxis(ops, -3, 0))
    gap = total - np.eye(ops.shape[-1])
    dev = np.abs(gap).max(axis=(-2, -1))
    # An n x n self-adjoint matrix has no eigenvalue above n times its
    # largest |entry|, so within 1e-10 / n the check cannot fail.
    if not dev.max() <= 1e-10 / ops.shape[-1]:
        top = float(np.linalg.eigvalsh(_hermitian_part(gap)).max())
        if not top <= 1e-10:
            raise ValueError(f"Kraus sum exceeds identity by {top:.3e}")
    return dev <= 1e-10


def _gram_spectra(w) -> np.ndarray:
    """Spectrum of the image W W* of |v><v| from the rows w (..., r, n) of Kraus vectors A_k v.

    The eigenvalues (..., s), ascending, of the smaller of W* W (r x r)
    and W W* (n x n), whose nonzero parts agree; s = min(r, n). See
    `Channel.image_spectra`.

    A side of s <= 2 has a closed form, with no eigensolver: the Gram
    matrix of the s rows of W (of W^T when n < r) is [[a, b], [b*, d]],
    with a and d their squared norms and b their inner product, and its
    spectrum is h -+ hypot((a - d) / 2, |b|), h = (a + d) / 2; for s = 1
    it is the squared norm, and for s = 0 (a rank-0 Schur weight) it is
    empty. Each norm and product is one `np.vecdot` of two rows, so an
    item of a stack gets the bits that it gets alone, whatever the
    stack's leading shape. On a (200, 8, 2, 16) stack the closed form
    takes 0.14 ms against 1.17 ms for the Gram product and `eigvalsh`
    (one x86-64 core), which at 2 x 2 spend their time in per-matrix
    overhead. A side of 3 or more forms the Gram matrix and calls
    `np.linalg.eigvalsh`.
    """
    r, n = w.shape[-2:]
    if min(r, n) > 2:
        return np.linalg.eigvalsh(w.conj() @ w.mT if r <= n else w.mT @ w.conj())
    rows = w if r <= n else w.mT
    norms = np.vecdot(rows, rows).real
    if min(r, n) < 2:
        return norms
    b = np.vecdot(rows[..., 0, :], rows[..., 1, :])
    a, d = norms[..., 0], norms[..., 1]
    h, g = (a + d) / 2, np.hypot((a - d) / 2, np.hypot(b.real, b.imag))
    return np.stack([h - g, h + g], axis=-1)

