"""Dense complex Hermitian linear algebra over labeled tensor-product spaces.

Operators carry a `SubsystemLayout` naming their tensor factors, so partial
traces and partial transposes are addressed by label rather than by axis
index.  The basis convention is the usual Kronecker one: the first factor is
the most significant index, e.g. a two-qubit basis is ordered
|00>, |01>, |10>, |11>.

Linear maps between Hermitian matrix spaces (`LinearMap`) are held by the
nonzeros of their real matrices in `svec` coordinates (`_Rows`, the type
the solver's rows share).  Every map built here is built from index
tables: a partial trace or a partial transpose from those of `svec` and
`smat`, a scaled identity from its diagonal.  So no dense matrix over the
d^2 coordinates of a large layout is formed.

Product-operator strings give the other coordinates of a layout: each
factor of dimension d has the generalized Gell-Mann basis `factor_basis(d)`,
orthonormal with I/sqrt(d) first, and a string is the tensor product of one
element per factor.  `string_rows` gives the svec rows of strings, so that
a map's rows can be taken along them: a marginal is fixed by the
coefficient tr((P (x) I) V) of each string P on its factors, and
`programs.StringRows` states each string once.

All values are immutable after construction and safe to share across
workers.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass, field
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .config import DEFAULT_TOLS


class LayoutError(ValueError):
    """Label bookkeeping went wrong (unknown label, collision, mismatch)."""


class ValidationError(ValueError):
    """A matrix failed a Hermiticity / PSD / trace invariant."""


# ---------------------------------------------------------------------------
# Layouts
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SubsystemLayout:
    """Ordered collection of labeled tensor factors."""

    factors: tuple[tuple[str, int], ...]

    def __init__(self, factors: Iterable[tuple[str, int]]):
        factors = tuple((str(lbl), int(dim)) for lbl, dim in factors)
        labels = [lbl for lbl, _ in factors]
        if len(set(labels)) != len(labels):
            raise LayoutError(f"duplicate labels in layout: {labels}")
        if any(dim < 1 for _, dim in factors):
            raise LayoutError("every factor dimension must be >= 1")
        object.__setattr__(self, "factors", factors)

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(lbl for lbl, _ in self.factors)

    @property
    def dims(self) -> tuple[int, ...]:
        return tuple(dim for _, dim in self.factors)

    @property
    def total_dim(self) -> int:
        return int(np.prod(self.dims, dtype=np.int64)) if self.factors else 1

    def dim_of(self, labels: Iterable[str]) -> int:
        by_label = dict(self.factors)
        return int(np.prod([by_label[l] for l in self._check(labels)], dtype=np.int64))

    def axes_of(self, labels: Iterable[str]) -> tuple[int, ...]:
        order = {lbl: k for k, (lbl, _) in enumerate(self.factors)}
        return tuple(order[l] for l in self._check(labels))

    def sublayout(self, labels: Iterable[str]) -> "SubsystemLayout":
        """Sub-layout of the given labels, kept in this layout's order."""
        keep = set(self._check(labels))
        return SubsystemLayout([f for f in self.factors if f[0] in keep])

    def concat(self, other: "SubsystemLayout") -> "SubsystemLayout":
        clash = set(self.labels) & set(other.labels)
        if clash:
            raise LayoutError(f"label collision between layouts: {sorted(clash)}")
        return SubsystemLayout(self.factors + other.factors)

    def _check(self, labels: Iterable[str]) -> tuple[str, ...]:
        labels = tuple(labels)
        unknown = [l for l in labels if l not in self.labels]
        if unknown:
            raise LayoutError(f"unknown labels {unknown}; layout has {self.labels}")
        return labels

    def to_json(self) -> list:
        return [[lbl, dim] for lbl, dim in self.factors]

    @staticmethod
    def from_json(data: Sequence) -> "SubsystemLayout":
        """[[label, dim], ...]; a dimension must be an integer, not a string
        or a boolean (which `operator.index` would read as 0 or 1)."""
        return SubsystemLayout([(str(l), _json_dim(d)) for l, d in data])


def _json_dim(d) -> int:
    if isinstance(d, bool):
        raise TypeError(f"dimension {d!r} is not an integer")
    return operator.index(d)


@dataclass(frozen=True)
class SubsystemSet:
    """A nonempty subset of a layout's factor labels (order: as in layout)."""

    layout: SubsystemLayout
    members: tuple[str, ...]

    def __init__(self, layout: SubsystemLayout, members: Iterable[str]):
        members = tuple(members)
        if not members:
            raise LayoutError("subsystem set must be nonempty")
        if len(set(members)) != len(members):
            raise LayoutError(f"repeated labels in subsystem set: {members}")
        layout._check(members)
        ordered = tuple(l for l in layout.labels if l in set(members))
        object.__setattr__(self, "layout", layout)
        object.__setattr__(self, "members", ordered)

    @property
    def dim(self) -> int:
        return self.layout.dim_of(self.members)

    def sublayout(self) -> SubsystemLayout:
        return self.layout.sublayout(self.members)

    def choi_with(self, inp: "SubsystemSet") -> "SubsystemSet":
        """This set as a channel's output and `inp` as its input, on the Choi layout out (x) in."""
        return SubsystemSet(self.layout.concat(inp.layout), self.members + inp.members)


# ---------------------------------------------------------------------------
# Array-level helpers (raw ndarrays + explicit dims)
# ---------------------------------------------------------------------------


def hermitize(arr: np.ndarray) -> np.ndarray:
    """Hermitian part of a square matrix, or of each matrix of a stack."""
    return (arr + np.swapaxes(arr.conj(), -1, -2)) / 2


def ptrace_array(arr: np.ndarray, dims: Sequence[int], keep_axes: Sequence[int]) -> np.ndarray:
    """Partial trace of a square matrix over the axes not in `keep_axes`."""
    n = len(dims)
    keep = sorted(keep_axes)
    t = arr.reshape(*dims, *dims)
    # trace out dropped axes one at a time, highest axis first
    for ax in sorted(set(range(n)) - set(keep), reverse=True):
        t = np.trace(t, axis1=ax, axis2=ax + t.ndim // 2)
    d = int(np.prod([dims[a] for a in keep], dtype=np.int64)) if keep else 1
    return t.reshape(d, d)


def ptranspose_array(arr: np.ndarray, dims: Sequence[int], part_axes: Sequence[int]) -> np.ndarray:
    """Transpose the designated tensor factors of a square matrix, or of each
    matrix of a stack."""
    n = len(dims)
    perm = list(range(2 * n))
    for ax in part_axes:
        perm[ax], perm[ax + n] = perm[ax + n], perm[ax]
    return _transpose_factors(arr, dims, perm)


def permute_array(arr: np.ndarray, dims: Sequence[int], perm: Sequence[int]) -> np.ndarray:
    """Reorder tensor factors of a square matrix, or of each matrix of a
    stack: axis k of the result is axis perm[k] of the input."""
    n = len(dims)
    return _transpose_factors(arr, dims, list(perm) + [p + n for p in perm])


def _transpose_factors(arr: np.ndarray, dims: Sequence[int], perm: Sequence[int]) -> np.ndarray:
    """Permute the 2n row and column factor axes of (..., d, d) matrices."""
    lead = arr.shape[:-2]
    t = arr.reshape(*lead, *dims, *dims)
    b = len(lead)
    return t.transpose(*range(b), *(b + p for p in perm)).reshape(arr.shape)


# ---------------------------------------------------------------------------
# Real coordinates of Hermitian matrices
# ---------------------------------------------------------------------------

_SQRT2 = np.sqrt(2.0)
_coords_cache: dict[int, tuple[np.ndarray, ...]] = {}


def _coords(n: int) -> tuple[np.ndarray, ...]:
    """Index tables of `svec` and `smat` for n x n matrices, over their 2n*n
    reals (re, im of each entry, row by row): svec reads reals[pos] * factor;
    smat writes coordinates[src] * scale to reals[dst], which also fills the
    conjugate mirror of each upper entry."""
    if n not in _coords_cache:
        iu, ju = np.triu_indices(n, 1)
        upper, lower = 2 * (iu * n + ju), 2 * (ju * n + iu)
        pos = np.concatenate([2 * np.arange(n) * (n + 1), np.stack([upper, upper + 1], -1).ravel()])
        factor = np.concatenate([np.ones(n), np.tile([_SQRT2, -_SQRT2], iu.size)])
        src = np.concatenate([np.arange(n * n), np.arange(n, n * n)])
        dst = np.concatenate([pos, np.stack([lower, lower + 1], -1).ravel()])
        scale = 1.0 / np.concatenate([factor, np.full(2 * iu.size, _SQRT2)])
        _coords_cache[n] = pos, factor, src, dst, scale
    return _coords_cache[n]


def svec(m: np.ndarray) -> np.ndarray:
    """Coordinates of Hermitian (..., n, n) matrices in `hermitian_basis(n)`:
    the diagonal, then sqrt2 * (Re, -Im) of each upper entry, row by row.
    The map is an isometry: svec(H) @ svec(K) == tr(H K)."""
    pos, factor = _coords(m.shape[-1])[:2]
    reals = np.ascontiguousarray(m, dtype=complex).view(np.float64)
    # `take`, unlike indexing with an array, returns rows in C order, which
    # keeps the row-wise sums of the solver member by member
    out = np.take(reals.reshape(m.shape[:-2] + (-1,)), pos, axis=-1)
    out *= factor  # in place: one large temporary fewer when building map matrices
    return out


def smat(v: np.ndarray, n: int) -> np.ndarray:
    """Inverse of `svec`: (..., n*n) real coordinates -> Hermitian (..., n, n)."""
    _, _, src, dst, scale = _coords(n)
    reals = np.zeros(v.shape[:-1] + (2 * n * n,))
    reals[..., dst] = v[..., src] * scale
    return reals.view(complex).reshape(v.shape[:-1] + (n, n))


def hermitian_basis(d: int) -> np.ndarray:
    """Orthonormal (trace inner product) basis of d x d Hermitian matrices,
    stacked: element k is `smat` of the k-th unit vector."""
    return smat(np.eye(d * d), d)


# ---------------------------------------------------------------------------
# Product-operator strings
# ---------------------------------------------------------------------------


@functools.cache
def factor_basis(d: int) -> np.ndarray:
    """The generalized Gell-Mann basis of one factor of dimension d,
    orthonormal under the trace inner product, stacked (d*d, d, d) and
    read-only: first I/sqrt(d), then for each j < k the symmetric and the
    antisymmetric element on |j>, |k>, then the d - 1 traceless diagonal
    ones (Bertlmann-Krammer, "Bloch vectors for qudits", J. Phys. A 41,
    235303 (2008)).  For a qubit these are I, X, Y and Z over sqrt(2), the
    Pauli basis.  Built on first use, once per dimension."""
    out = np.zeros((d * d, d, d), dtype=complex)
    out[0] = np.eye(d) / np.sqrt(d)
    j, k = np.triu_indices(d, 1)
    at = 1 + 2 * np.arange(j.size)
    out[at, j, k] = out[at, k, j] = 1 / _SQRT2
    out[at + 1, j, k], out[at + 1, k, j] = -1j / _SQRT2, 1j / _SQRT2
    for l in range(1, d):
        diag = np.r_[np.ones(l), -l, np.zeros(d - l - 1)] / np.sqrt(l * (l + 1))
        out[d * d - d + l, np.arange(d), np.arange(d)] = diag
    out.setflags(write=False)
    return out


def string_rows(dims: Sequence[int]) -> np.ndarray:
    """The `svec` coordinates of the product-operator strings over factors
    of dimensions `dims`, one row per string: string s is the tensor
    product, in factor order, of the `factor_basis` elements of its digits
    in the mixed radix (d_1^2, d_2^2, ...), the first factor most
    significant.  So the rows are an orthonormal basis whose first element
    is the scaled identity, and a string's support is the set of its
    nonzero digits.  Built a few strings at a time, never as one dense
    stack."""
    d = math.prod(dims)
    digits = np.unravel_index(np.arange(d * d), [k * k for k in dims]) if dims else ()
    out = np.empty((d * d, d * d))
    step = max(1, _CHUNK // (d * d))
    for lo in range(0, d * d, step):
        part = np.ones((len(out[lo:lo + step]), 1, 1), dtype=complex)
        for k, digit in zip(dims, digits):
            n, a = part.shape[:2]
            e = factor_basis(k)[digit[lo:lo + step]]
            part = (part[:, :, None, :, None] * e[:, None, :, None, :]).reshape(n, a * k, a * k)
        out[lo:lo + step] = svec(part)
    return out


# ---------------------------------------------------------------------------
# Real matrices by their nonzeros
# ---------------------------------------------------------------------------

# the entries of the temporaries of `_Rows.row_norms` and `_Rows.gram`
_CHUNK = 1 << 16
# `_Rows.gram` takes a column with more entries than this by a dense product
_HEAVY = 256


class _Rows(NamedTuple):
    """A real matrix by its nonzeros: entry (rows[t], cols[t]) is vals[t],
    each entry once.  A `LinearMap` and `solver.ConicProgram.equality_rows`
    list them row by row, with ascending columns in each row, and no zero
    value."""

    rows: np.ndarray
    cols: np.ndarray
    vals: np.ndarray
    shape: tuple[int, int]

    @staticmethod
    def of_dense(k: np.ndarray) -> "_Rows":
        rows, cols = np.nonzero(k)
        return _Rows(rows, cols, k[rows, cols], k.shape)

    @staticmethod
    def summed(rows: np.ndarray, cols: np.ndarray, vals: np.ndarray,
               shape: tuple[int, int]) -> "_Rows":
        """The matrix whose entry (r, c) is the sum of the vals at (r, c),
        added in the order given, as adding them one by one to a zero matrix
        adds them; the entries that sum to zero are left out."""
        n = max(shape[1], 1)
        keys = rows * n + cols
        order = np.argsort(keys, kind="stable")
        keys = keys[order]
        first = _first_of_runs(keys)
        sums = np.bincount(np.cumsum(first) - 1, weights=vals[order])
        nonzero = sums != 0
        rows, cols = np.divmod(keys[first][nonzero], n)
        return _Rows(rows, cols, sums[nonzero], shape)

    @property
    def T(self) -> "_Rows":
        return _Rows(self.cols, self.rows, self.vals, self.shape[::-1])

    def __matmul__(self, v: np.ndarray) -> np.ndarray:
        """The product with each vector of the stack v (..., n): a gather and
        a sum per row in the order of the entries, member by member."""
        m, n = self.shape
        flat = v.reshape(math.prod(v.shape[:-1]), n)
        count = flat.shape[0]
        bins = (np.arange(count)[:, None] * m + self.rows).reshape(-1)
        out = np.bincount(bins, weights=(flat[:, self.cols] * self.vals).reshape(-1),
                          minlength=count * m)
        return out.reshape(v.shape[:-1] + (m,))

    def product(self, other: "_Rows") -> "_Rows":
        """The matrix product with `other`, whose entries are listed row by
        row: each entry sums its products in the order of this matrix's
        entries, so an entry with one product is that product."""
        counts = np.bincount(other.rows, minlength=other.shape[0])
        reps = counts[self.cols]
        # each entry of self meets the entries of the row of `other` that its
        # column names, which start at `starts` among other's entries
        starts = np.cumsum(counts) - counts
        at = np.arange(reps.sum()) + np.repeat(starts[self.cols] - np.cumsum(reps) + reps, reps)
        return _Rows.summed(np.repeat(self.rows, reps), other.cols[at],
                            np.repeat(self.vals, reps) * other.vals[at],
                            (self.shape[0], other.shape[1]))

    def dense(self) -> np.ndarray:
        out = np.zeros(self.shape)
        out[self.rows, self.cols] = self.vals
        return out

    def row_norms(self) -> np.ndarray:
        """The 2-norm of each row (rows in order), computed on a few dense
        rows at a time so that it rounds exactly as the norm of a dense row."""
        m, n = self.shape
        step = max(1, _CHUNK // max(n, 1))
        norms = np.zeros(m)
        for start in range(0, m, step):
            lo, hi = np.searchsorted(self.rows, [start, start + step])
            chunk = np.zeros((min(step, m - start), n))
            chunk[self.rows[lo:hi] - start, self.cols[lo:hi]] = self.vals[lo:hi]
            norms[start:start + step] = np.linalg.norm(chunk, axis=1)
        return norms

    def columns(self, cols: slice) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The nonzero entries in the columns `cols`, in order, as (rows,
        columns counted from cols.start, values)."""
        at = (self.cols >= cols.start) & (self.cols < cols.stop) & (self.vals != 0)
        return self.rows[at], self.cols[at] - cols.start, self.vals[at]

    def gram(self) -> np.ndarray:
        """The Gram matrix of the rows, the sum over the columns of the
        products of the column's entries: the columns with more than
        `_HEAVY` entries by one dense product, the rest by their pairs."""
        m, n = self.shape
        counts = np.bincount(self.cols, minlength=n)
        heavy = np.flatnonzero(counts > _HEAVY)
        at = np.isin(self.cols, heavy)
        dense = np.zeros((m, heavy.size))
        dense[self.rows[at], np.searchsorted(heavy, self.cols[at])] = self.vals[at]
        out = (dense @ dense.T).reshape(-1)
        order = np.argsort(self.cols, kind="stable")
        rows, vals = self.rows[order], self.vals[order]
        # a chunk's pairs: as many as an eighth of G's entries, since each
        # chunk's sum over them is m * m entries long
        pairs = max(_CHUNK, m * m // 8)
        for _, at in _by_size(counts):
            size = at.shape[1]
            step = max(1, pairs // max(size * size, 1))
            for part in range(0, len(at) if 0 < size <= _HEAVY else 0, step):
                r, v = rows[at[part:part + step]], vals[at[part:part + step]]
                out += np.bincount((r[:, :, None] * m + r[:, None, :]).reshape(-1),
                                   weights=(v[:, :, None] * v[:, None, :]).reshape(-1),
                                   minlength=m * m)
        return out.reshape(m, m)


def _first_of_runs(items: np.ndarray) -> np.ndarray:
    """Where each run of equal consecutive items starts."""
    first = np.ones(items.size, dtype=bool)
    np.not_equal(items[1:], items[:-1], out=first[1:])
    return first


def _by_size(sizes: np.ndarray):
    """Consecutive runs of items grouped by length: for each distinct length
    L, the indices of the runs of length L and the places of their items in
    the concatenation, (runs, L)."""
    starts = np.cumsum(sizes) - sizes
    for size in np.flatnonzero(np.bincount(sizes)):
        where = np.flatnonzero(sizes == size)
        yield where, starts[where, None] + np.arange(size)


# ---------------------------------------------------------------------------
# Linear maps between Hermitian matrix spaces
# ---------------------------------------------------------------------------


class LocalForm(NamedTuple):
    """A map K on matrices over factors of dimensions `dims` as a partial
    trace followed by a map on the kept factors: K = scale inner K_tr(keep),
    with K_tr(keep) the partial trace onto the factors at the axes `keep`
    (ascending), the identity if it keeps them all, and `inner` the real
    matrix of the map after it (None: the identity)."""

    dims: tuple[int, ...]
    keep: tuple[int, ...]
    inner: np.ndarray | None
    scale: float = 1.0


class LinearMap:
    """A linear map from d_in x d_in to d_out x d_out Hermitian matrices,
    held by the nonzeros `nz` of its real (d_out^2, d_in^2) matrix K in
    `svec` coordinates, row by row: svec(apply(M)) == K svec(M).  The
    adjoint under the trace inner product has the matrix K'.  Maps compose
    with `outer @ inner`; `dense()` gives K, for a small map.

    `local` is the map's `LocalForm` (L, X), if it has one:
    `partial_trace_map` and `identity_map` set it, and composition carries
    it, outer @ (L, X) = (K_outer L, X), so a map applied after a partial
    trace has one too; after the identity, outer @ I is outer itself."""

    def __init__(self, k: np.ndarray | _Rows, local: LocalForm | None = None):
        """K, dense or by its nonzeros row by row; the map keeps a copy."""
        nz = k if isinstance(k, _Rows) else _Rows.of_dense(np.asarray(k, dtype=float))
        self.nz = _Rows(_freeze(nz.rows, np.int64), _freeze(nz.cols, np.int64),
                        _freeze(nz.vals, float), tuple(nz.shape))
        self.local = local

    @property
    def in_dim(self) -> int:
        return math.isqrt(self.nz.shape[1])

    @property
    def out_dim(self) -> int:
        return math.isqrt(self.nz.shape[0])

    def dense(self) -> np.ndarray:
        return self.nz.dense()

    def apply(self, m: np.ndarray) -> np.ndarray:
        """The map at the Hermitian part of m."""
        return smat(self.nz @ svec(hermitize(m)), self.out_dim)

    def adjoint(self, h: np.ndarray) -> np.ndarray:
        """The H' with tr(H' M) == tr(H apply(M)) for every Hermitian M."""
        return smat(self.nz.T @ svec(hermitize(h)), self.in_dim)

    def __matmul__(self, inner: "LinearMap") -> "LinearMap":
        if inner.out_dim != self.in_dim:
            raise ValueError("composed map dimensions do not match")
        local = inner.local
        if local is not None:
            if local.inner is None and local.scale == 1 and len(local.keep) == len(local.dims):
                return self  # inner is the identity
            outer = self.dense()
            local = local._replace(inner=outer if local.inner is None else outer @ local.inner)
        return LinearMap(self.nz.product(inner.nz), local)


def _copy_map(source: np.ndarray, out_dim: int, local: LocalForm | None = None) -> LinearMap:
    """The map whose adjoint copies entries: entry e (flat) of the image of
    an out_dim x out_dim H is entry source[e] of H, or 0 where source[e] is
    negative.  Row k of its matrix is svec of the image of
    `hermitian_basis(out_dim)[k]`, read off the `svec` and `smat` tables:
    svec takes coordinate c as the real pos[c] times factor[c], and the real
    of H that pos[c] copies is scale[t] in row src[t], for the one
    coordinate t that smat writes it from, if any.  So the entry is
    scale[t] * factor[c], the very product that svec of the image rounds."""
    pos, factor = _coords(math.isqrt(source.size))[:2]
    _, _, src, dst, scale = _coords(out_dim)
    writer = np.full(2 * out_dim * out_dim, -1)
    writer[dst] = np.arange(dst.size)
    # the real of H that each coordinate reads, negative where it reads a 0
    reals = 2 * source.reshape(-1)[pos // 2] + pos % 2
    t = np.where(reals >= 0, writer[np.maximum(reals, 0)], -1)
    cols = np.flatnonzero(t >= 0)
    t = t[cols]
    order = np.argsort(src[t], kind="stable")
    cols, t = cols[order], t[order]
    return LinearMap(_Rows(src[t], cols, scale[t] * factor[cols], (out_dim ** 2, pos.size)),
                     local)


def partial_trace_map(layout: SubsystemLayout, keep: Sequence[str]) -> LinearMap:
    """M on `layout` -> its partial trace onto `keep`, factors in layout order.
    The adjoint tensors with the identity on the traced-out factors.  The
    map carries its `LocalForm`, the identity after the trace onto `keep`.
    A map is immutable, so one is built per layout and kept factors, and
    every program shares it."""
    return _partial_trace_map(layout, tuple(sorted(layout.axes_of(keep))))


@functools.lru_cache(maxsize=256)
def _partial_trace_map(layout: SubsystemLayout, keep_axes: tuple[int, ...]) -> LinearMap:
    n = len(layout.dims)
    drop = [a for a in range(n) if a not in keep_axes]
    order = list(keep_axes) + drop
    d_keep = math.prod(layout.dims[a] for a in keep_axes)
    # the entry of H that each entry of H (x) I copies, in layout order: the
    # entries of H are numbered from 1, so that the zeros of I become -1
    source = np.kron(np.arange(1, d_keep * d_keep + 1).reshape(d_keep, d_keep),
                     np.eye(layout.total_dim // d_keep, dtype=np.int64)) - 1
    dims, back = [layout.dims[a] for a in order], [order.index(a) for a in range(n)]
    return _copy_map(permute_array(source, dims, back), d_keep,
                     LocalForm(layout.dims, tuple(keep_axes), None))


def identity_map(d: int, scale: float = 1.0) -> LinearMap:
    """scale I on d x d matrices: the partial trace onto one factor, scaled."""
    diag = np.arange(d * d)
    return LinearMap(_Rows(diag, diag, np.full(d * d, scale), (d * d,) * 2),
                     LocalForm((d,), (0,), None, scale))


def _basis_entries(d: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The rows, columns and values, each (d*d, 2), of the nonzero entries
    of each element of `hermitian_basis(d)`, read from the `smat` tables
    (where coordinate k writes its upper entry, and coordinate k >= d its
    mirror too): two, or one (a diagonal element) repeated with the value 0."""
    _, _, _, dst, scale = _coords(d)
    k = np.arange(d * d)
    at = np.stack([k, np.where(k < d, k, d * d + k - d)], axis=-1)
    vals = scale[at] * np.where(dst[at] % 2 == 1, 1j, 1.0)
    vals[:d, 1] = 0
    return *np.divmod(dst[at] // 2, d), vals


# the bytes of the rearranged G that `LocalSchur` holds at once: with the
# copies its product makes, about a core's L2 share
_LOCAL_CHUNK_BYTES = 1 << 18
_TERMS_CHUNK = 1 << 20  # the entries of S_XY whose term tables `LocalSchur` builds at once


class LocalSchur:
    """Schur blocks of partial traces by local contraction.  For the partial
    traces onto the factor sets X and Y (axes, ascending) over factors of
    dimensions `dims`, and each member G of a stack (count, d, d), the block
    is S_XY[j, i] = tr(A_j G B_i G), with A_j and B_i the Hermitian matrices
    of row j of the one map and row i of the other.  Row j of the partial
    trace onto X is the basis element H_j on X tensored with the identity on
    the rest, so, with the rows of G ordered (X, rest) and its columns
    (Y, rest),

        S_XY[j, i] = Re sum_(a,b,c,e) H_j[a,b] H_i[c,e] T[(b,c),(a,e)],
        T = P P',  P[(b,c),(r,s)] = G[(b,r),(c,s)]:

    one product of a (d_X d_Y, d_Xrest d_Yrest) rearrangement of G by its
    conjugate transpose, never a d x d product per row.  Each H has at most
    two nonzero entries, each real or imaginary, and the terms of the sum
    come in conjugate pairs, so each entry of S_XY is a weighted sum of two
    reals of T.  A map with the `LocalForm` (L, X) has the rows L K_tr(X),
    so its block with a map of form (L', Y) is L S_XY L'^T.  Keeping every
    factor, S is G (x)_s G, by O(d^4) work.

    Built once for the kept sets `keeps`; a call gives S for every pair
    (i, j), i <= j, of them.  The pairs of equal (d_X, d_Y) share their
    index tables and their stacked products; a pair holds its term tables
    only if one chunk covers them (see `_schur_terms`)."""

    def __init__(self, dims: Sequence[int], keeps: Sequence[Sequence[int]]):
        n, d = len(dims), math.prod(dims)
        grid = np.arange(d).reshape(dims)
        # the place among G's rows of (b, r), b on the kept factors and r on
        # the rest, and so of P's entries among G's, d * (b, r) + (c, s)
        order = [grid.transpose(*keep, *[a for a in range(n) if a not in keep]).reshape(
            math.prod(dims[a] for a in keep), -1) for keep in keeps]
        by_shape: dict[tuple[int, int], list] = {}
        for i in range(len(keeps)):
            for j in range(i, len(keeps)):
                by_shape.setdefault((len(order[i]), len(order[j])), []).append((i, j))
        # per shape, the pairs, the rows and columns of G in their P, (d_X,
        # d_Y), and the term tables, if held
        self.shapes = [(pairs, np.stack([order[i] * d for i, _ in pairs])[:, :, None, :, None],
                        np.stack([order[j] for _, j in pairs])[:, None, :, None, :], dx, dy,
                        list(_schur_terms(dx, dy)) if dx * dx * dy * dy <= _TERMS_CHUNK else None)
                       for (dx, dy), pairs in by_shape.items()]

    def __call__(self, g: np.ndarray) -> dict[tuple[int, int], np.ndarray]:
        count, d = g.shape[0], g.shape[-1]
        flat = g.reshape(count, -1)
        out = {}
        for pairs, rows, cols, dx, dy, held in self.shapes:
            step = max(1, _LOCAL_CHUNK_BYTES // (16 * count * d * d))
            for start in range(0, len(pairs), step):
                part = slice(start, start + step)
                places = rows[part] + cols[part]      # (pairs, d_X, d_Y, rest_X, rest_Y)
                p = np.take(flat, places.reshape(len(places), dx * dy, -1), axis=1)
                t = p @ np.swapaxes(p.conj(), -1, -2)
                reals = t.reshape(t.shape[:2] + (-1,)).view(np.float64)
                s = np.empty(reals.shape[:2] + (dx * dx, dy * dy))
                for j, at, weight in held or _schur_terms(dx, dy):
                    np.add(np.take(reals, at[0], axis=-1) * weight[0],
                           np.take(reals, at[1], axis=-1) * weight[1], out=s[:, :, j])
                out.update((pair, s[:, k]) for k, pair in enumerate(pairs[part]))
        return out


def _schur_terms(dx: int, dy: int):
    """Per chunk of rows j of S_XY (see `LocalSchur`), the rows j, and the
    places among the reals of T and the weights, each (2, rows, dy*dy), of
    the two terms of each entry.  The terms of (j, i) are those of the first
    entry (a, b) of H_j with each entry (c, e) of H_i; each stands for
    itself and its conjugate, the term of (b, a) and (e, c), unless H_j is
    diagonal.  A product of two entries is real or imaginary, so each term
    is one real of T."""
    a, b, vx = _basis_entries(dx)
    c, e, vy = _basis_entries(dy)
    step = max(1, _TERMS_CHUNK // (dy * dy))
    for start in range(0, dx * dx, step):
        j = slice(start, start + step)
        coeff = (vx[j, 0] * np.where(a[j, 0] == b[j, 0], 1, 2))[:, None, None] * vy
        place = ((b[j, :1, None] * dy + c) * dx + a[j, :1, None]) * dy + e
        imag = coeff.imag != 0
        at, weight = 2 * place + imag, np.where(imag, -coeff.imag, coeff.real)
        yield j, np.moveaxis(at, -1, 0).copy(), np.moveaxis(weight, -1, 0).copy()


def partial_transpose_map(layout: SubsystemLayout, part: Sequence[str]) -> LinearMap:
    """Transpose the factors `part` of M on `layout` (a self-adjoint map)."""
    d = layout.total_dim
    entries = np.arange(d * d).reshape(d, d)
    return _copy_map(ptranspose_array(entries, layout.dims, layout.axes_of(part)), d)


# ---------------------------------------------------------------------------
# Operator types
# ---------------------------------------------------------------------------


def _freeze(arr: np.ndarray, dtype=complex) -> np.ndarray:
    """A read-only copy."""
    out = np.array(arr, dtype=dtype)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class HermitianOperator:
    """A dense Hermitian matrix over a labeled tensor-product space, equal to
    another and hashed by its layout and the bytes of its read-only entries."""

    layout: SubsystemLayout
    entries: np.ndarray = field(repr=False)

    def __init__(self, layout: SubsystemLayout, entries: np.ndarray):
        entries = np.asarray(entries, dtype=complex)
        d = layout.total_dim
        if entries.shape != (d, d):
            raise ValidationError(f"entries shape {entries.shape} != layout dim {d}")
        if not np.isfinite(entries).all():  # a NaN would pass the Hermiticity test
            raise ValidationError("entries must be finite numbers")
        dev = float(np.max(np.abs(entries - entries.conj().T))) if d else 0.0
        if dev > DEFAULT_TOLS.hermiticity:
            raise ValidationError(f"not Hermitian: max |M - M^dag| = {dev:.3e}")
        object.__setattr__(self, "layout", layout)
        object.__setattr__(self, "entries", _freeze(hermitize(entries)))

    def __eq__(self, other) -> bool:
        return (isinstance(other, HermitianOperator) and self.layout == other.layout
                and self.entries.tobytes() == other.entries.tobytes())

    def __hash__(self) -> int:
        return hash((self.layout, self.entries.tobytes()))

    @property
    def dim(self) -> int:
        return self.layout.total_dim

    def trace(self) -> float:
        return float(np.trace(self.entries).real)

    def min_eig(self) -> float:
        return float(np.linalg.eigvalsh(self.entries)[0])

    def to_json(self) -> dict:
        return {"layout": self.layout.to_json(), "data": matrix_to_json(self.entries)}

    @staticmethod
    def from_json(data: dict) -> "HermitianOperator":
        layout = SubsystemLayout.from_json(data["layout"])
        return HermitianOperator(layout, matrix_from_json(data["data"]))


@dataclass(frozen=True)
class DensityMatrix:
    """Unit-trace PSD Hermitian operator."""

    op: HermitianOperator

    def __init__(self, op: HermitianOperator):
        if op.min_eig() < -DEFAULT_TOLS.psd:
            raise ValidationError(f"not PSD: min eigenvalue {op.min_eig():.3e}")
        if abs(op.trace() - 1.0) > DEFAULT_TOLS.trace:
            raise ValidationError(f"trace {op.trace()} != 1")
        object.__setattr__(self, "op", op)

    @property
    def layout(self) -> SubsystemLayout:
        return self.op.layout

    @property
    def entries(self) -> np.ndarray:
        return self.op.entries

    @property
    def dim(self) -> int:
        return self.op.dim

    @staticmethod
    def from_array(layout: SubsystemLayout, entries: np.ndarray) -> "DensityMatrix":
        return DensityMatrix(HermitianOperator(layout, entries))

    def to_json(self) -> dict:
        return self.op.to_json()

    @staticmethod
    def from_json(data: dict) -> "DensityMatrix":
        return DensityMatrix(HermitianOperator.from_json(data))


# ---------------------------------------------------------------------------
# Operations
# ---------------------------------------------------------------------------


def tensor(a: HermitianOperator, b: HermitianOperator) -> HermitianOperator:
    """Kronecker product on concatenated layouts."""
    return HermitianOperator(a.layout.concat(b.layout), np.kron(a.entries, b.entries))


def partial_trace(a: HermitianOperator, keep: SubsystemSet) -> HermitianOperator:
    """Trace out all factors outside `keep`; result keeps the original order."""
    if keep.layout != a.layout:
        raise LayoutError("subsystem set refers to a different layout")
    axes = a.layout.axes_of(keep.members)
    out = ptrace_array(a.entries, a.layout.dims, axes)
    return HermitianOperator(a.layout.sublayout(keep.members), out)


def partial_transpose(a: HermitianOperator, part: SubsystemSet) -> HermitianOperator:
    """Transpose the factors in `part`, leaving the rest untouched."""
    if part.layout != a.layout:
        raise LayoutError("subsystem set refers to a different layout")
    axes = a.layout.axes_of(part.members)
    return HermitianOperator(a.layout, ptranspose_array(a.entries, a.layout.dims, axes))


def permute_factors(a: HermitianOperator, new_order: Sequence[str]) -> HermitianOperator:
    """Reorder the tensor factors to the given label order."""
    if sorted(new_order) != sorted(a.layout.labels):
        raise LayoutError(f"{new_order} is not a permutation of {a.layout.labels}")
    perm = a.layout.axes_of(new_order)
    out = permute_array(a.entries, a.layout.dims, perm)
    layout = SubsystemLayout([a.layout.factors[p] for p in perm])
    return HermitianOperator(layout, out)


def eig_hermitian(a: HermitianOperator) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition with a canonical basis of each eigenspace.

    Eigenvalues ascend.  Eigenvalues within 1e-12 * max(1, |lambda|max) of
    the first of their cluster share an eigenspace, whose basis is its
    spectral projector's images of e_0, e_1, ..., orthonormalized in order
    (an image is skipped when its part outside the earlier ones has norm
    below 1e-12).  So the basis depends only on the projector, not on the
    vectors LAPACK returns; for a cluster of one it is the eigenvector whose
    first non-negligible component is real positive.
    """
    vals, vecs = np.linalg.eigh(a.entries)
    scale = max(1.0, float(np.max(np.abs(vals)))) if vals.size else 1.0
    out = np.empty_like(vecs)
    i = 0
    while i < len(vals):
        j = i + 1
        while j < len(vals) and vals[j] - vals[i] <= 1e-12 * scale:
            j += 1
        out[:, i:j] = _canonical_basis(vecs[:, i:j])
        i = j
    return vals, out


def _canonical_basis(v: np.ndarray) -> np.ndarray:
    """Gram-Schmidt, in order, of the images v v' e_m of the standard basis
    vectors under the projector onto the span of the orthonormal columns of v."""
    basis = np.zeros((v.shape[0], 0), dtype=v.dtype)
    for row in v.conj():
        w = v @ row
        for _ in range(2):   # orthogonal to rounding error after the second pass
            w = w - basis @ (basis.conj().T @ w)
        norm = np.linalg.norm(w)
        if norm > 1e-12:
            basis = np.column_stack([basis, w / norm])
            if basis.shape[1] == v.shape[1]:
                break
    return basis


def trace_norm(a: HermitianOperator | np.ndarray) -> float:
    m = a.entries if isinstance(a, HermitianOperator) else np.asarray(a)
    return float(np.sum(np.abs(np.linalg.eigvalsh(m))))


# ---------------------------------------------------------------------------
# Matrix JSON round-tripping
# ---------------------------------------------------------------------------


def matrix_to_json(m: np.ndarray) -> list:
    """Row-major nested list of [re, im] pairs (floats round-trip exactly)."""
    m = np.asarray(m, dtype=complex)
    return [[[float(x.real), float(x.imag)] for x in row] for row in m]


def matrix_from_json(data: Sequence) -> np.ndarray:
    """Inverse of `matrix_to_json`; every re and im must be a JSON number."""
    rows = [[complex(_json_real(re), _json_real(im)) for re, im in row] for row in data]
    return np.array(rows, dtype=complex)


_FLOAT_MAX = float(np.finfo(float).max)  # an integer beyond it has no float


def _json_real(x) -> float:
    """A JSON number that is finite as a float; `not <=` also refuses NaN."""
    if isinstance(x, bool) or not isinstance(x, (int, float)) or not abs(x) <= _FLOAT_MAX:
        raise ValueError(f"matrix entry {x!r} is not a finite number")
    return float(x)
