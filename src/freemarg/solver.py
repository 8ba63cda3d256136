"""Dense semidefinite programming over complex Hermitian blocks.

Programs are stated over complex Hermitian PSD matrix variables with affine
equality constraints and affine PSD inequalities.  The solver iterates on
the complex Hermitian blocks themselves; a block of order d has d*d real
coordinates (`svec`) in the orthonormal `hermitian_basis(d)`.  The method is
a primal-dual interior-point method with Nesterov-Todd scaling on a
homogeneous self-dual model, so primal infeasibility and unboundedness
surface as explicit certificates instead of garbage numbers.

A constraint term applies a linear map to a block.  The maps (partial
traces, partial transposes and the other maps on tensor factors) are built
once in `herm`, each as a `LinearMap` holding its real matrix in `svec`
coordinates, and the solver sees only that matrix: it places the matrix in
the block's columns and knows nothing of tensor factors.

`compile` builds the equality rows by their nonzeros and normalizes them to
A_n.  The rank comes from a QR factor of the dense A_n' (only the small
triangular factor gets an SVD); rows of full rank stay as they are, others
are reduced to A = U_r' A_n.  A large block keeps its rows of A_n by their
nonzeros, and its part of the Schur complement is assembled in those rows:
G A_l G is one small product over the nonzero entries of A_l, and
tr(A_k G A_l G) a sum over the nonzeros of A_k.  A small block uses the
dense product in the rows of A.  In a program with a large block, a
Cholesky factor of the Gram matrix A_n A_n' first tries to show full rank;
if it does, A stays by its nonzeros to the end, and A x and A' y are
gathers and segment sums.  Other programs multiply by the dense A.

One loop, `solve_many`, solves a program for a batch of objectives on
stacked iterates; `solve` is its one-member case.  The solver is
deterministic: no randomized pivoting, identical inputs give identical
iterates, and a member's iterates do not depend on the rest of its batch.
Enable DEBUG on the ``freemarg.solver`` logger for a per-iteration
diagnostic trace.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from enum import Enum
from typing import NamedTuple, Sequence

import numpy as np

from .config import DEFAULT_TOLS
from .herm import LinearMap, _coords, hermitize, smat, svec


class SolverFailure(RuntimeError):
    """The interior-point method could not certify any status."""


class Status(str, Enum):
    OPTIMAL = "Optimal"
    INFEASIBLE = "Infeasible"
    UNBOUNDED = "Unbounded"
    NUMERICAL_FAILURE = "NumericalFailure"


@dataclass
class SolverSettings:
    gap_tol: float = DEFAULT_TOLS.gap
    feas_tol: float = DEFAULT_TOLS.feas
    max_iters: int = 200


# ---------------------------------------------------------------------------
# Program construction
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BlockRef:
    name: str
    cdim: int
    index: int


@dataclass
class _EqGroup:
    name: str
    rows: slice
    scalar: bool
    # per term, a block and its coefficients in the group's rows: a matrix
    # over the block's columns, or alpha for alpha times the identity
    terms: list[tuple[BlockRef, np.ndarray | float]]


@dataclass
class _PsdGroup:
    name: str
    slack: BlockRef


# a block and the map applied to it; a map of None is the identity
Term = tuple[BlockRef, LinearMap | None]


class ConicProgram:
    """Block-structured SDP: min/max sum_j tr(C_j X_j) over PSD blocks X_j
    subject to affine equalities and affine-PSD inequality constraints.
    Equality rows are kept as their terms (a map's matrix is shared, not
    copied) and assembled by `compile`."""

    def __init__(self):
        self.blocks: list[BlockRef] = []
        self._offsets: list[int] = []
        self._rhs: list[float] = []
        self.eq_groups: list[_EqGroup] = []
        self.psd_groups: list[_PsdGroup] = []
        self._c: np.ndarray | None = None
        self.sense: int = +1  # +1 minimize, -1 maximize
        self._compiled: dict | None = None

    # -- construction ------------------------------------------------------

    def add_variable(self, name: str, cdim: int) -> BlockRef:
        ref = BlockRef(name, int(cdim), len(self.blocks))
        self._append_block(ref)
        return ref

    def _append_block(self, ref: BlockRef):
        if any(b.name == ref.name for b in self.blocks):
            raise ValueError(f"duplicate block name {ref.name!r}")
        start = self.num_cols
        self.blocks.append(ref)
        self._offsets.append(start)
        self._compiled = None

    def _append_rows(self, name: str, terms: list, rhs: np.ndarray, scalar: bool):
        start = len(self._rhs)
        self._rhs.extend(rhs)
        self.eq_groups.append(_EqGroup(name, slice(start, len(self._rhs)), scalar, terms))
        self._compiled = None

    @staticmethod
    def _map_terms(name: str, terms: Sequence[Term], d: int) -> list:
        """Each map's matrix (1.0 for the identity), checked against the d x d output."""
        for ref, lmap in terms:
            out = ref.cdim if lmap is None else lmap.out_dim
            if out != d:
                raise ValueError(f"constraint {name!r}: term output dim {out} != {d}")
        return [(ref, 1.0 if lmap is None else lmap.k) for ref, lmap in terms]

    @property
    def num_cols(self) -> int:
        if not self.blocks:
            return 0
        return self._offsets[-1] + self.blocks[-1].cdim ** 2

    def block_slice(self, ref: BlockRef) -> slice:
        start = self._offsets[ref.index]
        return slice(start, start + ref.cdim ** 2)

    def add_scalar_equality(self, name: str, terms: Sequence[tuple[BlockRef, np.ndarray]],
                            rhs: float):
        """sum_j tr(probe_j X_j) = rhs."""
        self._append_rows(name, [(ref, svec(hermitize(np.asarray(probe, dtype=complex)))[None])
                                 for ref, probe in terms], [float(rhs)], True)

    def add_matrix_equality(self, name: str, terms: Sequence[Term], rhs: np.ndarray):
        """sum_j map_j(X_j) = rhs, one row per svec coordinate of the output."""
        rhs = hermitize(np.asarray(rhs, dtype=complex))
        self._append_rows(name, self._map_terms(name, terms, rhs.shape[0]), svec(rhs), False)

    def add_psd_inequality(self, name: str, terms: Sequence[Term],
                           const: np.ndarray | None = None):
        """sum_j map_j(X_j) + const >= 0 (PSD), via a slack block S and the
        rows sum_j map_j(X_j) - S = -const."""
        dims = {ref.cdim if lmap is None else lmap.out_dim for ref, lmap in terms}
        if len(dims) != 1:
            raise ValueError(f"constraint {name!r}: mismatched term dimensions {sorted(dims)}")
        (d,) = dims
        slack = BlockRef(f"{name}.slack", d, len(self.blocks))
        self._append_block(slack)
        rhs = np.zeros((d, d), dtype=complex) if const is None else -np.asarray(const, complex)
        self._append_rows(f"{name}.def", self._map_terms(name, terms, d) + [(slack, -1.0)],
                          svec(hermitize(rhs)), False)
        self.psd_groups.append(_PsdGroup(name, slack))

    def objective_vector(self, terms: Sequence[tuple[BlockRef, np.ndarray]]) -> np.ndarray:
        """The cost vector of sum_j tr(C_j X_j) over the program's columns."""
        c = np.zeros(self.num_cols)
        for ref, coeff in terms:
            c[self.block_slice(ref)] += svec(hermitize(np.asarray(coeff, dtype=complex)))
        return c

    def set_objective(self, terms: Sequence[tuple[BlockRef, np.ndarray]], sense: str = "min"):
        if sense not in ("min", "max"):
            raise ValueError("sense must be 'min' or 'max'")
        self.sense = +1 if sense == "min" else -1
        self._c = self.objective_vector(terms)

    @property
    def objective(self) -> np.ndarray:
        """The cost vector set by `set_objective` (zero if none was set)."""
        return self._c if self._c is not None else np.zeros(self.num_cols)

    def with_objective(self, terms, sense: str = "min") -> "ConicProgram":
        """Cheap copy sharing constraint data; only the objective differs."""
        import copy

        clone = copy.copy(self)
        clone.set_objective(terms, sense)
        return clone

    # -- compilation -------------------------------------------------------

    def equality_rows(self) -> tuple["_Rows", np.ndarray]:
        """The equality rows by their nonzeros, row by row, and their
        right-hand sides."""
        m, n = len(self._rhs), self.num_cols
        parts = [(np.zeros(0, dtype=np.int64), np.zeros(0))]
        for g in self.eq_groups:
            for ref, coeff in g.terms:
                start = self.block_slice(ref).start
                if isinstance(coeff, float):
                    diag = np.arange(ref.cdim ** 2)
                    parts.append(((g.rows.start + diag) * n + start + diag,
                                  np.full(diag.size, coeff)))
                else:
                    i, j = np.nonzero(coeff)
                    parts.append(((g.rows.start + i) * n + start + j, coeff[i, j]))
        keys = np.concatenate([k for k, _ in parts])
        order = np.argsort(keys, kind="stable")
        keys = keys[order]
        first = _first_of_runs(keys)
        # entries shared by terms are summed in the order of the terms, as
        # adding the terms to a zero matrix one by one sums them
        vals = np.bincount(np.cumsum(first) - 1,
                           weights=np.concatenate([v for _, v in parts])[order])
        nonzero = vals != 0
        rows, cols = np.divmod(keys[first][nonzero], max(n, 1))
        return _Rows(rows, cols, vals[nonzero], (m, n)), np.array(self._rhs)

    def compile(self) -> dict:
        """Assemble (A, b), normalize and rank-reduce the equality rows.  The
        objective is not part of the compiled data, so every objective of the
        program shares it."""
        if self._compiled is not None:
            return self._compiled
        a, b = self.equality_rows()
        m, n = a.shape

        norms = a.row_norms()
        keep = norms > 1e-14
        bad = (~keep) & (np.abs(b) > 1e-12)
        inconsistent_zero_row = bool(np.any(bad))
        d_inv = np.where(keep, 1.0 / np.where(keep, norms, 1.0), 0.0)
        a_n = a._replace(vals=a.vals * d_inv[a.rows])
        b_n = b * d_inv
        nonzeros = [a_n.columns(self.block_slice(blk)) for blk in self.blocks]
        sparse = any(_BlockRows.sparse(rows, blk.cdim)
                     for (rows, _, _), blk in zip(nonzeros, self.blocks))

        if m > 0:
            # a program without a large block keeps the dense A, and so the
            # rounding of its products, to which feasible sets without an
            # interior point are sensitive
            if sparse and _full_rank(a_n):  # the rows themselves are a basis
                r, u_r, a_red, b_red = m, np.eye(m), a_n, b_n
            else:
                # A_n = R' Q' with Q orthonormal, so A_n and R' share their
                # singular values and left singular vectors, and R has m
                # columns and at most m rows
                a_n = a_n.dense()
                rfac = np.linalg.qr(a_n.T, mode="r")
                u, sv, _ = np.linalg.svd(rfac.T, full_matrices=False)
                rank_tol = (sv[0] if sv.size else 0.0) * max(m, n) * 1e-13
                r = int(np.sum(sv > max(rank_tol, 1e-13)))
                if r == m:  # full row rank: the rows themselves are a basis
                    u_r, a_red, b_red = np.eye(m), a_n, b_n
                else:
                    u_r = u[:, :r]
                    a_red = u_r.T @ a_n
                    b_red = u_r.T @ b_n
            b_perp = b_n - u_r @ b_red
        else:
            r = 0
            u_r = np.zeros((0, 0))
            a_red = np.zeros((0, n))
            b_red = np.zeros(0)
            b_perp = np.zeros(0)

        self._compiled = {
            "A": a_red, "b": b_red,
            "u_r": u_r, "d_inv": d_inv,
            "b_perp": b_perp,
            "inconsistent_zero_row": inconsistent_zero_row,
            "dims": [blk.cdim for blk in self.blocks],
            "block_rows": [_BlockRows.of(nz, blk.cdim, None if isinstance(a_red, _Rows)
                                         else a_red[:, self.block_slice(blk)])
                           for nz, blk in zip(nonzeros, self.blocks)],
        }
        return self._compiled

    # -- value helpers -----------------------------------------------------

    def unpack_blocks(self, x: np.ndarray) -> dict[str, np.ndarray]:
        """svec vector -> complex Hermitian matrix per block."""
        out = {}
        for blk in self.blocks:
            out[blk.name] = smat(x[self.block_slice(blk)], blk.cdim)
        return out

    def equality_dual(self, name: str, y: np.ndarray) -> np.ndarray | float:
        for g in self.eq_groups:
            if g.name == name:
                ys = y[g.rows]
                if g.scalar:
                    return float(ys[0])
                return smat(ys, math.isqrt(ys.size))
        raise KeyError(name)


@dataclass
class SolveResult:
    status: Status
    primal_value: float
    dual_value: float
    primal_blocks: dict[str, np.ndarray] = field(default_factory=dict)
    dual_multipliers: dict[str, object] = field(default_factory=dict)
    gap: float = np.nan
    iterations: int = 0
    residuals: dict = field(default_factory=dict)
    certificate: dict | None = None

    @property
    def optimal(self) -> bool:
        return self.status == Status.OPTIMAL


# ---------------------------------------------------------------------------
# The homogeneous self-dual interior-point engine
# ---------------------------------------------------------------------------


_log = logging.getLogger("freemarg.solver")


def _ct(m: np.ndarray) -> np.ndarray:
    """Conjugate transpose of each matrix of a stack."""
    return np.swapaxes(m.conj(), -1, -2)


def _mv(mat: "np.ndarray | _Rows", v: np.ndarray) -> np.ndarray:
    """mat @ v for each vector of the stack v (..., n), member by member: a
    dense mat makes one product per member, since a 2-D product of the whole
    stack could sum in another order."""
    if isinstance(mat, _Rows):
        return mat @ v
    return np.matmul(mat, v[..., None])[..., 0]


def _dot(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Inner products of stacked real vectors, member by member."""
    return np.sum(u * v, axis=-1)


def _cap(step: np.ndarray, v: np.ndarray, dv: np.ndarray) -> np.ndarray:
    """`step` capped where v + step*dv would leave the positive half-line."""
    return np.minimum(step, np.divide(v, -dv, out=np.full_like(step, np.inf), where=dv < 0))


class _Blocks:
    """Pack/unpack between stacked svec vectors and per-block matrices."""

    def __init__(self, dims: Sequence[int]):
        self.dims = list(dims)
        self.slices = []
        pos = 0
        for n in self.dims:
            self.slices.append(slice(pos, pos + n * n))
            pos += n * n

    def unpack(self, v):
        return [smat(v[..., sl], n) for sl, n in zip(self.slices, self.dims)]

    def pack(self, mats):
        return np.concatenate([svec(m) for m in mats], axis=-1)


# the entries of the temporaries of `_Rows.row_norms` and `_Rows.gram`
_CHUNK = 1 << 20


class _Rows(NamedTuple):
    """A matrix by its nonzeros: entry (rows[t], cols[t]) is vals[t], each
    entry once.  `ConicProgram.equality_rows` lists them row by row, with
    ascending columns in each row."""

    rows: np.ndarray
    cols: np.ndarray
    vals: np.ndarray
    shape: tuple[int, int]

    @property
    def T(self) -> "_Rows":
        return _Rows(self.cols, self.rows, self.vals, self.shape[::-1])

    def __matmul__(self, v: np.ndarray) -> np.ndarray:
        """The product with each vector of the stack v (..., n): a gather and
        a sum per row in the order of the entries, member by member."""
        m, n = self.shape
        flat = v.reshape(-1, n)
        count = flat.shape[0]
        bins = (np.arange(count)[:, None] * m + self.rows).reshape(-1)
        out = np.bincount(bins, weights=(flat[:, self.cols] * self.vals).reshape(-1),
                          minlength=count * m)
        return out.reshape(v.shape[:-1] + (m,))

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
        products of the column's entries."""
        m, n = self.shape
        order = np.argsort(self.cols, kind="stable")
        rows, vals = self.rows[order], self.vals[order]
        out = np.zeros(m * m)
        for _, at in _by_size(np.bincount(self.cols, minlength=n)):
            size = at.shape[1]
            step = max(1, _CHUNK // max(size * size, 1))
            for part in range(0, len(at) if size else 0, step):
                r, v = rows[at[part:part + step]], vals[at[part:part + step]]
                out += np.bincount((r[:, :, None] * m + r[:, None, :]).reshape(-1),
                                   weights=(v[:, :, None] * v[:, None, :]).reshape(-1),
                                   minlength=m * m)
        return out.reshape(m, m)


def _full_rank(a: _Rows) -> bool:
    """Whether the rows of a are independent, by far: a Cholesky factor of
    G - t I, with G the Gram matrix and t = 10 m eps tr(G), exists only if
    lambda_min(G) > t up to its own rounding error, which is about m eps
    ||G||, and tr(G) >= ||a||^2.  Then sigma_min(a) is far above the rank
    threshold of `compile`; a False may still be full rank."""
    gram = a.gram()
    m = gram.shape[0]
    shift = 10 * m * np.finfo(float).eps * np.trace(gram)
    try:
        np.linalg.cholesky(gram - shift * np.eye(m))
    except np.linalg.LinAlgError:
        return False
    return True


# A block's part of the Schur complement comes from its rows' nonzeros when
# the dense product, n d^3 + n^2 d^2 multiply-adds per member for n rows on a
# block of order d, is larger than this; below it the nonzero path's many
# small array operations cost more than they save
_SPARSE_SCHUR_MACS = 1 << 24
# the bytes of P_l the nonzero path holds at once, about a core's L2 share
_SCHUR_CHUNK_BYTES = 1 << 19


class _BlockRows(NamedTuple):
    """One block's rows, laid out for its part of the Schur complement,
    tr(A_k G A_l G) = a_k . svec(P_l) with P_l = G A_l G.

    A small block keeps `mats`, the matrices A_l of its rows of the reduced
    A, for the dense product, and adds its part to M.  A large block keeps
    its rows of A_n by their nonzeros, in `products` and `segments`, and adds
    its part to M_n.  `rows` are the rows kept, those with a nonzero in the
    block, ascending; `products` and `segments` each hold (where, ...) for
    the rows `rows[where]`.  A product entry holds the rows' dense A_l, or,
    for rows with s < d nonzero entries, A_l = sum_t v_t e_(i_t) e_(j_t)',
    the index and value arrays (left, right, v), each (rows, 2s), of the real
    product in `add_schur`.  A segment entry holds, for rows with L nonzero
    svec coordinates p, the places of those coordinates among P's reals and
    a_k[p] times svec's factor, each (rows, L)."""

    rows: np.ndarray
    mats: np.ndarray | None
    products: list
    segments: list

    @staticmethod
    def sparse(rows: np.ndarray, d: int) -> bool:
        """Whether a block of order d, whose nonzeros lie in `rows`, takes
        the nonzero path."""
        n = np.count_nonzero(_first_of_runs(rows))
        return n * d ** 3 + n * n * d * d > _SPARSE_SCHUR_MACS

    @staticmethod
    def of(nonzeros: tuple, d: int, reduced: np.ndarray | None) -> "_BlockRows":
        """The layout for a block of order d, from the nonzeros (rows,
        coords, vals) of A_n in its columns, row by row, or, for the dense
        product, from its dense rows of the reduced A, `reduced`, which are
        never more; None means A = A_n."""
        rows, coords, vals = nonzeros
        first = _first_of_runs(rows)
        active = rows[first]
        n = active.size
        local = np.cumsum(first) - 1                   # each nonzero's row in `active`

        def dense_rows(where):
            """The rows active[where], ascending, as dense svec rows."""
            out = np.zeros((where.size, d * d))
            place = np.full(n, -1)
            place[where] = np.arange(where.size)
            at = place[local] >= 0
            out[place[local[at]], coords[at]] = vals[at]
            return out

        if not _BlockRows.sparse(rows, d):
            if reduced is None:
                return _BlockRows(active, smat(dense_rows(np.arange(n)), d), [], [])
            active = np.flatnonzero(np.any(reduced, axis=1))
            return _BlockRows(active, smat(reduced[active], d), [], [])
        pos, factor, _, dst, scale = _coords(d)
        nnz = np.bincount(local, minlength=n)
        segments = [(where, pos[coords[at]], vals[at] * factor[coords[at]])
                    for where, at in _by_size(nnz)]

        # a coordinate is one matrix entry (diagonal) or two, an upper entry
        # and its conjugate mirror: `smat` table places p and d*d + p - d
        upper = coords >= d
        tab = np.concatenate([coords, d * d - d + coords[upper]])
        order = np.argsort(np.concatenate([local, local[upper]]), kind="stable")
        tab = tab[order]
        val = np.concatenate([vals, vals[upper]])[order] * scale[tab]
        val = np.where(dst[tab] % 2 == 1, 1j * val, val)
        i, j = np.divmod(dst[tab] // 2, d)
        terms = nnz + np.bincount(local[upper], minlength=n)
        dense = np.flatnonzero(terms >= d)
        products = [(dense, smat(dense_rows(dense), d))] if dense.size else []
        products += [(where, (np.concatenate([i[at], d + i[at]], axis=-1),
                              np.concatenate([j[at], d + j[at]], axis=-1),
                              np.concatenate([val[at], val[at]], axis=-1)))
                     for where, at in _by_size(terms) if at.shape[1] < d]
        return _BlockRows(active, None, products, segments)

    def add_schur(self, g: np.ndarray, m_n: np.ndarray):
        """Add tr(A_k G A_l G) over this block to m_n[:, l, k], for the
        members' scalings g (count, d, d): m_n is M for a small block and
        M_n for a large one."""
        count, d = g.shape[0], g.shape[-1]
        if self.mats is not None:
            # the real part of the inner product of the entries of A_k G and
            # (A_l G)', a real product of their (re, im) pairs with those of
            # conj(A_l G)'
            n = self.rows.size
            ag = np.matmul(self.mats.reshape(n * d, d), g).reshape(count, n, d, d)
            ag_h = np.swapaxes(ag, -1, -2).copy()
            np.conjugate(ag_h, out=ag_h)
            part = np.matmul(ag.reshape(count, n, d * d).view(np.float64),
                             np.swapaxes(ag_h.reshape(count, n, d * d).view(np.float64), -1, -2))
            if n == m_n.shape[-1]:
                m_n += part
            else:
                m_n[:, self.rows[:, None], self.rows] += part
            return
        # G A_l G = sum_t v_t conj(G[i_t, :])' G[j_t, :] is one real product
        # X' Y: X stacks Re and Im of the rows conj(G[i_t, :]), and Y the
        # (re, im) pairs of v_t G[j_t, :] and of i v_t G[j_t, :], so X' Y
        # holds the (re, im) pairs of G A_l G
        left = np.concatenate([g.real, -g.imag], axis=-2)
        right = np.concatenate([g, 1j * g], axis=-2)
        # a few rows at a time, so that their P stays in cache for the gather
        step = max(1, _SCHUR_CHUNK_BYTES // (count * 16 * d * d))
        for where, terms in self.products:
            for at in range(0, where.size, step):
                part = slice(at, at + step)
                if isinstance(terms, np.ndarray):
                    p = g[:, None] @ terms[part] @ g[:, None]
                else:
                    li, ri, v = (t[part] for t in terms)
                    p = (np.swapaxes(left[:, li], -1, -2)
                         @ (v[..., None] * right[:, ri]).view(np.float64))
                self._contract(p.reshape(-1).view(np.float64), where[part], count, d, m_n)

    def _contract(self, reals: np.ndarray, where: np.ndarray, count: int, d: int,
                  m_n: np.ndarray):
        """Add a_k . svec(P_l) to m_n[:, l, k] for the rows l = rows[where],
        whose P_l are the (re, im) pairs `reals`, member by member."""
        base = np.arange(count * where.size)[:, None] * (2 * d * d)
        for k_where, gather, weight in self.segments:
            vals = np.take(reals, base + gather.reshape(-1))
            part = np.matmul(vals.reshape(count, where.size, k_where.size, 1, -1),
                             weight[:, :, None])
            m_n[:, self.rows[where, None], self.rows[k_where]] += part[..., 0, 0]


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


class _Iterate(NamedTuple):
    """Iterates of the homogeneous model, one row per member: the primal and
    dual slack blocks, each a (members, d, d) stack, then y, tau, kappa."""

    xm: list
    sm: list
    y: np.ndarray
    tau: np.ndarray
    kappa: np.ndarray


def _map(fn, *trees):
    """fn applied to the matching arrays of trees of tuples and lists, e.g.
    to take, join or select members of stacked iterates."""
    first = trees[0]
    if isinstance(first, np.ndarray):
        return fn(*trees)
    items = [_map(fn, *parts) for parts in zip(*trees)]
    return type(first)(*items) if isinstance(first, _Iterate) else type(first)(items)


def _take(tree, idx):
    return _map(lambda v: v[idx], tree)


# lower-triangular stacks up to this order are inverted by one LAPACK call
_INV_LEAF = 128


def _tril_inv(low: np.ndarray) -> np.ndarray:
    """The inverses of a stack of nonsingular lower-triangular matrices
    (..., n, n): [[L11, 0], [L21, L22]]^-1 is [[X11, 0], [-X22 L21 X11, X22]]
    with X11 = L11^-1 and X22 = L22^-1, recursively, so that all but the
    small diagonal blocks are matrix products, about n^3/3 multiply-adds."""
    n = low.shape[-1]
    if n <= _INV_LEAF:
        return np.linalg.inv(low)
    h = n // 2
    x11, x22 = _tril_inv(low[..., :h, :h]), _tril_inv(low[..., h:, h:])
    out = np.zeros_like(low)
    out[..., :h, :h] = x11
    out[..., h:, h:] = x22
    out[..., h:, :h] = -(x22 @ (low[..., h:, :h] @ x11))
    return out


def _step_to_boundary(lam: np.ndarray, dm: np.ndarray) -> np.ndarray:
    """sup { a : diag(lam) + a*dm > 0 } for positive lam, per member of the
    stacks lam (..., d) and dm (..., d, d): one over minus the smallest
    eigenvalue of diag(lam)^-1/2 dm diag(lam)^-1/2."""
    if np.any(lam <= 0):
        raise np.linalg.LinAlgError("scaled block lost definiteness")
    r = 1.0 / np.sqrt(lam)
    low = np.linalg.eigvalsh(r[..., :, None] * dm * r[..., None, :])[..., 0]
    return np.where(low >= -1e-16, np.inf, -1.0 / np.minimum(low, -1e-16))


def solve(program: ConicProgram, settings: SolverSettings | None = None) -> SolveResult:
    """Solve the program, returning optimum with certificates or an honest
    Infeasible / Unbounded / NumericalFailure status."""
    return solve_many(program, [program.objective], settings)[0]


def solve_many(program: ConicProgram, objectives: Sequence[np.ndarray],
               settings: SolverSettings | None = None) -> list[SolveResult]:
    """Solve the program once per cost vector in `objectives` (vectors over
    the program's columns, as `objective_vector` builds them, in the
    program's sense); the results come in the same order.

    The members share the compiled constraints and iterate together on
    stacked arrays; a member that ends leaves the stack.  Every operation
    acts on each member by itself (stacked LAPACK calls and matrix products,
    row-wise reductions), so a member's result does not depend, bit for
    bit, on which other members share its stack."""
    settings = settings or SolverSettings()
    data = program.compile()
    a, b = data["A"], data["b"]
    r, n = a.shape
    if data["inconsistent_zero_row"]:
        return [_infeasible_result(program, np.zeros(r), note="zero row with nonzero rhs")
                for _ in objectives]
    if r > 0 and np.linalg.norm(data["b_perp"]) > settings.feas_tol * (1 + np.linalg.norm(b)):
        # equality system itself is inconsistent; Farkas direction is immediate
        return [_infeasible_result(program, None, note="inconsistent equalities",
                                   y_orig=data["d_inv"] * data["b_perp"]) for _ in objectives]

    at = a.T if isinstance(a, _Rows) else np.ascontiguousarray(a.T)
    u_r, block_rows = data["u_r"], data["block_rows"]
    u_rt, n_rows = np.ascontiguousarray(u_r.T), u_r.shape[0]
    # blocks assembled from their nonzeros use the normalized rows, which
    # need the reduction when the rows are rank-deficient
    reduce_sparse = r < n_rows and any(blk.mats is None for blk in block_rows)
    dims = data["dims"]
    blocks = _Blocks(dims)
    by_dim = [[j for j, d in enumerate(dims) if d == dim] for dim in sorted(set(dims))]
    nu = sum(dims) + 1.0
    norm_b = 1.0 + np.linalg.norm(b)
    ft, gt = settings.feas_tol, settings.gap_tol
    trace = _log.isEnabledFor(logging.DEBUG)

    def newton(cur: _Iterate, c, x, s, g1, g2, g3, mu, gap_inner):
        """One predictor-corrector step of every member of the stack: the
        next iterate, the step lengths and the centering parameters."""
        tau, kappa = cur.tau, cur.kappa
        count = len(c)

        # -- Nesterov-Todd scaling per block
        # (Todd-Toh-Tutuncu) X = Lx Lx', S = Ls Ls' and Ls' Lx = U diag(lam) V'
        # give F = Lx V lam^-1/2 with F^-1 X F^-1' = F' S F = diag(lam): the
        # scaled point is diagonal, exactly, and W = F F' satisfies W S W = X
        f_list, fi_list, lam_list, g_list = [], [], [], []
        for xb, sb in zip(cur.xm, cur.sm):
            lx = np.linalg.cholesky(xb)
            ls = np.linalg.cholesky(sb)
            u, lam, vh = np.linalg.svd(_ct(ls) @ lx)
            f = (lx @ _ct(vh)) / np.sqrt(lam)[:, None, :]
            f_list.append(f)
            fi_list.append((_ct(u) @ _ct(ls)) / np.sqrt(lam)[:, :, None])
            lam_list.append(lam)
            g_list.append(f @ _ct(f))

        def w_apply(vec):
            return blocks.pack([g @ m @ g for g, m in zip(g_list, blocks.unpack(vec))])

        def w_half(vec):
            return blocks.pack([_ct(f) @ m @ f for f, m in zip(f_list, blocks.unpack(vec))])

        # KKT normal matrix M = A W A', one (r, r) matrix per member: the sum
        # over blocks of tr(A_k G A_l G), in the rows of A for small blocks
        # and for large ones in the normalized rows, whose M_n gives U_r' M_n
        # U_r (A = A_n, U_r = I, for rows of full rank)
        m_mat = np.zeros((count, r, r))
        m_n = np.zeros((count, n_rows, n_rows)) if reduce_sparse else m_mat
        for g, blk in zip(g_list, block_rows):
            blk.add_schur(g, m_mat if blk.mats is not None else m_n)
        if reduce_sparse:
            m_mat += u_rt @ m_n @ u_r
        m_mat = hermitize(m_mat)
        reg = 0.0
        for attempt in range(4):
            try:
                chol = np.linalg.cholesky(m_mat + reg * np.eye(r))
                break
            except np.linalg.LinAlgError:
                # only a lone member is regularized: a stack that fails is
                # advanced member by member instead
                if count > 1 or attempt == 3:
                    raise np.linalg.LinAlgError("KKT factorization failed") from None
                reg = max(reg * 100, 1e-12 * (1 + np.trace(m_mat[0]) / max(r, 1)))
        li = _tril_inv(chol)
        lit = np.swapaxes(li, -1, -2)

        def kkt_solve(rhs):
            # M^-1 rhs for (count, r, k) right-hand sides; one step of
            # iterative refinement buys an extra digit
            u = lit @ (li @ rhs)
            return u + lit @ (li @ (rhs - m_mat @ u))

        w_c = w_apply(c)
        q_vec = _mv(a, w_c)
        sol = kkt_solve(np.stack([q_vec + b, q_vec, np.broadcast_to(b, q_vec.shape)], axis=-1))
        u2, m_q, m_b = sol[..., 0], sol[..., 1], sol[..., 2]
        # stable positive denominator for the dtau pivot:
        #   den = ||(I - Pi) F' c F||^2 + b' M^-1 b + kappa/tau
        resid = w_half(c) - w_half(_mv(at, m_q))
        den = _dot(resid, resid) + _dot(b, m_b) + kappa / tau

        def direction(eta, target_mu, corr_mats, corr_tk):
            rlam = []
            for lam, corr in zip(lam_list, corr_mats):
                t = -corr
                diag = np.arange(lam.shape[-1])
                t[:, diag, diag] += target_mu[:, None] - lam * lam
                rlam.append(2.0 * t / (lam[:, :, None] + lam[:, None, :]))
            h = blocks.pack([f @ rl @ _ct(f) for f, rl in zip(f_list, rlam)])
            dx_part = h + eta[:, None] * w_apply(g1)
            r_tk = target_mu - tau * kappa - corr_tk
            u1 = kkt_solve((-_mv(a, dx_part) - eta[:, None] * g2)[..., None])[..., 0]
            num = -eta * g3 + _dot(c, dx_part) + _dot(q_vec - b, u1) + r_tk / tau
            dtau = num / den
            dy = u1 + dtau[:, None] * u2
            at_dy = _mv(at, dy)
            ds = -eta[:, None] * g1 - at_dy + c * dtau[:, None]
            dx = dx_part + w_apply(at_dy - c * dtau[:, None])
            dkappa = (r_tk - kappa * dtau) / tau
            return dx, dy, ds, dtau, dkappa

        def scaled_step(dx, ds):
            # x + a*dx > 0 and s + a*ds > 0 iff diag(lam) + a*dl > 0 for the
            # NT-scaled directions dl = F^-1 dx F^-1' and F' ds F
            dlx = [fi @ dxb @ _ct(fi) for fi, dxb in zip(fi_list, blocks.unpack(dx))]
            dls = [_ct(f) @ dsb @ f for f, dsb in zip(f_list, blocks.unpack(ds))]
            step = np.full(count, np.inf)
            for group in by_dim:   # one stacked call per block order
                lam = np.concatenate([lam_list[j] for j in group] * 2)
                dl = np.concatenate([dlx[j] for j in group] + [dls[j] for j in group])
                step = np.minimum(step, _step_to_boundary(lam, dl).reshape(-1, count).min(axis=0))
            return dlx, dls, step

        ones = np.ones(count)
        zeros_corr = [np.zeros((count, d, d)) for d in dims]
        dx_a, dy_a, ds_a, dtau_a, dkap_a = direction(ones, 0 * ones, zeros_corr, 0 * ones)

        # affine step length
        dlx_a, dls_a, alpha = scaled_step(dx_a, ds_a)
        alpha = np.minimum(_cap(_cap(alpha, tau, dtau_a), kappa, dkap_a), 1.0)
        gap_aff = (_dot(x + alpha[:, None] * dx_a, s + alpha[:, None] * ds_a)
                   + (tau + alpha * dtau_a) * (kappa + alpha * dkap_a))
        sigma = np.clip(np.clip(gap_aff / gap_inner, 0.0, 1.0) ** 3, 1e-8, 1.0 - 1e-8)

        # Mehrotra corrector in the scaled space.  Off the central path (some
        # lam_i^2 below mu/100) its second-order term points at the boundary
        # and the steps shrink to nothing, so such members take the
        # first-order step to the same target instead
        near = np.min([np.min(lam * lam, axis=-1) for lam in lam_list], axis=0) >= 1e-2 * mu
        corr = [hermitize(dlx @ dls) * near[:, None, None] for dlx, dls in zip(dlx_a, dls_a)]
        dx_c, dy_c, ds_c, dtau_c, dkap_c = direction(
            1.0 - sigma, sigma * mu, corr, dtau_a * dkap_a * near)
        _, _, step = scaled_step(dx_c, ds_c)
        step = _cap(_cap(step, tau, dtau_c), kappa, dkap_c)
        # go 99% of the way to the boundary, and less after a short step
        # (90% in the limit), which keeps a margin where progress is slow
        step = np.minimum(1.0, (0.9 + 0.09 * np.minimum(step, 1.0)) * step)

        blk = step[:, None, None]
        x_m = [hermitize(xb + blk * dxb) for xb, dxb in zip(cur.xm, blocks.unpack(dx_c))]
        s_m = [hermitize(sb + blk * dsb) for sb, dsb in zip(cur.sm, blocks.unpack(ds_c))]
        tau = tau + step * dtau_c
        kappa = kappa + step * dkap_c
        # the model is homogeneous of degree one: rescale the iterate so
        # tau + kappa stays O(1) instead of drifting along the ray
        inv = 2.0 / (tau + kappa)
        nxt = _Iterate([xb * inv[:, None, None] for xb in x_m],
                       [sb * inv[:, None, None] for sb in s_m],
                       (cur.y + step[:, None] * dy_c) * inv[:, None], tau * inv, kappa * inv)
        return nxt, step, sigma

    count = len(objectives)
    c = np.zeros((count, n))
    for k, obj in enumerate(objectives):
        c[k, :len(obj)] = obj
    c *= program.sense
    results: list[SolveResult | None] = [None] * count
    ids = np.arange(count)                 # each active member's place in `results`
    norm_c = 1.0 + np.linalg.norm(c, axis=-1)
    cur = _Iterate([np.broadcast_to(np.eye(d, dtype=complex), (count, d, d)).copy() for d in dims],
                   [np.broadcast_to(np.eye(d, dtype=complex), (count, d, d)).copy() for d in dims],
                   np.zeros((count, r)), np.ones(count), np.ones(count))
    best, best_score = cur, np.full(count, np.inf)
    stall = np.zeros(count, dtype=int)

    def failed(k, note, iters):
        # fall back to the member's best iterate, then try certificates once more
        return _fallback(program, data, settings, _take(best, k), c[k], note, iters, best_score[k])

    it = 0
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for it in range(settings.max_iters):
            if not ids.size:
                break
            tau, kappa, y = cur.tau, cur.kappa, cur.y
            x, s = blocks.pack(cur.xm), blocks.pack(cur.sm)
            at_y, ax = _mv(at, y), _mv(a, x)
            g1 = at_y + s - c * tau[:, None]        # dual residual direction
            g2 = ax - b * tau[:, None]              # primal residual direction
            cx, by = _dot(c, x), _dot(y, b)
            g3 = -cx + by - kappa
            gap_inner = _dot(x, s) + tau * kappa
            mu = gap_inner / nu
            finite = (np.isfinite(mu) & np.isfinite(cx) & np.isfinite(by)
                      & np.isfinite(x).all(axis=-1) & np.isfinite(s).all(axis=-1))

            # -- status tests on the scaled candidate
            pres = np.linalg.norm(g2 / tau[:, None], axis=-1) / norm_b
            dres = np.linalg.norm(g1 / tau[:, None], axis=-1) / norm_c
            pobj, dobj = cx / tau, by / tau
            relgap = np.abs(pobj - dobj) / (1 + np.abs(pobj) + np.abs(dobj))
            if trace:
                for k in range(ids.size):
                    _log.debug("iter %3d member %d mu=%9.2e pres=%8.1e dres=%8.1e gap=%8.1e "
                               "tau=%8.1e kappa=%8.1e", it, ids[k], mu[k], pres[k], dres[k],
                               relgap[k], tau[k], kappa[k])
            score = np.maximum(np.maximum(pres / ft, dres / ft), relgap / gt)
            better = finite & (score < best_score)
            if better.all():   # iterates are never changed in place
                best = cur
            elif better.any():
                best = _map(lambda new, old: np.where(
                    better.reshape((-1,) + (1,) * (new.ndim - 1)), new, old), cur, best)
            best_score = np.where(better, score, best_score)

            ended: dict[int, SolveResult] = {}
            for k in np.flatnonzero(~finite):
                ended[k] = failed(k, "iterate diverged (non-finite values)", it)
            optimal = finite & (score <= 1.0)
            for k in np.flatnonzero(optimal):
                ended[k] = _optimal_result(program, data, c[k], x[k], y[k], s[k], tau[k], it)
            if it >= 1:
                infeasible = (finite & ~optimal & (by > 0)
                              & (np.linalg.norm(at_y + s, axis=-1) / by <= ft))
                unbounded = (finite & ~optimal & ~infeasible & (-cx > 0)
                             & (np.linalg.norm(ax, axis=-1) / -cx <= ft))
                for k in np.flatnonzero(infeasible):
                    ended[k] = _infeasible_result(program, y[k] / by[k], s_vec=s[k] / by[k],
                                                  iters=it)
                for k in np.flatnonzero(unbounded):
                    ended[k] = _unbounded_result(program, x[k] / -cx[k], iters=it)

            go = [k for k in range(ids.size) if k not in ended]
            state = (cur, c, x, s, g1, g2, g3, mu, gap_inner)
            steps = []                            # (members, newton's output)
            if go:
                try:
                    steps = [(go, newton(*(state if len(go) == ids.size else _take(state, go))))]
                except (np.linalg.LinAlgError, ValueError):
                    # advance the members one by one: a member whose
                    # factorization fails ends alone, and the others take
                    # the step they take in any stack
                    for k in go:
                        try:
                            steps.append(([k], newton(*_take(state, [k]))))
                        except (np.linalg.LinAlgError, ValueError) as exc:
                            ended[k] = failed(k, f"linear algebra failure: {exc}", it)
            keep = np.zeros(0, dtype=int)
            if steps:
                moved = np.array([k for members, _ in steps for k in members])
                nxt, step, sigma = _map(lambda *parts: np.concatenate(parts),
                                        *[out for _, out in steps])
                if trace:
                    for j, k in enumerate(moved):
                        _log.debug("        member %d sigma=%8.1e step=%6.3f",
                                   ids[k], sigma[j], step[j])
                collapsed = ~np.isfinite(step) | (step <= 1e-13)
                run = np.where(step <= 1e-7, stall[moved] + 1, 0)
                for k in moved[collapsed]:
                    ended[k] = failed(k, "step length collapsed", it)
                for k in moved[~collapsed & (run >= 3)]:
                    ended[k] = failed(k, "no further progress (stalled steps)", it)
                ok = ~collapsed & (run < 3)
                keep, cur, stall = moved[ok], nxt if ok.all() else _take(nxt, ok), run[ok]
            if ended:
                for k, res in ended.items():
                    results[ids[k]] = res
                ids, c, norm_c = ids[keep], c[keep], norm_c[keep]
                best, best_score = _take(best, keep), best_score[keep]
        else:
            it = settings.max_iters
        for k in range(ids.size):
            results[ids[k]] = failed(k, "iteration limit reached", it)
    return results


def _optimal_result(program, data, c, x, y, s, tau, iters) -> SolveResult:
    sense = program.sense
    a, b = data["A"], data["b"]
    r = a.shape[0]
    xs = x / tau
    ys = y / tau
    ss = s / tau
    primal_blocks = program.unpack_blocks(xs)
    y_orig = data["d_inv"] * (data["u_r"] @ ys) if r else np.zeros(len(program._rhs))
    duals: dict[str, object] = {}
    for g in program.eq_groups:
        duals[g.name] = program.equality_dual(g.name, sense * y_orig)
    for g in program.psd_groups:
        sl = program.block_slice(g.slack)
        duals[g.name] = smat(sense * ss[sl], g.slack.cdim)

    pobj = sense * float(c @ xs)
    dobj = sense * float(b @ ys) if r else 0.0
    res = {
        "primal": float(np.linalg.norm((a @ xs) - b)) if r else 0.0,
        "dual": float(np.linalg.norm((a.T @ ys if r else 0.0) + ss - c)),
        "compl": float(xs @ ss),
        "relgap": abs(pobj - dobj) / (1 + abs(pobj) + abs(dobj)),
    }
    return SolveResult(Status.OPTIMAL, pobj, dobj, primal_blocks, duals,
                       gap=abs(pobj - dobj), iterations=iters, residuals=res)


def _fallback(program, data, settings, best: _Iterate, c, note, iters, best_score) -> SolveResult:
    """The result of a member that ended without an optimum: a certificate
    if its best iterate passes the tests at ten times the tolerance, else
    NumericalFailure."""
    a, b = data["A"], data["b"]
    r = a.shape[0]
    blocks = _Blocks(data["dims"])
    x = blocks.pack(best.xm)
    s = blocks.pack(best.sm)
    by = float(b @ best.y) if r else 0.0
    cx = float(c @ x)
    if r and by > 0 and np.linalg.norm(a.T @ best.y + s) / by <= settings.feas_tol * 10:
        return _infeasible_result(program, best.y / by, s_vec=s / by, iters=iters)
    if -cx > 0 and (np.linalg.norm(a @ x) if r else 0.0) / (-cx) <= settings.feas_tol * 10:
        return _unbounded_result(program, x / (-cx), iters=iters)
    return SolveResult(Status.NUMERICAL_FAILURE, np.nan, np.nan, iterations=iters,
                       residuals={"note": note, "best_score": float(best_score)})


def _infeasible_result(program, y_red, s_vec=None, note="", iters=0,
                       y_orig=None) -> SolveResult:
    data = program.compile()
    if y_orig is None:
        y_orig = (data["d_inv"] * (data["u_r"] @ y_red)) if data["A"].shape[0] else np.zeros(0)
    cert = {"kind": "primal-infeasibility", "equality_ray": {}, "note": note}
    for g in program.eq_groups:
        cert["equality_ray"][g.name] = program.equality_dual(g.name, y_orig)
    if s_vec is not None:
        cert["dual_slack"] = program.unpack_blocks(s_vec)
    pv = np.inf if program.sense > 0 else -np.inf
    return SolveResult(Status.INFEASIBLE, pv, pv, certificate=cert, iterations=iters,
                       residuals={"note": note} if note else {})


def _unbounded_result(program, x_ray, iters=0) -> SolveResult:
    cert = {"kind": "improving-ray", "ray_blocks": program.unpack_blocks(x_ray)}
    pv = -np.inf if program.sense > 0 else np.inf
    return SolveResult(Status.UNBOUNDED, pv, pv, certificate=cert, iterations=iters)
