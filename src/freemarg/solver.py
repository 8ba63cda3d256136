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
coordinates, and the solver places that matrix in the block's columns.  It
knows nothing of tensor factors: a map that is a partial trace followed by
another map carries its `herm.LocalForm`, and `herm.LocalSchur` contracts
the scalings of a block whose rows all have one.  `compile` normalizes the
equality rows to A_n, finds their rank and reduces rank-deficient rows to
A = U_r' A_n.  A small block takes the dense Schur product in the rows of
A; a large block assembles its part of M_n = A_n W A_n' by local
contraction if each of its row groups has one term on it, with a local
form, and from its rows' nonzeros otherwise (see `_BlockRows`).

One loop, `solve_many`, solves a program for a batch of objectives on
stacked iterates; `solve` is its one-member case.  The iterate and every
per-block quantity of a step are one stack per block order, (members,
blocks of that order, d, d), and `_Blocks` converts them to and from the
svec vectors that A acts on by one gather or scatter.  The Newton step is a
sequence of phases, as in the NT-scaling method of Todd-Toh-Tutuncu (SIAM
J. Optim. 1998) and SDPT3: `_Scaling` (the NT factors and W per block
order), `_Normal` (the Schur complement M = A W A' and its Cholesky
factor), `_direction` (predictor and corrector) and `_step_length`.
`_status` is the one place a status is decided: the loop calls it at
feas_tol, and a member that ends without an optimum has its best iterate
tested at ten times that.  The solver is deterministic: no randomized
pivoting, identical inputs give identical iterates, and a member's iterates
do not depend on the rest of its batch, nor a block's on the other blocks
of its order.  Enable DEBUG on the ``freemarg.solver`` logger for a
per-iteration diagnostic trace.
"""

from __future__ import annotations

import copy
import functools
import logging
import math
import operator
from collections import namedtuple
from dataclasses import dataclass, field
from enum import Enum
from typing import NamedTuple, Sequence

import numpy as np

from .config import DEFAULT_TOLS
from .herm import LinearMap, LocalForm, LocalSchur, _coords, hermitize, smat, svec


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
    # per term, a block and its coefficients in the group's rows: a map,
    # whose matrix is over the block's columns, or alpha for alpha times the
    # identity
    terms: list[tuple[BlockRef, LinearMap | float]]

    def value(self, y: np.ndarray) -> np.ndarray | float:
        """The group's entries of y, a number or a Hermitian matrix."""
        ys = y[self.rows]
        return float(ys[0]) if self.scalar else smat(ys, math.isqrt(ys.size))


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
        """Each map (1.0 for the identity), checked against its block and the
        d x d output."""
        for ref, lmap in terms:
            if lmap is not None and lmap.in_dim != ref.cdim:
                raise ValueError(f"constraint {name!r}: term input dim {lmap.in_dim} != "
                                 f"{ref.cdim} of block {ref.name!r}")
            out = ref.cdim if lmap is None else lmap.out_dim
            if out != d:
                raise ValueError(f"constraint {name!r}: term output dim {out} != {d}")
        return [(ref, 1.0 if lmap is None else lmap) for ref, lmap in terms]

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
        for ref, probe in terms:
            if np.shape(probe) != (ref.cdim, ref.cdim):
                raise ValueError(f"constraint {name!r}: probe of shape {np.shape(probe)} on "
                                 f"block {ref.name!r} of order {ref.cdim}")
        probes = [svec(hermitize(np.asarray(probe, dtype=complex)))[None] for _, probe in terms]
        self._append_rows(name, [(ref, LinearMap(k)) for (ref, _), k in zip(terms, probes)],
                          [float(rhs)], True)

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
                    i, j = np.nonzero(coeff.k)
                    parts.append(((g.rows.start + i) * n + start + j, coeff.k[i, j]))
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
        # a zero row with a nonzero right-hand side is its own Farkas ray:
        # weight sign(b_i) on it gives A'y = 0 and b'y > 0
        zero_row_ray = np.where(~keep & (np.abs(b) > 1e-12), np.sign(b), 0.0)
        d_inv = np.where(keep, 1.0 / np.where(keep, norms, 1.0), 0.0)
        a_n = a._replace(vals=a.vals * d_inv[a.rows])
        b_n = b * d_inv
        nonzeros = [a_n.columns(self.block_slice(blk)) for blk in self.blocks]
        large = [_BlockRows.large(rows, blk.cdim)
                 for (rows, _, _), blk in zip(nonzeros, self.blocks)]

        # a program without a large block keeps the dense A, and so the
        # rounding of its products, to which feasible sets without an
        # interior point are sensitive
        if any(large) and m > 0 and _full_rank(a_n):  # the rows themselves are a basis
            u_r, a_red, b_red = np.eye(m), a_n, b_n
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

        block_rows = []
        for nz, blk, big in zip(nonzeros, self.blocks, large):
            local = self._local_terms(blk) if big else None
            reduced = None if isinstance(a_red, _Rows) else a_red[:, self.block_slice(blk)]
            block_rows.append(_BlockRows.of_local(local, d_inv) if local
                              else _BlockRows.of(nz, blk.cdim, reduced))
        self._compiled = {
            "A": a_red, "b": b_red,
            "u_r": u_r, "d_inv": d_inv,
            "b_perp": b_n - u_r @ b_red,
            "zero_row_ray": zero_row_ray,
            "dims": [blk.cdim for blk in self.blocks],
            "block_rows": block_rows,
        }
        return self._compiled

    def _local_terms(self, blk: BlockRef) -> list[tuple[slice, LocalForm]] | None:
        """The rows and the term's `LocalForm` of each group with a term on
        the block, if every such group has one term on it and every term a
        local form over the same factors; else None."""
        out = []
        for g in self.eq_groups:
            maps = [coeff for ref, coeff in g.terms if ref == blk]
            if not maps:
                continue
            if len(maps) > 1 or isinstance(maps[0], float) or maps[0].local is None:
                return None
            out.append((g.rows, maps[0].local))
        return out if out and len({form.dims for _, form in out}) == 1 else None

    # -- value helpers -----------------------------------------------------

    def unpack_blocks(self, x: np.ndarray) -> dict[str, np.ndarray]:
        """svec vector -> complex Hermitian matrix per block."""
        return {blk.name: smat(x[self.block_slice(blk)], blk.cdim) for blk in self.blocks}


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
    """Conversion between stacked svec vectors (..., n) and the blocks as one
    stack per block order, (..., blocks of that order, d, d), orders
    ascending and the blocks of an order in program order.  Each direction
    is one precomputed table over all blocks, built from `herm._coords`:
    `pack` gathers the stacks' reals and scales them as `svec` does, and
    `unpack` scatters the coordinates into one buffer as `smat` does, with
    a view of it per order."""

    def __init__(self, dims: Sequence[int]):
        dims = list(dims)
        orders = sorted(set(dims))
        # each block's order (an index into `shapes`) and place in its stack
        self.place = [(orders.index(d), dims[:j].count(d)) for j, d in enumerate(dims)]
        self.shapes = [(dims.count(d), d, d) for d in orders]
        # where each stack's reals lie in the one buffer
        self.bounds = np.cumsum([0] + [2 * math.prod(shape) for shape in self.shapes]).tolist()
        tables, start = [], 0
        for d, (order, at) in zip(dims, self.place):
            base = self.bounds[order] + at * 2 * d * d
            pos, factor, src, dst, scale = _coords(d)
            tables.append((base + pos, factor, start + src, base + dst, scale))
            start += d * d
        self.gather, self.factor, self.src, self.dst, self.scale = (
            np.concatenate(t) for t in zip(*tables))

    def unpack(self, v: np.ndarray) -> list[np.ndarray]:
        lead = v.shape[:-1]
        reals = np.zeros(lead + (self.bounds[-1],))
        reals[..., self.dst] = v[..., self.src] * self.scale
        return [reals[..., lo:hi].view(complex).reshape(lead + shape)
                for lo, hi, shape in zip(self.bounds, self.bounds[1:], self.shapes)]

    def pack(self, mats: Sequence[np.ndarray]) -> np.ndarray:
        lead = mats[0].shape[:-3]
        reals = np.concatenate([m.reshape(lead + (-1,)) for m in mats], axis=-1, dtype=complex)
        # `take`, as in `svec`, keeps the row-wise sums member by member
        out = np.take(reals.view(np.float64), self.gather, axis=-1)
        out *= self.factor
        return out


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


# A block is large, and assembles its part of the Schur complement by local
# contraction or from its rows' nonzeros, when the dense product, n d^3 +
# n^2 d^2 multiply-adds per member for n rows on a block of order d, is
# larger than this; below it those paths' many small array operations cost
# more than they save
_SPARSE_SCHUR_MACS = 1 << 24
# the bytes of P_l the nonzero path holds at once, about a core's L2 share
_SCHUR_CHUNK_BYTES = 1 << 19


class _BlockRows(NamedTuple):
    """One block's rows, laid out for its part of the Schur complement,
    tr(A_k G A_l G) = a_k . svec(P_l) with P_l = G A_l G.

    A small block keeps `mats`, the matrices A_l of its rows of the reduced
    A, for the dense product, and adds its part to M.  A large block adds
    its part to M_n, from the rows of A_n, on one of two layouts.

    The local layout serves a block each of whose row groups has one term
    on it, with a `LocalForm` (L_X, X): the group's rows are D_X L_X K_tr(X),
    D_X its part of the normalization d_inv.  The block of groups X and Y is
    D_X L_X S_XY L_Y' D_Y, with S_XY the Schur block of the two partial
    traces, which `herm.LocalSchur` contracts from G without forming any
    P_l.  `local` holds the `LocalSchur` of the distinct kept factor sets
    and, per group, (its rows, the index of its X, D_X, L_X or None for the
    identity), each L_X the group's own map matrix, shared.

    Otherwise the block keeps its rows by their nonzeros, in `products` and
    `segments`.  `rows` are the rows kept, ascending: those with a nonzero
    in the block, or on the local layout the rows of its groups; `products`
    and `segments` each hold (where, ...) for the rows `rows[where]`.  A
    product entry holds the rows' dense A_l, or, for rows with s < d nonzero
    entries, A_l = sum_t v_t e_(i_t) e_(j_t)', the index and value arrays
    (left, right, v), each (rows, 2s), of the real product in `add_schur`.
    A segment entry holds, for rows with L nonzero svec coordinates p, the
    places of those coordinates among P's reals and a_k[p] times svec's
    factor, each (rows, L)."""

    rows: np.ndarray
    mats: np.ndarray | None
    products: list
    segments: list
    local: tuple | None = None

    @staticmethod
    def large(rows: np.ndarray, d: int) -> bool:
        """Whether a block of order d, whose nonzeros lie in `rows`, is
        large: it takes the local or the nonzero path."""
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
        if not _BlockRows.large(rows, d):
            if reduced is None:
                return _BlockRows(active, smat(_dense_rows(np.arange(n), local, coords, vals, d),
                                               d), [], [])
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
        products = ([(dense, smat(_dense_rows(dense, local, coords, vals, d), d))]
                    if dense.size else [])
        products += [(where, (np.concatenate([i[at], d + i[at]], axis=-1),
                              np.concatenate([j[at], d + j[at]], axis=-1),
                              np.concatenate([val[at], val[at]], axis=-1)))
                     for where, at in _by_size(terms) if at.shape[1] < d]
        return _BlockRows(active, None, products, segments)

    @staticmethod
    def of_local(terms: list[tuple[slice, LocalForm]], d_inv: np.ndarray) -> "_BlockRows":
        """The local layout of a block, from the rows of each of its groups
        and the local form of the group's term (see `_local_terms`)."""
        keeps = list(dict.fromkeys(form.keep for _, form in terms))
        groups = [(rows, keeps.index(form.keep), d_inv[rows], form.inner) for rows, form in terms]
        active = np.concatenate([np.arange(rows.start, rows.stop) for rows, _ in terms])
        return _BlockRows(active, None, [], [], (LocalSchur(terms[0][1].dims, keeps), groups))

    def add_schur(self, g: np.ndarray, m_n: np.ndarray):
        """Add tr(A_k G A_l G) over this block to m_n[:, l, k], for the
        members' scalings g (count, d, d): m_n is M for a small block and
        M_n for a large one."""
        count, d = g.shape[0], g.shape[-1]
        if self.local is not None:
            self._add_local(g, m_n)
            return
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

    def _add_local(self, g: np.ndarray, m_n: np.ndarray):
        """The local layout's add_schur: one S block per pair of kept factor
        sets, each group pair's block added to m_n and its transpose to the
        mirror place."""
        local_schur, groups = self.local
        schur = local_schur(g)
        for i, (rows_x, x, d_x, l_x) in enumerate(groups):
            for j, (rows_y, y, d_y, l_y) in enumerate(groups[i:], i):
                part = schur[x, y] if x <= y else np.swapaxes(schur[y, x], -1, -2)
                if l_x is not None:
                    part = l_x @ part
                if l_y is not None:
                    part = part @ l_y.T
                part = d_x[:, None] * part * d_y
                m_n[:, rows_x, rows_y] += part
                if j != i:
                    m_n[:, rows_y, rows_x] += np.swapaxes(part, -1, -2)

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


def _dense_rows(where: np.ndarray, local: np.ndarray, coords: np.ndarray, vals: np.ndarray,
                d: int) -> np.ndarray:
    """The rows `where` (ascending) of a block of order d as dense svec rows,
    from its nonzeros: each one's row, coordinate and value."""
    out = np.zeros((where.size, d * d))
    at = np.isin(local, where)
    out[np.searchsorted(where, local[at]), coords[at]] = vals[at]
    return out


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


# iterates of the homogeneous model, one row per member: the primal and dual
# slack blocks, one (members, blocks, d, d) stack per block order, then y,
# tau, kappa
_Iterate = namedtuple("_Iterate", "xm sm y tau kappa")


def _map(fn, *trees):
    """fn applied to the matching arrays of trees of tuples and lists."""
    first = trees[0]
    if isinstance(first, np.ndarray):
        return fn(*trees)
    items = [_map(fn, *parts) for parts in zip(*trees)]
    return type(first)(*items) if hasattr(first, "_fields") else type(first)(items)


def _take(tree, idx):
    return _map(operator.itemgetter(idx), tree)


def _where(mask: np.ndarray, new: np.ndarray, old: np.ndarray) -> np.ndarray:
    return np.where(mask.reshape((-1,) + (1,) * (new.ndim - 1)), new, old)


def _concat(*parts: np.ndarray) -> np.ndarray:
    return np.concatenate(parts)


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


def _step_to_boundary(r: np.ndarray, dm: np.ndarray) -> np.ndarray:
    """sup { a : diag(lam) + a*dm > 0 } for positive lam, per matrix of the
    stacks r = lam^-1/2 (..., d) and dm (..., d, d): one over minus the
    smallest eigenvalue of diag(r) dm diag(r)."""
    low = np.linalg.eigvalsh(r[..., :, None] * dm * r[..., None, :])[..., 0]
    return np.where(low >= -1e-16, np.inf, -1.0 / np.minimum(low, -1e-16))


class _Model:
    """The compiled data as the phases use it, prepared once per solve."""

    def __init__(self, data: dict):
        self.data = data
        self.a, self.b, self.u_r = data["A"], data["b"], data["u_r"]
        self.at = self.a.T if isinstance(self.a, _Rows) else np.ascontiguousarray(self.a.T)
        self.u_rt = np.ascontiguousarray(self.u_r.T)
        self.block_rows = data["block_rows"]
        # blocks assembled from their nonzeros use the normalized rows, which
        # need the reduction when the rows are rank-deficient
        self.reduce_sparse = (self.a.shape[0] < self.u_r.shape[0]
                              and any(blk.mats is None for blk in self.block_rows))
        self.blocks = _Blocks(data["dims"])
        self.nu = sum(data["dims"]) + 1.0
        self.norm_b = 1.0 + np.linalg.norm(self.b)


# an iterate's residuals and status tests, per member: x, y and s as vectors,
# g1, g2 and g3 the dual, primal and gap residual directions, and pres, dres
# and relgap those of the candidate (x, y, s) / tau
_Check = namedtuple("_Check", "x y s g1 g2 g3 cx by mu gap_inner pres dres relgap score "
                              "finite optimal infeasible unbounded")


def _status(model: _Model, c: np.ndarray, cur: _Iterate, settings: SolverSettings,
            cert_tol: float) -> _Check:
    """The one status test.  A member is Optimal if its candidate meets
    feas_tol and gap_tol (score <= 1); else y / b'y certifies infeasibility
    if ||A'y + s|| / b'y <= cert_tol, or x / -c'x unboundedness if
    ||A x|| / -c'x <= cert_tol."""
    tau, kappa, y, ft = cur.tau, cur.kappa, cur.y, settings.feas_tol
    x, s = model.blocks.pack(cur.xm), model.blocks.pack(cur.sm)
    at_y, ax = _mv(model.at, y), _mv(model.a, x)
    g1 = at_y + s - c * tau[:, None]
    g2 = ax - model.b * tau[:, None]
    cx, by = _dot(c, x), _dot(y, model.b)
    gap_inner = _dot(x, s) + tau * kappa
    mu = gap_inner / model.nu
    finite = (np.isfinite(mu) & np.isfinite(cx) & np.isfinite(by)
              & np.isfinite(x).all(axis=-1) & np.isfinite(s).all(axis=-1))
    pres = np.linalg.norm(g2 / tau[:, None], axis=-1) / model.norm_b
    dres = np.linalg.norm(g1 / tau[:, None], axis=-1) / (1.0 + np.linalg.norm(c, axis=-1))
    pobj, dobj = cx / tau, by / tau
    relgap = np.abs(pobj - dobj) / (1 + np.abs(pobj) + np.abs(dobj))
    score = np.maximum(np.maximum(pres / ft, dres / ft), relgap / settings.gap_tol)
    optimal = finite & (score <= 1.0)
    infeasible = (finite & ~optimal & (by > 0)
                  & (np.linalg.norm(at_y + s, axis=-1) / by <= cert_tol))
    unbounded = (finite & ~optimal & ~infeasible & (-cx > 0)
                 & (np.linalg.norm(ax, axis=-1) / -cx <= cert_tol))
    return _Check(x, y, s, g1, g2, -cx + by - kappa, cx, by, mu, gap_inner,
                  pres, dres, relgap, score, finite, optimal, infeasible, unbounded)


class _Scaling:
    """Nesterov-Todd scaling of every block (Todd-Toh-Tutuncu): X = Lx Lx',
    S = Ls Ls' and Ls' Lx = U diag(lam) V' give F = Lx V lam^-1/2 with
    F^-1 X F^-1' = F' S F = diag(lam).  The scaled point is diagonal,
    exactly, and W = F F' (G per block) satisfies W S W = X.

    Every quantity is one stack per block order, as `_Blocks.unpack` gives
    the iterate: F, F^-1', lam, G and r, which holds lam^-1/2 twice along
    the block axis, for the x and the s half of a step's scaled direction."""

    def __init__(self, xm: list, sm: list):
        self.f, self.fi, self.lam, self.g, self.r = [], [], [], [], []
        for xb, sb in zip(xm, sm):
            lx = np.linalg.cholesky(xb)
            ls = np.linalg.cholesky(sb)
            u, lam, vh = np.linalg.svd(_ct(ls) @ lx)
            if np.any(lam <= 0):
                raise np.linalg.LinAlgError("scaled block lost definiteness")
            root = np.sqrt(lam)
            f = (lx @ _ct(vh)) / root[..., None, :]
            self.f.append(f)
            self.fi.append((_ct(u) @ _ct(ls)) / root[..., :, None])
            self.lam.append(lam)
            self.g.append(f @ _ct(f))
            self.r.append(np.concatenate([1.0 / root] * 2, axis=1))

    def w(self, mats: list) -> list:
        """W V W, block by block."""
        return [g @ m @ g for g, m in zip(self.g, mats)]

    def half(self, mats: list) -> list:
        """F' V F, block by block."""
        return [_ct(f) @ m @ f for f, m in zip(self.f, mats)]

    def scaled(self, dxm: list, dsm: list) -> tuple[list, list]:
        """F^-1 dx F^-1' and F' ds F, block by block."""
        return [fi @ m @ _ct(fi) for fi, m in zip(self.fi, dxm)], self.half(dsm)


class _Normal:
    """M = A W A' per member and its Cholesky factor: the sum over blocks of
    tr(A_k G A_l G), in the rows of A for small blocks and for large ones in
    the normalized rows, whose M_n gives U_r' M_n U_r."""

    def __init__(self, model: _Model, g_list: list, count: int):
        r, n_rows = model.a.shape[0], model.u_r.shape[0]
        m_mat = np.zeros((count, r, r))
        m_n = np.zeros((count, n_rows, n_rows)) if model.reduce_sparse else m_mat
        for (order, at), blk in zip(model.blocks.place, model.block_rows):
            blk.add_schur(g_list[order][:, at], m_mat if blk.mats is not None else m_n)
        if model.reduce_sparse:
            m_mat += model.u_rt @ m_n @ model.u_r
        self.m = hermitize(m_mat)
        reg = 0.0
        for attempt in range(4):
            try:
                chol = np.linalg.cholesky(self.m + reg * np.eye(r))
                break
            except np.linalg.LinAlgError:
                # only a lone member is regularized: a stack that fails is
                # advanced member by member instead
                if count > 1 or attempt == 3:
                    raise np.linalg.LinAlgError("KKT factorization failed") from None
                reg = max(reg * 100, 1e-12 * (1 + np.trace(self.m[0]) / max(r, 1)))
        self.li = _tril_inv(chol)

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """M^-1 rhs for (count, r, k) right-hand sides; one step of iterative
        refinement buys an extra digit."""
        lit = np.swapaxes(self.li, -1, -2)
        u = lit @ (self.li @ rhs)
        return u + lit @ (self.li @ (rhs - self.m @ u))


# the constants of one Newton step, per member: q = A W c, u2 = M^-1 (q + b),
# the dtau pivot den and W g1, which the predictor and the corrector share
_Step = namedtuple("_Step", "c g1 g2 g3 q u2 den tau kappa w_g1")


def _direction(model: _Model, sc: _Scaling, normal: _Normal, k: _Step, eta, target_mu,
               corr: tuple | None) -> tuple:
    """(dx, dy, ds, dtau, dkappa) toward complementarity target_mu, the
    residuals cut by the factor 1 - eta (scalars or one per member); corr
    holds the corrector's second-order terms, per block and for tau kappa."""
    blocks = model.blocks
    eta_col, mu_col = np.reshape(eta, (-1, 1)), np.reshape(target_mu, (-1, 1, 1))
    dxm = []
    for j, (f, lam) in enumerate(zip(sc.f, sc.lam)):
        t = np.zeros(lam.shape + lam.shape[-1:]) if corr is None else -corr[0][j]
        diag = np.arange(lam.shape[-1])
        t[..., diag, diag] += mu_col - lam * lam
        dxm.append(f @ (2.0 * t / (lam[..., :, None] + lam[..., None, :])) @ _ct(f))
    dx_part = blocks.pack(dxm) + eta_col * k.w_g1
    r_tk = target_mu - k.tau * k.kappa - (0.0 if corr is None else corr[1])
    u1 = normal.solve((-_mv(model.a, dx_part) - eta_col * k.g2)[..., None])[..., 0]
    num = -eta * k.g3 + _dot(k.c, dx_part) + _dot(k.q - model.b, u1) + r_tk / k.tau
    dtau = num / k.den
    dy = u1 + dtau[:, None] * k.u2
    at_dy = _mv(model.at, dy)
    return (dx_part + blocks.pack(sc.w(blocks.unpack(at_dy - k.c * dtau[:, None]))), dy,
            -eta_col * k.g1 - at_dy + k.c * dtau[:, None], dtau, (r_tk - k.kappa * dtau) / k.tau)


def _step_length(sc: _Scaling, dlx: list, dls: list, k: _Step, dtau: np.ndarray,
                 dkappa: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The step to the boundary along the scaled directions, capped where tau
    or kappa would turn negative, at most 1; and the step taken, 99% of the
    way and less after a short step (90% in the limit), a margin where
    progress is slow."""
    step = np.full(k.tau.shape, np.inf)
    for r, dx, ds in zip(sc.r, dlx, dls):   # one stacked call per block order
        bound = _step_to_boundary(r, np.concatenate([dx, ds], axis=1))
        step = np.minimum(step, bound.min(axis=1))
    step = _cap(_cap(step, k.tau, dtau), k.kappa, dkappa)
    full = np.minimum(step, 1.0)
    return full, np.minimum(1.0, (0.9 + 0.09 * full) * step)


def _newton(model: _Model, cur: _Iterate, c: np.ndarray, st: _Check):
    """One predictor-corrector step of every member of the stack: the next
    iterate, the step lengths and the centering parameters."""
    tau, kappa, b, blocks = cur.tau, cur.kappa, model.b, model.blocks
    sc = _Scaling(cur.xm, cur.sm)
    normal = _Normal(model, sc.g, tau.size)
    cm = blocks.unpack(c)
    q = _mv(model.a, blocks.pack(sc.w(cm)))
    sol = normal.solve(np.stack([q + b, q, np.broadcast_to(b, q.shape)], axis=-1))
    # stable positive denominator for the dtau pivot:
    #   den = ||(I - Pi) F' c F||^2 + b' M^-1 b + kappa/tau
    resid = (blocks.pack(sc.half(cm))
             - blocks.pack(sc.half(blocks.unpack(_mv(model.at, sol[..., 1])))))
    den = _dot(resid, resid) + _dot(b, sol[..., 2]) + kappa / tau
    k = _Step(c, st.g1, st.g2, st.g3, q, sol[..., 0], den, tau, kappa,
              blocks.pack(sc.w(blocks.unpack(st.g1))))

    dx_a, _, ds_a, dtau_a, dkap_a = _direction(model, sc, normal, k, 1.0, 0.0, None)
    dlx_a, dls_a = sc.scaled(blocks.unpack(dx_a), blocks.unpack(ds_a))
    alpha = _step_length(sc, dlx_a, dls_a, k, dtau_a, dkap_a)[0]
    gap_aff = (_dot(st.x + alpha[:, None] * dx_a, st.s + alpha[:, None] * ds_a)
               + (tau + alpha * dtau_a) * (kappa + alpha * dkap_a))
    sigma = np.clip(np.clip(gap_aff / st.gap_inner, 0.0, 1.0) ** 3, 1e-8, 1.0 - 1e-8)

    # Mehrotra corrector in the scaled space.  Off the central path (some
    # lam_i^2 below mu/100) its second-order term points at the boundary
    # and the steps shrink to nothing, so such members take the
    # first-order step to the same target instead
    near = np.min([np.min(lam * lam, axis=(1, 2)) for lam in sc.lam], axis=0) >= 1e-2 * st.mu
    corr = [hermitize(dlx @ dls) * near[:, None, None, None] for dlx, dls in zip(dlx_a, dls_a)]
    dx, dy, ds, dtau, dkap = _direction(model, sc, normal, k, 1.0 - sigma, sigma * st.mu,
                                        (corr, dtau_a * dkap_a * near))
    dxm, dsm = blocks.unpack(dx), blocks.unpack(ds)
    step = _step_length(sc, *sc.scaled(dxm, dsm), k, dtau, dkap)[1]

    blk = step[:, None, None, None]
    x_m = [hermitize(xb + blk * dxb) for xb, dxb in zip(cur.xm, dxm)]
    s_m = [hermitize(sb + blk * dsb) for sb, dsb in zip(cur.sm, dsm)]
    tau = tau + step * dtau
    kappa = kappa + step * dkap
    # the model is homogeneous of degree one: rescale the iterate so
    # tau + kappa stays O(1) instead of drifting along the ray
    inv = 2.0 / (tau + kappa)
    nxt = _Iterate([xb * inv[:, None, None, None] for xb in x_m],
                   [sb * inv[:, None, None, None] for sb in s_m],
                   (cur.y + step[:, None] * dy) * inv[:, None], tau * inv, kappa * inv)
    return nxt, step, sigma


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
    r, n = data["A"].shape
    if np.any(data["zero_row_ray"]):
        return [_infeasible_result(program, data["zero_row_ray"], None,
                                   "zero row with nonzero rhs", 0) for _ in objectives]
    if r > 0 and (np.linalg.norm(data["b_perp"])
                  > settings.feas_tol * (1 + np.linalg.norm(data["b"]))):
        # equality system itself is inconsistent; Farkas direction is immediate
        return [_infeasible_result(program, data["d_inv"] * data["b_perp"], None,
                                   "inconsistent equalities", 0) for _ in objectives]

    model = _Model(data)
    count = len(objectives)
    c = np.zeros((count, n))
    for k, obj in enumerate(objectives):
        c[k, :len(obj)] = obj
    c *= program.sense
    results: list[SolveResult | None] = [None] * count
    ids = np.arange(count)                 # each active member's place in `results`
    cur = _Iterate(*[[np.broadcast_to(np.eye(shape[-1], dtype=complex), (count,) + shape).copy()
                      for shape in model.blocks.shapes] for _ in range(2)],
                   np.zeros((count, r)), np.ones(count), np.ones(count))
    best, best_score = cur, np.full(count, np.inf)
    stall = np.zeros(count, dtype=int)
    trace = _log.isEnabledFor(logging.DEBUG)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for it in range(settings.max_iters):
            if not ids.size:
                break
            st = _status(model, c, cur, settings, settings.feas_tol)
            for k in range(ids.size) if trace else ():
                _log.debug("iter %3d member %d mu=%9.2e pres=%8.1e dres=%8.1e gap=%8.1e "
                           "tau=%8.1e kappa=%8.1e", it, ids[k], st.mu[k], st.pres[k],
                           st.dres[k], st.relgap[k], cur.tau[k], cur.kappa[k])
            better = st.finite & (st.score < best_score)
            if better.all():   # iterates are never changed in place
                best = cur
            elif better.any():
                best = _map(functools.partial(_where, better), cur, best)
            best_score = np.where(better, st.score, best_score)

            ended = {k: _optimal_result(program, data, c[k], st.x[k], st.y[k], st.s[k],
                                        cur.tau[k], it) for k in np.flatnonzero(st.optimal)}
            if it >= 1:
                ended.update((k, _certificate(program, data, st, k, it))
                             for k in np.flatnonzero(st.infeasible | st.unbounded))
            notes = {k: "iterate diverged (non-finite values)" for k in np.flatnonzero(~st.finite)}
            go = [k for k in range(ids.size) if k not in ended and k not in notes]
            steps = []                            # (members, _newton's output)
            if go:
                parts = (cur, c, st) if len(go) == ids.size else _take((cur, c, st), go)
                try:
                    steps = [(go, _newton(model, *parts))]
                except (np.linalg.LinAlgError, ValueError):
                    # advance the members one by one: a member whose factorization
                    # fails ends alone, the others take the step of any stack
                    for k in go:
                        try:
                            steps.append(([k], _newton(model, *_take((cur, c, st), [k]))))
                        except (np.linalg.LinAlgError, ValueError) as exc:
                            notes[k] = f"linear algebra failure: {exc}"
            keep = np.zeros(0, dtype=int)
            if steps:
                moved = np.array([k for members, _ in steps for k in members])
                nxt, step, sigma = _map(_concat, *[out for _, out in steps])
                for j in range(moved.size) if trace else ():
                    _log.debug("        member %d sigma=%8.1e step=%6.3f",
                               ids[moved[j]], sigma[j], step[j])
                collapsed = ~np.isfinite(step) | (step <= 1e-13)
                run = np.where(step <= 1e-7, stall[moved] + 1, 0)
                notes.update((k, "step length collapsed") for k in moved[collapsed])
                notes.update((k, "no further progress (stalled steps)")
                             for k in moved[~collapsed & (run >= 3)])
                ok = ~collapsed & (run < 3)
                keep, cur, stall = moved[ok], nxt if ok.all() else _take(nxt, ok), run[ok]
            ended.update((k, _fallback(program, model, settings, best, best_score, c, k, note, it))
                         for k, note in notes.items())
            if ended:
                for k, res in ended.items():
                    results[ids[k]] = res
                ids, c = ids[keep], c[keep]
                best, best_score = _take(best, keep), best_score[keep]
        for k in range(ids.size):   # members left after the last iteration
            results[ids[k]] = _fallback(program, model, settings, best, best_score, c, k,
                                        "iteration limit reached", settings.max_iters)
    return results


def _original_rows(data: dict, y: np.ndarray) -> np.ndarray:
    """Multipliers y of the reduced rows as multipliers of the original rows."""
    return data["d_inv"] * (data["u_r"] @ y)


def _optimal_result(program, data, c, x, y, s, tau, iters) -> SolveResult:
    sense = program.sense
    a, b = data["A"], data["b"]
    r = a.shape[0]
    xs = x / tau
    ys = y / tau
    ss = s / tau
    y_orig = _original_rows(data, ys)
    duals = {g.name: g.value(sense * y_orig) for g in program.eq_groups}
    duals.update((g.name, smat(sense * ss[program.block_slice(g.slack)], g.slack.cdim))
                 for g in program.psd_groups)

    pobj = sense * float(c @ xs)
    dobj = sense * float(b @ ys) if r else 0.0
    res = {
        "primal": float(np.linalg.norm((a @ xs) - b)) if r else 0.0,
        "dual": float(np.linalg.norm((a.T @ ys if r else 0.0) + ss - c)),
        "compl": float(xs @ ss),
        "relgap": abs(pobj - dobj) / (1 + abs(pobj) + abs(dobj)),
    }
    return SolveResult(Status.OPTIMAL, pobj, dobj, program.unpack_blocks(xs), duals,
                       gap=abs(pobj - dobj), iterations=iters, residuals=res)


def _certificate(program, data, st: _Check, k: int, iters: int) -> SolveResult:
    """Member k's Infeasible or Unbounded result, as its status test says."""
    if st.infeasible[k]:
        return _infeasible_result(program, _original_rows(data, st.y[k] / st.by[k]),
                                  st.s[k] / st.by[k], "", iters)
    pv = -np.inf if program.sense > 0 else np.inf
    return SolveResult(Status.UNBOUNDED, pv, pv, iterations=iters, certificate={
        "kind": "improving-ray", "ray_blocks": program.unpack_blocks(st.x[k] / -st.cx[k])})


def _fallback(program, model: _Model, settings, best: _Iterate, best_score, c, k, note,
              iters) -> SolveResult:
    """Member k's result when it ends without an optimum: a certificate if its
    best iterate passes `_status` at ten times feas_tol, else NumericalFailure."""
    st = _status(model, c[[k]], _take(best, [k]), settings, settings.feas_tol * 10)
    if st.infeasible[0] or st.unbounded[0]:
        return _certificate(program, model.data, st, 0, iters)
    return SolveResult(Status.NUMERICAL_FAILURE, np.nan, np.nan, iterations=iters,
                       residuals={"note": note, "best_score": float(best_score[k])})


def _infeasible_result(program, y_orig, s_vec, note, iters) -> SolveResult:
    rays = {g.name: g.value(y_orig) for g in program.eq_groups}
    cert = {"kind": "primal-infeasibility", "equality_ray": rays, "note": note}
    if s_vec is not None:
        cert["dual_slack"] = program.unpack_blocks(s_vec)
    pv = np.inf if program.sense > 0 else -np.inf
    return SolveResult(Status.INFEASIBLE, pv, pv, certificate=cert, iterations=iters,
                       residuals={"note": note} if note else {})
