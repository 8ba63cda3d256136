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
once in `herm`, each as a `LinearMap` holding the nonzeros of its real
matrix in `svec` coordinates, and `ConicProgram.equality_rows` places them
in the block's columns; maps and rows are one sparse type, `herm._Rows`.
The solver knows nothing of tensor factors: a map that is a partial trace
followed by another map carries its `herm.LocalForm`, and `herm.LocalSchur`
contracts the scalings of a block by these forms.  `compile` normalizes the
equality rows to A_n, forms their Gram matrix G once, and takes one
threshold t on its eigenvalues.  The blocks alone choose A's form: a block
whose dense Schur product costs more real multiply-adds than
`_LOCAL_SCHUR_MACS` is large (see `_BlockRows`), and a program with a large
block whose rows pass the Cholesky test `_full_rank` keeps them as stated,
U_r the identity, each large block assembling its part of M = A_n W A_n' by
local contraction.  Every other program takes the eigenvectors of G above
t, U_r, and the dense rows A = U_r' A_n, every block the dense product;
b_n's part along the other eigenvectors, b_perp, certifies inconsistent
rows.

One loop, `solve_many`, solves a program for a batch of objectives on
stacked iterates; `solve` is its one-member case.  The iterate and every
per-block quantity of a step are one stack per block order, (members,
blocks of that order, d, d), and `_Blocks` converts them to and from the
svec vectors that A acts on by one gather or scatter.  The Newton step is a
sequence of phases, as in the NT-scaling method of Todd-Toh-Tutuncu (SIAM
J. Optim. 1998) and SDPT3: `_Scaling` (per block order, F with F^-1 X F^-1'
= F' S F = diag(lam), and W = F F'), `_Normal` (the Schur complement
M = A W A', assembled into buffers the solve keeps, its Cholesky factor and
the blocked substitution that applies M^-1 without an inverse of the
factor), `_direction` (predictor and corrector, each solved in the scaled
space, where dx~ + ds~ is the target, and unscaled by F) and `_step_length`
(on the scaled directions).  `_status` is the one place a status is
decided: the loop calls it at feas_tol, and a member that ends without an
optimum has its best iterate tested at ten times that.  The solver is
deterministic: no randomized pivoting, identical inputs give identical
iterates, and a member's iterates do not depend on the rest of its batch,
nor a block's on the other blocks of its order.  Enable DEBUG on the
``freemarg.solver`` logger for a per-iteration diagnostic trace.
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
from .herm import (LinearMap, LocalForm, LocalSchur, _coords, _first_of_runs, _Rows,
                   hermitize, identity_map, smat, svec)


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
    # per term, a block and the map of its coefficients in the group's rows
    terms: list[tuple[BlockRef, LinearMap]]
    # the svec of the output basis element of each row, if the rows are not
    # the output's svec coordinates
    basis: np.ndarray | None = None

    def value(self, y: np.ndarray) -> np.ndarray | float:
        """The group's entries of y (..., rows), a number or a Hermitian
        matrix per vector of the stack: on rows in a `basis`, the sum of its
        elements weighted by them, one vector-matrix product per vector."""
        ys = y[..., self.rows]
        if self.basis is not None:
            return smat(np.matmul(ys[..., None, :], self.basis)[..., 0, :],
                        math.isqrt(self.basis.shape[1]))
        return ys[..., 0] if self.scalar else smat(ys, math.isqrt(ys.shape[-1]))


@dataclass
class _PsdGroup:
    name: str
    slack: BlockRef


# a block and the map applied to it
Term = tuple[BlockRef, LinearMap]


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
        # a Farkas ray of the equality rows known as they are stated, by row
        # (see `programs.StringRows`): the program is infeasible unsolved
        self.ray: dict[int, float] = {}

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

    def _append_rows(self, name: str, terms: list, rhs: np.ndarray, scalar: bool,
                     basis: np.ndarray | None = None):
        start = len(self._rhs)
        self._rhs.extend(rhs)
        self.eq_groups.append(_EqGroup(name, slice(start, len(self._rhs)), scalar, terms, basis))
        self._compiled = None

    @property
    def num_rows(self) -> int:
        return len(self._rhs)

    @staticmethod
    def _map_terms(name: str, terms: Sequence[Term], d: int) -> list:
        """The terms, each map checked against its block and the output."""
        for ref, lmap in terms:
            if lmap.in_dim != ref.cdim:
                raise ValueError(f"constraint {name!r}: term input dim {lmap.in_dim} != "
                                 f"{ref.cdim} of block {ref.name!r}")
            if lmap.out_dim != d:
                raise ValueError(f"constraint {name!r}: term output dim {lmap.out_dim} != {d}")
        return list(terms)

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

    def add_basis_equality(self, name: str, terms: Sequence[Term], rhs: np.ndarray,
                           basis: np.ndarray):
        """sum_j map_j(X_j) = rhs, one row per element of an orthonormal set
        of Hermitian matrices, `basis` (their svec, one row each): each map's
        rows are the coordinates of its output along them."""
        for ref, lmap in terms:
            if lmap.in_dim != ref.cdim or lmap.nz.shape[0] != len(basis):
                raise ValueError(f"constraint {name!r}: term of shape {lmap.nz.shape} on block "
                                 f"{ref.name!r} of order {ref.cdim} in {len(basis)} rows")
        self._append_rows(name, list(terms), np.asarray(rhs, dtype=float), False, basis)

    def add_psd_inequality(self, name: str, terms: Sequence[Term],
                           const: np.ndarray | None = None):
        """sum_j map_j(X_j) + const >= 0 (PSD), via a slack block S and the
        rows sum_j map_j(X_j) - S = -const; S's term is minus the identity."""
        d = terms[0][1].out_dim
        terms = self._map_terms(name, terms, d)
        slack = BlockRef(f"{name}.slack", d, len(self.blocks))
        self._append_block(slack)
        rhs = np.zeros((d, d), dtype=complex) if const is None else -np.asarray(const, complex)
        self._append_rows(f"{name}.def", terms + [(slack, identity_map(d, -1.0))],
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

    def equality_rows(self) -> tuple[_Rows, np.ndarray]:
        """The equality rows by their nonzeros, row by row, and their
        right-hand sides.  Entries shared by terms are summed in the order of
        the terms, as adding the terms to a zero matrix one by one sums them."""
        parts = [(np.zeros(0, dtype=np.int64),) * 2 + (np.zeros(0),)]
        for g in self.eq_groups:
            for ref, lmap in g.terms:
                start = self.block_slice(ref).start
                parts.append((g.rows.start + lmap.nz.rows, start + lmap.nz.cols, lmap.nz.vals))
        rows, cols, vals = (np.concatenate(p) for p in zip(*parts))
        a = _Rows.summed(rows, cols, vals, (len(self._rhs), self.num_cols))
        return a, np.array(self._rhs)

    def compile(self) -> dict:
        """Assemble (A, b), normalize the equality rows, and reduce them if
        they are rank-deficient.  The objective is not part of the compiled
        data, so every objective of the program shares it."""
        if self._compiled is not None:
            return self._compiled
        a, b = self.equality_rows()
        m = a.shape[0]

        # a zero row keeps its right-hand side: it is a dependent row, and
        # what the reduction leaves of its b_i is tested as any other's
        norms = a.row_norms()
        d_inv = 1.0 / np.where(norms > 1e-14, norms, 1.0)
        a_n = a._replace(vals=a.vals * d_inv[a.rows])
        b_n = b * d_inv
        nonzeros = [a_n.columns(self.block_slice(blk)) for blk in self.blocks]
        large = [_BlockRows.large(int(_first_of_runs(nz[0]).sum()), blk.cdim)
                 for nz, blk in zip(nonzeros, self.blocks)]

        # a program without a large block keeps the dense A, and so the
        # rounding of its products, to which feasible sets without an
        # interior point are sensitive; the Gram matrix G of the rows is
        # formed once, by the dense product there and from the nonzeros else
        if not any(large):
            a_n = a_n.dense()
        gram = a_n.gram() if isinstance(a_n, _Rows) else a_n @ a_n.T
        # the one rank threshold: an eigenvalue of G, a squared singular
        # value of the rows, counts above t, far above the rounding error
        # of G, about m eps ||G|| <= m eps tr(G)
        t = 10 * m * np.finfo(float).eps * np.trace(gram)
        if any(large) and _full_rank(gram, t):
            # the rows themselves are a basis, and U_r the identity
            diag = np.arange(m)
            u_r, a_red, b_red = _Rows(diag, diag, np.ones(m), (m, m)), a_n, b_n
            b_perp = np.zeros(m)
        else:
            # the eigenvectors of G above t, eigenvalues descending, and
            # b_perp b_n's part along the rest: on a set without an interior
            # point the dense steps converge far more often on the rows'
            # span in this basis than in rows aligned with the marginals.
            # Rows kept by their nonzeros are made dense only for the product
            lam, u = np.linalg.eigh(gram)
            r = int(np.sum(lam > t))
            u_r, u_0 = u[:, ::-1][:, :r], u[:, :m - r]
            a_red = u_r.T @ (a_n.dense() if isinstance(a_n, _Rows) else a_n)
            b_red, b_perp = u_r.T @ b_n, u_0 @ (u_0.T @ b_n)

        # a large block takes the local layout in the rows of A_n, which are
        # those of A where A keeps its nonzeros; in dense rows, and so in
        # rank-deficient ones, every block takes the dense layout, from its
        # columns of A, or of A_n's nonzeros scattered into zeros
        block_rows = []
        for (rows, coords, vals), blk, big in zip(nonzeros, self.blocks, large):
            if not isinstance(a_red, _Rows):
                block_rows.append(_BlockRows.of(a_red[:, self.block_slice(blk)], blk.cdim))
            elif big:
                block_rows.append(_BlockRows.of_local(self._local_terms(blk), d_inv))
            else:
                part = np.zeros((m, blk.cdim ** 2))
                part[rows, coords] = vals
                block_rows.append(_BlockRows.of(part, blk.cdim))
        self._compiled = {
            "A": a_red, "b": b_red,
            "u_r": u_r, "d_inv": d_inv, "b_perp": b_perp,
            "dims": [blk.cdim for blk in self.blocks],
            "block_rows": block_rows,
        }
        return self._compiled

    def _local_terms(self, blk: BlockRef) -> list[tuple[slice, LocalForm]]:
        """The rows and a `LocalForm` of each group with a term on the block,
        all over the same factors: those of the first group whose one term
        on the block has a form.  A group's form is that of its term, if it
        has one term on the block with a form over these factors; else it
        keeps every factor, with the matrix of its summed terms as inner."""
        groups = [(g.rows, [lmap for ref, lmap in g.terms if ref == blk]) for g in self.eq_groups]
        groups = [(rows, maps) for rows, maps in groups if maps]
        own = [maps[0].local if len(maps) == 1 else None for _, maps in groups]
        dims = next((form.dims for form in own if form is not None), (blk.cdim,))
        keep_all = tuple(range(len(dims)))
        return [(rows, form if form is not None and form.dims == dims
                 else LocalForm(dims, keep_all, sum(lmap.dense() for lmap in maps)))
                for (rows, maps), form in zip(groups, own)]

    # -- value helpers -----------------------------------------------------

    def unpack_blocks(self, x: np.ndarray) -> dict[str, np.ndarray]:
        """svec vectors (..., n) -> complex Hermitian matrices per block."""
        return {blk.name: smat(x[..., self.block_slice(blk)], blk.cdim) for blk in self.blocks}


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


def _full_rank(gram: np.ndarray, t: float) -> bool:
    """Whether every eigenvalue of the Gram matrix G is above t, by a
    Cholesky factor of G - t I, which exists only if lambda_min(G) > t up
    to its own rounding; a False near t may still be full rank, which
    `compile` settles by the eigenvalues themselves."""
    try:
        np.linalg.cholesky(gram - t * np.eye(gram.shape[0]))
    except np.linalg.LinAlgError:
        return False
    return True


# A block is large, and assembles its part of the Schur complement by local
# contraction, when its dense product costs more real multiply-adds per
# member than this (see `_BlockRows.large`); below it the local path's many
# small array operations cost more than they save
_LOCAL_SCHUR_MACS = 1 << 24


class _BlockRows(NamedTuple):
    """One block's rows, laid out for its part of the Schur complement,
    tr(A_k G A_l G) for the rows k and l, on one of two layouts: a small
    block takes the dense one, a large block the local one.

    The dense layout is built from one table, the block's dense columns of
    A (`of`).  It keeps `mats`, the matrices A_l of the rows with a nonzero
    there, and adds its part to M by the dense product.

    On the local layout each row group has a `LocalForm` (L_X, X) on the
    block (see `ConicProgram._local_terms`): the group's rows are
    D_X L_X K_tr(X), D_X its part of the normalization d_inv times the
    form's scale (-1 for a slack's term).  The layout adds its part to M,
    in the rows of A = A_n: D_X L_X S_XY L_Y' D_Y for each pair of groups,
    of kept sets X and Y, with S_XY the Schur block of the two partial
    traces, which `herm.LocalSchur` contracts from G without forming any
    G A_l G.  `local` holds the `LocalSchur` of the groups' kept sets, one
    per group, and per group (its slice of rows, D_X, L_X or None for the
    identity), L_X its map matrix, shared.

    `rows` are the rows kept, ascending: those with a nonzero in the block,
    or on the local layout the rows of its groups."""

    rows: np.ndarray
    mats: np.ndarray | None
    local: tuple | None = None

    @staticmethod
    def large(n: int, d: int) -> bool:
        """Whether a block of order d with n rows on the dense layout is
        large.  The dense product costs 4 n d^3 + 2 n^2 d^2 real multiply-adds
        per member: n complex products A_l G of order d, four real ones each,
        then one real product of their n (re, im) rows of 2 d^2 entries."""
        return 4 * n * d ** 3 + 2 * n * n * d * d > _LOCAL_SCHUR_MACS

    @staticmethod
    def of(part: np.ndarray, d: int) -> "_BlockRows":
        """The dense layout of a block of order d from its dense column
        table of A, one row per row of A: the rows with a nonzero in it."""
        rows = np.flatnonzero(np.any(part, axis=1))
        return _BlockRows(rows, smat(part[rows], d))

    @staticmethod
    def of_local(terms: list[tuple[slice, LocalForm]], d_inv: np.ndarray) -> "_BlockRows":
        """The local layout of a block, from the rows of each of its groups
        and the group's local form (see `_local_terms`)."""
        dims = terms[0][1].dims if terms else ()   # () for a block in no row
        index = np.arange(d_inv.size)
        active = np.concatenate([index[:0]] + [index[rows] for rows, _ in terms])
        return _BlockRows(active, None, (
            LocalSchur(dims, [form.keep for _, form in terms]),
            [(rows, d_inv[rows] * form.scale, form.inner) for rows, form in terms]))

    def add_schur(self, g: np.ndarray, m: np.ndarray):
        """Add tr(A_k G A_l G) over this block to m[:, l, k], for the
        members' scalings g (count, d, d)."""
        if self.local is not None:
            self._add_local(g, m)
            return
        # the real part of the inner product of the entries of A_k G and
        # (A_l G)', a real product of their (re, im) pairs with those of
        # conj(A_l G)'
        count, d, n = g.shape[0], g.shape[-1], self.rows.size
        ag = np.matmul(self.mats.reshape(n * d, d), g).reshape(count, n, d, d)
        ag_h = np.swapaxes(ag, -1, -2).copy()
        np.conjugate(ag_h, out=ag_h)
        part = np.matmul(ag.reshape(count, n, d * d).view(np.float64),
                         np.swapaxes(ag_h.reshape(count, n, d * d).view(np.float64), -1, -2))
        if n == m.shape[-1]:
            m += part
        else:
            m[:, self.rows[:, None], self.rows] += part

    def _add_local(self, g: np.ndarray, m: np.ndarray):
        """The local layout's add_schur: per pair of kept factor sets, its
        block added to m and its transpose to the mirror place; each S
        block is scaled in place, and freed once added."""
        local_schur, groups = self.local
        schur = local_schur(g)
        while schur:
            (x, y), part = schur.popitem()
            (rows_x, d_x, l_x), (rows_y, d_y, l_y) = groups[x], groups[y]
            if l_x is not None:
                part = l_x @ part
            if l_y is not None:
                part = part @ l_y.T
            part *= d_x[:, None]
            part *= d_y
            m[:, rows_x, rows_y] += part
            if x != y:
                m[:, rows_y, rows_x] += np.swapaxes(part, -1, -2)


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


# M^-1 is applied by blocked substitution over the Cholesky factor, with
# diagonal blocks of this order, the only parts of the factor inverted
_INV_LEAF = 64


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
        self.a, self.b = data["A"], data["b"]
        self.at = self.a.T if isinstance(self.a, _Rows) else np.ascontiguousarray(self.a.T)
        self.block_rows = data["block_rows"]
        self.blocks = _Blocks(data["dims"])
        self.nu = sum(data["dims"]) + 1.0
        self.norm_b = 1.0 + np.linalg.norm(self.b)
        self._buffers: np.ndarray | None = None

    def schur_buffers(self, count: int) -> tuple[np.ndarray, np.ndarray]:
        """M, zeroed, and room for its symmetrized copy, for `count` members:
        views of one buffer the model keeps for its Newton steps, so that no
        step allocates them anew, and each step overwrites the last one's M."""
        if self._buffers is None or self._buffers.shape[1] < count:
            r = self.a.shape[0]
            # one allocation: once freed, a chunk this large lifts glibc's
            # trim threshold above what a step allocates, so that the
            # factor of later steps is not unmapped and faulted in again
            self._buffers = np.empty((2, count, r, r))
        m, sym = self._buffers[:, :count]
        m.fill(0.0)
        return m, sym


# an iterate's residuals and status tests, per member: x, y and s as vectors,
# g1, g2 and g3 the dual, primal and gap residual directions, and pres, dres
# and relgap those of the candidate (x, y, s) / tau
_Check = namedtuple("_Check", "x y s g1 g2 g3 cx by mu gap_inner pres dres relgap score "
                              "finite optimal infeasible unbounded")


def _status(model: _Model, c: np.ndarray, cur: _Iterate, settings: SolverSettings,
            cert_tol: float) -> _Check:
    """The one status test.  A member is Optimal if its candidate meets
    feas_tol and gap_tol (score <= 1), its primal residual relative to
    1 + ||b|| + ||x|| and its dual one to 1 + ||c||; else y / b'y certifies
    infeasibility if ||A'y + s|| / b'y <= cert_tol, or x / -c'x
    unboundedness if ||A x|| / -c'x <= cert_tol."""
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
    pres = (np.linalg.norm(g2 / tau[:, None], axis=-1)
            / (model.norm_b + np.linalg.norm(x / tau[:, None], axis=-1)))
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
    the iterate: F, lam, G and r, which holds lam^-1/2 twice along the block
    axis, for the x and the s half of a step's scaled direction."""

    def __init__(self, xm: list, sm: list):
        self.f, self.lam, self.g, self.r = [], [], [], []
        for xb, sb in zip(xm, sm):
            lx, ls = np.linalg.cholesky(xb), np.linalg.cholesky(sb)
            _, lam, vh = np.linalg.svd(_ct(ls) @ lx)
            if np.any(lam <= 0):
                raise np.linalg.LinAlgError("scaled block lost definiteness")
            root = np.sqrt(lam)
            f = (lx @ _ct(vh)) / root[..., None, :]
            self.f.append(f)
            self.lam.append(lam)
            self.g.append(f @ _ct(f))
            self.r.append(np.concatenate([1.0 / root] * 2, axis=1))

    def w(self, mats: list) -> list:
        """W V W, block by block."""
        return [g @ m @ g for g, m in zip(self.g, mats)]

    def half(self, mats: list) -> list:
        """F' V F, block by block."""
        return [_ct(f) @ m @ f for f, m in zip(self.f, mats)]

    def unscale(self, mats: list) -> list:
        """F V F', block by block: a scaled matrix unscaled."""
        return [f @ m @ _ct(f) for f, m in zip(self.f, mats)]


class _Normal:
    """M = A W A' per member, factored: its Cholesky factor L and the
    inverses of L's diagonal blocks of order `_INV_LEAF`.  M^-1 is applied
    by blocked forward and back substitution, in which the rest of L enters
    by products; no inverse of L is formed."""

    @classmethod
    def assemble(cls, model: _Model, g_list: list, count: int) -> "_Normal":
        """M for the members' scalings: the sum over blocks of
        tr(A_k G A_l G).  M and its symmetrized copy live in the model's
        buffers, so that the factor is the one r x r array a step allocates."""
        m_mat, sym = model.schur_buffers(count)
        for (order, at), blk in zip(model.blocks.place, model.block_rows):
            blk.add_schur(g_list[order][:, at], m_mat)
        # the Hermitian part of M, as `herm.hermitize` forms it
        np.add(m_mat, np.swapaxes(m_mat, -1, -2), out=sym)
        np.divide(sym, 2, out=sym)
        return cls(sym)

    def __init__(self, m: np.ndarray):
        """Factor the symmetric positive definite stack m (count, r, r)."""
        count, r = m.shape[:2]
        self.m = m
        reg = 0.0
        for attempt in range(4):
            try:
                self.low = np.linalg.cholesky(m + reg * np.eye(r) if reg else m)
                break
            except np.linalg.LinAlgError:
                # only a lone member is regularized: a stack that fails is
                # advanced member by member instead
                if count > 1 or attempt == 3:
                    raise np.linalg.LinAlgError("KKT factorization failed") from None
                reg = max(reg * 100, 1e-12 * (1 + np.trace(m[0]) / max(r, 1)))
        self.cuts = list(range(0, r, _INV_LEAF)) + [r]
        self.inv = [np.linalg.inv(self.low[..., lo:hi, lo:hi])
                    for lo, hi in zip(self.cuts, self.cuts[1:])]

    def substitute(self, rhs: np.ndarray) -> np.ndarray:
        """L'^-1 L^-1 rhs: block by block, forward through L, then back
        through L'.  With one block this is li' (li rhs), li = L^-1."""
        low, spans = self.low, list(zip(self.inv, self.cuts, self.cuts[1:]))
        y = np.empty_like(rhs)
        for inv, lo, hi in spans:
            part = rhs[:, lo:hi]
            if lo:
                part = part - low[:, lo:hi, :lo] @ y[:, :lo]
            y[:, lo:hi] = inv @ part
        x = np.empty_like(rhs)
        for inv, lo, hi in reversed(spans):
            part = y[:, lo:hi]
            if hi < rhs.shape[1]:
                part = part - np.swapaxes(low[:, hi:, lo:hi], -1, -2) @ x[:, hi:]
            x[:, lo:hi] = np.swapaxes(inv, -1, -2) @ part
        return x

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """M^-1 rhs for (count, r, k) right-hand sides; one step of iterative
        refinement buys an extra digit."""
        u = self.substitute(rhs)
        return u + self.substitute(rhs - self.m @ u)


# the constants of one Newton step, per member, which the predictor and the
# corrector share: q = A W c, u2 = M^-1 (q + b), the dtau pivot den, W g1, x
_Step = namedtuple("_Step", "c g1 g2 g3 q u2 den tau kappa w_g1 x")


def _direction(model: _Model, sc: _Scaling, normal: _Normal, k: _Step, eta, target_mu,
               corr: tuple | None) -> tuple:
    """(dx~, ds~, dx, ds, dy, dtau, dkappa) toward complementarity target_mu,
    the residuals cut by the factor 1 - eta (scalars or one per member); corr
    holds the corrector's second-order terms, per block and for tau kappa.
    In the scaled space dx~ + ds~ = T~, T~ = 2 t / (lam_i + lam_j) for the
    target t: ds~ = F' ds F, dx~ = T~ - ds~ and dx = F dx~ F', all block
    stacks.  The predictor (corr None), whose F T~ F' is -X, takes no dx."""
    blocks = model.blocks
    eta_col, mu_col = np.reshape(eta, (-1, 1)), np.reshape(target_mu, (-1, 1, 1))
    targets = [2.0 * ((0.0 if corr is None else -corr[0][j])
                      + np.eye(lam.shape[-1]) * (mu_col - lam * lam)[..., None, :])
               / (lam[..., :, None] + lam[..., None, :]) for j, lam in enumerate(sc.lam)]
    dx_part = (-k.x if corr is None else blocks.pack(sc.unscale(targets))) + eta_col * k.w_g1
    r_tk = target_mu - k.tau * k.kappa - (0.0 if corr is None else corr[1])
    u1 = normal.solve((-_mv(model.a, dx_part) - eta_col * k.g2)[..., None])[..., 0]
    num = -eta * k.g3 + _dot(k.c, dx_part) + _dot(k.q - model.b, u1) + r_tk / k.tau
    dtau = num / k.den
    dy = u1 + dtau[:, None] * k.u2
    dsm = blocks.unpack(-eta_col * k.g1 - _mv(model.at, dy) + k.c * dtau[:, None])
    dls = sc.half(dsm)
    dlx = [t - ds for t, ds in zip(targets, dls)]
    return (dlx, dls, None if corr is None else sc.unscale(dlx), dsm, dy, dtau,
            (r_tk - k.kappa * dtau) / k.tau)


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
    normal = _Normal.assemble(model, sc.g, tau.size)
    q = _mv(model.a, blocks.pack(sc.w(blocks.unpack(c))))
    sol = normal.solve(np.stack([q + b, q, np.broadcast_to(b, q.shape)], axis=-1))
    # stable positive denominator for the dtau pivot:
    #   den = ||(I - Pi) F' c F||^2 + b' M^-1 b + kappa/tau
    resid = blocks.pack(sc.half(blocks.unpack(c - _mv(model.at, sol[..., 1]))))
    den = _dot(resid, resid) + _dot(b, sol[..., 2]) + kappa / tau
    k = _Step(c, st.g1, st.g2, st.g3, q, sol[..., 0], den, tau, kappa,
              blocks.pack(sc.w(blocks.unpack(st.g1))), st.x)

    dlx_a, dls_a, _, _, _, dtau_a, dkap_a = _direction(model, sc, normal, k, 1.0, 0.0, None)
    alpha = _step_length(sc, dlx_a, dls_a, k, dtau_a, dkap_a)[0]
    # <X + alpha dX, S + alpha dS>, scaled: diag(lam) + alpha dx~ and ds~
    a = alpha[:, None, None, None]
    lam_m = [lam[..., :, None] * np.eye(lam.shape[-1]) for lam in sc.lam]
    x_a, s_a = ([lm + a * dl for lm, dl in zip(lam_m, d)] for d in (dlx_a, dls_a))
    gap_aff = (_dot(blocks.pack(x_a), blocks.pack(s_a))
               + (tau + alpha * dtau_a) * (kappa + alpha * dkap_a))
    sigma = np.clip(np.clip(gap_aff / st.gap_inner, 0.0, 1.0) ** 3, 1e-8, 1.0 - 1e-8)

    # Mehrotra corrector in the scaled space.  Off the central path (some
    # lam_i^2 below mu/100) its second-order term points at the boundary
    # and the steps shrink to nothing, so such members take the
    # first-order step to the same target instead
    near = np.min([np.min(lam * lam, axis=(1, 2)) for lam in sc.lam], axis=0) >= 1e-2 * st.mu
    corr = [hermitize(dlx @ dls) * near[:, None, None, None] for dlx, dls in zip(dlx_a, dls_a)]
    dlx, dls, dxm, dsm, dy, dtau, dkap = _direction(model, sc, normal, k, 1.0 - sigma,
                                                    sigma * st.mu, (corr, dtau_a * dkap_a * near))
    step = _step_length(sc, dlx, dls, k, dtau, dkap)[1]

    tau, kappa = tau + step * dtau, kappa + step * dkap
    # the model is homogeneous of degree one: rescale the iterate so
    # tau + kappa stays O(1) instead of drifting along the ray
    inv = 2.0 / (tau + kappa)
    blk, scale = step[:, None, None, None], inv[:, None, None, None]
    nxt = _Iterate([hermitize(xb + blk * dxb) * scale for xb, dxb in zip(cur.xm, dxm)],
                   [hermitize(sb + blk * dsb) * scale for sb, dsb in zip(cur.sm, dsm)],
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
    if program.ray:
        ray = np.zeros(program.num_rows)
        for row, weight in program.ray.items():
            ray[row] = weight
        return [_infeasible_result(program, ray, None, "a string stated with two values", 0)
                for _ in objectives]
    data = program.compile()
    r, n = data["A"].shape
    m = data["u_r"].shape[0]
    # b_perp, b_n's part along the directions the reduction dropped (zero
    # rows among them; none where it kept every row), is tested at no less
    # than the rounding of the projection
    if (np.linalg.norm(data["b_perp"]) > max(settings.feas_tol, 10 * m * np.finfo(float).eps)
            * (1 + np.linalg.norm(data["b"]))):
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

            done = np.flatnonzero(st.optimal)
            ended = dict(zip(done, _optimal_results(program, data, *_take(
                (c, st.x, st.y, st.s, cur.tau), done), it))) if done.size else {}
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
    """Multipliers y (..., r) of the reduced rows as multipliers of the
    original rows."""
    return data["d_inv"] * _mv(data["u_r"], y)


def _inner(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """u_k . v_k for each member k of the stacks (count, n), one dot product
    each, as `u_k @ v_k` forms it; `_dot` sums in another order."""
    return np.matmul(u[:, None, :], v[:, :, None])[:, 0, 0]


def _optimal_results(program, data, c, x, y, s, tau, iters) -> list[SolveResult]:
    """The Optimal results of the members of a stack, built from stacked
    arrays: every product is one per member (`_mv`, `_inner`), so a result
    is the one its member gets alone, bit for bit, and holds arrays of its
    own."""
    sense = program.sense
    a, b = data["A"], data["b"]
    r = a.shape[0]
    col = tau[:, None]
    xs, ys, ss = x / col, y / col, s / col
    y_orig = _original_rows(data, ys)
    duals = {g.name: g.value(sense * y_orig) for g in program.eq_groups}
    duals.update((g.name, smat(sense * ss[:, program.block_slice(g.slack)], g.slack.cdim))
                 for g in program.psd_groups)
    blocks = program.unpack_blocks(xs)

    pobj = sense * _inner(c, xs)
    dobj = sense * _inner(np.broadcast_to(b, ys.shape), ys) if r else np.zeros(len(xs))
    res_p, res_d = _mv(a, xs) - b, _mv(a.T, ys) + ss - c
    primal, dual = np.sqrt(_inner(res_p, res_p)), np.sqrt(_inner(res_d, res_d))
    compl = _inner(xs, ss)
    gap = np.abs(pobj - dobj)
    relgap = gap / (1 + np.abs(pobj) + np.abs(dobj))
    return [SolveResult(Status.OPTIMAL, float(pobj[k]), float(dobj[k]),
                        {name: m[k].copy() for name, m in blocks.items()},
                        {name: v[k].copy() for name, v in duals.items()},
                        gap=float(gap[k]), iterations=iters,
                        residuals={"primal": float(primal[k]), "dual": float(dual[k]),
                                   "compl": float(compl[k]), "relgap": float(relgap[k])})
            for k in range(len(xs))]


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
