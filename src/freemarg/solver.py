"""Dense semidefinite programming over complex Hermitian blocks.

Programs are stated over complex Hermitian PSD matrix variables with affine
equality constraints and affine PSD inequalities.  The solver iterates on
the complex Hermitian blocks themselves; a block of order d has d*d real
coordinates (`svec`) in the orthonormal `hermitian_basis(d)`.  The method is
a primal-dual interior-point method with Nesterov-Todd scaling on a
homogeneous self-dual model, so primal infeasibility and unboundedness
surface as explicit certificates instead of garbage numbers.

The solver is deterministic: no randomized pivoting, identical inputs give
identical iterates.  Enable DEBUG on the ``freemarg.solver`` logger for a
per-iteration diagnostic trace.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Sequence

import numpy as np
import scipy.linalg as sla

from .config import DEFAULT_TOLS
from .herm import SubsystemLayout, hermitize, permute_array, ptrace_array, ptranspose_array


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
# Linear maps between Hermitian operator spaces (with explicit adjoints)
# ---------------------------------------------------------------------------


class LinMap:
    """Base class; subclasses provide `apply` and the trace-inner-product
    adjoint `adjoint` satisfying tr(H @ apply(M)) == tr(adjoint(H) @ M)."""

    in_dim: int
    out_dim: int

    def apply(self, m: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def adjoint(self, h: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def scaled(self, alpha: float) -> "LinMap":
        return ScaleMap(self, alpha)


class IdentityMap(LinMap):
    def __init__(self, dim: int):
        self.in_dim = self.out_dim = dim

    def apply(self, m):
        return m

    def adjoint(self, h):
        return h


class ScaleMap(LinMap):
    def __init__(self, inner: LinMap, alpha: float):
        self.inner, self.alpha = inner, float(alpha)
        self.in_dim, self.out_dim = inner.in_dim, inner.out_dim

    def apply(self, m):
        return self.alpha * self.inner.apply(m)

    def adjoint(self, h):
        return self.alpha * self.inner.adjoint(h)


class ComposeMap(LinMap):
    def __init__(self, outer: LinMap, inner: LinMap):
        if inner.out_dim != outer.in_dim:
            raise ValueError("composed map dimensions do not match")
        self.outer, self.inner = outer, inner
        self.in_dim, self.out_dim = inner.in_dim, outer.out_dim

    def apply(self, m):
        return self.outer.apply(self.inner.apply(m))

    def adjoint(self, h):
        return self.inner.adjoint(self.outer.adjoint(h))


class PartialTraceMap(LinMap):
    """M on `layout` -> tr over the complement of `keep` (original order)."""

    def __init__(self, layout: SubsystemLayout, keep: Sequence[str]):
        self.layout = layout
        self.keep_axes = layout.axes_of(keep)
        self.dims = layout.dims
        self.in_dim = layout.total_dim
        self.out_dim = layout.dim_of(keep)

    def apply(self, m):
        return ptrace_array(m, self.dims, self.keep_axes)

    def adjoint(self, h):
        # tensor with identity on the traced-out factors, at their positions
        n = len(self.dims)
        drop = [a for a in range(n) if a not in self.keep_axes]
        full = h
        order = list(self.keep_axes)
        for a in drop:
            full = np.kron(full, np.eye(self.dims[a]))
            order.append(a)
        # `full` currently carries factors in `order`; permute back to layout order
        perm = [order.index(a) for a in range(n)]
        dims_cur = [self.dims[a] for a in order]
        return permute_array(full, dims_cur, perm)


class PartialTransposeMap(LinMap):
    def __init__(self, layout: SubsystemLayout, part: Sequence[str]):
        self.dims = layout.dims
        self.axes = layout.axes_of(part)
        self.in_dim = self.out_dim = layout.total_dim

    def apply(self, m):
        return ptranspose_array(m, self.dims, self.axes)

    adjoint = apply  # partial transpose is self-adjoint


class PermuteMap(LinMap):
    """Reorder tensor factors of `layout` into `new_order`."""

    def __init__(self, layout: SubsystemLayout, new_order: Sequence[str]):
        self.perm = layout.axes_of(new_order)
        self.dims = layout.dims
        self.new_dims = [self.dims[p] for p in self.perm]
        self.inv = [list(self.perm).index(a) for a in range(len(self.dims))]
        self.in_dim = self.out_dim = layout.total_dim

    def apply(self, m):
        return permute_array(m, self.dims, self.perm)

    def adjoint(self, h):
        return permute_array(h, self.new_dims, self.inv)


class TensorIdentityMap(LinMap):
    """M -> M (x) I_extra / denom, identity factors appended on the right."""

    def __init__(self, in_dim: int, extra_dim: int, denom: float = 1.0):
        self.in_dim = in_dim
        self.extra = extra_dim
        self.denom = float(denom)
        self.out_dim = in_dim * extra_dim

    def apply(self, m):
        return np.kron(m, np.eye(self.extra)) / self.denom

    def adjoint(self, h):
        d = self.in_dim
        t = h.reshape(d, self.extra, d, self.extra)
        return np.trace(t, axis1=1, axis2=3) / self.denom


class ProbeTimesMap(LinMap):
    """M -> tr(P M) * C for fixed Hermitian P (on the input) and C (output)."""

    def __init__(self, probe: np.ndarray, c: np.ndarray):
        self.probe = hermitize(np.asarray(probe, dtype=complex))
        self.c = np.asarray(c, dtype=complex)
        self.in_dim = self.probe.shape[0]
        self.out_dim = self.c.shape[0]

    def apply(self, m):
        return np.trace(self.probe @ m) * self.c

    def adjoint(self, h):
        return np.trace(hermitize(h) @ self.c).real * self.probe


class TraceTimesMap(ProbeTimesMap):
    """M -> tr(M) * C for a fixed Hermitian C."""

    def __init__(self, in_dim: int, c: np.ndarray):
        super().__init__(np.eye(in_dim), c)


# ---------------------------------------------------------------------------
# Real coordinates of Hermitian matrices
# ---------------------------------------------------------------------------

_SQRT2 = np.sqrt(2.0)
_triu_cache: dict[int, tuple[np.ndarray, np.ndarray]] = {}


def _triu(n: int) -> tuple[np.ndarray, np.ndarray]:
    if n not in _triu_cache:
        _triu_cache[n] = np.triu_indices(n, 1)
    return _triu_cache[n]


def svec(m: np.ndarray) -> np.ndarray:
    """Coordinates of Hermitian (..., n, n) matrices in `hermitian_basis(n)`:
    the diagonal, then sqrt2 * (Re, -Im) of each upper entry, row by row.
    The map is an isometry: svec(H) @ svec(K) == tr(H K)."""
    iu, ju = _triu(m.shape[-1])
    off = m[..., iu, ju] * _SQRT2
    pairs = np.stack([off.real, -off.imag], axis=-1).reshape(*off.shape[:-1], -1)
    return np.concatenate([np.diagonal(m, axis1=-2, axis2=-1).real, pairs], axis=-1)


def smat(v: np.ndarray, n: int) -> np.ndarray:
    """Inverse of `svec`: (..., n*n) real coordinates -> Hermitian (..., n, n)."""
    iu, ju = _triu(n)
    off = (v[..., n::2] - 1j * v[..., n + 1::2]) / _SQRT2
    out = np.zeros(v.shape[:-1] + (n, n), dtype=complex)
    diag = np.arange(n)
    out[..., diag, diag] = v[..., :n]
    out[..., iu, ju] = off
    out[..., ju, iu] = off.conj()
    return out


def hermitian_basis(d: int) -> list[np.ndarray]:
    """Orthonormal (trace inner product) basis of d x d Hermitian matrices."""
    return [smat(e, d) for e in np.eye(d * d)]


# ---------------------------------------------------------------------------
# Program construction
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BlockRef:
    name: str
    cdim: int
    index: int
    is_slack: bool = False


@dataclass
class _EqGroup:
    name: str
    rows: slice
    scalar: bool


@dataclass
class _PsdGroup:
    name: str
    slack: BlockRef


Term = tuple[BlockRef, LinMap | None]


class ConicProgram:
    """Block-structured SDP: min/max sum_j tr(C_j X_j) over PSD blocks X_j
    subject to affine equalities and affine-PSD inequality constraints."""

    def __init__(self):
        self.blocks: list[BlockRef] = []
        self._offsets: list[int] = []
        self._rows: list[np.ndarray] = []
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

    def _coeff_row(self, terms: Sequence[Term], probe: np.ndarray) -> np.ndarray:
        row = np.zeros(self.num_cols)
        for ref, lmap in terms:
            h = probe if lmap is None else lmap.adjoint(probe)
            sl = self.block_slice(ref)
            row[sl] += svec(hermitize(h))
        return row

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
        start = len(self._rows)
        row = np.zeros(self.num_cols)
        for ref, probe in terms:
            sl = self.block_slice(ref)
            row[sl] += svec(hermitize(np.asarray(probe, dtype=complex)))
        self._rows.append(row)
        self._rhs.append(float(rhs))
        self.eq_groups.append(_EqGroup(name, slice(start, start + 1), True))
        self._compiled = None

    def add_matrix_equality(self, name: str, terms: Sequence[Term], rhs: np.ndarray):
        """sum_j map_j(X_j) = rhs, expanded over an orthonormal Hermitian basis."""
        rhs = hermitize(np.asarray(rhs, dtype=complex))
        d = rhs.shape[0]
        for ref, lmap in terms:
            out = ref.cdim if lmap is None else lmap.out_dim
            if out != d:
                raise ValueError(f"constraint {name!r}: term output dim {out} != rhs dim {d}")
        start = len(self._rows)
        self._rows.extend(self._coeff_row(terms, h) for h in hermitian_basis(d))
        self._rhs.extend(svec(rhs))
        self.eq_groups.append(_EqGroup(name, slice(start, start + d * d), False))
        self._compiled = None

    def add_psd_inequality(self, name: str, terms: Sequence[Term],
                           const: np.ndarray | None = None):
        """sum_j map_j(X_j) + const >= 0 (PSD), via a slack block."""
        dims = [(t[0].cdim if t[1] is None else t[1].out_dim) for t in terms]
        d = dims[0]
        if any(x != d for x in dims):
            raise ValueError(f"constraint {name!r}: mismatched term dimensions {dims}")
        slack = BlockRef(f"{name}.slack", d, len(self.blocks), is_slack=True)
        self._append_block(slack)
        rhs = np.zeros((d, d), dtype=complex) if const is None else -np.asarray(const, complex)
        self.add_matrix_equality(f"{name}.def", list(terms) + [(slack, ScaleMap(IdentityMap(d), -1.0))], rhs)
        self.psd_groups.append(_PsdGroup(name, slack))

    def set_objective(self, terms: Sequence[tuple[BlockRef, np.ndarray]], sense: str = "min"):
        if sense not in ("min", "max"):
            raise ValueError("sense must be 'min' or 'max'")
        self.sense = +1 if sense == "min" else -1
        c = np.zeros(self.num_cols)
        for ref, coeff in terms:
            sl = self.block_slice(ref)
            c[sl] += svec(hermitize(np.asarray(coeff, dtype=complex)))
        self._c = c
        if self._compiled is not None:
            self._compiled["c"] = self.sense * self._pad(c)

    def with_objective(self, terms, sense: str = "min") -> "ConicProgram":
        """Cheap copy sharing constraint data; only the objective differs."""
        import copy

        clone = copy.copy(self)
        clone._compiled = dict(self._compiled) if self._compiled is not None else None
        clone.set_objective(terms, sense)
        return clone

    def _pad(self, vec: np.ndarray) -> np.ndarray:
        if vec.shape[0] == self.num_cols:
            return vec
        out = np.zeros(self.num_cols)
        out[: vec.shape[0]] = vec
        return out

    # -- compilation -------------------------------------------------------

    def compile(self) -> dict:
        """Assemble (A, b, c), normalize and rank-reduce the equality rows."""
        if self._compiled is not None:
            return self._compiled
        n = self.num_cols
        m = len(self._rows)
        a = np.zeros((m, n))
        for k, row in enumerate(self._rows):
            a[k, : row.shape[0]] = row
        b = np.array(self._rhs)
        c = self.sense * self._pad(self._c if self._c is not None else np.zeros(n))

        norms = np.linalg.norm(a, axis=1)
        keep = norms > 1e-14
        bad = (~keep) & (np.abs(b) > 1e-12)
        inconsistent_zero_row = bool(np.any(bad))
        d_inv = np.where(keep, 1.0 / np.where(keep, norms, 1.0), 0.0)
        a_n = a * d_inv[:, None]
        b_n = b * d_inv

        if m > 0:
            u, sv, vt = np.linalg.svd(a_n, full_matrices=False)
            rank_tol = (sv[0] if sv.size else 0.0) * max(m, n) * 1e-13
            r = int(np.sum(sv > max(rank_tol, 1e-13)))
            u_r = u[:, :r]
            a_red = (sv[:r, None] * vt[:r])
            b_red = u_r.T @ b_n
            b_perp = b_n - u_r @ b_red
        else:
            r = 0
            u_r = np.zeros((0, 0))
            a_red = np.zeros((0, n))
            b_red = np.zeros(0)
            b_perp = np.zeros(0)

        self._compiled = {
            "A": a_red, "b": b_red, "c": c,
            "u_r": u_r, "d_inv": d_inv,
            "b_perp": b_perp,
            "inconsistent_zero_row": inconsistent_zero_row,
            "dims": [blk.cdim for blk in self.blocks],
            "A_mats": [smat(a_red[:, self.block_slice(blk)], blk.cdim) for blk in self.blocks],
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


class _Blocks:
    """Pack/unpack between the stacked svec vector and per-block matrices."""

    def __init__(self, dims: Sequence[int]):
        self.dims = list(dims)
        self.slices = []
        pos = 0
        for n in self.dims:
            self.slices.append(slice(pos, pos + n * n))
            pos += n * n

    def unpack(self, v):
        return [smat(v[sl], n) for sl, n in zip(self.slices, self.dims)]

    def pack(self, mats):
        return np.concatenate([svec(m) for m in mats]) if mats else np.zeros(0)

    def identity(self):
        return [np.eye(n, dtype=complex) for n in self.dims]


def _step_to_boundary(lam: np.ndarray, dm: np.ndarray) -> float:
    """sup { a : diag(lam) + a*dm > 0 } for positive lam: one over minus the
    smallest eigenvalue of diag(lam)^-1/2 dm diag(lam)^-1/2."""
    if np.min(lam) <= 0:
        raise np.linalg.LinAlgError("scaled block lost definiteness")
    r = 1.0 / np.sqrt(lam)
    low = float(np.linalg.eigvalsh(r[:, None] * dm * r)[0])
    return np.inf if low >= -1e-16 else -1.0 / low


def solve(program: ConicProgram, settings: SolverSettings | None = None) -> SolveResult:
    """Solve the program, returning optimum with certificates or an honest
    Infeasible / Unbounded / NumericalFailure status."""
    settings = settings or SolverSettings()
    data = program.compile()
    trace = _log.isEnabledFor(logging.DEBUG)
    sense = program.sense

    a, b, c = data["A"], data["b"], data["c"]
    dims = data["dims"]
    blocks = _Blocks(dims)
    r, n = a.shape

    if data["inconsistent_zero_row"]:
        return _infeasible_result(program, settings, np.zeros(r), note="zero row with nonzero rhs")
    if r > 0 and np.linalg.norm(data["b_perp"]) > settings.feas_tol * (1 + np.linalg.norm(b)):
        # equality system itself is inconsistent; Farkas direction is immediate
        return _infeasible_result(program, settings, None, note="inconsistent equalities",
                                  y_orig=data["d_inv"] * data["b_perp"])

    a_mats = data["A_mats"]

    x_m = blocks.identity()
    s_m = blocks.identity()
    y = np.zeros(r)
    tau, kappa = 1.0, 1.0
    nu = sum(dims) + 1.0

    norm_b = 1.0 + np.linalg.norm(b)
    norm_c = 1.0 + np.linalg.norm(c)

    def w_apply(vec, g_list):
        return blocks.pack([g @ mm @ g for g, mm in zip(g_list, blocks.unpack(vec))])

    status = Status.NUMERICAL_FAILURE
    it = 0
    fail_note = "iteration limit reached"
    x = blocks.pack(x_m)
    s = blocks.pack(s_m)
    best = None          # (score, x_m, s_m, y, tau, kappa)
    stall_count = 0

    for it in range(settings.max_iters):
        x = blocks.pack(x_m)
        s = blocks.pack(s_m)
        at_y = a.T @ y if r else np.zeros(n)
        g1 = at_y + s - c * tau                 # dual residual direction
        g2 = (a @ x if r else np.zeros(0)) - b * tau  # primal residual direction
        cx = float(c @ x)
        by = float(b @ y) if r else 0.0
        g3 = -cx + by - kappa
        gap_inner = float(x @ s) + tau * kappa
        mu = gap_inner / nu
        if not (np.isfinite(mu) and np.isfinite(cx) and np.isfinite(by)
                and np.all(np.isfinite(x)) and np.all(np.isfinite(s))):
            fail_note = "iterate diverged (non-finite values)"
            break

        # -- status tests on the scaled candidate
        pres = np.linalg.norm(g2 / tau) / norm_b if r else 0.0
        dres = np.linalg.norm(g1 / tau) / norm_c
        pobj, dobj = cx / tau, by / tau
        relgap = abs(pobj - dobj) / (1 + abs(pobj) + abs(dobj))
        if trace:
            _log.debug("iter %3d mu=%9.2e pres=%8.1e dres=%8.1e gap=%8.1e tau=%8.1e "
                       "kappa=%8.1e", it, mu, pres, dres, relgap, tau, kappa)
        score = max(pres / settings.feas_tol, dres / settings.feas_tol,
                    relgap / settings.gap_tol)
        if best is None or score < best[0]:
            best = (score, [m.copy() for m in x_m], [m.copy() for m in s_m],
                    y.copy(), tau, kappa)
        if score <= 1.0:
            status = Status.OPTIMAL
            break
        if it >= 1:
            if by > 0 and np.linalg.norm(at_y + s) / by <= settings.feas_tol:
                return _infeasible_result(program, settings, y / by, s_vec=s / by, iters=it)
            if -cx > 0 and (np.linalg.norm(a @ x) if r else 0.0) / (-cx) <= settings.feas_tol:
                return _unbounded_result(program, settings, x / (-cx), iters=it)

        # -- Nesterov-Todd scaling per block
        try:
            # (Todd-Toh-Tutuncu) X = Lx Lx', S = Ls Ls' and Ls' Lx = U diag(lam) V'
            # give F = Lx V lam^-1/2 with F^-1 X F^-1' = F' S F = diag(lam): the
            # scaled point is diagonal, exactly, and W = F F' satisfies W S W = X
            f_list, fi_list, lam_list, g_list = [], [], [], []
            for xb, sb in zip(x_m, s_m):
                lx = np.linalg.cholesky(xb)
                ls = np.linalg.cholesky(sb)
                u, lam, vh = np.linalg.svd(ls.conj().T @ lx)
                f = (lx @ vh.conj().T) / np.sqrt(lam)
                f_list.append(f)
                fi_list.append((u.conj().T @ ls.conj().T) / np.sqrt(lam)[:, None])
                lam_list.append(lam)
                g_list.append(f @ f.conj().T)

            # KKT normal matrix M = A W A'
            if r:
                aw = np.hstack([svec(g @ am @ g) for g, am in zip(g_list, a_mats)]) \
                    if n else np.zeros((r, 0))
                m_mat = hermitize(aw @ a.T)
                cho = None
                reg = 0.0
                for _ in range(4):
                    try:
                        cho = sla.cho_factor(m_mat + reg * np.eye(r), lower=True)
                        break
                    except np.linalg.LinAlgError:
                        reg = max(reg * 100, 1e-12 * (1 + np.trace(m_mat) / max(r, 1)))
                if cho is None:
                    raise np.linalg.LinAlgError("KKT factorization failed")

                def kkt_solve(rhs):
                    # one step of iterative refinement buys an extra digit
                    u = sla.cho_solve(cho, rhs)
                    u += sla.cho_solve(cho, rhs - m_mat @ u)
                    return u
            else:
                aw, kkt_solve = None, None

            w_c = w_apply(c, g_list)
            aw_c_b = (a @ w_c + b) if r else np.zeros(0)
            u2 = kkt_solve(aw_c_b) if r else np.zeros(0)

            # stable positive denominator for the dtau pivot:
            #   den = ||(I - Pi) F' c F||^2 + b' M^-1 b + kappa/tau
            def w_half(vec):
                return blocks.pack([f.conj().T @ mm @ f for f, mm in zip(f_list, blocks.unpack(vec))])

            c_half = w_half(c)
            if r:
                q_vec = a @ w_c
                resid = c_half - w_half(a.T @ kkt_solve(q_vec))
                den = float(resid @ resid) + float(b @ kkt_solve(b)) + kappa / tau
            else:
                q_vec = np.zeros(0)
                den = float(c_half @ c_half) + kappa / tau

            def direction(eta, target_mu, corr_mats, corr_tk):
                rlam = []
                for lam, corr in zip(lam_list, corr_mats):
                    t = np.diag(target_mu - lam * lam) - corr
                    rlam.append(2.0 * t / (lam[:, None] + lam[None, :]))
                h = blocks.pack([f @ rl @ f.conj().T for f, rl in zip(f_list, rlam)])
                dx_part = h + eta * w_apply(g1, g_list)
                r_tk = target_mu - tau * kappa - corr_tk
                if r:
                    u1 = kkt_solve(-(a @ dx_part) - eta * g2)
                else:
                    u1 = np.zeros(0)
                num = (-eta * g3 + float(c @ dx_part)
                       + (float((q_vec - b) @ u1) if r else 0.0)
                       + r_tk / tau)
                dtau = num / den
                dy = u1 + dtau * u2 if r else np.zeros(0)
                ds = -eta * g1 - (a.T @ dy if r else 0.0) + c * dtau
                dx = dx_part + w_apply((a.T @ dy if r else 0.0) - c * dtau, g_list)
                dkappa = (r_tk - kappa * dtau) / tau
                return dx, dy, ds, dtau, dkappa

            def scaled_step(dx, ds):
                # x + a*dx > 0 and s + a*ds > 0 iff diag(lam) + a*dl > 0 for the
                # NT-scaled directions dl = F^-1 dx F^-1' and F' ds F
                dlx = [fi @ dxb @ fi.conj().T for fi, dxb in zip(fi_list, blocks.unpack(dx))]
                dls = [f.conj().T @ dsb @ f for f, dsb in zip(f_list, blocks.unpack(ds))]
                steps = [_step_to_boundary(lam, dl)
                         for dl_list in (dlx, dls) for lam, dl in zip(lam_list, dl_list)]
                return dlx, dls, min(steps, default=np.inf)

            zeros_corr = [np.zeros((d, d)) for d in dims]
            dx_a, dy_a, ds_a, dtau_a, dkap_a = direction(1.0, 0.0, zeros_corr, 0.0)

            # affine step length
            dlx_a, dls_a, alpha = scaled_step(dx_a, ds_a)
            if dtau_a < 0:
                alpha = min(alpha, -tau / dtau_a)
            if dkap_a < 0:
                alpha = min(alpha, -kappa / dkap_a)
            alpha = min(alpha, 1.0)

            gap_aff = (float((x + alpha * dx_a) @ (s + alpha * ds_a))
                       + (tau + alpha * dtau_a) * (kappa + alpha * dkap_a))
            sigma = min(1.0, max(gap_aff / gap_inner, 0.0)) ** 3
            sigma = min(max(sigma, 1e-8), 1.0 - 1e-8)

            # Mehrotra corrector in the scaled space
            corr = [hermitize(dlx @ dls) for dlx, dls in zip(dlx_a, dls_a)]
            dx_c, dy_c, ds_c, dtau_c, dkap_c = direction(
                1.0 - sigma, sigma * mu, corr, dtau_a * dkap_a)

            _, _, step = scaled_step(dx_c, ds_c)
            if dtau_c < 0:
                step = min(step, -tau / dtau_c)
            if dkap_c < 0:
                step = min(step, -kappa / dkap_c)
            step = min(1.0, 0.99 * step)
            if not np.isfinite(step) or step <= 1e-13:
                fail_note = "step length collapsed"
                break
            stall_count = stall_count + 1 if step <= 1e-7 else 0
            if stall_count >= 3:
                fail_note = "no further progress (stalled steps)"
                break

            x_m = [hermitize(xb + step * dxb) for xb, dxb in zip(x_m, blocks.unpack(dx_c))]
            s_m = [hermitize(sb + step * dsb) for sb, dsb in zip(s_m, blocks.unpack(ds_c))]
            y = y + step * dy_c
            tau += step * dtau_c
            kappa += step * dkap_c
            # the model is homogeneous of degree one: rescale the iterate so
            # tau + kappa stays O(1) instead of drifting along the ray
            inv = 2.0 / (tau + kappa)
            x_m = [xb * inv for xb in x_m]
            s_m = [sb * inv for sb in s_m]
            y = y * inv
            tau *= inv
            kappa *= inv
            if trace:
                _log.debug("        sigma=%8.1e step=%6.3f", sigma, step)
        except (np.linalg.LinAlgError, ValueError) as exc:
            fail_note = f"linear algebra failure: {exc}"
            break
    else:
        it = settings.max_iters

    if status != Status.OPTIMAL:
        # fall back to the best iterate seen, then try certificates once more
        if best is not None:
            _, x_m, s_m, y, tau, kappa = best
        x = blocks.pack(x_m)
        s = blocks.pack(s_m)
        by = float(b @ y) if r else 0.0
        cx = float(c @ x)
        if r and by > 0 and np.linalg.norm(a.T @ y + s) / by <= settings.feas_tol * 10:
            return _infeasible_result(program, settings, y / by, s_vec=s / by, iters=it)
        if -cx > 0 and (np.linalg.norm(a @ x) if r else 0.0) / (-cx) <= settings.feas_tol * 10:
            return _unbounded_result(program, settings, x / (-cx), iters=it)
        return SolveResult(Status.NUMERICAL_FAILURE, np.nan, np.nan, iterations=it,
                           residuals={"note": fail_note,
                                      "best_score": best[0] if best else np.inf})

    # -- optimal extraction
    xs = x / tau
    ys = y / tau
    ss = s / tau
    primal_blocks = program.unpack_blocks(xs)
    y_orig = data["d_inv"] * (data["u_r"] @ ys) if r else np.zeros(len(program._rows))
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
                       gap=abs(pobj - dobj), iterations=it, residuals=res)


def _infeasible_result(program, settings, y_red, s_vec=None, note="", iters=0,
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


def _unbounded_result(program, settings, x_ray, iters=0) -> SolveResult:
    cert = {"kind": "improving-ray", "ray_blocks": program.unpack_blocks(x_ray)}
    pv = -np.inf if program.sense > 0 else np.inf
    return SolveResult(Status.UNBOUNDED, pv, pv, certificate=cert, iterations=iters)
