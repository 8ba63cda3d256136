"""Solver rows of the marginal problems: `StringRows` states the equality
rows on the variable V by product-operator strings, each string once, and
`attach_free_state_cone` reads a free set's `kind` and adds the rows and
PSD groups of that kind; an `Incoherent` target's rotated strings alone
are stated whole, past the ledger."""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .config import DEFAULT_TOLS
from .freesets import FreeSetSpec
from .herm import LinearMap, hermitize, partial_transpose_map, smat, string_rows, svec
from .solver import BlockRef, ConicProgram


class StringRows:
    """The equality rows on the variable V over factors of dimensions
    `dims` that a partial trace onto factors X, alone or followed by a
    replacement map, gives.  Each such row group fixes the coefficients
    tr((P (x) I) V) of product strings P on X (`herm.string_rows`, whose
    identity string is the trace), and each string is stated once: a
    group's rows are its strings that neither an earlier group nor the
    trace row fixes, and that its map does not send to zero.  The rows are
    one `LinearMap`, the selected rows of the basis change after the partial
    trace, so its `LocalForm` keeps X with them as its inner.

    A string is known by its digits over the whole layout, 0 off its
    support S, and valued on S, per unit trace: tr((P_S (x) I) V) / tr(V),
    P_S the string restricted to S.  The first statement of a string holds.
    Where the trace is stated, a later value that differs from it by more
    than `DEFAULT_TOLS.compat` makes the rows inconsistent.  The later row
    is then stated too, and the program gets the Farkas ray of the two
    (`ConicProgram.ray`): +1 and -1 on the two statements, each scaled to
    the coefficient on S, and on the trace row what cancels their trace
    parts, so that A'y = 0 and b'y is the difference.  Where the trace is
    not stated, as in a cone program, whose string rows are homogeneous,
    such a row is not implied by the first, and is stated too."""

    def __init__(self, prog: ConicProgram, var: BlockRef, dims: Sequence[int]):
        self.prog, self.var, self.dims = prog, var, tuple(dims)
        # the strides of the string digits over the whole layout
        self.strides = np.cumprod([1] + [d * d for d in self.dims[:0:-1]])[::-1]
        # per string fixed, by its index over the whole layout: the row and
        # weight whose product is tr((P_S (x) I) V) - beta tr(V), beta, and
        # its value per unit trace
        self.fixed: dict[int, tuple[int, float, float, float]] = {}

    def marginal(self, name: str, extract: LinearMap, target: np.ndarray):
        """extract(V) = target, for the partial trace `extract`."""
        digits, q = self._strings(extract)
        rhs = q @ svec(hermitize(np.asarray(target, dtype=complex)))
        self._state(name, extract, digits, q, q, rhs, 0.0, np.ones(len(q), dtype=bool))

    def vanish(self, name: str, extract: LinearMap, replaced: Sequence[int]):
        """M - tr_F(M) (x) I/d_F = 0 at M = extract(V), F the layout's
        factors at the axes `replaced`: a string on extract's factors with
        a factor of F off the identity has coefficient 0, and the rest none."""
        self._zero(name, extract, {a: self.dims[a] ** 2 for a in replaced})

    def off_diagonal(self, name: str, extract: LinearMap, basis: np.ndarray | None = None):
        """B' M B diagonal at M = extract(V), B the computational basis if
        None: the strings on extract's factors with an off-diagonal factor
        element (elements 1 ... d^2 - d of `factor_basis(d)`) span the
        off-diagonal matrices, and each, conjugated by B, has coefficient 0."""
        keep = extract.local.keep
        self._zero(name, extract, {a: self.dims[a] ** 2 - self.dims[a] + 1 for a in keep}, basis)

    def pin(self, name: str, extract: LinearMap, state: np.ndarray):
        """M = tr(M) state at M = extract(V): each string P but the identity
        has coefficient tr(M) tr(P state)."""
        digits, q = self._strings(extract)
        c = q[1:] @ svec(hermitize(np.asarray(state, dtype=complex)))
        inner = q[1:] - c[:, None] * svec(np.eye(math.isqrt(q.shape[1])))
        self._state(name, extract, digits, q, inner, np.zeros(len(c)), c, np.arange(len(q)) > 0)

    def _zero(self, name, extract, stop: dict[int, int], basis: np.ndarray | None = None):
        """Coefficient 0 on each string on extract's factors with a digit
        1 ... stop[a] - 1 at some axis a; conjugated by `basis`, if given,
        these are no strings of the ledger, and are one group, stated whole."""
        digits, q = self._strings(extract)
        live = np.any([(dig > 0) & (dig < stop.get(a, 0))
                       for dig, a in zip(digits, extract.local.keep)], axis=0)
        if basis is None:
            self._state(name, extract, digits, q, q[live], np.zeros(live.sum()), 0.0, live)
            return
        rot = svec(basis @ smat(q[live], math.isqrt(q.shape[1])) @ basis.conj().T)
        self.prog.add_basis_equality(name, [(self.var, LinearMap(rot) @ extract)],
                                     np.zeros(len(rot)), rot)

    def _strings(self, extract: LinearMap) -> tuple[tuple, np.ndarray]:
        """The digits and the svec rows of every string on extract's factors."""
        dims = [self.dims[a] for a in extract.local.keep]
        count = math.prod(dims) ** 2
        digits = np.unravel_index(np.arange(count), [d * d for d in dims]) if dims else ()
        return digits, string_rows(dims)

    def _state(self, name, extract, digits, q, inner, rhs, trace, live):
        """Add the group of `extract` whose rows are those of `inner`, one per
        `live` string, with right-hand sides `rhs` and trace weights `trace`
        (the row is tr((P (x) I) V) - trace tr(V))."""
        keep_axes = extract.local.keep
        keys = sum((dig * self.strides[a] for dig, a in zip(digits, keep_axes)),
                   np.zeros(len(q), dtype=np.int64))[live].tolist()
        # P (x) I on X is P_S (x) I over the sqrt(d) of X's factors off S
        scale = np.ones(len(q))
        for dig, a in zip(digits, keep_axes):
            scale[dig == 0] *= math.sqrt(self.dims[a])
        scale = scale[live]
        beta = scale * trace
        value = scale * rhs + beta
        start = self.prog.num_rows
        kept = []
        for i, k in enumerate(keys):
            row = start + len(kept)
            known = self.fixed.get(k)
            if known is None:
                self.fixed[k] = (row, scale[i], beta[i], value[i])
            elif abs(known[3] - value[i]) <= DEFAULT_TOLS.compat:
                continue
            elif 0 in self.fixed and not self.prog.ray:
                self._conflict(known, (row, -scale[i], beta[i], value[i]))
            kept.append(i)
        if kept:
            self.prog.add_basis_equality(
                name, [(self.var, LinearMap(inner[kept]) @ extract)], rhs[kept], q[live][kept])

    def _conflict(self, first: tuple, later: tuple):
        """The Farkas ray of a string stated twice with two values where the
        trace is stated; `later` carries its weight negated."""
        s = math.copysign(1.0, first[3] - later[3])
        trace_row, trace_weight = self.fixed[0][:2]
        for row, w in ((first[0], first[1]), (later[0], later[1]),
                       (trace_row, trace_weight * (first[2] - later[2]))):
            if w:
                self.prog.ray[row] = self.prog.ray.get(row, 0.0) + s * w


def attach_free_state_cone(rows: StringRows, extract: LinearMap, free: FreeSetSpec,
                           prefix: str = "free"):
    """Constrain extract(V) into cone(free set), for the variable V of the
    `StringRows`; on a whole-layout target, `extract` is the identity, after
    which each map is itself.

    The variable's PSD cone membership already gives extract(V) >= 0 for
    trace-like extraction maps, so `AllStates` adds no rows.  `Singleton`
    pins X = extract(V) to tr(X) * state, a string at a time, and
    `Incoherent` states X's off-diagonal strings zero, as one group.
    """
    prog, var = rows.prog, rows.var
    if free.kind == "SeparablePPT":  # X^{T_part} >= 0 per bipartition
        for part in free.bipartitions:
            pt = partial_transpose_map(free.target.sublayout(), part)
            prog.add_psd_inequality(f"{prefix}.ppt[{','.join(part)}]", [(var, pt @ extract)])
    elif free.kind == "Incoherent":  # B' X B diagonal
        rows.off_diagonal(f"{prefix}.diag", extract, free.basis)
    elif free.kind == "Singleton":  # X = tr(X) * state
        rows.pin(f"{prefix}.pin", extract, free.state.entries)
