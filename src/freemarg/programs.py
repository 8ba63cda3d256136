"""The free-state cone as solver rows: `attach_free_state_cone` reads the
free set's `kind` and adds the rows and PSD groups of that kind."""

from __future__ import annotations

import numpy as np

from .freesets import FreeSetSpec
from .herm import (LinearMap, hermitian_basis, hermitize, partial_transpose_map,
                   replacement_defect_map, svec)
from .solver import BlockRef, ConicProgram


def attach_free_state_cone(prog: ConicProgram, var: BlockRef, extract: LinearMap,
                           free: FreeSetSpec, prefix: str = "free"):
    """Constrain extract(V) into cone(free set); on a whole-layout target,
    `extract` is the identity, after which each map is itself.

    The variable's PSD cone membership already gives extract(V) >= 0 for
    trace-like extraction maps, so `AllStates` adds no rows.  `Singleton`
    pins X = extract(V) to tr(X) * state by the replacement defect of all
    the target's factors.
    """
    sub = free.target.sublayout()
    if free.kind == "SeparablePPT":  # X^{T_part} >= 0 per bipartition
        for part in free.bipartitions:
            pt = partial_transpose_map(sub, part)
            prog.add_psd_inequality(f"{prefix}.ppt[{','.join(part)}]", [(var, pt @ extract)])
    elif free.kind == "Incoherent":  # off-diagonal entries of B' X B vanish
        d = sub.total_dim
        for j, h in enumerate(hermitian_basis(d)[d:]):  # off-diagonal part only
            if free.basis is not None:
                h = free.basis @ h @ free.basis.conj().T
            # one row, tr(h X) = 0, composed with the extraction so that it
            # keeps the extraction's local form
            row = LinearMap(svec(hermitize(h))[None])
            prog.add_matrix_equality(f"{prefix}.diag[{j}]", [(var, row @ extract)],
                                     np.zeros((1, 1)))
    elif free.kind == "Singleton":  # X = tr(X) * state
        pin = replacement_defect_map(sub, sub.labels, free.state.entries) @ extract
        prog.add_matrix_equality(f"{prefix}.pin", [(var, pin)], np.zeros((sub.total_dim,) * 2))
