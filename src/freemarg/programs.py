"""Internal helpers translating free-set descriptors into solver constraints."""

from __future__ import annotations

import numpy as np

from .freesets import DiagonalOnly, FreeSetSpec, ProportionalTo, Psd, PsdPartialTranspose
from .herm import LinearMap, hermitian_basis, partial_transpose_map, probe_times_map
from .solver import BlockRef, ConicProgram


def attach_free_state_cone(prog: ConicProgram, var: BlockRef, extract: LinearMap | None,
                           free: FreeSetSpec, prefix: str = "free"):
    """Constrain extract(V) (default: V itself) into cone(free set).

    The variable's PSD cone membership already gives extract(V) >= 0 for
    trace-like extraction maps, so bare `Psd` descriptors add nothing here.
    The trace scale of the cone is tr(V): for a trace-preserving extraction
    map tr(extract(V)) = tr(V), which the `ProportionalTo` rows rely on.
    """
    sub = free.target.sublayout()
    for con in free.emit_constraints():
        if isinstance(con, Psd):
            continue
        if isinstance(con, PsdPartialTranspose):
            pt = partial_transpose_map(sub, con.part)
            prog.add_psd_inequality(f"{prefix}.ppt[{','.join(con.part)}]",
                                    [(var, pt if extract is None else pt @ extract)])
        elif isinstance(con, DiagonalOnly):
            d = sub.total_dim
            for j, h in enumerate(hermitian_basis(d)[d:]):  # off-diagonal part only
                if con.basis is not None:
                    h = con.basis @ h @ con.basis.conj().T
                lifted = h if extract is None else extract.adjoint(h)
                prog.add_scalar_equality(f"{prefix}.diag[{j}]", [(var, lifted)], 0.0)
        elif isinstance(con, ProportionalTo):
            prog.add_matrix_equality(
                f"{prefix}.pin",
                [(var, extract), (var, probe_times_map(np.eye(var.cdim), -con.state))],
                np.zeros((sub.total_dim, sub.total_dim)))
        else:
            raise TypeError(f"unknown cone constraint {con!r}")
