"""Shared numerical tolerances: one `Tolerances` record holds the thresholds
of the Hermiticity, PSD, trace, compatibility and free-set membership checks
and the solver's default targets.  The unitarity checks (1e-10: an
`Incoherent` basis, a task's unitaries) and the prior sums (1e-12) keep their own.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Tolerances:
    """Package-wide numerical thresholds."""

    hermiticity: float = 1e-12   # max |M - M^dag| entry allowed
    psd: float = 1e-9            # minimum eigenvalue floor for PSD checks
    trace: float = 1e-9          # |tr(rho) - 1| allowed for density matrices
    gap: float = 1e-8            # relative duality-gap target of the solver
    feas: float = 1e-8           # feasibility-residual target of the solver
    compat: float = 1e-6         # zero-robustness / compatibility decision level
    membership: float = 1e-9     # default free-set membership slack


DEFAULT_TOLS = Tolerances()
