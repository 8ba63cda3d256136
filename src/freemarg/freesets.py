"""Declarative free-set descriptions consumable by the conic solver.

A `FreeSetSpec` describes which states of the target subsystem count as
resource-free, as affine + PSD + partial-transpose constraints; its `kind`
is read where the constraints are used, by
`programs.attach_free_state_cone` and `check_cone_membership`.  Separability
is modeled by positivity of the partial transpose across the listed
bipartitions: exact for 2x2 and 2x3 targets, an outer approximation above
(so computed robustness values are certified lower bounds and witnesses stay
sound).  Results metadata records this as ``relaxation: "ppt-outer"``.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .config import DEFAULT_TOLS
from .herm import (
    DensityMatrix,
    HermitianOperator,
    LayoutError,
    SubsystemLayout,
    SubsystemSet,
    hermitize,
    matrix_from_json,
    matrix_to_json,
    ptranspose_array,
)


# --- free state sets ---------------------------------------------------------


@dataclass(frozen=True)
class FreeSetSpec:
    """Free-state set on a target subsystem.

    kind: 'AllStates' | 'SeparablePPT' | 'Incoherent' | 'Singleton'

    An `Incoherent` basis is stored read-only and compared and hashed by its
    bytes.
    """

    kind: str
    target: SubsystemSet
    bipartitions: tuple[tuple[str, ...], ...] = ()
    basis: np.ndarray | None = field(default=None, repr=False, compare=False)
    state: DensityMatrix | None = None
    _basis_bytes: bytes | None = field(default=None, init=False, repr=False)

    KINDS = ("AllStates", "SeparablePPT", "Incoherent", "Singleton")

    def __post_init__(self):
        if self.kind not in self.KINDS:
            raise ValueError(f"unknown free-set kind {self.kind!r}")
        if self.kind == "SeparablePPT":
            if not self.bipartitions:
                raise ValueError("SeparablePPT needs at least one bipartition")
            # an empty side, the whole target or a factor transposed twice
            # leaves every state PSD, and a side and its complement state
            # the same cut
            sub = self.target.sublayout()
            whole, seen = frozenset(sub.labels), set()
            for part in self.bipartitions:
                side = frozenset(sub._check(part))
                if len(side) < len(part):
                    raise ValueError(f"bipartition {list(part)} names a factor twice")
                if not side or side == whole:
                    raise ValueError(f"bipartition {list(part)} must leave both of its sides "
                                     f"nonempty")
                if side in seen or whole - side in seen:
                    raise ValueError(f"bipartition {list(part)} repeats a cut listed before it")
                seen.add(side)
        if self.kind == "Incoherent" and self.basis is not None:
            b = np.array(self.basis, complex)
            b.setflags(write=False)
            object.__setattr__(self, "basis", b)
            object.__setattr__(self, "_basis_bytes", b.tobytes())
            d = self.target.dim
            if b.shape != (d, d) or np.max(np.abs(b.conj().T @ b - np.eye(d))) > 1e-10:
                raise ValueError("Incoherent basis must be a unitary of the target dimension")
        if self.kind == "Singleton":
            if self.state is None:
                raise ValueError("Singleton needs a state")
            if self.state.layout != self.target.sublayout():
                raise LayoutError("Singleton state layout does not match the target")
            if self.state.op.min_eig() < 1e-7:
                warnings.warn(
                    "Singleton free state is not full rank; the robustness program "
                    "may be infeasible for generic marginals (strong duality can fail)",
                    stacklevel=2)

    # -- constructors

    @staticmethod
    def all_states(target: SubsystemSet) -> "FreeSetSpec":
        return FreeSetSpec("AllStates", target)

    @staticmethod
    def separable_ppt(target: SubsystemSet,
                      bipartitions: Sequence[Sequence[str]] | None = None) -> "FreeSetSpec":
        """PPT across the listed bipartitions (each given by the transposed side).

        With no argument, every bipartition of the target is used (one side
        per nonempty subset avoiding the first factor; complements give the
        same constraint), which models full separability by the PPT
        intersection.
        """
        sub = target.sublayout()
        if bipartitions is None:
            labels = sub.labels
            if len(labels) < 2:
                raise ValueError("SeparablePPT needs a target with at least two factors")
            rest = labels[1:]
            bipartitions = [tuple(l for k, l in enumerate(rest) if (mask >> k) & 1)
                            for mask in range(1, 2 ** len(rest))]
        parts = tuple(tuple(p) for p in bipartitions)
        return FreeSetSpec("SeparablePPT", target, bipartitions=parts)

    @staticmethod
    def incoherent(target: SubsystemSet, basis: np.ndarray | None = None) -> "FreeSetSpec":
        return FreeSetSpec("Incoherent", target, basis=basis)

    @staticmethod
    def singleton(target: SubsystemSet, state: DensityMatrix) -> "FreeSetSpec":
        return FreeSetSpec("Singleton", target, state=state)

    # -- behavior

    @property
    def relaxation(self) -> str | None:
        if self.kind != "SeparablePPT":
            return None
        dims = sorted(self.target.sublayout().dims)
        exact = len(dims) == 2 and dims in ([2, 2], [2, 3])
        return "ppt-exact" if exact else "ppt-outer"

    def check_membership(self, state: DensityMatrix, tol: float = DEFAULT_TOLS.membership) -> bool:
        """True iff the state lies in the free set, within tol."""
        if state.layout != self.target.sublayout():
            raise LayoutError("state layout does not match the free set's target")
        m = state.entries
        return self.check_cone_membership(m, tol)

    def check_cone_membership(self, m: np.ndarray, tol: float) -> bool:
        """Membership of a (possibly scaled) PSD matrix in cone(free set):
        m >= 0, and by kind its partial transposes >= 0, its off-diagonal
        entries in the basis zero, or m = tr(m) * state."""
        sub = self.target.sublayout()
        parts = self.bipartitions if self.kind == "SeparablePPT" else ()
        for x in [m] + [ptranspose_array(m, sub.dims, sub.axes_of(p)) for p in parts]:
            if np.linalg.eigvalsh(hermitize(x))[0] < -tol:
                return False
        if self.kind == "Incoherent":
            rot = m if self.basis is None else self.basis.conj().T @ m @ self.basis
            return bool(np.max(np.abs(rot - np.diag(np.diag(rot)))) <= tol)
        if self.kind == "Singleton":
            scale = float(np.trace(m).real)
            return bool(np.max(np.abs(m - scale * self.state.entries)) <= tol)
        return True

    def contains_full_rank_member(self) -> bool:
        """A2*-style probe: does the described set have a full-rank member?"""
        if self.kind in ("AllStates", "SeparablePPT", "Incoherent"):
            return True  # the maximally mixed state is a member of each
        return self.state.op.min_eig() > 1e-9

    # -- JSON

    def to_json(self) -> dict:
        params: dict = {}
        if self.kind == "SeparablePPT":
            params["bipartitions"] = [list(p) for p in self.bipartitions]
        if self.kind == "Incoherent" and self.basis is not None:
            params["basis"] = matrix_to_json(self.basis)
        if self.kind == "Singleton":
            params["state"] = matrix_to_json(self.state.entries)
        return {"kind": self.kind, "target": list(self.target.members), "params": params}

    @staticmethod
    def from_json(data: dict, layout: SubsystemLayout) -> "FreeSetSpec":
        target = SubsystemSet(layout, data["target"])
        kind = data["kind"]
        params = data.get("params") or {}
        if not isinstance(params, dict):
            raise ValueError("free-set params must be a JSON object")
        if kind == "AllStates":
            return FreeSetSpec.all_states(target)
        if kind == "SeparablePPT":
            bip = params.get("bipartitions")
            return FreeSetSpec.separable_ppt(target, bip)
        if kind == "Incoherent":
            basis = params.get("basis")
            if basis is not None:
                basis = matrix_from_json(basis)
            return FreeSetSpec.incoherent(target, basis)
        if kind == "Singleton":
            state = DensityMatrix.from_array(target.sublayout(), matrix_from_json(params["state"]))
            return FreeSetSpec.singleton(target, state)
        raise ValueError(f"unknown free-set kind {kind!r}")


# --- free channel sets --------------------------------------------------------


@dataclass(frozen=True)
class FreeChannelSetSpec:
    """Free-channel set on a target input-output pair.

    kind: 'AllChannels' | 'FreeOutputState' | 'SingletonChannel'

    AllChannels imposes only Choi validity on the target-pair marginal.
    FreeOutputState restricts to replacement maps whose output state lies in
    the wrapped `FreeSetSpec` (Choi = rho (x) I/d_in with rho free).
    SingletonChannel pins the target-pair marginal to one channel's Choi.
    """

    kind: str
    input: SubsystemSet
    output: SubsystemSet
    state_spec: "FreeSetSpec | None" = None
    choi: HermitianOperator | None = None

    KINDS = ("AllChannels", "FreeOutputState", "SingletonChannel")

    def __post_init__(self):
        if self.kind not in self.KINDS:
            raise ValueError(f"unknown free-channel kind {self.kind!r}")
        if self.kind == "FreeOutputState":
            if self.state_spec is None:
                raise ValueError("FreeOutputState needs a wrapped FreeSetSpec")
            if self.state_spec.target.sublayout() != self.output.sublayout():
                raise LayoutError("wrapped free set must live on the output target")
        if self.kind == "SingletonChannel" and self.choi is None:
            raise ValueError("SingletonChannel needs a Choi matrix")

    @staticmethod
    def all_channels(input: SubsystemSet, output: SubsystemSet) -> "FreeChannelSetSpec":
        return FreeChannelSetSpec("AllChannels", input, output)

    @staticmethod
    def free_output_state(input: SubsystemSet, output: SubsystemSet,
                          state_spec: FreeSetSpec) -> "FreeChannelSetSpec":
        return FreeChannelSetSpec("FreeOutputState", input, output, state_spec=state_spec)

    @staticmethod
    def singleton_channel(input: SubsystemSet, output: SubsystemSet,
                          choi: HermitianOperator) -> "FreeChannelSetSpec":
        return FreeChannelSetSpec("SingletonChannel", input, output, choi=choi)

    @property
    def relaxation(self) -> str | None:
        if self.kind == "FreeOutputState":
            return self.state_spec.relaxation
        return None

    def admits_full_rank_replacement(self) -> bool:
        """DA2-style probe; False is surfaced as a warning, not a hard gate."""
        if self.kind == "AllChannels":
            return True
        if self.kind == "FreeOutputState":
            return self.state_spec.contains_full_rank_member()
        vals = np.linalg.eigvalsh(self.choi.entries)
        return bool(vals[0] > 1e-9)

    def to_json(self) -> dict:
        params: dict = {}
        if self.kind == "FreeOutputState":
            params["state_spec"] = self.state_spec.to_json()
        if self.kind == "SingletonChannel":
            params["choi"] = self.choi.to_json()
        return {"kind": self.kind, "input": list(self.input.members),
                "output": list(self.output.members), "params": params}
