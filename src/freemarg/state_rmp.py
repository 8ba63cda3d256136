"""Free-compatibility of marginal families: the feasibility check, the
robustness cone program, witness extraction from the dual, free operations,
and the W-state uniqueness / activation computations.

The robustness of a family {sigma_X} with respect to a free set on target T
is log2 of the optimum of

    min tr(V)   s.t.   V >= 0,  tr_{S\\T}(V) in cone(free set),
                       sigma_X <= tr_{S\\X}(V)  for every X,

which is zero exactly when some global state with a free T-marginal has the
sigma_X as its marginals.  The program's dual multipliers {Y_X >= 0} witness
incompatibility: sup over the free-compatible set of sum_X tr(tau_X Y_X)
stays <= 1 while the value at sigma equals the optimum > 1.

A channel family is the same problem on out (x) in with extra linear rows
(see `channel_rmp`).  Both instance types define the members these programs
read (see `RmpInstance`), so the compatibility check, the robustness, the
compiled linear-max model and the witness duals below take either.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from functools import cached_property
from typing import TYPE_CHECKING, Iterable, Sequence

import numpy as np

from .config import DEFAULT_TOLS
from .freesets import FreeSetSpec
from .herm import (
    DensityMatrix,
    HermitianOperator,
    LayoutError,
    LinearMap,
    SubsystemLayout,
    SubsystemSet,
    hermitize,
    partial_trace_map,
    svec,
)
from .programs import attach_free_state_cone
from .solver import (
    BlockRef,
    ConicProgram,
    SolveResult,
    SolverFailure,
    SolverSettings,
    Status,
    solve,
    solve_many,
)
from .states import qubit_layout, w_marginal

if TYPE_CHECKING:
    from .channel_rmp import ChannelRmpInstance, ChannelSpec

    Instance = RmpInstance | ChannelRmpInstance


class NoWitnessError(RuntimeError):
    """Witness extraction was called on a compatible instance."""


# ---------------------------------------------------------------------------
# Instances
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MarginalFamily:
    """One density matrix per subsystem set; the sets may overlap, but each
    appears once, as its label keys the targets, the maps and the duals."""

    layout: SubsystemLayout
    entries: tuple[tuple[SubsystemSet, DensityMatrix], ...]

    def __init__(self, layout: SubsystemLayout,
                 entries: Sequence[tuple[SubsystemSet | Sequence[str], DensityMatrix]]):
        normalized = []
        for sub, sigma in entries:
            if not isinstance(sub, SubsystemSet):
                sub = SubsystemSet(layout, sub)
            if sub.layout != layout:
                raise LayoutError("marginal subsystem refers to a different layout")
            if sigma.layout != layout.sublayout(sub.members):
                raise LayoutError(f"marginal on {sub.members} has the wrong layout")
            if any(sub == seen for seen, _ in normalized):
                raise LayoutError(f"marginal on {sub.members} is given twice")
            normalized.append((sub, sigma))
        object.__setattr__(self, "layout", layout)
        object.__setattr__(self, "entries", tuple(normalized))

    def labels(self) -> list[str]:
        return [",".join(sub.members) for sub, _ in self.entries]

    def targets(self) -> dict[str, np.ndarray]:
        """Each marginal's matrix, by label "A,B"."""
        return {label: sigma.entries for label, (_, sigma) in zip(self.labels(), self.entries)}


@dataclass(frozen=True)
class RmpInstance:
    """A marginal family and a free set on its target.

    The shared programs below read these members of an instance, state or
    channel.  The variable V is a PSD matrix on `layout`.  Each of `pairs`
    (label, map, target) asks map(V) = target on the compatible set and
    map(V) >= target in the robustness program; a map of None is the
    identity.  `extract(key)` gives the map of a label or subsystem set an
    objective names.  `normalize(prog, V, pinned)` adds V's normalization:
    pinned on the compatible set (unit trace, Choi state), scaled by tr(V)
    for the robustness.  `constrain(prog, V)` adds the structural equalities
    and the free cone.  `project(V)` returns the nearest valid matrix and the
    object reported for it.  `finite` says the free set has a full-rank
    member, the condition for a finite robustness; `diagnostics` explains an
    infinite one.
    """

    marginals: MarginalFamily
    free: FreeSetSpec

    def __post_init__(self):
        if self.free.target.layout != self.marginals.layout:
            raise LayoutError("free set target must live on the family's global layout")

    @property
    def layout(self) -> SubsystemLayout:
        return self.marginals.layout

    @property
    def target(self) -> SubsystemSet:
        return self.free.target

    @cached_property
    def _maps(self) -> dict[str, LinearMap | None]:
        """The extraction map of each marginal, of the free-set target and of
        no factor (the trace), by label, built once: every program of the
        instance shares them."""
        members = [sub.members for sub, _ in self.marginals.entries] + [self.free.target.members]
        return {",".join(keep): extraction_map(self.layout, keep) for keep in members + [()]}

    @cached_property
    def pairs(self) -> tuple[tuple[str, LinearMap | None, np.ndarray], ...]:
        return tuple((label, self._maps[label], sigma.entries)
                     for label, (_, sigma) in zip(self.marginals.labels(), self.marginals.entries))

    def extract(self, key) -> LinearMap | None:
        """A subsystem set, its members, or its label "A,B"; no members, or
        the label "", extract the trace."""
        if isinstance(key, SubsystemSet):
            key = key.members
        label = key if isinstance(key, str) else ",".join(key)
        if label in self._maps:
            return self._maps[label]
        return extraction_map(self.layout, SubsystemSet(self.layout, label.split(",")).members)

    def normalize(self, prog: ConicProgram, v: BlockRef, pinned: bool):
        if pinned:  # the cone form, tr(V) = tr(V), says nothing
            prog.add_matrix_equality("unit_trace", [(v, self.extract(()))], np.ones((1, 1)))

    def constrain(self, prog: ConicProgram, v: BlockRef):
        attach_free_state_cone(prog, v, self.extract(self.free.target), self.free)

    def project(self, m: np.ndarray) -> tuple[np.ndarray, DensityMatrix]:
        vals, vecs = np.linalg.eigh(hermitize(m))
        m = (vecs * np.clip(vals, 0, None)) @ vecs.conj().T
        state = DensityMatrix.from_array(self.layout, m / np.trace(m).real)
        return state.entries, state

    @property
    def finite(self) -> bool:
        return self.free.contains_full_rank_member()

    @property
    def diagnostics(self) -> str:
        text = ("the robustness program is infeasible, so the measure is unbounded: "
                "no scaled free extension dominates the family")
        if not self.finite:
            text += (" (the free set has no full-rank member, e.g. a pure singleton, "
                     "so finiteness of the measure is not guaranteed)")
        return text


# ---------------------------------------------------------------------------
# Shared program pieces
# ---------------------------------------------------------------------------


def extraction_map(layout: SubsystemLayout, keep: Sequence[str]) -> LinearMap | None:
    if tuple(keep) == layout.labels:
        return None  # identity
    return partial_trace_map(layout, keep)


def _program(inst: Instance, pinned: bool,
             pairs: Iterable[tuple[str, LinearMap | None, np.ndarray]] = ()
             ) -> tuple[ConicProgram, BlockRef]:
    """V, its normalization, the pair rows, then the structure and the free
    cone; this order fixes the compiled rows and so the iterates.  The
    caller sets the objective."""
    prog = ConicProgram()
    v = prog.add_variable("V", inst.layout.total_dim)
    inst.normalize(prog, v, pinned)
    for label, m, target in pairs:
        if pinned:
            prog.add_matrix_equality(f"marginal[{label}]", [(v, m)], target)
        else:
            prog.add_psd_inequality(f"dominate[{label}]", [(v, m)], const=-target)
    inst.constrain(prog, v)
    return prog, v


# ---------------------------------------------------------------------------
# Compatibility feasibility check
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CompatibilityResult:
    """`witness_state` is the global state found (for a channel instance,
    the global channel) when the family is compatible."""

    compatible: bool
    witness_state: DensityMatrix | ChannelSpec | None
    residual: float
    certificate: dict | None = None


def check_rfree_compatible(inst: Instance,
                           settings: SolverSettings | None = None) -> CompatibilityResult:
    """Is there a global state (or channel) with these marginals and a free
    target marginal?

    Compatible results carry the found global object and the worst marginal
    deviation; Incompatible ones carry the solver's Farkas certificate.
    """
    prog, v = _program(inst, pinned=True, pairs=inst.pairs)
    prog.set_objective([(v, np.eye(inst.layout.total_dim))], "min")  # constant when feasible

    res = solve(prog, settings)
    if res.status == Status.OPTIMAL:
        m, found = inst.project(res.primal_blocks["V"])
        dev = max((float(np.max(np.abs((e.apply(m) if e else m) - target)))
                   for _, e, target in inst.pairs), default=0.0)
        if dev > DEFAULT_TOLS.compat:
            raise SolverFailure(f"feasible point violates marginals by {dev:.2e} > tol")
        return CompatibilityResult(True, found, dev)
    if res.status == Status.INFEASIBLE:
        return CompatibilityResult(False, None, np.inf, certificate=res.certificate)
    raise SolverFailure(f"compatibility check ended with status {res.status.value}")


# ---------------------------------------------------------------------------
# Robustness
# ---------------------------------------------------------------------------


@dataclass
class RobustnessResult:
    status: Status
    value_log2: float
    optimum: float            # tr(V*) = 2**value_log2
    optimizer: HermitianOperator | None
    solve_result: SolveResult
    relaxation: str | None = None
    diagnostics: str | None = None

    @property
    def marginal_duals(self) -> dict[str, np.ndarray]:
        """Dual multiplier of each marginal (or channel pair), by label."""
        return {name.split("dominate[")[1][:-1]: m
                for name, m in self.solve_result.dual_multipliers.items()
                if name.startswith("dominate[") and name.endswith("]")}


def robustness(inst: Instance, settings: SolverSettings | None = None) -> RobustnessResult:
    if not inst.finite:
        warnings.warn("the free set has no full-rank member: the robustness can be "
                      "infinite and strong duality is not guaranteed", stacklevel=2)
    prog, v = _program(inst, pinned=False, pairs=inst.pairs)
    prog.set_objective([(v, np.eye(inst.layout.total_dim))], "min")

    res = solve(prog, settings)
    relaxation = inst.free.relaxation
    if res.status == Status.OPTIMAL:
        opt = res.primal_value
        value = max(0.0, math.log2(max(opt, 1e-300)))
        optimizer = HermitianOperator(inst.layout, hermitize(res.primal_blocks["V"]))
        return RobustnessResult(res.status, value, opt, optimizer, res, relaxation=relaxation)
    if res.status == Status.INFEASIBLE:
        return RobustnessResult(res.status, np.inf, np.inf, None, res, relaxation=relaxation,
                                diagnostics=inst.diagnostics)
    raise SolverFailure(f"robustness solve ended with status {res.status.value}")


# ---------------------------------------------------------------------------
# Linear maximization over the compatible-and-free set
# ---------------------------------------------------------------------------


class CompatibleSetModel:
    """max over the free-compatible set of  sum_X tr(tau_X O_X)  (for a
    channel instance, sum over pairs of tr(J_pair O_pair)).

    The feasible set is every family of marginals of a global state (or
    channel) whose target reduction is free.  The program is built and
    compiled on first use and reused across objectives, which matters for
    sampling experiments and for a request that maximizes over the set
    several times; a model that is never used costs nothing.
    """

    def __init__(self, inst: Instance, settings: SolverSettings | None = None):
        self.instance = inst
        self.settings = settings

    @cached_property
    def program(self) -> tuple[ConicProgram, BlockRef]:
        """The compiled program with its variable V."""
        prog, var = _program(self.instance, pinned=True)
        prog.set_objective([], "max")
        prog.compile()  # every objective shares the compiled data
        return prog, var

    @staticmethod
    def of(feasible: Instance | CompatibleSetModel,
           settings: SolverSettings | None = None) -> CompatibleSetModel:
        """`feasible` itself if it is a model, else a new model of the instance."""
        if isinstance(feasible, CompatibleSetModel):
            return feasible
        return CompatibleSetModel(feasible, settings)

    @staticmethod
    def instance_of(feasible: Instance | CompatibleSetModel) -> Instance:
        """The instance of `feasible`, a model or an instance."""
        return feasible.instance if isinstance(feasible, CompatibleSetModel) else feasible

    def maximize(self, objectives: Iterable[tuple[object, np.ndarray]]) -> SolveResult:
        """`objectives` holds (key, O) pairs; a key is a label or a subsystem set."""
        return self.maximize_many([objectives])[0]

    def maximize_many(self, objective_lists: Sequence[Iterable[tuple[object, np.ndarray]]]
                      ) -> list[SolveResult]:
        """`maximize` of each entry, solved together in one batch."""
        prog, var = self.program
        costs = []
        for objectives in objective_lists:
            cost = np.zeros(prog.num_cols)
            coeff = cost[prog.block_slice(var)]
            for key, obs in objectives:
                obs = obs.entries if isinstance(obs, HermitianOperator) else np.asarray(obs)
                x, m = svec(hermitize(obs)), self.instance.extract(key)
                coeff += x if m is None else x @ m.k  # m's adjoint, in svec coordinates
            costs.append(cost)
        results = solve_many(prog, costs, self.settings)
        for k, res in enumerate(results):
            if res.status != Status.OPTIMAL:
                raise SolverFailure(f"set maximization {k} ended with status {res.status.value}")
        return results


def linear_max_over_set(objectives: Iterable[tuple[object, np.ndarray]],
                        inst: Instance | CompatibleSetModel,
                        settings: SolverSettings | None = None) -> float:
    """sup of sum_X tr(tau_X O_X) over the free-compatible marginal families."""
    return CompatibleSetModel.of(inst, settings).maximize(objectives).primal_value


# ---------------------------------------------------------------------------
# Witness extraction
# ---------------------------------------------------------------------------


def witness_duals(feasible: Instance | CompatibleSetModel,
                  robustness_result: RobustnessResult | None = None,
                  settings: SolverSettings | None = None
                  ) -> tuple[dict[str, np.ndarray], float, float]:
    """The robustness program's dual multipliers Y_X by label, their value
    sum_X tr(Y_X sigma_X) at the family, and the independently re-solved
    supremum of that value over the free-compatible set.  `feasible` is the
    instance or a model of it, which the supremum then reuses."""
    inst = CompatibleSetModel.instance_of(feasible)
    res = robustness_result if robustness_result is not None else robustness(inst, settings)
    if res.status != Status.OPTIMAL:
        raise SolverFailure(f"robustness status {res.status.value}; witness needs Optimal")
    if res.value_log2 <= DEFAULT_TOLS.compat:
        raise NoWitnessError("no witness exists: the family is free-compatible "
                             "(robustness is zero)")
    duals = {label: hermitize(y) for label, y in res.marginal_duals.items()}
    value = sum(float(np.trace(duals[label] @ target).real) for label, _, target in inst.pairs)
    sup = linear_max_over_set(duals.items(), feasible, settings)
    if value <= sup:
        raise SolverFailure("extracted witness has no strict gap; solver accuracy insufficient")
    return duals, value, sup


@dataclass
class Witness:
    """PSD blocks {W_X} separating the family from the free-compatible set:
    value_at_sigma > free_sup certifies incompatibility."""

    blocks: tuple[tuple[SubsystemSet, HermitianOperator], ...]
    free_sup: float
    value_at_sigma: float
    metadata: dict = field(default_factory=dict)

    @property
    def gap(self) -> float:
        return self.value_at_sigma - self.free_sup

    def value_at(self, family: MarginalFamily) -> float:
        by_label = {tuple(sub.members): w for sub, w in self.blocks}
        total = 0.0
        for sub, sigma in family.entries:
            w = by_label[tuple(sub.members)]
            total += float(np.trace(w.entries @ sigma.entries).real)
        return total


def extract_witness(feasible: RmpInstance | CompatibleSetModel,
                    robustness_result: RobustnessResult | None = None,
                    settings: SolverSettings | None = None) -> Witness:
    """Dual optimizer of the robustness program, reported with its
    independently re-solved free-set supremum (over `feasible`, the
    instance or a model of it)."""
    duals, value, sup = witness_duals(feasible, robustness_result, settings)
    inst = CompatibleSetModel.instance_of(feasible)
    blocks = tuple((sub, HermitianOperator(sub.sublayout(), duals[label]))
                   for label, (sub, _) in zip(inst.marginals.labels(), inst.marginals.entries))
    return Witness(blocks, sup, value,
                   metadata={"dual_optimum_unique": False,
                             "relaxation": inst.free.relaxation})


# ---------------------------------------------------------------------------
# Free operations
# ---------------------------------------------------------------------------


def apply_free_operation(family: MarginalFamily, channels) -> MarginalFamily:
    """Entrywise application of one channel per marginal.

    The caller asserts the channels arise from one global free operation;
    this library constructs only the product-unitary / product-channel
    subclass (see `product_channels_on_family`), which preserves the free
    set for every kind closed under local operations on the target.
    """
    by_members = {}
    for sub, chan in channels:
        members = tuple(sub.members) if isinstance(sub, SubsystemSet) else tuple(sub)
        by_members[members] = chan
    out = []
    for sub, sigma in family.entries:
        chan = by_members[tuple(sub.members)]
        if chan.in_layout.dims != sigma.layout.dims:
            raise LayoutError(f"channel input does not match marginal on {sub.members}")
        evolved = chan.apply(sigma.entries)
        out.append((sub, DensityMatrix.from_array(sigma.layout, evolved)))
    return MarginalFamily(family.layout, out)


def product_channels_on_family(family: MarginalFamily, site_channels: dict):
    """Marginal channels of a global product channel (x)_l E_l, keyed by the
    family's subsystem sets.  With unitary site channels this is a free
    operation in both directions; with general site channels it is free
    whenever the free set is closed under local channels on the target."""
    from .channel_rmp import ChannelSpec, tensor_channels

    out = []
    for sub, _ in family.entries:
        chans = [site_channels[l] for l in sub.members]
        total = chans[0]
        for c in chans[1:]:
            total = tensor_channels(total, c)
        # align the channel layouts with the marginal's layout
        sub_layout = family.layout.sublayout(sub.members)
        total = ChannelSpec(total.in_layout, sub_layout,
                            HermitianOperator(sub_layout.concat(total.in_layout),
                                              total.choi.entries))
        out.append((sub, total))
    return out


# ---------------------------------------------------------------------------
# W-state uniqueness and the activation criterion
# ---------------------------------------------------------------------------


def _fidelity_program(objective_state: np.ndarray, family: MarginalFamily,
                      sense: str, settings: SolverSettings | None) -> float:
    everything = FreeSetSpec.all_states(SubsystemSet(family.layout, family.layout.labels))
    inst = RmpInstance(family, everything)
    prog, rho = _program(inst, pinned=True, pairs=inst.pairs)
    prog.set_objective([(rho, objective_state)], sense)
    if settings is None:
        # pinned-marginal feasible sets can be rank-deficient (down to a
        # single point), where the last interior-point digits are
        # unreachable; 1e-7 residuals are ample for the 1e-6 answer tolerance
        settings = SolverSettings(gap_tol=1e-7, feas_tol=1e-7)
    res = solve(prog, settings)
    if res.status != Status.OPTIMAL:
        raise SolverFailure(f"fidelity extremization ended with status {res.status.value}")
    return res.primal_value


def verify_w_uniqueness(settings: SolverSettings | None = None,
                        family: MarginalFamily | None = None) -> dict:
    """Extremize overlap with the W state over all global states compatible
    with the two W marginals; max = min = 1 certifies uniqueness."""
    from .states import w_state

    layout = qubit_layout("ABC")
    if family is None:
        wm_ab = w_marginal(layout.sublayout(("A", "B")))
        wm_bc = w_marginal(layout.sublayout(("B", "C")))
        family = MarginalFamily(layout, [(("A", "B"), wm_ab), (("B", "C"), wm_bc)])
    proj = w_state(layout).entries
    return {
        "max_fid": _fidelity_program(proj, family, "max", settings),
        "min_fid": _fidelity_program(proj, family, "min", settings),
    }


def activation_criterion(rho: DensityMatrix, search: str = "grid",
                         samples: int = 200, seed: int = 0) -> float:
    """max over sampled local unitaries U of <psi|(U (x) I) rho (U (x) I)^dag|psi>
    with |psi> = (1/sqrt(d)) sum_i |i+1 mod d>|i>; a value above 1/d flags
    activation of multi-copy nonlocality.  The search is a heuristic lower
    bound; the identity is always included."""
    if len(rho.layout.dims) != 2 or rho.layout.dims[0] != rho.layout.dims[1]:
        raise LayoutError("activation criterion needs a bipartite state of equal dims")
    d = rho.layout.dims[0]
    psi = np.zeros(d * d, dtype=complex)
    for i in range(d):
        psi[((i + 1) % d) * d + i] = 1 / np.sqrt(d)

    def value(u: np.ndarray) -> float:
        big = np.kron(u, np.eye(d))
        return float(np.real(psi.conj() @ big @ rho.entries @ big.conj().T @ psi))

    best = value(np.eye(d))
    if search not in ("grid", "iterative"):
        raise ValueError("search must be 'grid' or 'iterative'")
    from .discrimination import haar_from_generator

    gen = np.random.Generator(np.random.Philox(key=np.uint64(seed)))
    best_u = np.eye(d, dtype=complex)
    for _ in range(samples):
        u = haar_from_generator(d, gen)
        v = value(u)
        if v > best:
            best, best_u = v, u
    if search == "iterative":
        eps = 0.3
        for _ in range(4 * samples):
            h = gen.normal(size=(d, d)) + 1j * gen.normal(size=(d, d))
            h = (h + h.conj().T) / 2
            vals, vecs = np.linalg.eigh(eps * h)
            u = best_u @ ((vecs * np.exp(1j * vals)) @ vecs.conj().T)
            v = value(u)
            if v > best:
                best, best_u = v, u
            else:
                eps *= 0.97
    return best
