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
(see `channel_rmp`).  Both instance types have the members these programs
read (see `InstanceBase`), so the compatibility check, the robustness, the
linear maximization and the witness duals below take either.  The instance
alone fixes the free-compatible set, so each instance holds the one compiled
program of that set (`compatible_set`), and its `model` maximizes over it,
with the settings of each call.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import TYPE_CHECKING, Iterable, Sequence, TypeVar

import numpy as np

from .config import DEFAULT_TOLS
from .freesets import FreeChannelSetSpec, FreeSetSpec
from .herm import (
    DensityMatrix,
    HermitianOperator,
    LayoutError,
    LinearMap,
    SubsystemLayout,
    SubsystemSet,
    hermitize,
    partial_trace_map,
    ptrace_array,
    svec,
)
from .programs import StringRows, attach_free_state_cone
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

W = TypeVar("W")  # a witness: a dataclass with a `free_sup` field and a `gap`


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


def _label(key) -> str:
    """The label of an objective key: the key if a label, a channel pair's
    `label()`, or a subsystem set's (or a sequence's) labels joined by ","."""
    key = key.label() if hasattr(key, "label") else getattr(key, "members", key)
    return key if isinstance(key, str) else ",".join(key)


class InstanceBase:
    """The members the shared programs below read of an instance, state or
    channel, built here from a kind's `layout`, `free` set, `target` and
    `_entries`, the (key, matrix) of each marginal: a subsystem set or a
    channel pair, whose `members` are the factors it keeps.

    The variable V is a PSD matrix on `layout`.  Each of `pairs`
    (label, map, target) asks map(V) = target on the compatible set and
    map(V) >= target in the robustness program; each map is a partial trace
    (onto every factor: the identity).  `extract(key)` gives the map that an
    objective's key names.  A kind's `normalize(rows, pinned)` adds V's
    normalization to the `programs.StringRows` of V: pinned on the
    compatible set (unit trace, Choi state), scaled by tr(V) for the
    robustness.  Its `constrain(rows)` adds the structural equalities and
    the free cone.  Its `project(V)` returns the
    nearest valid matrix and the object reported for it.  `finite` is the
    paper's support condition, which `support_certificate` explains when it
    fails, as `diagnostics` does an infinite robustness.  `compatible_set` is
    the compiled program of the free-compatible set, and `model` maximizes over it.
    """

    @cached_property
    def _maps(self) -> dict[str, LinearMap]:
        """The partial trace onto each marginal, onto the target and onto no
        factor (the trace, label ""), by label, built once: every program of
        the instance shares them."""
        keep = {_label(key): key.members for key, _ in self._entries}
        keep.update({_label(self.target): self.target.members, "": ()})
        return {label: partial_trace_map(self.layout, members) for label, members in keep.items()}

    @cached_property
    def pairs(self) -> tuple[tuple[str, LinearMap, np.ndarray], ...]:
        return tuple((_label(key), self.extract(key), m) for key, m in self._entries)

    def extract(self, key) -> LinearMap:
        """The map of a key's label ("A,B"; none: the trace)."""
        label = _label(key)
        if label not in self._maps:
            raise LayoutError(f"no map for the objective key {label!r}; keys: {list(self._maps)}")
        return self._maps[label]

    @cached_property
    def support_certificate(self) -> dict | None:
        """None, or the marginal sigma_X that breaks the support condition: a unit v in
        ker tr_{T\\X}(P_rho), rho the `Singleton` on T the free set is or reduces to,
        where tau, sigma_X traced to X and T, has weight <v|tau|v> > `DEFAULT_TOLS.psd`.
        Every feasible V lies on range(rho) (x) H_rest, and t rho (x) I/d_rest dominates
        any other state family: exact for states, only necessary for channels."""
        def null_space(m):  # eigenvalues to 10 d eps lambda_max are zero, like `compile`'s t
            vals, vecs = np.linalg.eigh(m)
            return vecs[:, vals <= 10 * len(vals) * np.finfo(float).eps * vals[-1]]

        free = self.free.state_spec if isinstance(self.free, FreeChannelSetSpec) else self.free
        if free.kind != "Singleton":  # every other kind has a full-rank member
            return None
        sub, kernel = free.target.sublayout(), null_space(free.state.entries)
        proj = np.eye(len(kernel)) - kernel @ kernel.conj().T
        for key, sigma in self._entries:
            kept = [l for l in key.members if l in sub.labels]
            lay = self.layout.sublayout(key.members)
            tau = ptrace_array(sigma, lay.dims, lay.axes_of(kept))
            kernel = null_space(ptrace_array(proj, sub.dims, sub.axes_of(kept)))
            weights, vecs = np.linalg.eigh(kernel.conj().T @ tau @ kernel)
            if weights.size and weights[-1] > DEFAULT_TOLS.psd:
                return {"kind": "support", "marginal": _label(key), "subsystems": kept,
                        "vector": kernel @ vecs[:, -1:], "weight": float(weights[-1])}
        return None

    @property
    def finite(self) -> bool:
        return self.support_certificate is None

    @property
    def diagnostics(self) -> str:
        cert = self.support_certificate
        return ("the robustness program is infeasible, so the measure is unbounded: no scaled "
                "free extension dominates the family" if cert is None else
                f"the measure is unbounded: the free state is not full-rank, and the marginal "
                f"{cert['marginal']} has weight {cert['weight']:.3g} no free extension reaches")

    @cached_property
    def compatible_set(self) -> tuple[ConicProgram, BlockRef]:
        """The compiled program of the free-compatible set, with its variable
        V, built on first use; every objective shares the compiled data."""
        prog, var = _program(self, pinned=True)
        prog.set_objective([], "max")
        prog.compile()
        return prog, var

    @property
    def model(self) -> CompatibleSetModel:
        return CompatibleSetModel(self)


@dataclass(frozen=True)
class RmpInstance(InstanceBase):
    """A marginal family and a free set on its target."""

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

    @property
    def _entries(self) -> tuple[tuple[SubsystemSet, np.ndarray], ...]:
        return tuple((sub, sigma.entries) for sub, sigma in self.marginals.entries)

    def normalize(self, rows: StringRows, pinned: bool):
        if pinned:  # the cone form, tr(V) = tr(V), says nothing
            rows.marginal("unit_trace", self.extract(()), np.ones((1, 1)))

    def constrain(self, rows: StringRows):
        attach_free_state_cone(rows, self.extract(self.free.target), self.free)

    def project(self, m: np.ndarray) -> tuple[np.ndarray, DensityMatrix]:
        vals, vecs = np.linalg.eigh(hermitize(m))
        m = (vecs * np.clip(vals, 0, None)) @ vecs.conj().T
        state = DensityMatrix.from_array(self.layout, m / np.trace(m).real)
        return state.entries, state


# ---------------------------------------------------------------------------
# Shared program pieces
# ---------------------------------------------------------------------------


def _program(inst: Instance, pinned: bool,
             pairs: Iterable[tuple[str, LinearMap, np.ndarray]] = ()
             ) -> tuple[ConicProgram, BlockRef]:
    """V, its normalization, the pair rows, then the structure and the free
    cone; this order fixes the compiled rows and so the iterates, and which
    group states a string that several fix (see `programs.StringRows`).
    The caller sets the objective."""
    prog = ConicProgram()
    v = prog.add_variable("V", inst.layout.total_dim)
    rows = StringRows(prog, v, inst.layout.dims)
    inst.normalize(rows, pinned)
    for label, m, target in pairs:
        if pinned:
            rows.marginal(f"marginal[{label}]", m, target)
        else:
            prog.add_psd_inequality(f"dominate[{label}]", [(v, m)], const=-target)
    inst.constrain(rows)
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
        dev = max((float(np.max(np.abs(e.apply(m) - target))) for _, e, target in inst.pairs),
                  default=0.0)
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
    """Infeasible with no program built if the instance has a `support_certificate`."""
    res = SolveResult(Status.INFEASIBLE, np.inf, np.inf, certificate=inst.support_certificate)
    if inst.finite:
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
    channel) whose target reduction is free, which the instance alone fixes:
    the program is the instance's `compatible_set`, compiled on first use
    and reused across objectives and models, which matters for sampling
    experiments and for a request that maximizes over the set several
    times; it goes with the instance, which holds no model.  The solver
    settings are those of each call.
    """

    def __init__(self, inst: Instance):
        self.instance = inst

    def maximize(self, objectives: Iterable[tuple[object, np.ndarray]],
                 settings: SolverSettings | None = None) -> SolveResult:
        """`objectives` holds (key, O) pairs, a key being what the instance's
        `extract` takes: a label, a channel pair or a subsystem set."""
        return self.maximize_many([objectives], settings)[0]

    def maximize_many(self, objective_lists: Sequence[Iterable[tuple[object, np.ndarray]]],
                      settings: SolverSettings | None = None) -> list[SolveResult]:
        """`maximize` of each entry, solved together in one batch."""
        return optimal(self.solve_lists(objective_lists, settings))

    def solve_lists(self, objective_lists: Sequence[Iterable[tuple[object, np.ndarray]]],
                    settings: SolverSettings | None = None) -> list[SolveResult]:
        """The batch of `maximize_many`, each result with the status it ended with."""
        prog, var = self.instance.compatible_set
        costs = []
        for objectives in objective_lists:
            cost = np.zeros(prog.num_cols)
            coeff = cost[prog.block_slice(var)]
            for key, obs in objectives:
                obs = obs.entries if isinstance(obs, HermitianOperator) else np.asarray(obs)
                # the adjoint of the key's map, in svec coordinates
                coeff += self.instance.extract(key).nz.T @ svec(hermitize(obs))
            costs.append(cost)
        return solve_many(prog, costs, settings)


def optimal(results: list[SolveResult]) -> list[SolveResult]:
    """`results`, each of which must be Optimal."""
    for k, res in enumerate(results):
        if res.status != Status.OPTIMAL:
            raise SolverFailure(f"set maximization {k} ended with status {res.status.value}")
    return results


def linear_max_over_set(objectives: Iterable[tuple[object, np.ndarray]], inst: Instance,
                        settings: SolverSettings | None = None) -> float:
    """sup of sum_X tr(tau_X O_X) over the free-compatible marginal families."""
    return inst.model.maximize(objectives, settings).primal_value


# ---------------------------------------------------------------------------
# Witness extraction
# ---------------------------------------------------------------------------


def witness_duals(inst: Instance, robustness_result: RobustnessResult | None = None,
                  settings: SolverSettings | None = None) -> tuple[dict[str, np.ndarray], float]:
    """The robustness program's dual multipliers Y_X by label and their value
    sum_X tr(Y_X sigma_X) at the family: a witness whose supremum over the
    free-compatible set, `duals.items()` maximized, is still to be solved,
    on its own or, for `discriminate`, in the batch of the epsilon rule's
    bounds (see `with_free_sup`, `discrimination.ruled_witness_task`)."""
    res = robustness_result if robustness_result is not None else robustness(inst, settings)
    if res.status != Status.OPTIMAL:
        raise SolverFailure(f"robustness status {res.status.value}; witness needs Optimal")
    if res.value_log2 <= DEFAULT_TOLS.compat:
        raise NoWitnessError("no witness exists: the family is free-compatible "
                             "(robustness is zero)")
    duals = {label: hermitize(y) for label, y in res.marginal_duals.items()}
    value = sum(float(np.trace(duals[label] @ target).real) for label, _, target in inst.pairs)
    return duals, value


def with_free_sup(witness: W, sup: SolveResult) -> W:
    """`witness` with `free_sup`, its supremum over the free-compatible set,
    which must be Optimal and strictly below its value at the family."""
    witness = dataclasses.replace(witness, free_sup=optimal([sup])[0].primal_value)
    if witness.gap <= 0:
        raise SolverFailure("extracted witness has no strict gap; solver accuracy insufficient")
    return witness


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


def extract_witness(inst: RmpInstance, robustness_result: RobustnessResult | None = None,
                    settings: SolverSettings | None = None) -> Witness:
    """Dual optimizer of the robustness program, reported with its
    independently re-solved free-set supremum."""
    duals, value = witness_duals(inst, robustness_result, settings)
    return with_free_sup(witness_from_duals(inst, duals, value),
                         inst.model.maximize(duals.items(), settings))


def witness_from_duals(inst: RmpInstance, duals: dict[str, np.ndarray], value: float) -> Witness:
    """The witness of the robustness duals, one block per marginal; its
    supremum is set by `with_free_sup`."""
    blocks = tuple((sub, HermitianOperator(sub.sublayout(), duals[label]))
                   for label, (sub, _) in zip(inst.marginals.labels(), inst.marginals.entries))
    return Witness(blocks, math.nan, value,
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


def verify_w_uniqueness(settings: SolverSettings | None = None,
                        family: MarginalFamily | None = None) -> dict:
    """Extremize overlap with the W state over all global states compatible
    with the two W marginals; max = min = 1 certifies uniqueness.  One
    program, min <W|rho|W>, is solved for the cost and its negation in one
    batch: the max is minus the min of -P, and negation is exact."""
    from .states import w_state

    layout = qubit_layout("ABC")
    if family is None:
        wm_ab = w_marginal(layout.sublayout(("A", "B")))
        wm_bc = w_marginal(layout.sublayout(("B", "C")))
        family = MarginalFamily(layout, [(("A", "B"), wm_ab), (("B", "C"), wm_bc)])
    everything = FreeSetSpec.all_states(SubsystemSet(family.layout, family.layout.labels))
    inst = RmpInstance(family, everything)
    prog, rho = _program(inst, pinned=True, pairs=inst.pairs)
    cost = prog.objective_vector([(rho, w_state(layout).entries)])
    if settings is None:
        # pinned-marginal feasible sets can be rank-deficient (down to a
        # single point), where the last interior-point digits are
        # unreachable; 1e-7 residuals are ample for the 1e-6 answer tolerance
        settings = SolverSettings(gap_tol=1e-7, feas_tol=1e-7)
    low, high = solve_many(prog, [cost, -cost], settings)
    for res in (low, high):
        if res.status != Status.OPTIMAL:
            raise SolverFailure(f"fidelity extremization ended with status {res.status.value}")
    return {"max_fid": -high.primal_value, "min_fid": low.primal_value}


def activation_criterion(rho: DensityMatrix, samples: int = 200, seed: int = 0) -> float:
    """max over sampled local unitaries U of <psi|(U (x) I) rho (U (x) I)^dag|psi>
    with |psi> = (1/sqrt(d)) sum_i |i+1 mod d>|i>; a value above 1/d flags
    activation of multi-copy nonlocality.  The U are the identity and
    `samples` Haar draws from the Philox stream of `seed`, drawn and
    evaluated as one stack, so the value is a heuristic lower bound."""
    if len(rho.layout.dims) != 2 or rho.layout.dims[0] != rho.layout.dims[1]:
        raise LayoutError("activation criterion needs a bipartite state of equal dims")
    from .discrimination import _haar_from_normals

    d = rho.layout.dims[0]
    gen = np.random.Generator(np.random.Philox(key=np.uint64(seed)))
    us = _haar_from_normals(gen.normal(size=(samples, 2, d, d)))
    return float(np.max(_activation_overlaps(rho.entries, np.concatenate([np.eye(d)[None], us]))))


def _activation_overlaps(rho: np.ndarray, us: np.ndarray) -> np.ndarray:
    """<psi|(U (x) I) rho (U (x) I)^dag|psi> for each U of the stack us: with
    psi = vec(Psi), (U (x) I)^dag psi is vec(U^dag Psi)."""
    d = us.shape[-1]
    psi = np.roll(np.eye(d), 1, axis=0) / np.sqrt(d)   # Psi[(i + 1) % d, i] = 1/sqrt(d)
    phi = (np.swapaxes(us.conj(), -1, -2) @ psi).reshape(len(us), d * d)
    return np.einsum("si,ij,sj->s", phi.conj(), rho, phi).real
