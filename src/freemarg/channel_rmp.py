"""Channel-family compatibility via Choi matrices: marginal channels, the
dynamical robustness cone program, witness decomposition into state/observable
pairs, and the ensemble state-discrimination task.  Compatibility, robustness,
linear maximization and the witness duals are those of `state_rmp`, which
read the members a `ChannelRmpInstance` shares with a state instance (see
`state_rmp.InstanceBase`), its free-channel set being the state free set it
reduces to; success probability, advantage and the epsilon rule are those
of `discrimination`, fed by `ChannelDiscriminationTask.outcomes()`.

Conventions.  A channel from X' to X is stored as its Choi *state*
J = (E (x) id)(|Phi+><Phi+|) on the layout  out (x) in :  J >= 0 iff E is
completely positive, and tr_out(J) = I_in/d_in iff E is trace preserving.
Input and output factors must carry distinct labels (e.g. "A" out, "A'" in).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .config import DEFAULT_TOLS
from .discrimination import (
    advantage,
    is_strictly_positive,
    ruled_task,
    ruled_witness_task,
    success_probability,
)
from .freesets import FreeChannelSetSpec
from .herm import (
    DensityMatrix,
    HermitianOperator,
    LayoutError,
    SubsystemLayout,
    SubsystemSet,
    ValidationError,
    hermitize,
    partial_trace_map,
    permute_array,
    ptrace_array,
    svec,
)
from .programs import StringRows, attach_free_state_cone
from .solver import SolverFailure, SolverSettings
from .state_rmp import (  # NoWitnessError is re-exported for channel callers
    CompatibilityResult,
    CompatibleSetModel,
    InstanceBase,
    NoWitnessError,
    RobustnessResult,
    check_rfree_compatible,
    linear_max_over_set,
    robustness,
    with_free_sup,
    witness_duals,
)


# ---------------------------------------------------------------------------
# Channels
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ChannelSpec:
    """A channel X' -> X given by its Choi state on out (x) in."""

    in_layout: SubsystemLayout
    out_layout: SubsystemLayout
    choi: HermitianOperator

    def __post_init__(self):
        if set(self.in_layout.labels) & set(self.out_layout.labels):
            raise LayoutError("input and output layouts must use distinct labels")
        expected = self.out_layout.concat(self.in_layout)
        if self.choi.layout != expected:
            raise LayoutError("Choi layout must be out (x) in")
        tols = DEFAULT_TOLS
        if self.choi.min_eig() < -tols.psd:
            raise ValidationError(f"Choi not PSD: min eig {self.choi.min_eig():.2e}")
        marg = ptrace_array(self.choi.entries, self.choi.layout.dims,
                            self.choi.layout.axes_of(self.in_layout.labels))
        target = np.eye(self.d_in) / self.d_in
        if np.max(np.abs(marg - target)) > tols.psd:
            raise ValidationError("Choi input marginal is not I/d: channel not trace-preserving")

    @property
    def d_in(self) -> int:
        return self.in_layout.total_dim

    @property
    def d_out(self) -> int:
        return self.out_layout.total_dim

    # -- constructors

    @staticmethod
    def from_kraus(kraus: list[np.ndarray], in_layout: SubsystemLayout,
                   out_layout: SubsystemLayout) -> "ChannelSpec":
        d_in, d_out = in_layout.total_dim, out_layout.total_dim
        j = np.zeros((d_out * d_in, d_out * d_in), dtype=complex)
        for k in kraus:
            k = np.asarray(k, dtype=complex)
            v = k.reshape(-1) / np.sqrt(d_in)  # (K (x) I)|Phi+> in (out, in) order
            j += np.outer(v, v.conj())
        return ChannelSpec(in_layout, out_layout, HermitianOperator(out_layout.concat(in_layout), j))

    @staticmethod
    def from_unitary(u: np.ndarray, in_layout: SubsystemLayout,
                     out_layout: SubsystemLayout | None = None) -> "ChannelSpec":
        out_layout = out_layout or _primed_twin(in_layout)
        return ChannelSpec.from_kraus([np.asarray(u, dtype=complex)], in_layout, out_layout)

    @staticmethod
    def identity(in_layout: SubsystemLayout, out_layout: SubsystemLayout | None = None) -> "ChannelSpec":
        out_layout = out_layout or _primed_twin(in_layout)
        return ChannelSpec.from_kraus([np.eye(in_layout.total_dim)], in_layout, out_layout)

    @staticmethod
    def replacement(state: DensityMatrix, in_layout: SubsystemLayout) -> "ChannelSpec":
        """E(rho) = tr(rho) * state."""
        d_in = in_layout.total_dim
        j = np.kron(state.entries, np.eye(d_in) / d_in)
        return ChannelSpec(in_layout, state.layout,
                           HermitianOperator(state.layout.concat(in_layout), j))

    # -- action

    def apply(self, rho: np.ndarray) -> np.ndarray:
        """E(rho) = d_in tr_in[J (I (x) rho^T)]."""
        m = self.choi.entries @ np.kron(np.eye(self.d_out), np.asarray(rho).T)
        return self.d_in * ptrace_array(m, (self.d_out, self.d_in), (0,))

    def apply_adjoint(self, obs: np.ndarray) -> np.ndarray:
        """Heisenberg picture: tr[obs E(rho)] = tr[apply_adjoint(obs) rho]."""
        m = self.choi.entries @ np.kron(np.asarray(obs), np.eye(self.d_in))
        return self.d_in * ptrace_array(m, (self.d_out, self.d_in), (1,)).T

    def to_json(self) -> dict:
        return {"in": self.in_layout.to_json(), "out": self.out_layout.to_json(),
                "choi": self.choi.to_json()}


def _primed_twin(layout: SubsystemLayout) -> SubsystemLayout:
    return SubsystemLayout([(l.rstrip("'") if l.endswith("'") else l + "'", d)
                            for l, d in layout.factors])


def tensor_channels(a: ChannelSpec, b: ChannelSpec) -> ChannelSpec:
    """Product channel a (x) b; Choi factors reordered to out (x) in."""
    from .herm import permute_factors, tensor

    big = tensor(a.choi, b.choi)  # [a.out, a.in, b.out, b.in]
    out_layout = a.out_layout.concat(b.out_layout)
    in_layout = a.in_layout.concat(b.in_layout)
    order = out_layout.labels + in_layout.labels
    return ChannelSpec(in_layout, out_layout, permute_factors(big, order))


# ---------------------------------------------------------------------------
# Channel families and instances
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ChannelPair:
    """An input-output pair X' -> X inside global in/out spaces."""

    inp: SubsystemSet
    out: SubsystemSet

    @property
    def members(self) -> tuple[str, ...]:
        """The factors of out (x) in that the pair keeps: its Choi layout."""
        return self.out.choi_with(self.inp).members

    def label(self) -> str:
        return f"{','.join(self.inp.members)}->{','.join(self.out.members)}"


@dataclass(frozen=True)
class ChannelMarginalFamily:
    global_in: SubsystemLayout
    global_out: SubsystemLayout
    entries: tuple[tuple[ChannelPair, ChannelSpec], ...]

    def __init__(self, global_in, global_out, entries):
        entries = tuple(entries)
        labels = [pair.label() for pair, _ in entries]
        if len(set(labels)) < len(labels):  # a label keys the targets, the maps and the duals
            raise LayoutError(f"a channel pair is given twice: {labels}")
        for pair, spec in entries:
            if pair.inp.layout != global_in or pair.out.layout != global_out:
                raise LayoutError("pair subsystem sets must refer to the global layouts")
            if spec.in_layout != global_in.sublayout(pair.inp.members):
                raise LayoutError(f"channel input layout mismatch for pair {pair.label()}")
            if spec.out_layout != global_out.sublayout(pair.out.members):
                raise LayoutError(f"channel output layout mismatch for pair {pair.label()}")
        object.__setattr__(self, "global_in", global_in)
        object.__setattr__(self, "global_out", global_out)
        object.__setattr__(self, "entries", entries)

    def targets(self) -> dict[str, np.ndarray]:
        """Each pair's Choi state, by pair label "A'->A"."""
        return {pair.label(): spec.choi.entries for pair, spec in self.entries}


@dataclass(frozen=True)
class ChannelRmpInstance(InstanceBase):
    """The state problem on out (x) in (see `InstanceBase`): Choi validity
    as normalization, and marginal-channel existence (no-signalling) and the
    free-channel set, as the state free set it reduces to, as extra rows."""

    family: ChannelMarginalFamily
    target: ChannelPair
    free: FreeChannelSetSpec

    def __post_init__(self):
        if self.target.inp.layout != self.family.global_in:
            raise LayoutError("target input must live on the global input layout")
        if self.target.out.layout != self.family.global_out:
            raise LayoutError("target output must live on the global output layout")
        if (self.free.input, self.free.output) != (self.target.inp, self.target.out):
            raise LayoutError("the free channel set must act on the target pair")

    @property
    def layout(self) -> SubsystemLayout:
        return self.family.global_out.concat(self.family.global_in)

    @property
    def _entries(self) -> tuple[tuple[ChannelPair, np.ndarray], ...]:
        return tuple((pair, spec.choi.entries) for pair, spec in self.family.entries)

    def normalize(self, rows: StringRows, pinned: bool):
        """Choi validity: tr_S(V) = I/d_in, or tr(V) I/d_in in the cone form."""
        gin = self.family.global_in
        tr_out_map = partial_trace_map(self.layout, gin.labels)
        d_in = gin.total_dim
        if pinned:
            rows.marginal("choi_state", tr_out_map, np.eye(d_in) / d_in)
        else:
            rows.vanish("choi_cone", tr_out_map, self.layout.axes_of(gin.labels))

    def constrain(self, rows: StringRows):
        """Marginal-channel existence for every pair and the target, then the
        free-channel set on the target pair, as the state set it reduces to."""
        so = self.layout
        for pair in [pair for pair, _ in self.family.entries] + [self.target]:
            keep, rest_in = _existence(self.family.global_in, pair)
            if rest_in:
                rows.vanish(f"exists[{pair.label()}]", partial_trace_map(so, keep),
                            so.axes_of(rest_in))

        t_pair, extract, prefix = self.target, self.extract(self.target), "free"
        if self.free.kind == "FreeOutputState":
            # replacement maps, V_TT' = tr_{T'}(V_TT') (x) I/d_T', of a free output
            rows.vanish("free.replacement", extract, so.axes_of(t_pair.inp.members))
            extract, prefix = partial_trace_map(so, t_pair.out.members), "free.state"
        attach_free_state_cone(rows, extract, self.free.state_spec, prefix)

    def project(self, j: np.ndarray) -> tuple[np.ndarray, ChannelSpec]:
        gin, gout = self.family.global_in, self.family.global_out
        j = _project_choi_state(j, gin.total_dim)
        return j, ChannelSpec(gin, gout, HermitianOperator(self.layout, j))


# ---------------------------------------------------------------------------
# Marginal channels
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MarginalChannelResult:
    exists: bool
    channel: ChannelSpec | None
    deviation: float


def marginal_channel(global_channel: ChannelSpec, pair: ChannelPair) -> MarginalChannelResult:
    """Reduced channel on the pair, when the no-signaling condition holds.

    With F the other inputs and M = tr_{S\\keep}(J) the Choi marginal on
    the pair's outputs and every input, the marginal channel exists iff M
    carries I/d_F on F, as the existence rows of the channel programs
    state: `deviation` is max |M - tr_F(M) (x) I/d_F|, by partial traces of
    J.  The reduced Choi is then the pair marginal of the global Choi.  A
    Choi state has unit trace, so its entries and their deviation are
    absolute.
    """
    so = global_channel.out_layout.concat(global_channel.in_layout)
    j = global_channel.choi.entries
    marg = ptrace_array(j, so.dims, so.axes_of(pair.members))
    keep, rest_in = _existence(global_channel.in_layout, pair)
    dev = 0.0
    if rest_in:
        # M with F moved last, which leaves its entries, and so their
        # largest deviation, as they are
        sub = so.sublayout(keep)
        fixed, d_f = sub.axes_of(rest_in), sub.dim_of(rest_in)
        order = [a for a in range(len(sub.dims)) if a not in fixed] + list(fixed)
        m = permute_array(ptrace_array(j, so.dims, so.axes_of(keep)), sub.dims, order)
        reduced = ptrace_array(m, (m.shape[0] // d_f, d_f), (0,))
        dev = float(np.max(np.abs(m - np.kron(reduced, np.eye(d_f) / d_f))))
    if dev > DEFAULT_TOLS.psd:
        return MarginalChannelResult(False, None, dev)
    in_sub = global_channel.in_layout.sublayout(pair.inp.members)
    out_sub = global_channel.out_layout.sublayout(pair.out.members)
    spec = ChannelSpec(in_sub, out_sub, HermitianOperator(out_sub.concat(in_sub), marg))
    return MarginalChannelResult(True, spec, dev)


# ---------------------------------------------------------------------------
# Program pieces
# ---------------------------------------------------------------------------


def _existence(global_in: SubsystemLayout, pair: ChannelPair) -> tuple[list, list]:
    """Marginal-channel existence (no-signalling from the other inputs):
    the factors kept, the pair's outputs and every input, and the other
    inputs; V -> tr_{S\\X}(V) - tr_{SS'\\XX'}(V) (x) I/d on the other inputs
    vanishes on the existence rows, which there are if any input is left."""
    rest_in = [l for l in global_in.labels if l not in pair.inp.members]
    return list(pair.out.members) + list(global_in.labels), rest_in


def _project_choi_state(j: np.ndarray, d_in: int) -> np.ndarray:
    """Nearest valid Choi state: clip negative eigenvalues, then sandwich the
    input marginal back to I/d (preserves positivity exactly)."""
    vals, vecs = np.linalg.eigh(hermitize(j))
    j = (vecs * np.clip(vals, 1e-14, None)) @ vecs.conj().T
    d_out = j.shape[0] // d_in
    marg = ptrace_array(j, (d_out, d_in), (1,))
    mw, mv = np.linalg.eigh(hermitize(marg))
    k = (mv * (1.0 / np.sqrt(np.maximum(mw, 1e-14) * d_in))) @ mv.conj().T
    sandwich = np.kron(np.eye(d_out), k)
    return hermitize(sandwich @ j @ sandwich)


# ---------------------------------------------------------------------------
# Compatibility check, robustness and linear maximization: entries into the
# marginal-problem core of `state_rmp`
# ---------------------------------------------------------------------------


def check_channel_compatible(inst: ChannelRmpInstance,
                             settings: SolverSettings | None = None) -> CompatibilityResult:
    """Feasibility of a global channel matching all pair marginals with a
    free target-pair marginal."""
    return check_rfree_compatible(inst, settings)


def channel_robustness(inst: ChannelRmpInstance,
                       settings: SolverSettings | None = None) -> RobustnessResult:
    """log2 of  min tr(V)  over scaled free-compatible Chois dominating all
    pair marginals."""
    return robustness(inst, settings)


# the shared model, under the name channel callers know it by
ChannelCompatibleSetModel = CompatibleSetModel


def channel_linear_max_over_set(observables: dict[str, np.ndarray],
                                inst: ChannelRmpInstance,
                                settings: SolverSettings | None = None) -> float:
    return linear_max_over_set(observables.items(), inst, settings)


# ---------------------------------------------------------------------------
# Dynamical witness
# ---------------------------------------------------------------------------


def ic_state_frame(d: int) -> list[np.ndarray]:
    """Deterministic informationally complete frame of d^2 pure states:
    basis projectors plus the +/i two-level superpositions."""
    frame = []
    for k in range(d):
        v = np.zeros(d, dtype=complex)
        v[k] = 1.0
        frame.append(np.outer(v, v.conj()))
    for k in range(d):
        for l in range(k + 1, d):
            v = np.zeros(d, dtype=complex)
            v[k] = v[l] = 1 / np.sqrt(2)
            frame.append(np.outer(v, v.conj()))
            v = np.zeros(d, dtype=complex)
            v[k] = 1 / np.sqrt(2)
            v[l] = 1j / np.sqrt(2)
            frame.append(np.outer(v, v.conj()))
    return frame


def frame_decompose(e: np.ndarray, d_out: int, d_in: int) -> tuple[np.ndarray, list, list]:
    """Weights w[i, j] with  e = sum_ij w_ij  xi_i (x) rho_j^T  over the
    deterministic IC frames on the output (xi) and input (rho) spaces."""
    xis = ic_state_frame(d_out)
    rhos = ic_state_frame(d_in)
    cols = svec(np.array([np.kron(xi, rho.T) for xi in xis for rho in rhos])).T
    w = np.linalg.solve(cols, svec(e))
    return w.reshape(len(xis), len(rhos)), xis, rhos


@dataclass
class ChannelWitness:
    """Per pair: observables W_i on the output and input states rho_i with
    sum_i tr[W_i E(rho_i)] strictly larger at the family than anywhere in the
    free-compatible set."""

    entries: dict[str, list[tuple[np.ndarray, np.ndarray]]]  # label -> [(W_i, rho_i)]
    free_sup: float
    value_at_family: float
    n_terms: int
    metadata: dict = field(default_factory=dict)

    @property
    def gap(self) -> float:
        return self.value_at_family - self.free_sup


def channel_witness(inst: ChannelRmpInstance, robustness: RobustnessResult | None = None,
                    settings: SolverSettings | None = None) -> ChannelWitness:
    """The robustness dual per pair, decomposed over IC frames into
    (observable, input state) terms, with the free-set supremum."""
    duals, value = witness_duals(inst, robustness, settings)
    return with_free_sup(_channel_witness(inst, duals, value),
                         inst.model.maximize(duals.items(), settings))


def _channel_witness(inst: ChannelRmpInstance, duals: dict[str, np.ndarray],
                     value: float) -> ChannelWitness:
    """The witness of the robustness duals; its supremum is set by
    `state_rmp.with_free_sup`."""
    entries: dict[str, list[tuple[np.ndarray, np.ndarray]]] = {}
    for pair, spec in inst.family.entries:
        e = duals[pair.label()]
        w, xis, rhos = frame_decompose(e, spec.d_out, spec.d_in)
        terms = [(hermitize(sum(w[i, j] * xi for i, xi in enumerate(xis))) / spec.d_in, rho)
                 for j, rho in enumerate(rhos)]
        # identity check: folded form reproduces tr(J E) exactly
        folded = sum(float(np.trace(wj @ spec.apply(rho)).real) for wj, rho in terms)
        direct = float(np.trace(spec.choi.entries @ e).real)
        if abs(folded - direct) > 1e-8 * (1 + abs(direct)):
            raise SolverFailure("frame decomposition failed to reproduce the Choi pairing")
        entries[pair.label()] = terms

    # zero-pad every pair to a common number of terms
    n_max = max(len(terms) for terms in entries.values())
    for pair, spec in inst.family.entries:
        terms = entries[pair.label()]
        while len(terms) < n_max:
            terms.append((np.zeros((spec.d_out,) * 2), np.eye(spec.d_in) / spec.d_in))

    bound = max(max(p.out.dim, p.inp.dim) for p, _ in inst.family.entries) ** 2 + 3
    return ChannelWitness(entries, math.nan, value, n_max,
                          metadata={"dual_optimum_unique": False,
                                    "n_bound": bound,
                                    "relaxation": inst.free.relaxation})


# ---------------------------------------------------------------------------
# Ensemble state discrimination task
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ChannelDiscriminationTask:
    """Per pair: prior p_pair, per-outcome priors, input states, POVM."""

    pair_priors: dict[str, float]
    outcome_priors: dict[str, np.ndarray]
    states: dict[str, list[np.ndarray]]
    povms: dict[str, list[np.ndarray]]
    epsilon: float
    metadata: dict = field(default_factory=dict)

    @property
    def strictly_positive(self) -> bool:
        return all(is_strictly_positive(prior, self.outcome_priors[label], self.povms[label])
                   for label, prior in self.pair_priors.items())

    def outcomes(self) -> list[tuple[str, float, np.ndarray, list[np.ndarray]]]:
        """(label, p_pair, p_i, H_i) per pair, with H_i = d_in E_i (x) sigma_i^T,
        so that tr(J H_i) = tr[E_i L(sigma_i)] for the channel L of Choi state J."""
        return [(label, prior, self.outcome_priors[label],
                 [s.shape[0] * np.kron(e, s.T)
                  for e, s in zip(self.povms[label], self.states[label])])
                for label, prior in self.pair_priors.items()]


def state_discrimination_task(witness: ChannelWitness, inst: ChannelRmpInstance,
                              epsilon: float | None = None,
                              settings: SolverSettings | None = None) -> ChannelDiscriminationTask:
    """Shift and scale the witness observables into strictly positive POVM
    elements, append the completing outcome, and fix the priors; the epsilon
    rule bounds the task over the instance's free-compatible set."""
    tasks = _tasks(witness, inst)
    return _checked(tasks(epsilon) if epsilon is not None
                    else ruled_task(tasks, inst.family, inst, settings))


def channel_witness_task(inst: ChannelRmpInstance, settings: SolverSettings | None = None
                         ) -> tuple[ChannelWitness, ChannelDiscriminationTask]:
    """`channel_witness` and its `state_discrimination_task` with the rule's
    epsilon, with one batch after the robustness (see
    `discrimination.ruled_witness_task`)."""
    witness, task = ruled_witness_task(inst, _channel_witness, lambda w: _tasks(w, inst),
                                       inst.family, settings)
    return witness, _checked(task)


def _tasks(witness: ChannelWitness, inst: ChannelRmpInstance
           ) -> Callable[[float], ChannelDiscriminationTask]:
    """The task of each epsilon: the witness observables made POVM
    elements once."""
    if all(np.max(np.abs(wj)) < 1e-14 for terms in witness.entries.values()
           for wj, _ in terms):
        raise ValueError("degenerate (all-zero) witness cannot define a task")

    n = witness.n_terms
    povms: dict[str, list[np.ndarray]] = {}
    states: dict[str, list[np.ndarray]] = {}
    pair_specs = {pair.label(): spec for pair, spec in inst.family.entries}
    for label, terms in witness.entries.items():
        d_out = pair_specs[label].d_out
        shift = max(0.0, max(-float(np.linalg.eigvalsh(wj)[0]) for wj, _ in terms))
        delta = shift + 0.05 * max(1e-6, max(float(np.linalg.norm(wj, 2)) for wj, _ in terms))
        zs = [hermitize(wj + delta * np.eye(d_out)) for wj, _ in terms]
        total = sum(zs)
        kap = 0.95 / float(np.linalg.eigvalsh(total)[-1])
        zs = [kap * z for z in zs]
        povms[label] = zs + [np.eye(d_out) - sum(zs)]
        states[label] = [rho for _, rho in terms] + [np.eye(pair_specs[label].d_in)
                                                     / pair_specs[label].d_in]

    def task_at(eps: float) -> ChannelDiscriminationTask:
        return ChannelDiscriminationTask(
            pair_priors={label: 1.0 / len(povms) for label in povms},
            outcome_priors={label: np.array([(1 - eps) / n] * n + [eps]) for label in povms},
            states=states, povms=povms, epsilon=float(eps), metadata={"n_terms": n})

    return task_at


def _checked(task: ChannelDiscriminationTask) -> ChannelDiscriminationTask:
    """The task, which must be strictly positive."""
    if not (0 < task.epsilon < 1):
        raise ValueError(f"epsilon = {task.epsilon} does not give a strictly positive task")
    if not task.strictly_positive:
        raise ValueError("constructed task is not strictly positive")
    return task


def channel_success_probability(task: ChannelDiscriminationTask,
                                family: ChannelMarginalFamily) -> float:
    """P = sum_pairs sum_i p_pair p_i tr[E_i E_pair(sigma_i)]."""
    return success_probability(task, family)


def channel_task_advantage(task: ChannelDiscriminationTask, inst: ChannelRmpInstance,
                           settings: SolverSettings | None = None) -> float:
    """P at the instance family minus the best P over the free-compatible set."""
    return advantage(task, inst.family, inst, settings)
