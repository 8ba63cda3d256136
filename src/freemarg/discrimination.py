"""Sub-channel discrimination games built from incompatibility witnesses.

A witness block W_X is turned into a strictly positive task: the spectral
decomposition of W_X + delta*I gives weights w_i and vectors |v_i>, each
rotated by a chosen unitary into an operator M_i = d_X w_i U_i |v_i><v_i| U_i^dag;
the POVM elements are E_i = (M_i + delta*I) / (mu_X + delta) with
mu_X = ||sum_i (M_i + delta*I)||_inf, completed by E_{d+1} = I - sum_i E_i.
With channel i being conjugation by the same U_i, the main-outcome success
probability is an affine image of the witness value, so incompatible
families beat every free-compatible family at the task.

The task layer is written once, in the Heisenberg picture, for state tasks
and for the channel tasks of `channel_rmp`.  A task's `outcomes()` gives,
per family entry X, its prior p_X, the outcome priors p_i and observables
H_i with P = sum_X p_X sum_i p_i tr(tau_X H_i): H_i = U_i^dag E_i U_i for a
state task, and H_i = d_in E_i (x) rho_i^T, paired with the Choi state
tau_X, for a channel task.  Success probabilities, advantages and the bound
terms of the epsilon rule are all computed from these observables.

Randomness is deterministic and portable: all sampling uses the Philox4x32-10
counter-based generator; the histogram experiment seeds sample k with
``seed XOR k``, so results are independent of execution order.  That keying
collides across seeds: sample k of seed s has the key of sample 0 of seed
s XOR k, so runs with nearby seeds share samples.  A collision-free key
changes every histogram value, and the benchmark's stored reference values
pin them, so the new key waits for a change that regenerates those.

The histogram builds a batch's tasks as stacked arrays rather than one
`DiscriminationTask` per sample: one QR over the batch's Ginibre matrices,
one `eigvalsh` for the POVM norms, and matrix products for the observables
(`_w_unitaries`, `_w_observables`).  `_w_example_task` is the one-sample
reference, and the stacked arithmetic repeats its steps, so the values are
bit-identical to it.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Sequence

import numpy as np

from .config import DEFAULT_TOLS
from .freesets import FreeSetSpec
from .herm import (
    HermitianOperator,
    SubsystemLayout,
    SubsystemSet,
    eig_hermitian,
    hermitize,
)
from .solver import SolverFailure, SolverSettings
from .state_rmp import CompatibleSetModel, MarginalFamily, RmpInstance, Witness
from .states import qubit_layout, w_marginal

if TYPE_CHECKING:
    from .state_rmp import Instance


# ---------------------------------------------------------------------------
# Haar sampling (Ginibre + QR with phase-corrected R diagonal)
# ---------------------------------------------------------------------------


def _haar_from_normals(g: np.ndarray) -> np.ndarray:
    """Haar unitaries from standard normals of shape (..., 2, d, d): the
    Ginibre matrices (g[..., 0, :, :] + i g[..., 1, :, :]) / sqrt(2), QR
    factored as one stack, each Q's columns rephased by R's diagonal."""
    z = (g[..., 0, :, :] + 1j * g[..., 1, :, :]) / np.sqrt(2)
    q, r = np.linalg.qr(z)
    ph = np.diagonal(r, axis1=-2, axis2=-1).copy()
    ph /= np.abs(ph)
    return q * ph[..., None, :]


def haar_from_generator(dim: int, gen: np.random.Generator) -> np.ndarray:
    return _haar_from_normals(gen.normal(size=(2, dim, dim)))


def haar_unitary(dim: int, seed: int) -> np.ndarray:
    """Haar-distributed unitary, deterministic per seed (Philox4x32-10)."""
    if dim < 1:
        raise ValueError("dimension must be >= 1")
    gen = np.random.Generator(np.random.Philox(key=np.uint64(seed)))
    return haar_from_generator(dim, gen)


# ---------------------------------------------------------------------------
# Tasks
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TaskBlock:
    sub: SubsystemSet
    prior: float
    outcome_priors: np.ndarray
    unitaries: tuple[np.ndarray, ...]       # channel i = conjugation by unitaries[i]
    povm: tuple[np.ndarray, ...]
    spectral_weights: np.ndarray | None = None
    spectral_vectors: np.ndarray | None = None


@dataclass(frozen=True)
class DiscriminationTask:
    blocks: tuple[TaskBlock, ...]
    epsilon: float
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        if abs(sum(b.prior for b in self.blocks) - 1) > 1e-12:
            raise ValueError("block priors must sum to one")
        for b in self.blocks:
            if abs(float(np.sum(b.outcome_priors)) - 1) > 1e-12:
                raise ValueError("outcome priors must sum to one")
            if len(b.unitaries) != len(b.povm) or len(b.povm) != len(b.outcome_priors):
                raise ValueError("outcome count mismatch")
            total = sum(b.povm)
            if np.max(np.abs(total - np.eye(total.shape[0]))) > DEFAULT_TOLS.psd:
                raise ValueError("POVM does not sum to the identity")

    @property
    def strictly_positive(self) -> bool:
        return all(is_strictly_positive(b.prior, b.outcome_priors, b.povm) for b in self.blocks)

    def outcomes(self) -> list[tuple[str, float, np.ndarray, list[np.ndarray]]]:
        """(label, p_X, p_i, H_i) per block, with H_i = U_i^dag E_i U_i."""
        return [(",".join(b.sub.members), b.prior, b.outcome_priors,
                 [u.conj().T @ e @ u for u, e in zip(b.unitaries, b.povm)])
                for b in self.blocks]


def is_strictly_positive(prior: float, outcome_priors: np.ndarray, povm) -> bool:
    """Every prior positive and every POVM element positive definite."""
    return prior > 0 and bool(np.all(outcome_priors > 0)) and all(
        np.linalg.eigvalsh(hermitize(e))[0] > 0 for e in povm)


def effective_observables(task, weight: Callable[[int, int], float] | None = None
                          ) -> list[tuple[str, np.ndarray]]:
    """(label, O_X) with O_X = p_X sum_i w_i H_i, so P(tau) = sum_X tr(tau_X O_X).
    The weights w_i are the outcome priors, or weight(i, n) for outcome i of
    an entry with n main outcomes and one completing outcome."""
    out = []
    for label, prior, priors, hs in task.outcomes():
        o = np.zeros(hs[0].shape, dtype=complex)
        for i, h in enumerate(hs):
            o += prior * float(priors[i] if weight is None else weight(i, len(hs) - 1)) * h
        out.append((label, hermitize(o)))
    return out


def value_at(observables: Sequence[tuple[str, np.ndarray]], family) -> float:
    """sum_X tr(O_X tau_X), where tau_X is `family.targets()[X]`."""
    targets = family.targets()
    return sum(float(np.trace(o @ targets[label]).real) for label, o in observables)


def success_probability(task, inputs) -> float:
    """P = sum_X p_X sum_i p_i tr(tau_X H_i) for a state or channel task and
    a family `inputs` of marginals or pair Choi states tau_X."""
    return value_at(effective_observables(task), inputs)


def advantage(task, sigma, feasible: Instance | CompatibleSetModel,
              settings: SolverSettings | None = None) -> float:
    """P at the family `sigma` minus the best P over the free-compatible set."""
    if not task.strictly_positive:
        raise ValueError("advantage is defined for strictly positive tasks")
    obs = effective_observables(task)
    sup = CompatibleSetModel.of(feasible, settings).maximize(obs).primal_value
    return value_at(obs, sigma) - sup


def epsilon_bound_terms(task, sigma, feasible: Instance | CompatibleSetModel,
                        settings: SolverSettings | None = None) -> tuple[float, float]:
    """(Delta_1, Delta_2) of the epsilon rule: the family's advantage on the
    main outcomes, weighted uniformly, and the worst drift of the completing
    outcome against them over the free-compatible set."""
    main = effective_observables(task, lambda i, n: 1.0 / n if i < n else 0.0)
    gamma = effective_observables(task, lambda i, n: -1.0 / n if i < n else 1.0)
    sup_main, sup_gamma = CompatibleSetModel.of(feasible, settings).maximize_many([main, gamma])
    return (value_at(main, sigma) - sup_main.primal_value,
            sup_gamma.primal_value - value_at(gamma, sigma))


def epsilon_rule(d1: float, d2: float) -> float:
    """The safety rule for the completing-outcome prior:
    eps = 1/2 if Delta_2 <= 0 else min(Delta_1/Delta_2, 1)/2."""
    return 0.5 if d2 <= 0 else min(d1 / d2, 1.0) / 2


# ---------------------------------------------------------------------------
# Task construction from a witness
# ---------------------------------------------------------------------------


def shifted_spectrum(block: HermitianOperator, delta: float) -> tuple[np.ndarray, np.ndarray]:
    """Deterministically ordered eigensystem of W + delta*I."""
    shifted = HermitianOperator(block.layout,
                                block.entries + delta * np.eye(block.dim))
    return eig_hermitian(shifted)


def _block_from_spectrum(sub: SubsystemSet, weights: np.ndarray, vectors: np.ndarray,
                         unitaries: Sequence[np.ndarray], delta: float,
                         priors: np.ndarray, prior: float,
                         strict: bool = True) -> TaskBlock:
    """POVM block from a shifted-witness spectrum.

    With strict=True the normalization is mu = ||sum_i (M_i + delta I)||, so
    the completing element stays strictly positive.  strict=False uses the
    weaker mu = ||sum_i M_i + delta I||, the variant whose numbers the
    histogram experiment reproduces; its completing element can dip slightly
    (about -2 delta / mu) below zero.
    """
    d = vectors.shape[0]
    ms = []
    for i in range(d):
        v = unitaries[i] @ vectors[:, i]
        ms.append(d * float(weights[i]) * np.outer(v, v.conj()))
    mu = float(np.linalg.eigvalsh(hermitize(sum(ms)))[-1]) + (d * delta if strict else delta)
    povm = [hermitize((m + delta * np.eye(d)) / (mu + delta)) for m in ms]
    povm.append(np.eye(d) - sum(povm))
    return TaskBlock(sub, prior, priors, tuple(unitaries), tuple(povm),
                     spectral_weights=weights, spectral_vectors=vectors)


def task_from_witness(witness: Witness, unitaries,
                      instance: RmpInstance | CompatibleSetModel | None = None,
                      delta: float = 0.01, epsilon: float | None = None,
                      settings: SolverSettings | None = None) -> DiscriminationTask:
    """Build the discrimination task attached to a witness.

    `unitaries` maps each block's member tuple to a list of d_X (or d_X + 1)
    unitary matrices; the optional extra entry is the channel of the
    completing outcome (identity if omitted).  With `epsilon=None` the
    completing-outcome prior is chosen by the safety rule
    eps = 1/2 if Delta_2 <= 0 else min(Delta_1/Delta_2, 1)/2, which needs the
    instance, or a model of it, to solve the two bound terms.  Passing
    epsilon=0 is allowed for diagnostics but yields a task that is not
    strictly positive.
    """
    if delta <= 0:
        raise ValueError("delta must be positive")
    specs = []
    for sub, w in witness.blocks:
        if w.min_eig() < -DEFAULT_TOLS.psd:
            raise ValueError(f"witness block on {sub.members} is not PSD")
        d = w.dim
        us = list(unitaries[tuple(sub.members)])
        if len(us) not in (d, d + 1):
            raise ValueError(f"need {d} or {d + 1} unitaries for block {sub.members}")
        for u in us:
            if np.max(np.abs(u.conj().T @ u - np.eye(d))) > 1e-10:
                raise ValueError("channel matrices must be unitary")
        if len(us) == d:
            us.append(np.eye(d, dtype=complex))
        weights, vectors = shifted_spectrum(w, delta)
        specs.append((sub, weights, vectors, us))

    eps = epsilon
    if eps is None:
        if instance is None:
            raise ValueError("epsilon rule needs the instance to bound the task terms")
        draft = _assemble(specs, delta, 0.5)
        family = CompatibleSetModel.instance_of(instance).marginals
        eps = epsilon_rule(*epsilon_bound_terms(draft, family, instance, settings))
    return _assemble(specs, delta, float(eps))


def _assemble(specs, delta: float, eps: float) -> DiscriminationTask:
    blocks = []
    n_blocks = len(specs)
    for sub, weights, vectors, us in specs:
        d = vectors.shape[0]
        priors = np.array([(1 - eps) / d] * d + [eps])
        blocks.append(_block_from_spectrum(sub, weights, vectors, us, delta,
                                           priors, 1.0 / n_blocks))
    return DiscriminationTask(tuple(blocks), eps)


# ---------------------------------------------------------------------------
# The W-marginal example and its histogram experiment
# ---------------------------------------------------------------------------

# POVM construction data of the canonical W-marginal example: the spectral
# weights and vectors of (witness + 0.01*I) for the two-qubit witness block,
# in the basis |00>, |01>, |10>, |11>.
W_EXAMPLE_DELTA = 0.01
W_EXAMPLE_EPSILON = 0.01  # the completing-outcome prior of the histogram tasks
W_EXAMPLE_WEIGHTS = np.array([
    0.010000027026545,
    0.010000058075968,
    0.458638621962197,
    0.537143367559183,
])
_A = 0.668877697040469
_B = 0.743372468148935
W_EXAMPLE_VECTORS = np.array([
    [0.0, 0.0, 1.0, 0.0],
    [_A, 0.0, 0.0, _B],
    [-_B, 0.0, 0.0, _A],
    [0.0, 1.0, 0.0, 0.0],
], dtype=complex)  # columns are the vectors for the four weights above


def w_example_witness_block(layout: SubsystemLayout | None = None) -> HermitianOperator:
    """The two-qubit witness block reconstructed from the published spectrum."""
    layout = layout or qubit_layout("AB")
    m = np.zeros((4, 4), dtype=complex)
    for i in range(4):
        v = W_EXAMPLE_VECTORS[:, i]
        m += (W_EXAMPLE_WEIGHTS[i] - W_EXAMPLE_DELTA) * np.outer(v, v.conj())
    return HermitianOperator(layout, m)


def w_example_instance() -> RmpInstance:
    """Both two-qubit W marginals on AB and BC with a separable (PPT) target AC."""
    layout = qubit_layout("ABC")
    fam = MarginalFamily(layout, [
        (("A", "B"), w_marginal(layout.sublayout(("A", "B")))),
        (("B", "C"), w_marginal(layout.sublayout(("B", "C")))),
    ])
    free = FreeSetSpec.separable_ppt(SubsystemSet(layout, ("A", "C")))
    return RmpInstance(fam, free)


def w_histogram_instance() -> RmpInstance:
    """The histogram experiment's labeling of the same problem: marginals on
    AB and AC, separable (PPT) target BC.  This is `w_example_instance` with
    the parties A and B swapped, the convention the published POVM data and
    histogram statistics belong to."""
    layout = qubit_layout("ABC")
    fam = MarginalFamily(layout, [
        (("A", "B"), w_marginal(layout.sublayout(("A", "B")))),
        (("A", "C"), w_marginal(layout.sublayout(("A", "C")))),
    ])
    free = FreeSetSpec.separable_ppt(SubsystemSet(layout, ("B", "C")))
    return RmpInstance(fam, free)


def _w_example_task(unitaries: Sequence[np.ndarray]) -> DiscriminationTask:
    """The two-block task of the experiment: one set of five unitaries shared
    by the AB and AC blocks, POVMs normalized the published way."""
    layout = qubit_layout("ABC")
    eps = W_EXAMPLE_EPSILON
    priors = np.array([(1 - eps) / 4] * 4 + [eps])
    blocks = tuple(
        _block_from_spectrum(SubsystemSet(layout, members), W_EXAMPLE_WEIGHTS,
                             W_EXAMPLE_VECTORS, unitaries, W_EXAMPLE_DELTA, priors, 0.5,
                             strict=False)
        for members in (("A", "B"), ("A", "C")))
    return DiscriminationTask(blocks, eps)


def _w_unitaries(indices: Sequence[int], seed: int) -> np.ndarray:
    """The five shared Haar unitaries of each histogram sample, shape
    (N, 5, 4, 4).  Sample k draws 160 normals from Philox keyed by
    ``seed XOR k``, the stream of five `haar_from_generator(4, gen)` calls."""
    normals = [np.random.Generator(np.random.Philox(key=np.uint64(seed) ^ np.uint64(k)))
               .normal(size=160) for k in indices]
    return _haar_from_normals(np.reshape(normals, (-1, 5, 2, 4, 4)))


def _w_observables(unitaries: np.ndarray) -> np.ndarray:
    """The effective observable of each sample's `_w_example_task`, shape
    (N, 4, 4), built for the whole stack at once.  The AB and AC blocks share
    the spectrum, the unitaries and the priors, so one observable serves
    both.  The arithmetic is `_block_from_spectrum` (strict=False) and
    `effective_observables` step for step, so the result is bit-identical."""
    d, delta, eps = 4, W_EXAMPLE_DELTA, W_EXAMPLE_EPSILON
    v = unitaries[:, :d] @ W_EXAMPLE_VECTORS.T[:, :, None]  # (N, d, d, 1): U_i |v_i>
    ms = (d * W_EXAMPLE_WEIGHTS)[:, None, None] * (v * np.swapaxes(v.conj(), -1, -2))
    mu = np.linalg.eigvalsh(hermitize(ms[:, 0] + ms[:, 1] + ms[:, 2] + ms[:, 3]))[:, -1] + delta
    povm = hermitize((ms + delta * np.eye(d)) / (mu + delta)[:, None, None, None])
    total = povm[:, 0] + povm[:, 1] + povm[:, 2] + povm[:, 3]
    povm = np.concatenate([povm, (np.eye(d) - total)[:, None]], axis=1)
    total = total + povm[:, d]
    if np.max(np.abs(total - np.eye(d))) > DEFAULT_TOLS.psd:
        raise ValueError("POVM does not sum to the identity")
    coeff = 0.5 * np.array([(1 - eps) / d] * d + [eps])  # p_X p_i, with p_X = 1/2
    h = np.swapaxes(unitaries.conj(), -1, -2) @ povm @ unitaries
    o = np.zeros((len(unitaries), d, d), dtype=complex)
    for i in range(d + 1):
        o += coeff[i] * h[:, i]
    return hermitize(o)


def w_advantages(indices: Sequence[int], seed: int,
                 settings: SolverSettings | None = None) -> np.ndarray:
    """Histogram samples `indices`: for each, five shared Haar unitaries
    keyed by ``seed XOR index``, then the task's advantage over the
    separable-target compatible set.  The tasks are built as one stack of
    observables and the set maximizations solved in one batch; a sample's
    value does not depend on the batch."""
    model = CompatibleSetModel(w_histogram_instance(), settings)
    obs = _w_observables(_w_unitaries(indices, seed))
    targets = model.instance.marginals.targets()  # by label: "A,B" then "A,C", the task's blocks
    try:
        sups = model.maximize_many([[(label, o) for label in targets] for o in obs])
    except SolverFailure as exc:
        raise SolverFailure(f"histogram samples {indices[0]}..{indices[-1]} failed: {exc}") from exc
    at_sigma = sum(np.trace(obs @ t, axis1=1, axis2=2).real for t in targets.values())
    return at_sigma - np.array([sup.primal_value for sup in sups])


def sample_w_advantage(index: int, seed: int, settings: SolverSettings | None = None) -> float:
    """One histogram sample (see `w_advantages`)."""
    return float(w_advantages([index], seed, settings)[0])


@dataclass
class HistogramResult:
    samples: np.ndarray
    seed: int
    bin_width: float = 1e-4

    @property
    def mean(self) -> float:
        return float(np.mean(self.samples))

    @property
    def std(self) -> float:
        return float(np.std(self.samples))

    @property
    def min(self) -> float:
        return float(np.min(self.samples))

    @property
    def max(self) -> float:
        return float(np.max(self.samples))

    def bin_counts(self) -> dict[str, int]:
        edges = np.arange(0.0, self.max + 2 * self.bin_width, self.bin_width)
        counts, _ = np.histogram(self.samples, bins=edges)
        keep = np.nonzero(counts)[0]
        return {f"{edges[k]:.4f}": int(counts[k]) for k in keep}

    def summary(self) -> dict:
        return {"n_samples": int(self.samples.size), "seed": self.seed,
                "mean": self.mean, "std": self.std, "min": self.min, "max": self.max,
                "bin_width": self.bin_width, "bin_counts": self.bin_counts()}

    def to_csv(self) -> str:
        lines = ["sample_index,delta_p"]
        lines += [f"{k},{repr(float(v))}" for k, v in enumerate(self.samples)]
        return "\n".join(lines) + "\n"


# Samples solved in one batch.  It bounds the solver's stacked arrays (about
# 90 kB per sample), not the sample count: larger runs take more batches.
_HISTOGRAM_BATCH = 128


def _histogram_range(args) -> tuple[int, np.ndarray]:
    """Samples start..stop-1 as one batch, with a model of their own."""
    start, stop, seed, settings = args
    return start, w_advantages(range(start, stop), seed, settings)


def _usable_cpus() -> int:
    """The number of CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def histogram_experiment(n_samples: int, seed: int, jobs: int = 1,
                         settings: SolverSettings | None = None) -> HistogramResult:
    """Distribution of the discrimination advantage of the W marginals over
    Haar-random unitary ensembles.  Samples are seeded independently and
    solved in batches of contiguous indices, and a sample does not depend on
    its batch, so the result does not depend on the batch size or on the
    degree of parallelism.  At most `jobs` worker processes run, and never
    more than there are usable CPUs or batches."""
    if n_samples < 1:
        raise ValueError("need at least one sample")
    workers = max(1, min(jobs, _usable_cpus()))
    size = min(_HISTOGRAM_BATCH, -(-n_samples // workers))
    ranges = [(k, min(k + size, n_samples), seed, settings)
              for k in range(0, n_samples, size)]
    workers = min(workers, len(ranges))
    out = np.empty(n_samples)
    if workers == 1:
        for start, values in map(_histogram_range, ranges):
            out[start:start + values.size] = values
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            for start, values in pool.map(_histogram_range, ranges):
                out[start:start + values.size] = values
    return HistogramResult(out, seed)
