"""Reliability ledger: how many solves of each seeded family end Optimal and
right, Optimal but off, or in NumericalFailure.

Run from the repository root:

    PYTHONPATH=src python tests/reliability.py [--record tests/reliability.json]

Each family is solved at the default settings.  The script prints each draw
that is not right, then per family the counts, the family's own figures
(largest errors, iterations) and its seconds, and a last line with the
counts as JSON.  It exits 1 if a family's NumericalFailure count is above
its record in the record file, or if any answer is off.  Only numpy and the
standard library are needed, and pytest does not collect it.

The families:
- `dmax`: draws 0-99 of `tests/test_state_rmp.py::dmax_draw` (a full-rank
  rho on AB and the AB marginal sigma of a three-qubit state, both from
  default_rng(3)), each solved with global layouts ABC and AB: one marginal
  sigma against a `Singleton` rho, whose robustness is
  D_max(sigma || rho) = log2 lambda_max(rho^-1/2 sigma rho^-1/2);
- `singleton_rank_deficient`: the 60 finite draws of
  `tests/test_state_rmp.py::TestSupportRule` (layout AB, rho of rank 1, 2
  and 3 from default_rng(5), sigma inside range(rho)), whose robustness is
  log2 lambda_max(rho^+1/2 sigma rho^+1/2) with the pseudo-inverse root.
  In both, a robustness R = log2 of the optimum is compared with its closed
  form R*: it is right if |R - R*| <= 1e-7 max(1, |R*|), relative as in the
  tier-1 tests over the same draws, and absolute where R* is below 1 (at
  rank 1 it is 0);
- `separable_ppt`: 100 three-qubit families, the AB and BC marginals of
  `random_density(ABC, default_rng(1000 + k), rank=(1, 2, 8)[k % 3])`,
  against a `SeparablePPT` target on AC.  Programs without a large block,
  whose rows take the Gram eigenbasis.  A draw is right if
  `check_rfree_compatible` answers compatible exactly when
  R <= `DEFAULT_TOLS.compat`, and, where R is above it, the witness's
  value_at_sigma / free_sup is within 1e-7 relative of the optimum 2^R;
- `rotated_relaxed_w`: the W family with its BC pin relaxed to the BC
  marginal of W_AB (x) I/2 (`test_relaxing_one_marginal_breaks_uniqueness`),
  a feasible set without an interior point, rotated with its W objective by
  12 product Haar unitaries U_A (x) U_B (x) U_C per numpy seed 0-9
  (`default_rng(seed)`, `haar_from_generator` for A, B, C in turn).  Min
  and max fidelity are solved as one `solve_many`; each is right if within
  `DEFAULT_TOLS.compat`, the answer tolerance of `verify-w`, of
  5/18 = <W| W_AB (x) I/2 |W>, where the unrotated family's max and min meet
  (0.27777786 and 0.27777763 at the defaults).
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time
from pathlib import Path

import numpy as np

from freemarg.config import DEFAULT_TOLS
from freemarg.discrimination import haar_from_generator
from freemarg.freesets import FreeSetSpec
from freemarg.herm import DensityMatrix, SubsystemSet
from freemarg.solver import SolverFailure, SolverSettings, Status, solve_many
from freemarg.state_rmp import (MarginalFamily, RmpInstance, _program, check_rfree_compatible,
                                extract_witness, robustness)
from freemarg.states import marginal_of, qubit_layout, random_density, w_marginal, w_state

REL_TOL = 1e-7


def closed_form(rho: np.ndarray, sigma: np.ndarray) -> float:
    """lambda_max(rho^+1/2 sigma rho^+1/2), the root taken on range(rho): the
    optimum, 2^R*."""
    vals, vecs = np.linalg.eigh(rho)
    keep = vals > 10 * vals.size * np.finfo(float).eps * vals[-1]
    root = (vecs[:, keep] / np.sqrt(vals[keep])) @ vecs[:, keep].conj().T
    return float(np.linalg.eigvalsh(root @ sigma @ root)[-1])


def dmax_draws():
    rng = np.random.default_rng(3)
    for k in range(100):
        rho = random_density(qubit_layout("AB"), rng)
        sigma = marginal_of(random_density(qubit_layout("ABC"), rng), "AB")
        for labels in ("ABC", "AB"):
            yield f"{labels}-{k}", labels, rho, sigma


def singleton_rank_deficient_draws():
    lay = qubit_layout("AB")
    rng = np.random.default_rng(5)
    for r in (1, 2, 3):
        for k in range(40):
            rho = random_density(lay, rng, rank=r)
            top = np.linalg.eigh(rho.entries)[1][:, -r:]
            if k < 20:
                g = rng.normal(size=(r, r)) + 1j * rng.normal(size=(r, r))
                m = top @ (g @ g.conj().T) @ top.conj().T
                yield f"r{r}-{k}", "AB", rho, DensityMatrix.from_array(lay, m / np.trace(m).real)
            else:
                random_density(lay, rng)   # an infinite draw's sigma, not solved


def new_counts(**extra) -> dict:
    return {"draws": 0, "optimal": 0, "off": 0, "numerical_failure": 0, **extra}


def run_closed_form(draws) -> dict:
    """A `Singleton` family against the closed form of its robustness."""
    counts = new_counts()
    iters, errors, opt_errors = [], [], []
    for name, labels, rho, sigma in draws():
        lay = qubit_layout(labels)
        inst = RmpInstance(MarginalFamily(lay, [(("A", "B"), sigma)]),
                           FreeSetSpec.singleton(SubsystemSet(lay, ("A", "B")), rho))
        want = closed_form(rho.entries, sigma.entries)
        r_star = float(np.log2(want))
        counts["draws"] += 1
        try:
            res = robustness(inst)
        except SolverFailure as exc:
            counts["numerical_failure"] += 1
            print(f"  {name}: {exc}")
            continue
        iters.append(res.solve_result.iterations)
        if res.status != Status.OPTIMAL:
            counts["off"] += 1
            print(f"  {name}: {res.status.value}, closed form {want!r}")
            continue
        error = abs(res.value_log2 - r_star) / max(1.0, abs(r_star))
        errors.append(error)
        opt_errors.append(abs(res.optimum - want) / want)
        if error <= REL_TOL:
            counts["optimal"] += 1
        else:
            counts["off"] += 1
            print(f"  {name}: R {res.value_log2!r}, closed form {r_star!r}")
    counts["max_error"] = max(errors, default=None)
    counts["max_opt_rel_error"] = max(opt_errors, default=None)
    counts["iterations_median"] = statistics.median(iters) if iters else None
    counts["iterations_max"] = max(iters, default=None)
    return counts


def run_separable_ppt() -> dict:
    """Robustness, compatibility check and witness of each draw, against each
    other."""
    counts = new_counts(positive=0, max_ratio_error=0.0)
    lay = qubit_layout("ABC")
    target = FreeSetSpec.separable_ppt(SubsystemSet(lay, ("A", "C")))
    for k in range(100):
        rho = random_density(lay, np.random.default_rng(1000 + k), rank=(1, 2, 8)[k % 3])
        inst = RmpInstance(MarginalFamily(lay, [(("A", "B"), marginal_of(rho, "AB")),
                                                (("B", "C"), marginal_of(rho, "BC"))]), target)
        counts["draws"] += 1
        try:
            res = robustness(inst)
            positive = res.value_log2 > DEFAULT_TOLS.compat
            compatible = check_rfree_compatible(inst).compatible
            w = extract_witness(inst, res) if positive else None
        except SolverFailure as exc:
            counts["numerical_failure"] += 1
            print(f"  {k}: {exc}")
            continue
        bad = []
        if compatible == positive:
            bad.append(f"check-compat says compatible={compatible} at R {res.value_log2!r}")
        if w is not None:
            counts["positive"] += 1
            error = abs(w.value_at_sigma / w.free_sup - res.optimum) / res.optimum
            counts["max_ratio_error"] = max(counts["max_ratio_error"], error)
            if error > REL_TOL:
                bad.append(f"witness ratio {error:.2e} relative off the optimum {res.optimum!r}")
        if bad:
            counts["off"] += 1
            print(f"  {k}:", "; ".join(bad))
        else:
            counts["optimal"] += 1
    return counts


def run_rotated_relaxed_w() -> dict:
    """Min and max fidelity of each rotation of the relaxed W family."""
    counts = new_counts(max_error=0.0)
    lay = qubit_layout("ABC")
    w_ab = w_marginal(lay.sublayout(("A", "B")))
    extension = np.kron(w_ab.entries, np.eye(2) / 2)
    w = w_state(lay).entries
    want = 5 / 18
    for seed in range(10):
        rng = np.random.default_rng(seed)
        for j in range(12):
            u_a, u_b, u_c = (haar_from_generator(2, rng) for _ in range(3))
            u = np.kron(np.kron(u_a, u_b), u_c)
            rho = DensityMatrix.from_array(lay, u @ extension @ u.conj().T)
            fam = MarginalFamily(lay, [(("A", "B"), marginal_of(rho, "AB")),
                                       (("B", "C"), marginal_of(rho, "BC"))])
            inst = RmpInstance(fam, FreeSetSpec.all_states(SubsystemSet(lay, lay.labels)))
            prog, v = _program(inst, pinned=True, pairs=inst.pairs)
            cost = prog.objective_vector([(v, u @ w @ u.conj().T)])
            low, high = solve_many(prog, [cost, -cost], SolverSettings())
            for side, res, fid in (("min", low, low.primal_value),
                                   ("max", high, -high.primal_value)):
                counts["draws"] += 1
                if res.status == Status.NUMERICAL_FAILURE:
                    counts["numerical_failure"] += 1
                    print(f"  seed {seed}, rotation {j}, {side}: NumericalFailure")
                    continue
                error = abs(fid - want) if res.status == Status.OPTIMAL else np.inf
                if error <= DEFAULT_TOLS.compat:
                    counts["optimal"] += 1
                    counts["max_error"] = max(counts["max_error"], error)
                else:
                    counts["off"] += 1
                    print(f"  seed {seed}, rotation {j}, {side}: {res.status.value}, {fid!r}")
    return counts


FAMILIES = {"dmax": lambda: run_closed_form(dmax_draws),
            "singleton_rank_deficient": lambda: run_closed_form(singleton_rank_deficient_draws),
            "separable_ppt": run_separable_ppt,
            "rotated_relaxed_w": run_rotated_relaxed_w}

SUMMED = ("draws", "optimal", "off", "numerical_failure")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--record", help="JSON file of recorded counts to check against")
    args = p.parse_args(argv)
    record = json.loads(Path(args.record).read_text()) if args.record else {}
    ledger, bad = {}, []
    total = 0.0
    for family, run in FAMILIES.items():
        print(f"{family}:")
        start = time.perf_counter()
        counts = ledger[family] = run()
        seconds = time.perf_counter() - start
        total += seconds
        figures = ", ".join(f"{k} {v}" for k, v in counts.items() if k not in SUMMED)
        print(f"  {counts['optimal']} of {counts['draws']} right, {counts['off']} off, "
              f"{counts['numerical_failure']} NumericalFailure; {figures}; {seconds:.1f} s")
        if counts["off"]:
            bad.append(f"{family}: {counts['off']} answers off")
        rec = record.get(family)
        if rec and rec["draws"] != counts["draws"]:
            bad.append(f"{family}: {counts['draws']} draws, {rec['draws']} recorded")
        if rec and counts["numerical_failure"] > rec["numerical_failure"]:
            bad.append(f"{family}: {counts['numerical_failure']} NumericalFailure, "
                       f"above the {rec['numerical_failure']} recorded")
    print(f"all families: {total:.1f} s")
    print(*bad, sep="\n")
    print(json.dumps(ledger))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
