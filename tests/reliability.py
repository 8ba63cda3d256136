"""Reliability ledger: how many solves of each seeded family end Optimal and
right, Optimal but off their closed form, or in NumericalFailure.

Run from the repository root:

    PYTHONPATH=src python tests/reliability.py [--record tests/reliability.json]

Each family's draws are solved by `state_rmp.robustness` at the default
settings, and each robustness R = log2 of the optimum is compared with its
closed form R*: it is right if |R - R*| <= 1e-7 max(1, |R*|), relative as
in the tier-1 tests over the same draws, and absolute where R* is below 1
(at rank 1 it is 0).  It prints each draw that is not right, then per family
the counts, the largest error of R and the largest relative error of the
optimum 2^R, the median and maximum iterations of the solves that returned,
and a last line with the counts as JSON.  It exits 1 if a family's
NumericalFailure count is above its record in the record file, or if any
answer is off.  Only numpy and the standard library are needed, and pytest
does not collect it.

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
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

import numpy as np

from freemarg.freesets import FreeSetSpec
from freemarg.herm import DensityMatrix, SubsystemSet
from freemarg.solver import SolverFailure, Status
from freemarg.state_rmp import MarginalFamily, RmpInstance, robustness
from freemarg.states import marginal_of, qubit_layout, random_density

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


FAMILIES = {"dmax": dmax_draws, "singleton_rank_deficient": singleton_rank_deficient_draws}


def run_family(draws) -> dict:
    counts = {"draws": 0, "optimal": 0, "off": 0, "numerical_failure": 0}
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


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--record", help="JSON file of recorded counts to check against")
    args = p.parse_args(argv)
    record = json.loads(Path(args.record).read_text()) if args.record else {}
    ledger, bad = {}, []
    for family, draws in FAMILIES.items():
        print(f"{family}:")
        counts = ledger[family] = run_family(draws)
        print(f"  {counts['optimal']} of {counts['draws']} Optimal within {REL_TOL:g}, "
              f"{counts['off']} off, {counts['numerical_failure']} NumericalFailure; largest "
              f"error of R {counts['max_error']}, of the optimum {counts['max_opt_rel_error']}; "
              f"iterations median {counts['iterations_median']}, max {counts['iterations_max']}")
        if counts["off"]:
            bad.append(f"{family}: {counts['off']} answers off the closed form")
        rec = record.get(family)
        if rec and rec["draws"] != counts["draws"]:
            bad.append(f"{family}: {counts['draws']} draws, {rec['draws']} recorded")
        if rec and counts["numerical_failure"] > rec["numerical_failure"]:
            bad.append(f"{family}: {counts['numerical_failure']} NumericalFailure, "
                       f"above the {rec['numerical_failure']} recorded")
    print(*bad, sep="\n")
    print(json.dumps(ledger))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
