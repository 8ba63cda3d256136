"""Command-line front end.

Subcommands: robustness, witness, discriminate, histogram, channel-robustness,
check-compat, verify-w.  Each command maps (args, instance, settings) to the
JSON payload; `main` loads the instance, writes the payload and decides the
exit code: 0 success, 2 input error, 3 no witness or solver error.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys

import numpy as np

from . import channel_rmp, discrimination, io, state_rmp
from .solver import SolverFailure, SolverSettings
from .states import qubit_layout, w_marginal


def cmd_robustness(args, inst, settings: SolverSettings) -> dict:
    res = state_rmp.robustness(inst, settings)
    return {
        "status": res.status.value,
        "robustness_log2": res.value_log2,
        "optimum": res.optimum,
        "optimizer": None if res.optimizer is None else res.optimizer.to_json(),
        "gap": res.solve_result.gap,
        "diagnostics": res.diagnostics,
        "certificates": res.solve_result.certificate,
        "relaxation": res.relaxation,
        "provenance": io.provenance_block(settings, relaxation=res.relaxation),
    }


def cmd_witness(args, inst, settings: SolverSettings) -> dict:
    if isinstance(inst, state_rmp.RmpInstance):
        payload = io.witness_to_json(state_rmp.extract_witness(inst, settings=settings))
    else:
        w = channel_rmp.channel_witness(inst, settings=settings)
        payload = {
            "pairs": {label: [{"observable": io.matrix_to_json(wj),
                               "input_state": io.matrix_to_json(rho)}
                              for wj, rho in terms]
                      for label, terms in w.entries.items()},
            "free_sup": w.free_sup,
            "value_at_family": w.value_at_family,
            "gap": w.gap,
            "n_terms": w.n_terms,
            "metadata": w.metadata,
        }
    payload["provenance"] = io.provenance_block(settings)
    return payload


def cmd_check_compat(args, inst, settings: SolverSettings) -> dict:
    res = state_rmp.check_rfree_compatible(inst, settings=settings)
    return {
        "compatible": res.compatible,
        "residual": res.residual,
        "witness": None if res.witness_state is None else res.witness_state.to_json(),
        "certificate": res.certificate,
        "provenance": io.provenance_block(settings),
    }


def cmd_discriminate(args, inst, settings: SolverSettings) -> dict:
    """The witness, the task and its fields come from the instance kind; the
    advantage and the rest of the payload do not."""
    if isinstance(inst, state_rmp.RmpInstance):
        w = state_rmp.extract_witness(inst, settings=settings)
        gen = np.random.Generator(np.random.Philox(key=np.uint64(args.seed)))
        unitaries = {tuple(sub.members): [discrimination.haar_from_generator(block.dim, gen)
                                          for _ in range(block.dim + 1)]
                     for sub, block in w.blocks}
        task = discrimination.task_from_witness(w, unitaries, inst, settings=settings)
        family = inst.marginals
        fields = {"blocks": [{"subsystems": list(b.sub.members),
                              "prior": b.prior,
                              "outcome_priors": list(map(float, b.outcome_priors)),
                              "povm": [io.matrix_to_json(e) for e in b.povm]}
                             for b in task.blocks]}
    else:
        w = channel_rmp.channel_witness(inst, settings=settings)
        task = channel_rmp.state_discrimination_task(w, inst, settings=settings)
        family = inst.family
        fields = {"pairs": {label: {"priors": list(map(float, task.outcome_priors[label])),
                                    "povm": [io.matrix_to_json(e) for e in task.povms[label]],
                                    "states": [io.matrix_to_json(s) for s in task.states[label]]}
                            for label in task.pair_priors}}
    return {"delta_p": discrimination.advantage(task, family, inst, settings),
            "epsilon": task.epsilon,
            "witness_gap": w.gap,
            **fields,
            "provenance": io.provenance_block(settings, seed=args.seed)}


def cmd_histogram(args, inst, settings: SolverSettings) -> dict:
    result = discrimination.histogram_experiment(args.samples, args.seed,
                                                 jobs=args.jobs, settings=settings)
    with open(args.out, "w") as fh:
        fh.write(result.to_csv())
    summary = result.summary()
    summary["provenance"] = io.provenance_block(
        settings, seed=args.seed, relaxation="ppt-exact",
        extra={"jobs": args.jobs, "csv": args.out})
    return summary


def cmd_verify_w(args, inst, settings: SolverSettings) -> dict:
    fid = state_rmp.verify_w_uniqueness(settings=settings)
    act = state_rmp.activation_criterion(w_marginal(qubit_layout("AC")),
                                         samples=args.samples, seed=args.seed)
    return {
        "max_fid": fid["max_fid"],
        "min_fid": fid["min_fid"],
        "unique": abs(fid["max_fid"] - 1) < 1e-6 and abs(fid["min_fid"] - 1) < 1e-6,
        "activation_value": act,
        "activation_threshold": 0.5,
        "activated": act > 0.5,
        "provenance": io.provenance_block(settings, seed=args.seed),
    }


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="freemarg",
                                description="free-set compatibility of marginal families")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, needs_input=True):
        if needs_input:
            sp.add_argument("--input", required=True, help="instance JSON file")
        sp.add_argument("--output", default=None, help="result JSON file (default stdout)")
        sp.add_argument("--gap-tol", type=float, default=1e-8)
        sp.add_argument("--feas-tol", type=float, default=1e-8)

    sp = sub.add_parser("robustness", help="incompatibility robustness (log2 scale)")
    common(sp)
    sp.set_defaults(func=cmd_robustness)

    sp = sub.add_parser("witness", help="extract an incompatibility witness")
    common(sp)
    sp.set_defaults(func=cmd_witness)

    sp = sub.add_parser("check-compat", help="free-compatibility feasibility check")
    common(sp)
    sp.set_defaults(func=cmd_check_compat)

    sp = sub.add_parser("discriminate", help="build a discrimination task and its advantage")
    common(sp)
    sp.add_argument("--seed", type=int, default=0)
    sp.set_defaults(func=cmd_discriminate)

    sp = sub.add_parser("channel-robustness", help="alias of robustness for channel instances")
    common(sp)
    sp.set_defaults(func=cmd_robustness)

    sp = sub.add_parser("histogram", help="advantage distribution of the W-marginal example")
    common(sp, needs_input=False)
    sp.add_argument("--samples", type=int, default=1000)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--jobs", type=int, default=1)
    sp.add_argument("--out", default="histogram.csv", help="per-sample CSV path")
    sp.set_defaults(func=cmd_histogram)

    sp = sub.add_parser("verify-w", help="W-marginal uniqueness and activation value")
    common(sp, needs_input=False)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--samples", type=int, default=200)
    sp.set_defaults(func=cmd_verify_w)
    return p


# parse_args leaves the parser unchanged, so a process builds it once
_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    """Run one subcommand.  This is the one place that loads the instance,
    writes the result and turns errors into exit codes: 2 for bad input
    (stderr "input error: ..."), 3 for a compatible family asked for a
    witness ("no witness: ...") or a failed solve ("solver error: ...")."""
    args = _parser().parse_args(argv)
    if getattr(args, "samples", 1) < 1:
        print("input error: sample count must be >= 1", file=sys.stderr)
        return 2
    if getattr(args, "jobs", 1) < 1:
        print("input error: parallelism must be >= 1", file=sys.stderr)
        return 2
    for flag, tol in (("--gap-tol", args.gap_tol), ("--feas-tol", args.feas_tol)):
        if not 0 < tol < math.inf:  # also false for nan
            print(f"input error: {flag} must be positive and finite, not {tol}", file=sys.stderr)
            return 2
    settings = SolverSettings(gap_tol=args.gap_tol, feas_tol=args.feas_tol)
    try:
        inst = io.load_instance(args.input) if hasattr(args, "input") else None
        io.dump_result(args.output, args.func(args, inst, settings))
    except (io.SchemaError, OSError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except state_rmp.NoWitnessError as exc:
        print(f"no witness: {exc}", file=sys.stderr)
        return 3
    except SolverFailure as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
