"""Command-line front end.

One row of `COMMANDS` per subcommand: robustness, witness, check-compat,
discriminate, channel-robustness (an alias of robustness), histogram and
verify-w.  Each command maps (args, instance, settings) to a payload of
numbers, arrays and result objects, and `io.dump_result` alone turns it into
JSON.  The arguments are checked by their argparse types.  `main` parses,
loads the instance, writes the payload and decides the exit code: 0 success,
2 input error (a bad argument or instance file), 3 no witness or solver error.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys

import numpy as np

from . import channel_rmp, discrimination, io, state_rmp
from .config import DEFAULT_TOLS
from .solver import SolverFailure, SolverSettings
from .states import qubit_layout, w_marginal


def cmd_robustness(args, inst, settings: SolverSettings) -> dict:
    res = state_rmp.robustness(inst, settings)
    return {
        "status": res.status.value,
        "robustness_log2": res.value_log2,
        "optimum": res.optimum,
        "optimizer": res.optimizer,
        "gap": res.solve_result.gap,
        "diagnostics": res.diagnostics,
        "certificates": res.solve_result.certificate,
        "relaxation": res.relaxation,
        "provenance": io.provenance_block(settings, relaxation=res.relaxation),
    }


def cmd_witness(args, inst, settings: SolverSettings) -> dict:
    if isinstance(inst, state_rmp.RmpInstance):
        w = state_rmp.extract_witness(inst, settings=settings)
        fields = {"blocks": [{"subsystems": list(sub.members), "matrix": op.entries}
                             for sub, op in w.blocks],
                  "free_sup": w.free_sup,
                  "value_at_sigma": w.value_at_sigma,
                  "gap": w.gap}
    else:
        w = channel_rmp.channel_witness(inst, settings=settings)
        fields = {"pairs": {label: [{"observable": wj, "input_state": rho} for wj, rho in terms]
                            for label, terms in w.entries.items()},
                  "free_sup": w.free_sup,
                  "value_at_family": w.value_at_family,
                  "gap": w.gap,
                  "n_terms": w.n_terms}
    return {**fields, "metadata": w.metadata, "provenance": io.provenance_block(settings)}


def cmd_check_compat(args, inst, settings: SolverSettings) -> dict:
    res = state_rmp.check_rfree_compatible(inst, settings=settings)
    return {
        "compatible": res.compatible,
        "residual": res.residual,
        "witness": res.witness_state,
        "certificate": res.certificate,
        "provenance": io.provenance_block(settings),
    }


def cmd_discriminate(args, inst, settings: SolverSettings) -> dict:
    """The witness, the task and its fields come from the instance kind; the
    advantage and the rest of the payload do not.  The witness supremum, the
    epsilon rule and the advantage all maximize over the instance's one
    compiled model (`inst.model`)."""
    if isinstance(inst, state_rmp.RmpInstance):
        w = state_rmp.extract_witness(inst, settings=settings)
        gen = np.random.Generator(np.random.Philox(key=np.uint64(args.seed)))
        unitaries = {tuple(sub.members): [discrimination.haar_from_generator(block.dim, gen)
                                          for _ in range(block.dim + 1)]
                     for sub, block in w.blocks}
        task = discrimination.task_from_witness(w, unitaries, inst, settings=settings)
        family = inst.marginals
        fields = {"blocks": [{"subsystems": list(b.sub.members), "prior": b.prior,
                              "outcome_priors": b.outcome_priors, "povm": b.povm}
                             for b in task.blocks]}
    else:
        w = channel_rmp.channel_witness(inst, settings=settings)
        task = channel_rmp.state_discrimination_task(w, inst, settings=settings)
        family = inst.family
        fields = {"pairs": {label: {"priors": task.outcome_priors[label],
                                    "povm": task.povms[label],
                                    "states": task.states[label]}
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
    relaxation = discrimination.w_histogram_instance().free.relaxation
    provenance = io.provenance_block(settings, seed=args.seed, relaxation=relaxation)
    return {**result.summary(), "provenance": {**provenance, "jobs": args.jobs, "csv": args.out}}


def cmd_verify_w(args, inst, settings: SolverSettings) -> dict:
    fid = state_rmp.verify_w_uniqueness(settings=settings)
    act = state_rmp.activation_criterion(w_marginal(qubit_layout("AC")),
                                         samples=args.samples, seed=args.seed)
    return {
        "max_fid": fid["max_fid"],
        "min_fid": fid["min_fid"],
        "unique": all(abs(fid[k] - 1) < DEFAULT_TOLS.compat for k in ("max_fid", "min_fid")),
        "activation_value": act,
        "activation_threshold": 0.5,
        "activated": act > 0.5,
        "provenance": io.provenance_block(settings, seed=args.seed),
    }


class _Parser(argparse.ArgumentParser):
    """Raises `argparse.ArgumentError` where argparse would print usage and
    exit; the subcommand parsers are of the same class."""

    def error(self, message):
        raise argparse.ArgumentError(None, message)


def _checked(convert, valid, rule: str):
    """An argparse type: `convert(text)`, which must be `valid`."""
    def parse(text: str):
        try:
            value = convert(text)
        except ValueError:
            value = None
        if value is None or not valid(value):
            raise argparse.ArgumentTypeError(f"must be {rule}, not {text!r}")
        return value
    return parse


_count = _checked(int, lambda n: n >= 1, "an integer >= 1")
_seed = _checked(int, lambda s: 0 <= s < 2 ** 64, "an integer in [0, 2**64)")  # one Philox key
_tolerance = _checked(float, lambda t: 0 < t < math.inf, "positive and finite")  # false for nan

_SEED_ARG = ("--seed", dict(type=_seed, default=0))

# name, command, help, whether it reads --input, extra arguments
COMMANDS = (
    ("robustness", cmd_robustness, "incompatibility robustness (log2 scale)", True, ()),
    ("witness", cmd_witness, "extract an incompatibility witness", True, ()),
    ("check-compat", cmd_check_compat, "free-compatibility feasibility check", True, ()),
    ("discriminate", cmd_discriminate, "build a discrimination task and its advantage", True,
     (_SEED_ARG,)),
    ("channel-robustness", cmd_robustness, "alias of robustness for channel instances", True, ()),
    ("histogram", cmd_histogram, "advantage distribution of the W-marginal example", False,
     (("--samples", dict(type=_count, default=1000)), _SEED_ARG,
      ("--jobs", dict(type=_count, default=1)),
      ("--out", dict(default="histogram.csv", help="per-sample CSV path")))),
    ("verify-w", cmd_verify_w, "W-marginal uniqueness and activation value", False,
     (_SEED_ARG, ("--samples", dict(type=_count, default=200)))),
)


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(prog="freemarg", description="free-set compatibility of marginal families")
    sub = p.add_subparsers(dest="command", required=True)
    for name, func, text, needs_input, extra in COMMANDS:
        sp = sub.add_parser(name, help=text)
        sp.set_defaults(func=func, needs_input=needs_input)
        if needs_input:
            sp.add_argument("--input", required=True, help="instance JSON file")
        sp.add_argument("--output", default=None, help="result JSON file (default stdout)")
        sp.add_argument("--gap-tol", type=_tolerance, default=DEFAULT_TOLS.gap)
        sp.add_argument("--feas-tol", type=_tolerance, default=DEFAULT_TOLS.feas)
        for flag, kwargs in extra:
            sp.add_argument(flag, **kwargs)
    return p


# parse_args leaves the parser unchanged, so a process builds it once
_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    """Run one subcommand.  This is the one place that parses the arguments,
    loads the instance, writes the result and turns errors into exit codes:
    2 for a bad argument or instance (stderr "input error: ..."), 3 for a
    compatible family asked for a witness ("no witness: ...") or a failed
    solve ("solver error: ...")."""
    try:
        args = _parser().parse_args(argv)
        settings = SolverSettings(gap_tol=args.gap_tol, feas_tol=args.feas_tol)
        inst = io.load_instance(args.input) if args.needs_input else None
        io.dump_result(args.output, args.func(args, inst, settings))
    except (argparse.ArgumentError, io.SchemaError, OSError) as exc:
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
