#!/usr/bin/env python3
"""Regenerate perfbench/refs.json, the reference outputs the benchmark checks.

    python3 perfbench/make_refs.py

Run it only on a commit whose results are trusted: the references record
what that commit computes, and later commits must match them to 1e-6.
"""

from __future__ import annotations

import json

import run

HISTOGRAM_SEED = 0
HISTOGRAM_CALLS = 20  # more calls than a 30 s run of seed 0 makes


def main():
    workloads = run.load_program()
    from freemarg import channel_rmp, discrimination, state_rmp

    hist = workloads.Histogram
    calls = [discrimination.histogram_experiment(
        hist.N_SAMPLES, hist.call_seed(HISTOGRAM_SEED, c), jobs=1).samples.tolist()
        for c in range(HISTOGRAM_CALLS)]

    pipeline = {}
    for key, (kind, compatible, inst) in workloads.pipeline_instances(0).items():
        if kind == "state":
            res = state_rmp.robustness(inst)
            wit = None if compatible else state_rmp.extract_witness(inst, res)
        else:
            res = channel_rmp.channel_robustness(inst)
            wit = None if compatible else channel_rmp.channel_witness(inst, res)
        pipeline[key] = {"optimum": res.optimum}
        if wit is not None:
            pipeline[key]["gap"] = wit.gap

    res = state_rmp.robustness(workloads.q6_instance(0))
    refs = {
        "histogram": {"seed": HISTOGRAM_SEED, "n": hist.N_SAMPLES, "calls": calls},
        "pipeline": pipeline,
        "q6": {"value_log2": res.value_log2, "optimum": res.optimum},
    }
    with open(run.HERE / "refs.json", "w") as fh:
        json.dump(refs, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
