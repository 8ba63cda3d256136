"""The benchmark's three workloads, each a closed loop with one client.

A workload builds its inputs from the workload seed when it is constructed
(that is its set-up), then runs one operation at a time through `run(k)`.
Only the calls into freemarg's public API are timed; every output is checked
afterwards, and a failed check or an exception is counted, never raised.

Calls into freemarg go through module attributes (`state_rmp.robustness`,
`cli.main`, ...) so that the tracing wrappers, which replace those
attributes, see them.
"""

from __future__ import annotations

import contextlib
import io as stdio
import json
import os
import time
from dataclasses import dataclass, field

import numpy as np

from freemarg import cli, discrimination, io as fio, state_rmp
from freemarg.channel_rmp import ChannelMarginalFamily, ChannelPair, ChannelRmpInstance, ChannelSpec
from freemarg.freesets import FreeChannelSetSpec, FreeSetSpec
from freemarg.herm import (
    DensityMatrix,
    HermitianOperator,
    SubsystemLayout,
    SubsystemSet,
    partial_trace,
    permute_factors,
    tensor,
)
from freemarg.states import max_entangled, qubit_layout, random_density, sym_bell

SEED_LIMIT = 2 ** 31  # workload seeds must fit the histogram key layout below
VALUE_TOL = 1e-6

# Seconds, for timing the public-API calls.  A run that samples the host's
# speed during operations replaces it with a clock that leaves out the time
# spent sampling.
clock = time.perf_counter


@dataclass
class OpRecord:
    """One timed operation: `seconds` covers only the public-API calls,
    which began at `start` (both by `clock`)."""

    kind: str
    seconds: float
    items: int
    failed: int = 0
    errors: list[str] = field(default_factory=list)
    parts: dict[str, float] = field(default_factory=dict)
    start: float = 0.0


def _philox(key: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=np.uint64(key)))


def _check_seed(seed: int):
    if not 0 <= seed < SEED_LIMIT:
        raise ValueError(f"workload seed must be in [0, {SEED_LIMIT})")


# ---------------------------------------------------------------------------
# histogram: the paper's W-marginal experiment
# ---------------------------------------------------------------------------


class Histogram:
    """`histogram_experiment(N_SAMPLES, seed', jobs=1)` calls, one per cycle.

    The paper's histograms take 1000 to 1e5 samples.  A call of 100 is a
    tenth of the smallest, so a 28 s run still gives 7 to 12 per-call
    latencies.  Each call builds and compiles one `CompatibleSetModel`, then
    solves once per sample, so that per-call cost is spread over 100
    samples, and a batched solve has up to 100 samples to batch.

    freemarg keys sample k of a run with seed s as `s XOR k`, so small seeds
    only reorder the same keys.  Call c of workload seed w therefore uses
    s = (w << 32) | (c << 12): the keys of different calls and different
    workload seeds never overlap (c < 2**20, N_SAMPLES <= 2**12).
    """

    name = "histogram"
    item = "sample"
    speed_exponent = 1.0  # see `end_to_end` in run.py
    N_SAMPLES = 100
    REF_CHECK_SAMPLES = 10
    RANGE = (0.0015, 0.0110)
    cycle_len = 1
    warmup_ops = 1

    def __init__(self, seed: int, workdir: str, refs: dict):
        _check_seed(seed)
        self.seed = seed
        self.refs = refs["histogram"]

    @staticmethod
    def call_seed(seed: int, call: int) -> int:
        return (seed << 32) | (call << 12)

    def _call(self, seed: int, call: int, kind: str, n: int) -> OpRecord:
        t = clock()
        try:
            result = discrimination.histogram_experiment(n, self.call_seed(seed, call), jobs=1)
        except Exception as exc:  # counted as failed samples, never aborts the run
            dt = clock() - t
            return OpRecord(kind, dt, n, n, [f"call {call}: {type(exc).__name__}: {exc}"], start=t)
        dt = clock() - t
        ref = self.refs["calls"][call] if seed == self.refs["seed"] and \
            call < len(self.refs["calls"]) else None
        rec = OpRecord(kind, dt, n, start=t)
        for k, value in enumerate(result.samples):
            bad = None
            if not (value > 0 and self.RANGE[0] <= value <= self.RANGE[1]):
                bad = f"outside {self.RANGE}"
            elif ref is not None and k < len(ref) and abs(value - ref[k]) > VALUE_TOL:
                bad = f"differs from reference {ref[k]!r}"
            if bad:
                rec.failed += 1
                rec.errors.append(f"call {call} sample {k} = {value!r} {bad}")
        return rec

    def run(self, k: int) -> OpRecord:
        return self._call(self.seed, k, "call", self.N_SAMPLES)

    def final_checks(self) -> list[OpRecord]:
        """Every seed also reproduces the start of the first reference call
        (sample k of a call does not depend on the call's size)."""
        return [self._call(self.refs["seed"], 0, "reference", self.REF_CHECK_SAMPLES)]


# ---------------------------------------------------------------------------
# pipeline: in-process CLI requests over instance files
# ---------------------------------------------------------------------------


def _primed(labels: str) -> SubsystemLayout:
    return SubsystemLayout([(label + "'", 2) for label in labels])


def monogamy_instance() -> state_rmp.RmpInstance:
    """Singlet-like marginals on AB and BC with an all-states target."""
    layout = qubit_layout("ABC")
    fam = state_rmp.MarginalFamily(layout, [
        (("A", "B"), sym_bell(layout.sublayout(("A", "B")))),
        (("B", "C"), sym_bell(layout.sublayout(("B", "C")))),
    ])
    return state_rmp.RmpInstance(fam, FreeSetSpec.all_states(SubsystemSet(layout, ("A", "B", "C"))))


def compatible_state_instance(gen: np.random.Generator) -> state_rmp.RmpInstance:
    """Marginals of rho_AB (x) rho_C with a PPT target AC: compatible, since
    the AC marginal rho_A (x) rho_C is a product state."""
    layout = qubit_layout("ABC")
    rho_ab = random_density(qubit_layout("AB"), gen)
    rho_c = random_density(qubit_layout("C"), gen)
    glob = tensor(rho_ab.op, rho_c.op)
    fam = state_rmp.MarginalFamily(layout, [
        (("A", "B"), DensityMatrix(partial_trace(glob, SubsystemSet(layout, ("A", "B"))))),
        (("B", "C"), DensityMatrix(partial_trace(glob, SubsystemSet(layout, ("B", "C"))))),
    ])
    return state_rmp.RmpInstance(fam, FreeSetSpec.separable_ppt(SubsystemSet(layout, ("A", "C"))))


def broadcasting_instance() -> ChannelRmpInstance:
    """Two identity channels out of one qubit: forbidden by no-cloning."""
    gin = _primed("A")
    gout = qubit_layout("AB")
    id_a = ChannelSpec.identity(gin, gout.sublayout(("A",)))
    id_b = ChannelSpec(gin, gout.sublayout(("B",)),
                       HermitianOperator(gout.sublayout(("B",)).concat(gin), id_a.choi.entries))
    p1 = ChannelPair(SubsystemSet(gin, ("A'",)), SubsystemSet(gout, ("A",)))
    p2 = ChannelPair(SubsystemSet(gin, ("A'",)), SubsystemSet(gout, ("B",)))
    fam = ChannelMarginalFamily(gin, gout, [(p1, id_a), (p2, id_b)])
    target = ChannelPair(SubsystemSet(gin, ("A'",)), SubsystemSet(gout, ("A", "B")))
    return ChannelRmpInstance(fam, target, FreeChannelSetSpec.all_channels(target.inp, target.out))


def product_channel_instance(gen: np.random.Generator) -> ChannelRmpInstance:
    """Marginals of a product of a unitary and a two-Kraus channel: compatible."""
    gin = _primed("AB")
    gout = qubit_layout("AB")
    u = discrimination.haar_from_generator(2, gen)
    iso = discrimination.haar_from_generator(4, gen)[:, :2]  # 4x2 isometry -> two Kraus ops
    ca = ChannelSpec.from_unitary(u, gin.sublayout(("A'",)), gout.sublayout(("A",)))
    cb = ChannelSpec.from_kraus([iso[:2], iso[2:]], gin.sublayout(("B'",)), gout.sublayout(("B",)))
    p1 = ChannelPair(SubsystemSet(gin, ("A'",)), SubsystemSet(gout, ("A",)))
    p2 = ChannelPair(SubsystemSet(gin, ("B'",)), SubsystemSet(gout, ("B",)))
    fam = ChannelMarginalFamily(gin, gout, [(p1, ca), (p2, cb)])
    target = ChannelPair(SubsystemSet(gin, ("A'", "B'")), SubsystemSet(gout, ("A", "B")))
    return ChannelRmpInstance(fam, target, FreeChannelSetSpec.all_channels(target.inp, target.out))


def seeded_instances(seed: int, variant: int) -> dict:
    """Member `variant` of the two seeded families; variant 0 of every seed
    uses the generator keyed by the seed alone."""
    gen = _philox(seed + (variant << 32))
    return {
        "prod": ("channel", True, product_channel_instance(gen)),
        "comp": ("state", True, compatible_state_instance(gen)),
    }


def pipeline_instances(seed: int) -> dict:
    """Instance key -> (kind, compatible, instance), in request order: state
    and channel instances alternate.  The seeded families are variant 0."""
    return {
        "w": ("state", False, discrimination.w_example_instance()),
        "bcast": ("channel", False, broadcasting_instance()),
        "mono": ("state", False, monogamy_instance()),
        **seeded_instances(seed, 0),
    }


class Pipeline:
    """`freemarg.cli.main(argv)` requests, one cycle = every (subcommand,
    instance) pair plus verify-w.  Consecutive requests never share an
    instance.

    How hard the seeded families are to solve depends on the draw, and
    their requests sit at the middle of the latency distribution, so one
    draw per run would move the median with the seed.  Cycle c therefore
    uses variant c % SEEDED_VARIANTS of each seeded family."""

    name = "pipeline"
    item = "request"
    SUBCOMMANDS = ("check-compat", "robustness", "witness", "discriminate")
    SEEDED_VARIANTS = 4
    speed_exponent = 1.1  # see `end_to_end` in run.py

    def __init__(self, seed: int, workdir: str, refs: dict):
        _check_seed(seed)
        self.seed = seed
        self.refs = refs["pipeline"]
        self.workdir = workdir
        self.instances = {}  # key -> (kind, compatible, one path per variant)
        for key, (kind, compatible, inst) in pipeline_instances(seed).items():
            self.instances[key] = (kind, compatible, [self._write(f"{key}0", kind, inst)])
        for v in range(1, self.SEEDED_VARIANTS):
            for key, (kind, _, inst) in seeded_instances(seed, v).items():
                self.instances[key][2].append(self._write(f"{key}{v}", kind, inst))
        self.out_path = os.path.join(workdir, "result.json")
        self.requests = [(sub, key) for sub in self.SUBCOMMANDS for key in self.instances]
        self.requests.append(("verify-w", None))
        self.cycle_len = len(self.requests)
        self.warmup_ops = self.cycle_len

    def _write(self, name: str, kind: str, inst) -> str:
        data = fio.state_instance_to_json(inst) if kind == "state" \
            else fio.channel_instance_to_json(inst)
        path = os.path.join(self.workdir, f"{name}.json")
        with open(path, "w") as fh:
            json.dump(data, fh)
        return path

    def run(self, k: int) -> OpRecord:
        sub, key = self.requests[k % self.cycle_len]
        cycle = k // self.cycle_len
        kind, compatible, paths = self.instances[key] if key else ("state", False, [None])
        path = paths[cycle % len(paths)]
        argv = [sub] + (["--input", path] if path else []) + ["--output", self.out_path]
        if sub in ("discriminate", "verify-w"):
            argv += ["--seed", str((self.seed << 20) + cycle)]
        if os.path.exists(self.out_path):
            os.remove(self.out_path)
        err = stdio.StringIO()
        t = clock()
        with contextlib.redirect_stderr(err):
            try:
                rc = cli.main(argv)
            except SystemExit as exc:
                rc = exc.code
            except Exception as exc:  # counted as a failed request
                rc = f"{type(exc).__name__}: {exc}"
        dt = clock() - t
        rec = OpRecord(kind, dt, 1, start=t)
        problem = self._check(sub, key, compatible, rc, err.getvalue())
        if problem:
            rec.failed = 1
            rec.errors.append(f"{sub} {key or ''} (cycle {cycle}): {problem}")
        return rec

    def _check(self, sub, key, compatible, rc, stderr) -> str | None:
        if compatible and sub in ("witness", "discriminate"):
            if rc != 3 or "no witness" not in stderr:
                return f"expected exit 3 with 'no witness', got {rc!r} {stderr.strip()[:120]!r}"
            return None
        if rc != 0:
            return f"exit {rc!r}: {stderr.strip()[:200]}"
        try:
            with open(self.out_path) as fh:
                out = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            return f"unreadable result: {exc}"
        ref = self.refs.get(key, {})
        if sub == "check-compat":
            if out["compatible"] is not compatible:
                return f"compatible = {out['compatible']}, expected {compatible}"
        elif sub == "robustness":
            if out["status"] != "Optimal" or abs(out["optimum"] - ref["optimum"]) > VALUE_TOL:
                return f"status {out['status']}, optimum {out['optimum']!r} vs {ref['optimum']!r}"
        elif sub == "witness":
            if not out["gap"] > 0 or abs(out["gap"] - ref["gap"]) > VALUE_TOL:
                return f"witness gap {out['gap']!r} vs {ref['gap']!r}"
        elif sub == "discriminate":
            if not (out["delta_p"] > 0 and out["witness_gap"] > 0):
                return f"delta_p {out['delta_p']!r}, witness gap {out['witness_gap']!r}"
        elif sub == "verify-w":
            if not (out["unique"] and out["activated"]):
                return f"unique {out['unique']}, activated {out['activated']}"
        return None

    def final_checks(self) -> list[OpRecord]:
        return []


# ---------------------------------------------------------------------------
# q6: one six-qubit instance, few large solves
# ---------------------------------------------------------------------------

Q6_MARGINALS = ("ABC", "BCD", "CDE", "DEF", "AEF", "ABF")


def q6_instance(seed: int) -> state_rmp.RmpInstance:
    """Cyclic 3-body marginals of 0.7 (Phi+_AC (x) rho_BDEF) + 0.3 I/64, with
    rho_BDEF a seeded rank-2 state, and a PPT target AC."""
    layout = qubit_layout("ABCDEF")
    phi = max_entangled(qubit_layout("AC"))
    rho = random_density(qubit_layout("BDEF"), _philox(seed), rank=2)
    glob = permute_factors(tensor(phi.op, rho.op), list(layout.labels)).entries
    glob = DensityMatrix.from_array(layout, 0.7 * glob + 0.3 * np.eye(64) / 64)
    fam = state_rmp.MarginalFamily(layout, [
        (tuple(m), DensityMatrix(partial_trace(glob.op, SubsystemSet(layout, tuple(m)))))
        for m in Q6_MARGINALS])
    return state_rmp.RmpInstance(fam, FreeSetSpec.separable_ppt(SubsystemSet(layout, ("A", "C"))))


class Q6:
    """`state_rmp.robustness`, then `extract_witness` from its result.  The
    optimum (1.55) depends only on the Phi+ part, so one reference value
    checks every seed."""

    name = "q6"
    item = "operation"
    speed_exponent = 0.55  # see `end_to_end` in run.py
    cycle_len = 1
    warmup_ops = 1

    def __init__(self, seed: int, workdir: str, refs: dict):
        _check_seed(seed)
        self.ref = refs["q6"]
        self.inst = q6_instance(seed)

    def run(self, k: int) -> OpRecord:
        t0 = clock()
        try:
            res = state_rmp.robustness(self.inst)
            t1 = clock()
            wit = state_rmp.extract_witness(self.inst, res)
        except Exception as exc:  # counted as a failed operation
            return OpRecord("q6", clock() - t0, 1, 1,
                            [f"op {k}: {type(exc).__name__}: {exc}"], start=t0)
        t2 = clock()
        rec = OpRecord("q6", t2 - t0, 1, parts={"robustness": t1 - t0, "witness": t2 - t1},
                       start=t0)
        problems = []
        if res.status.value != "Optimal" or abs(res.value_log2 - self.ref["value_log2"]) > VALUE_TOL:
            problems.append(f"robustness {res.status.value} {res.value_log2!r} "
                            f"vs {self.ref['value_log2']!r}")
        if not wit.gap > 0:
            problems.append(f"witness gap {wit.gap!r}")
        if abs(wit.value_at_sigma - res.optimum) > VALUE_TOL:  # strong duality
            problems.append(f"witness value {wit.value_at_sigma!r} vs optimum {res.optimum!r}")
        if problems:
            rec.failed = 1
            rec.errors.append(f"op {k}: " + "; ".join(problems))
        return rec

    def final_checks(self) -> list[OpRecord]:
        return []


WORKLOADS = {w.name: w for w in (Histogram, Pipeline, Q6)}
