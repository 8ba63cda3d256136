#!/usr/bin/env python3
"""freemarg benchmark: one closed-loop workload per run, checked outputs.

Run from the repository root:

    python3 perfbench/run.py --workload histogram|pipeline|q6 --seed N \
        --seconds S --trace 0|1

Lines starting with '#' are for people; the last line of standard output is
one JSON object with the keys correct, attempted, failed and metrics.  With
--trace 0 the metrics are the end-to-end ones of BENCHMARK.json, measured
without any wrapper installed.  With --trace 1 they are the per-layer ones:
wrappers are installed and alternate rounds run traced and untraced, so the
run also measures its own overhead.  A full record (environment, per-kind
figures, every failed check, spans) goes to .perfbench_out/.

BLAS and OpenMP are pinned to one thread before numpy loads.  Set-up (import,
input generation, writing input files) is timed in SETUP_REPEATS child
processes, each of which then times the calibration kernel; setup_s is the
median of the scaled set-up times.  Every timed operation is scaled by the
same kernel, sampled while it runs (see `SpeedSampler` and `end_to_end`).
"""

from __future__ import annotations

import argparse
import bisect
import functools
import hashlib
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

PINNED_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
SETUP_REPEATS = 3
# about the median time of `calibrate()` in quiet hours on the reference
# host, a 2-core VM with numpy 2.4.6 and scipy-openblas 0.3.31 (see NOTES.md)
CAL_REF_S = 0.006
SAMPLE_PERIOD_S = 0.06  # the kernel runs once per period during a run
CAL_FIRST_S = 0.1  # kernel time after a set-up
ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
OUT_DIR = ROOT / ".perfbench_out"


class BenchmarkError(RuntimeError):
    """The benchmark cannot run here (missing sources, bad arguments)."""


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=("histogram", "pipeline", "q6"))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="time one set-up, print it as JSON and exit")
    args = p.parse_args(argv)
    if args.workload is None:
        p.error("--workload is required")
    return args


def load_program():
    """Pin the thread counts, then import freemarg from this checkout's src/."""
    os.environ.update(PINNED_THREADS)
    src = ROOT / "src"
    if not (src / "freemarg" / "__init__.py").is_file():
        raise BenchmarkError(f"no freemarg sources under {src}")
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(HERE))
    import freemarg

    if Path(freemarg.__file__).resolve().parent != src / "freemarg":
        raise BenchmarkError(f"imported freemarg from {freemarg.__file__}, not from {src}")
    import workloads

    return workloads


def load_refs() -> dict:
    with open(HERE / "refs.json") as fh:
        return json.load(fh)


def environment(args) -> dict:
    import numpy as np
    import scipy

    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (KeyError, TypeError):
        pass
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "freemarg").glob("*.py")):
        digest.update(path.name.encode() + path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():  # else git would report an enclosing repository
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "commit": commit or "unknown (not a git checkout)",
        "source_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "nproc": os.cpu_count(),
        "threads": {k: os.environ.get(k) for k in PINNED_THREADS},
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace,
    }


def percentile(values, q):
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def child_setups(args) -> list[dict]:
    """SETUP_REPEATS set-ups, each in a fresh process: its `setup_s` and the
    median calibration-kernel time taken right after it."""
    setups = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-only",
             "--workload", args.workload, "--seed", str(args.seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise BenchmarkError(f"set-up child failed: {proc.stderr.strip()[-500:]}")
        setups.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    return setups


@functools.lru_cache(maxsize=None)
def _kernel_inputs():
    import numpy as np
    import scipy.sparse

    gen = np.random.default_rng(0)
    small = gen.normal(size=(16, 16))
    small = small @ small.T + 16 * np.eye(16)
    sparse = scipy.sparse.random(300, 300, density=0.05, random_state=1, format="csr")
    return small, sparse, gen.normal(size=300)


def calibrate() -> float:
    """Seconds taken by a fixed kernel of about 6 ms that shares no code
    with freemarg: a pure-Python loop, small dense eigen-decompositions and
    solves, and sparse products.  It runs in the measuring thread, during
    the operations, so it feels the same slow and fast spells of the shared
    host (see NOTES.md)."""
    import numpy as np

    small, sparse, vec = _kernel_inputs()
    t = time.perf_counter()
    acc = 0.0
    table = {}
    for i in range(30000):
        acc += (i * i) % 7
    for i in range(5000):
        table[i] = str(i)
    for _ in range(40):
        w, v = np.linalg.eigh(small)
        acc += w[0] + np.linalg.solve(small, small[0])[0]
    for _ in range(30):
        acc += (sparse.T @ (sparse @ vec))[0]
    dt = time.perf_counter() - t
    if not np.isfinite(acc) or len(table) != 5000:
        raise BenchmarkError("calibration kernel produced a wrong value")
    return dt


def calibrate_for(seconds: float) -> float:
    """Median kernel time over repeats that last at least `seconds` (at
    least one repeat)."""
    times = [calibrate()]
    while sum(times) < seconds:
        times.append(calibrate())
    return statistics.median(times)


class SpeedSampler:
    """Times the calibration kernel every SAMPLE_PERIOD_S of wall time from
    a SIGALRM handler, which Python runs in the measuring thread between
    bytecodes, so a long operation gets samples of the host's speed while it
    runs.  `now()` is perf_counter() minus the time spent in the handler;
    the workloads time their calls with it, so sampling is left out of every
    operation's time."""

    def __init__(self):
        self.spent = 0.0
        self.samples = []  # (now() when the kernel ran, kernel seconds)
        self._busy = False
        self._old_handler = None

    def now(self) -> float:
        return time.perf_counter() - self.spent

    def _tick(self, signum, frame):
        if self._busy:
            return
        self._busy = True
        t = time.perf_counter()
        try:
            self.samples.append((t - self.spent, calibrate()))
        finally:
            self.spent += time.perf_counter() - t
            self._busy = False

    def start(self):
        calibrate()  # the first call pays for loading LAPACK and scipy.sparse paths
        self._old_handler = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old_handler)

    def kernel_time(self, rec) -> float:
        """Median kernel time sampled during `rec` or within one period of
        it; the nearest sample if there is none."""
        times = [t for t, _ in self.samples]
        lo = bisect.bisect_left(times, rec.start - SAMPLE_PERIOD_S)
        hi = bisect.bisect_right(times, rec.start + rec.seconds + SAMPLE_PERIOD_S)
        if lo == hi:
            lo = min(max(lo - 1, 0), len(times) - 1)
            hi = lo + 1
        return statistics.median(k for _, k in self.samples[lo:hi])


def run_loop(wl, seconds, tracer=None):
    """Warm up, then run whole cycles until `seconds` of wall time pass.
    With a tracer, even rounds are traced and odd rounds are not.  Returns
    one (round, OpRecord) per operation, with round -1 for the warm-up."""
    records = []
    k = 0
    for _ in range(wl.warmup_ops):
        records.append((-1, wl.run(k)))
        k += 1
    start = time.perf_counter()
    rnd = 0
    while rnd == 0 or time.perf_counter() - start < seconds:
        if tracer is not None:
            tracer.enabled = rnd % 2 == 0
        for _ in range(wl.cycle_len):
            if tracer is not None:
                tracer.op = k
            records.append((rnd, wl.run(k)))
            k += 1
        if tracer is not None:
            tracer.enabled = False
        rnd += 1
    return records


def end_to_end(wl, records, sampler, setups) -> tuple[dict, dict]:
    """(gated metrics shared by every workload, per-workload details).

    The host's speed swings by up to 1.8x within seconds, and an
    operation's time follows the calibration kernel timed during it as
    (kernel time) ** wl.speed_exponent, with the exponent fitted per
    workload over recorded runs (see NOTES.md).  So every operation's time
    is scaled to the reference host speed,
    seconds * (CAL_REF_S / its kernel time) ** wl.speed_exponent, and the
    gated timing metrics are taken over the scaled times.  Each set-up is
    scaled by CAL_REF_S over the kernel time its own process took right
    after it.  Throughput is the median over rounds (one workload cycle
    each) of items per scaled second of API time.  The unscaled figures are
    in the details.
    """
    def scaled(seconds, cal):
        return seconds * (CAL_REF_S / cal) ** wl.speed_exponent

    timed = [(rnd, r, scaled(r.seconds, cal), cal)
             for rnd, r in records if rnd >= 0 for cal in [sampler.kernel_time(r)]]
    rounds = {}
    for rnd, r, ref_s, _ in timed:
        acc = rounds.setdefault(rnd, [0, 0.0, 0.0])
        acc[0] += r.items
        acc[1] += ref_s
        acc[2] += r.seconds
    lat = [ref_s * 1000 for _, _, ref_s, _ in timed]
    wall = [r.seconds * 1000 for _, r, _, _ in timed]
    items_per_s = statistics.median(n / s for n, s, _ in rounds.values())
    p50, p90 = percentile(lat, 50), percentile(lat, 90)
    metrics = {
        "setup_s": (statistics.median(s["setup_s"] * CAL_REF_S / s["calibration_s"]
                                      for s in setups), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "ref_items_per_s": (items_per_s, "1/s"),
        "ref_latency_ms.p50": (p50, "ms"),
        "ref_latency_ms.p90": (p90, "ms"),
    }
    details = dict(ops=len(timed), items=sum(r.items for _, r, _, _ in timed), item=wl.item,
                   rounds=len(rounds), beyond_p90=sum(1 for x in lat if x > p90),
                   wall_items_per_s=statistics.median(n / w for n, _, w in rounds.values()),
                   wall_latency_ms_p50=percentile(wall, 50),
                   wall_latency_ms_p90=percentile(wall, 90),
                   calibration_s=statistics.median(cal for _, _, _, cal in timed),
                   calibration_samples=len(sampler.samples),
                   sampling_s=sampler.spent,
                   ops_ms=[(rnd, r.kind, r.seconds * 1000, cal * 1000)
                           for rnd, r, _, cal in timed],
                   setup_raw_s=[s["setup_s"] for s in setups],
                   setup_calibration_s=[s["calibration_s"] for s in setups])
    if wl.name == "histogram":
        details["ref_samples_per_s"] = items_per_s
        details["samples_per_call"] = wl.N_SAMPLES
    elif wl.name == "pipeline":
        details["ref_requests_per_s"] = items_per_s
        for kind in ("state", "channel"):
            sub = [ref_s * 1000 for _, r, ref_s, _ in timed if r.kind == kind]
            details[f"ref_{kind}_latency_ms.p50"] = statistics.median(sub)
            details[f"{kind}_requests"] = len(sub)
    else:
        for part in ("robustness", "witness"):
            sub = [scaled(r.parts[part], cal) for _, r, _, cal in timed if part in r.parts]
            details[f"ref_{part}_s"] = statistics.median(sub) if sub else None
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}, details


def overhead_pct(records) -> float | None:
    """Per-item time of traced rounds over untraced rounds, minus one."""
    sums = {True: [0.0, 0], False: [0.0, 0]}
    for rnd, r in records:
        if rnd >= 0:
            s = sums[rnd % 2 == 0]
            s[0] += r.seconds
            s[1] += r.items
    if not (sums[True][1] and sums[False][1]):
        return None
    per = {k: v[0] / v[1] for k, v in sums.items()}
    return 100.0 * (per[True] / per[False] - 1.0)


def main(argv=None) -> int:
    t0 = time.perf_counter()
    args = parse_args(argv)
    if args.seconds <= 0:
        raise BenchmarkError("--seconds must be positive")
    workloads = load_program()
    refs = load_refs()
    OUT_DIR.mkdir(exist_ok=True)
    workdir = OUT_DIR / f"work-{os.getpid()}"
    workdir.mkdir()
    try:
        try:
            wl = workloads.WORKLOADS[args.workload](args.seed, str(workdir), refs)
        except ValueError as exc:
            raise BenchmarkError(f"cannot set up {args.workload}: {exc}") from exc
        own_setup = time.perf_counter() - t0
        if args.setup_only:
            calibrate()  # untimed first call, as in the measuring process
            print(json.dumps({"setup_s": own_setup,
                              "calibration_s": calibrate_for(CAL_FIRST_S)}))
            return 0

        tracer = None
        if args.trace:
            import tracing

            tracer = tracing.Tracer()
            tracer.install()
        else:
            sampler = SpeedSampler()
            workloads.clock = sampler.now
            sampler.start()
        try:
            records = run_loop(wl, args.seconds, tracer)
        finally:
            if tracer is not None:
                tracer.uninstall()
            else:
                sampler.stop()
        checks = wl.final_checks()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    all_ops = [r for _, r in records] + checks
    attempted = sum(r.items for r in all_ops)
    failed = sum(r.failed for r in all_ops)
    errors = [e for r in all_ops for e in r.errors]
    env = environment(args)

    if args.trace:
        traced_items = sum(r.items for rnd, r in records if rnd >= 0 and rnd % 2 == 0)
        metrics = tracer.metrics(traced_items, overhead_pct(records))
        traced_s = sum(r.seconds for rnd, r in records if rnd >= 0 and rnd % 2 == 0)
        details = {"traced_items": traced_items, "share_of_api_time": tracer.shares(traced_s)}
        tracer.dump(str(OUT_DIR / f"spans-{args.workload}-seed{args.seed}.json"))
    else:
        metrics, details = end_to_end(wl, records, sampler, child_setups(args))
    details["fail_frac"] = failed / attempted

    record = {"environment": env, "details": details, "metrics": metrics,
              "attempted": attempted, "failed": failed, "errors": errors}
    with open(OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json", "w") as fh:
        json.dump(record, fh, indent=1)

    print(f"# {env['commit']} python {env['python']} numpy {env['numpy']} scipy {env['scipy']} "
          f"{env['blas']} nproc {env['nproc']} threads {env['threads']} seed {args.seed}")
    if not args.trace:
        print(f"# ref latency per operation: p50 {metrics['ref_latency_ms.p50']['value']:.1f} ms, "
              f"p90 {metrics['ref_latency_ms.p90']['value']:.1f} ms with "
              f"{details['beyond_p90']} of {details['ops']} operations beyond p90")
    print("# " + json.dumps({k: v for k, v in details.items()
                             if k != "ops_ms"}))
    for e in errors[:20]:
        print(f"# FAILED {e}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchmarkError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        sys.exit(2)
