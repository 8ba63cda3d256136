"""Self-tests of the benchmark at tiny sizes.

    python3 -m pytest perfbench/tests -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from freemarg import discrimination, io as fio, solver, state_rmp  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def refs():
    return run.load_refs()


def test_generators_are_deterministic_per_seed():
    def dump(seed):
        out = {}
        for key, (kind, _, inst) in workloads.pipeline_instances(seed).items():
            out[key] = fio.state_instance_to_json(inst) if kind == "state" \
                else fio.channel_instance_to_json(inst)
        return json.dumps(out)

    assert dump(3) == dump(3)
    assert dump(3) != dump(4)
    member = workloads.seeded_instances
    assert fio.state_instance_to_json(member(3, 1)["comp"][2]) == \
        fio.state_instance_to_json(member(3, 1)["comp"][2]) != \
        fio.state_instance_to_json(member(3, 0)["comp"][2])
    a, b, c = (workloads.q6_instance(s).marginals.entries[1][1].entries for s in (3, 3, 4))
    assert np.array_equal(a, b)
    assert not np.allclose(a, c)


def test_histogram_seed_mapping_gives_distinct_samples():
    call = workloads.Histogram.call_seed
    s1 = discrimination.histogram_experiment(2, call(1, 0)).samples
    s2 = discrimination.histogram_experiment(2, call(2, 0)).samples
    s1_next = discrimination.histogram_experiment(2, call(1, 1)).samples
    assert not set(s1) & set(s2)
    assert not set(s1) & set(s1_next)


def test_wrong_histogram_reference_counts_as_failure(monkeypatch):
    # sample k of a call does not depend on the call's size, so a short
    # call still checks against the reference
    monkeypatch.setattr(workloads.Histogram, "N_SAMPLES", 4)
    bad = refs()
    bad["histogram"]["calls"][0][3] += 1e-3
    rec = workloads.Histogram(0, "unused", bad).run(0)
    assert (rec.items, rec.failed) == (4, 1)
    assert workloads.Histogram(0, "unused", refs()).run(0).failed == 0


def test_wrong_pipeline_reference_counts_as_failure(tmp_path):
    bad = refs()
    bad["pipeline"]["w"]["optimum"] += 1e-3
    wl = workloads.Pipeline(0, str(tmp_path), bad)
    k = wl.requests.index(("robustness", "w"))
    assert wl.run(k).failed == 1
    assert workloads.Pipeline(0, str(tmp_path), refs()).run(k).failed == 0
    # the compatible family's witness request must exit 3, which passes
    assert wl.run(wl.requests.index(("witness", "comp"))).failed == 0


def test_end_to_end_names_match_benchmark_json():
    names = [m["name"] for m in SPEC["end_to_end"]]
    sampler = run.SpeedSampler()
    sampler.samples = [(0.1 * i, 0.005 + 0.001 * (i % 3)) for i in range(20)]
    for wl in (workloads.Histogram, workloads.Pipeline, workloads.Q6):
        recs = [(rnd, workloads.OpRecord(kind, 0.1 + 0.01 * rnd, 1, start=0.3 * rnd,
                                         parts={"robustness": 0.1, "witness": 0.01}))
                for rnd in range(3) for kind in ("state", "channel")]
        setups = [{"setup_s": t, "calibration_s": 0.05} for t in (0.5, 0.6, 0.7)]
        metrics, _ = run.end_to_end(wl, recs, sampler, setups)
        assert list(metrics) == names
        assert all(v["value"] > 0 for v in metrics.values())


def test_speed_sampler_samples_during_an_operation_and_leaves_itself_out():
    import signal
    import time

    handler = signal.getsignal(signal.SIGALRM)
    sampler = run.SpeedSampler()
    sampler.start()
    try:
        t = sampler.now()
        end = time.perf_counter() + 0.5
        while time.perf_counter() < end:
            pass
        seconds = sampler.now() - t
    finally:
        sampler.stop()
    assert signal.getsignal(signal.SIGALRM) is handler
    assert len(sampler.samples) >= 3 and sampler.spent > 0
    assert abs(seconds + sampler.spent - 0.5) < 0.05
    rec = workloads.OpRecord("busy", seconds, 1, start=t)
    kernel = [k for _, k in sampler.samples]
    assert min(kernel) <= sampler.kernel_time(rec) <= max(kernel)


def test_per_layer_names_match_benchmark_json():
    assert list(tracing.PER_LAYER) == [m["name"] for m in SPEC["per_layer"]]


def test_tracer_wraps_every_binding_site_and_restores():
    original = solver.solve
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert state_rmp.solve is solver.solve is not original
        tracer.enabled = True
        state_rmp.robustness(discrimination.w_example_instance())
    finally:
        tracer.uninstall()
    assert state_rmp.solve is solver.solve is original
    assert tracer.calls["solver.solve"] == 1 and tracer.calls["state_rmp"] == 1
    m = tracer.metrics(1, 0.0)
    assert m["solver.solves_per_op"]["value"] == 1
    assert m["solver.status.optimal"]["value"] == 1
    assert m["solver.solve.self_s"]["value"] > 0


def test_missing_name_marks_layer_absent(monkeypatch):
    layers = dict(tracing.LAYERS)
    layers["io.load"] = layers["io.load"] + [("freemarg.io", "no_such_function")]
    monkeypatch.setattr(tracing, "LAYERS", layers)
    tracer = tracing.Tracer()
    tracer.install()
    tracer.uninstall()
    m = tracer.metrics(1, None)
    assert m["io.load.self_s"]["value"] is None
    assert "no_such_function" in m["io.load.self_s"]["absent"]
    assert m["io.dump.self_s"]["value"] == 0.0


def test_traced_run_prints_every_per_layer_metric():
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "histogram",
                           "--seed", "1", "--seconds", "0.1", "--trace", "1"],
                          cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] and out["failed"] == 0
    assert list(out["metrics"]) == [m["name"] for m in SPEC["per_layer"]]


def test_fails_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "histogram",
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


@pytest.mark.parametrize("seed", [-1, 2 ** 31])
def test_out_of_range_seed_rejected(seed):
    with pytest.raises(ValueError):
        workloads.Histogram(seed, "unused", refs())
