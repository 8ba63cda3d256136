"""The one Heisenberg-picture task core, for state and channel tasks, and
the worker count of the histogram experiment."""

import json

import numpy as np
import pytest

from freemarg import cli, discrimination
from freemarg.channel_rmp import (
    channel_success_probability,
    channel_task_advantage,
    channel_witness,
    state_discrimination_task,
)
from freemarg.discrimination import (
    advantage,
    effective_observables,
    histogram_experiment,
    success_probability,
    task_from_witness,
    value_at,
    w_example_instance,
)
from freemarg.state_rmp import extract_witness

from test_channel_rmp import broadcasting_instance


@pytest.fixture(scope="module")
def w_rule_task():
    inst = w_example_instance()
    w = extract_witness(inst)
    us = {tuple(sub.members): [np.eye(4, dtype=complex)] * 4 for sub, _ in w.blocks}
    return inst, task_from_witness(w, us, inst)


@pytest.fixture(scope="module")
def broadcasting_rule_task():
    inst = broadcasting_instance()
    return inst, state_discrimination_task(channel_witness(inst), inst)


class TestParentValues:
    """Values of the separate state and channel task code this core replaced."""

    def test_w_instance_identity_unitaries(self, w_rule_task):
        inst, task = w_rule_task
        assert abs(task.epsilon - 0.0045597209654820335) <= 1e-12
        assert abs(advantage(task, inst.marginals, inst) - 0.010152244827160817) <= 1e-12

    def test_broadcasting_instance(self, broadcasting_rule_task):
        inst, task = broadcasting_rule_task
        assert abs(task.epsilon - 0.12499999758388919) <= 1e-12
        assert abs(channel_task_advantage(task, inst) - 0.03940914284920499) <= 1e-12


class TestHeisenbergPicture:
    def test_channel_observables_match_the_schroedinger_sum(self, broadcasting_rule_task):
        inst, task = broadcasting_rule_task
        specs = {pair.label(): spec for pair, spec in inst.family.entries}
        direct = sum(task.pair_priors[label] * p_i * float(np.trace(e @ specs[label].apply(s)).real)
                     for label in task.pair_priors
                     for p_i, e, s in zip(task.outcome_priors[label], task.povms[label],
                                          task.states[label]))
        assert channel_success_probability(task, inst.family) == pytest.approx(direct, abs=1e-12)

    def test_state_observables_match_the_schroedinger_sum(self, w_rule_task):
        inst, task = w_rule_task
        sigma = inst.marginals.targets()
        direct = sum(b.prior * p_i * float(np.trace(e @ u @ sigma[",".join(b.sub.members)]
                                                    @ u.conj().T).real)
                     for b in task.blocks
                     for p_i, u, e in zip(b.outcome_priors, b.unitaries, b.povm))
        assert success_probability(task, inst.marginals) == pytest.approx(direct, abs=1e-12)

    def test_weights_replace_the_outcome_priors(self, broadcasting_rule_task):
        inst, task = broadcasting_rule_task
        priors = next(iter(task.outcome_priors.values()))  # the same on every pair
        same = effective_observables(task, lambda i, n: priors[i])
        assert value_at(same, inst.family) == pytest.approx(
            success_probability(task, inst.family), abs=1e-15)


class InProcessPool:
    """Stands in for ProcessPoolExecutor: records the requested worker count
    and maps in this process, so no process is started."""

    created = []

    def __init__(self, max_workers):
        self.created.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items):
        return map(fn, items)


@pytest.fixture
def recording_pool(monkeypatch):
    InProcessPool.created = []
    monkeypatch.setattr(discrimination, "ProcessPoolExecutor", InProcessPool)
    monkeypatch.setattr(discrimination, "_usable_cpus", lambda: 3)
    return InProcessPool.created


class TestHistogramWorkers:
    def test_workers_capped_by_cpus_and_batches(self, recording_pool):
        serial = histogram_experiment(6, seed=4, jobs=1)
        wide = histogram_experiment(6, seed=4, jobs=5000)
        short = histogram_experiment(2, seed=4, jobs=5000)
        assert recording_pool == [3, 2]
        assert np.array_equal(wide.samples, serial.samples)
        assert np.array_equal(short.samples, serial.samples[:2])

    def test_cli_large_jobs_value(self, recording_pool, tmp_path):
        rc = cli.main(["histogram", "--samples", "2", "--jobs", "5000",
                       "--out", str(tmp_path / "h.csv"), "--output", str(tmp_path / "h.json")])
        assert rc == 0
        assert recording_pool == [2]
        assert json.loads((tmp_path / "h.json").read_text())["provenance"]["jobs"] == 5000

    def test_usable_cpus_positive(self):
        assert discrimination._usable_cpus() >= 1
