import numpy as np
import pytest

from freemarg import discrimination
from freemarg.discrimination import (
    W_EXAMPLE_VECTORS,
    W_EXAMPLE_WEIGHTS,
    DiscriminationTask,
    TaskBlock,
    advantage,
    epsilon_bound_terms,
    haar_from_generator,
    haar_unitary,
    histogram_experiment,
    sample_w_advantage,
    success_probability,
    task_from_witness,
    w_example_instance,
    w_example_witness_block,
    w_histogram_instance,
)
from freemarg.herm import SubsystemSet
from freemarg.solver import SolverFailure, SolverSettings
from freemarg.state_rmp import MarginalFamily, Witness, extract_witness, robustness
from freemarg.states import marginal_of, maximally_mixed, qubit_layout, random_density, w_marginal

from conftest import rand_unitary

LAYOUT = qubit_layout("ABC")


def published_witness():
    blocks = tuple(
        (SubsystemSet(LAYOUT, members), w_example_witness_block(LAYOUT.sublayout(members)))
        for members in (("A", "B"), ("B", "C")))
    return Witness(blocks, free_sup=0.9603, value_at_sigma=1.0)


def identity_unitaries(witness):
    return {tuple(sub.members): [np.eye(op.dim, dtype=complex)] * op.dim
            for sub, op in witness.blocks}


class TestHaar:
    def test_dim_one_is_a_phase(self):
        u = haar_unitary(1, seed=5)
        assert u.shape == (1, 1)
        assert abs(abs(u[0, 0]) - 1) < 1e-14

    def test_unitarity_many_samples(self):
        for seed in range(200):
            u = haar_unitary(4, seed)
            assert np.max(np.abs(u.conj().T @ u - np.eye(4))) < 1e-12

    def test_haar_moment(self):
        # E |U_11|^2 = 1/d for Haar; Monte-Carlo oracle at dim 4
        gen = np.random.Generator(np.random.Philox(key=np.uint64(99)))
        acc = 0.0
        n = 10_000
        for _ in range(n):
            acc += abs(haar_from_generator(4, gen)[0, 0]) ** 2
        assert acc / n == pytest.approx(0.25, abs=0.01)

    def test_deterministic_per_seed(self):
        assert np.array_equal(haar_unitary(4, 123), haar_unitary(4, 123))
        assert not np.array_equal(haar_unitary(4, 123), haar_unitary(4, 124))


class TestSuccessProbability:
    def test_certain_success(self):
        lay = qubit_layout("AB")
        full = qubit_layout("AB")
        sub = SubsystemSet(full, ("A", "B"))
        task = DiscriminationTask((TaskBlock(sub, 1.0, np.array([1.0]),
                                             (np.eye(4, dtype=complex),),
                                             (np.eye(4),)),), epsilon=0.0)
        fam = MarginalFamily(full, [(sub, maximally_mixed(lay))])
        assert success_probability(task, fam) == pytest.approx(1.0, abs=1e-12)

    def test_uniform_guessing(self):
        full = qubit_layout("AB")
        sub = SubsystemSet(full, ("A", "B"))
        d = 4
        povm = tuple(np.eye(d) / d for _ in range(d))
        us = tuple(np.eye(d, dtype=complex) for _ in range(d))
        priors = np.full(d, 1.0 / d)
        task = DiscriminationTask((TaskBlock(sub, 1.0, priors, us, povm),), epsilon=0.0)
        fam = MarginalFamily(full, [(sub, maximally_mixed(full))])
        # every outcome fires with probability 1/d regardless of the input
        assert success_probability(task, fam) == pytest.approx(1.0 / d, abs=1e-12)

    def test_hand_computed_oracle(self, rng):
        """Direct expansion of the trace sums for one recorded draw."""
        seed = 777
        gen = np.random.Generator(np.random.Philox(key=np.uint64(seed)))
        us = [haar_from_generator(4, gen) for _ in range(5)]
        from freemarg.discrimination import _w_example_task

        task = _w_example_task(us)
        inst = w_histogram_instance()
        got = success_probability(task, inst.marginals)
        # independent expansion
        expect = 0.0
        sig = w_marginal().entries
        eps = 0.01
        for b in task.blocks:
            for i in range(5):
                p_i = (1 - eps) / 4 if i < 4 else eps
                u = b.unitaries[i]
                expect += 0.5 * p_i * float(np.trace(b.povm[i] @ u @ sig @ u.conj().T).real)
        assert got == pytest.approx(expect, abs=1e-12)

    def test_affinity_in_the_input_family(self, rng):
        inst = w_example_instance()
        w = published_witness()
        task = task_from_witness(w, identity_unitaries(w), inst, epsilon=0.25)
        fam1 = inst.marginals
        rho = random_density(LAYOUT, rng)
        fam2 = MarginalFamily(LAYOUT, [(("A", "B"), marginal_of(rho, "AB")),
                                       (("B", "C"), marginal_of(rho, "BC"))])
        for p in (0.0, 0.3, 0.8):
            mixed = MarginalFamily(LAYOUT, [
                (sub, _mix(m1, m2, p))
                for (sub, m1), (_, m2) in zip(fam1.entries, fam2.entries)])
            direct = success_probability(task, mixed)
            interp = p * success_probability(task, fam1) + \
                (1 - p) * success_probability(task, fam2)
            assert direct == pytest.approx(interp, abs=1e-12)


def _mix(a, b, p):
    from freemarg.herm import DensityMatrix

    return DensityMatrix.from_array(a.layout, p * a.entries + (1 - p) * b.entries)


class TestTaskFromWitness:
    def test_reproduces_published_spectral_data(self):
        w = published_witness()
        task = task_from_witness(w, identity_unitaries(w), w_example_instance(), epsilon=0.01)
        for block in task.blocks:
            assert np.max(np.abs(block.spectral_weights - W_EXAMPLE_WEIGHTS)) < 1e-12
            for i in range(4):
                col = block.spectral_vectors[:, i]
                ref = W_EXAMPLE_VECTORS[:, i]
                assert min(np.max(np.abs(col - ref)), np.max(np.abs(col + ref))) < 1e-10

    def test_povm_complete_and_strictly_positive(self):
        w = published_witness()
        task = task_from_witness(w, identity_unitaries(w), epsilon=0.01)
        for block in task.blocks:
            total = sum(block.povm)
            assert np.max(np.abs(total - np.eye(4))) < 1e-9
            for e in block.povm:
                assert np.linalg.eigvalsh(e)[0] > 0
        assert task.strictly_positive

    def test_povm_complete_for_random_witnesses(self, rng):
        lay = qubit_layout("AB")
        for _ in range(5):
            g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
            block = g @ g.conj().T / 4
            from freemarg.herm import HermitianOperator

            w = Witness(((SubsystemSet(lay, ("A", "B")),
                          HermitianOperator(lay, block)),), 0.9, 1.1)
            us = {("A", "B"): [np.eye(4, dtype=complex)] * 4}
            task = task_from_witness(w, us, epsilon=0.2)
            assert np.max(np.abs(sum(task.blocks[0].povm) - np.eye(4))) < 1e-9
            assert task.strictly_positive

    @pytest.mark.parametrize("spectrum", [(0.0, 0.0, 0.0, 2 / 3), (0.1, 0.5, 0.1, 0.5)])
    def test_task_does_not_depend_on_the_eigenbasis(self, rng, spectrum):
        # the same witness block built from two eigenbases that differ by a
        # rotation inside each eigenspace: LAPACK returns different
        # eigenvectors for the two, the task must not see it
        from freemarg.herm import HermitianOperator, hermitize

        lay = qubit_layout("AB")
        vals = np.array(spectrum)
        rot = np.zeros((4, 4), dtype=complex)
        for value in np.unique(vals):
            at = np.flatnonzero(vals == value)
            rot[np.ix_(at, at)] = rand_unitary(rng, at.size)
        base = rand_unitary(rng, 4)
        us = {("A", "B"): [rand_unitary(rng, 4) for _ in range(5)]}
        blocks, tasks = [], []
        for v in (base, base @ rot):
            block = hermitize((v * vals) @ v.conj().T)
            blocks.append(block)
            w = Witness(((SubsystemSet(lay, ("A", "B")), HermitianOperator(lay, block)),), 0.9, 1.1)
            tasks.append(task_from_witness(w, us, epsilon=0.2).blocks[0])
        lapack = [np.linalg.eigh(b)[1] for b in blocks]
        assert np.max(np.abs(lapack[0] - lapack[1])) > 1e-3
        assert np.max(np.abs(tasks[0].spectral_vectors - tasks[1].spectral_vectors)) <= 1e-12
        for e0, e1 in zip(tasks[0].povm, tasks[1].povm):
            assert np.max(np.abs(e0 - e1)) <= 1e-12

    def test_epsilon_zero_allowed_but_not_strict(self):
        w = published_witness()
        task = task_from_witness(w, identity_unitaries(w), epsilon=0.0)
        assert not task.strictly_positive

    def test_ordering_matches_witness_values_at_epsilon_zero(self, rng):
        """With identity unitaries, equal block normalizations, and no
        completing outcome, the success probability is an increasing affine
        image of the witness value."""
        inst = w_example_instance()
        w = published_witness()
        task = task_from_witness(w, identity_unitaries(w), epsilon=0.0)
        pairs = []
        for _ in range(6):
            rho = random_density(LAYOUT, rng)
            fam = MarginalFamily(LAYOUT, [(("A", "B"), marginal_of(rho, "AB")),
                                          (("B", "C"), marginal_of(rho, "BC"))])
            pairs.append((w.value_at(fam), success_probability(task, fam)))
        pairs.sort()
        probs = [p for _, p in pairs]
        assert probs == sorted(probs)

    def test_rule_epsilon_satisfies_the_bound(self):
        inst = w_example_instance()
        w = extract_witness(inst)
        us = {tuple(sub.members): [np.eye(4, dtype=complex)] * 4 for sub, _ in w.blocks}
        task = task_from_witness(w, us, inst)  # rule-chosen epsilon
        assert task.strictly_positive
        d1, d2 = epsilon_bound_terms(task, inst.marginals, inst)
        assert d1 > 0
        if d2 > 0:
            assert task.epsilon < d1 / d2

    def test_invalid_inputs(self):
        w = published_witness()
        with pytest.raises(ValueError, match="delta"):
            task_from_witness(w, identity_unitaries(w), delta=0.0, epsilon=0.1)
        bad = {tuple(sub.members): [np.eye(4) * 2] * 4 for sub, _ in w.blocks}
        with pytest.raises(ValueError, match="unitary"):
            task_from_witness(w, bad, epsilon=0.1)


class TestAdvantage:
    def test_nonpositive_for_compatible_family(self, rng):
        inst = w_example_instance()
        w = published_witness()
        task = task_from_witness(w, identity_unitaries(w), epsilon=0.05)
        rho = random_density(LAYOUT, rng)
        fam = MarginalFamily(LAYOUT, [(("A", "B"), marginal_of(rho, "AB")),
                                      (("B", "C"), marginal_of(rho, "BC"))])
        # make the global's target reduction free by mixing in white noise
        if not inst.free.check_membership(marginal_of(rho, "AC"), 1e-9):
            mixed = _mix(maximally_mixed(LAYOUT), rho, 0.8)
            fam = MarginalFamily(LAYOUT, [(("A", "B"), marginal_of(mixed, "AB")),
                                          (("B", "C"), marginal_of(mixed, "BC"))])
            assert inst.free.check_membership(marginal_of(mixed, "AC"), 1e-9)
        assert advantage(task, fam, inst) <= 1e-8

    def test_rule_task_beats_free_set_on_w_instance(self):
        inst = w_example_instance()
        w = extract_witness(inst)
        us = {tuple(sub.members): [np.eye(4, dtype=complex)] * 4 for sub, _ in w.blocks}
        task = task_from_witness(w, us, inst)
        assert advantage(task, inst.marginals, inst) > 0

    def test_rule_task_beats_free_set_on_monogamy(self):
        from freemarg.freesets import FreeSetSpec
        from freemarg.states import sym_bell

        fam = MarginalFamily(LAYOUT, [
            (("A", "B"), sym_bell(LAYOUT.sublayout(("A", "B")))),
            (("B", "C"), sym_bell(LAYOUT.sublayout(("B", "C")))),
        ])
        inst = __import__("freemarg.state_rmp", fromlist=["RmpInstance"]).RmpInstance(
            fam, FreeSetSpec.all_states(SubsystemSet(LAYOUT, ("A", "B", "C"))))
        w = extract_witness(inst)
        us = {tuple(sub.members): [np.eye(4, dtype=complex)] * 4 for sub, _ in w.blocks}
        task = task_from_witness(w, us, inst)
        assert advantage(task, fam, inst) > 0


class TestWInstances:
    def test_party_swap_leaves_robustness_unchanged(self):
        # the histogram labeling is the example with parties A and B swapped
        swapped = robustness(w_histogram_instance()).value_log2
        example = robustness(w_example_instance()).value_log2
        assert swapped > 0
        assert abs(swapped - example) <= 1e-8


@pytest.fixture
def two_cpus(monkeypatch):
    """Two usable CPUs, so jobs=2 starts a real two-process pool on any host."""
    monkeypatch.setattr(discrimination, "_usable_cpus", lambda: 2)


class TestHistogram:
    def test_single_sample_reproducible(self):
        a = sample_w_advantage(0, seed=11)
        b = sample_w_advantage(0, seed=11)
        assert a == b

    def test_sample_independent_of_batch_size(self):
        h2 = histogram_experiment(2, seed=5)
        h4 = histogram_experiment(4, seed=5)
        assert h2.samples[0] == h4.samples[0]
        assert h2.samples[1] == h4.samples[1]

    def test_prefix_split_and_serial_runs_agree(self, two_cpus):
        # the jobs=2 run solves samples 0-3 and 4-6 as two batches in two
        # worker processes, the serial run all seven as one, the prefix run three
        prefix = histogram_experiment(3, seed=21)
        split = histogram_experiment(7, seed=21, jobs=2)
        serial = histogram_experiment(7, seed=21, jobs=1)
        assert np.array_equal(prefix.samples, serial.samples[:3])
        assert np.array_equal(split.samples, serial.samples)
        assert split.to_csv() == serial.to_csv()
        assert serial.to_csv().startswith(prefix.to_csv())
        assert sample_w_advantage(5, seed=21) == serial.samples[5]

    def test_batch_observables_equal_the_task_reference(self, rng):
        from freemarg.discrimination import _w_example_task, _w_observables

        us = np.array([[rand_unitary(rng, 4) for _ in range(5)] for _ in range(6)])
        obs = _w_observables(us)
        for n in range(len(us)):
            ref = discrimination.effective_observables(_w_example_task(list(us[n])))
            assert [label for label, _ in ref] == ["A,B", "A,C"]
            assert all(np.array_equal(obs[n], o) for _, o in ref)
        assert np.array_equal(_w_observables(us[2:3])[0], obs[2])

    def test_batch_unitaries_follow_the_sample_keys(self):
        from freemarg.discrimination import _w_unitaries

        us = _w_unitaries([0, 3, 7], seed=21)
        for n, index in enumerate([0, 3, 7]):
            gen = np.random.Generator(np.random.Philox(key=np.uint64(21 ^ index)))
            assert all(np.array_equal(us[n, i], haar_from_generator(4, gen)) for i in range(5))

    def test_samples_pinned(self):
        # the values of the per-sample task loop the batch path replaced
        got = [repr(float(v)) for v in histogram_experiment(5, seed=0).samples]
        assert got == ["0.008045210742014253", "0.006505203041742319", "0.005778727323888233",
                       "0.0073097345792041135", "0.005110385575627485"]

    def test_w_robustness_pinned(self):
        # the W example's robustness solve, bit for bit: any change to the
        # order of the solver's arithmetic shows here
        res = robustness(w_example_instance())
        got = (repr(res.value_log2), repr(res.optimum), repr(res.solve_result.dual_value),
               res.solve_result.iterations)
        assert got == ("0.06732983580405241", "1.0477756471720268", "1.0477756423075684", 8)

    def test_small_run_statistics(self):
        h = histogram_experiment(40, seed=0)
        assert np.all(h.samples > 0)
        assert np.all(h.samples > 0.0015) and np.all(h.samples < 0.0110)
        assert 0.004 < h.mean < 0.009

    def test_csv_and_summary(self, tmp_path):
        h = histogram_experiment(3, seed=9)
        text = h.to_csv()
        lines = text.strip().split("\n")
        assert lines[0] == "sample_index,delta_p"
        assert len(lines) == 4
        again = histogram_experiment(3, seed=9)
        assert again.to_csv() == text
        summ = h.summary()
        assert summ["n_samples"] == 3
        assert summ["bin_width"] == 1e-4
        assert sum(summ["bin_counts"].values()) == 3

    def test_parallel_matches_serial(self, two_cpus):
        serial = histogram_experiment(6, seed=4, jobs=1)
        parallel = histogram_experiment(6, seed=4, jobs=2)
        assert np.array_equal(serial.samples, parallel.samples)

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_settings_reach_every_worker(self, jobs, two_cpus):
        with pytest.raises(SolverFailure):
            histogram_experiment(4, seed=0, jobs=jobs, settings=SolverSettings(max_iters=1))

    def test_rejects_bad_sample_count(self):
        with pytest.raises(ValueError):
            histogram_experiment(0, seed=1)
