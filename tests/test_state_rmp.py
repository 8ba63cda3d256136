import dataclasses
import gc
import weakref

import numpy as np
import pytest

from freemarg.config import DEFAULT_TOLS
from freemarg.freesets import FreeSetSpec
from freemarg.herm import DensityMatrix, LayoutError, SubsystemLayout, SubsystemSet
from freemarg.solver import SolverFailure, SolverSettings, Status, solve
from freemarg.state_rmp import (
    MarginalFamily,
    NoWitnessError,
    RmpInstance,
    activation_criterion,
    apply_free_operation,
    check_rfree_compatible,
    extract_witness,
    linear_max_over_set,
    product_channels_on_family,
    robustness,
    _program,
    verify_w_uniqueness,
)
from freemarg.states import (
    ket,
    marginal_of,
    maximally_mixed,
    pure,
    qubit_layout,
    random_density,
    sym_bell,
    w_marginal,
    w_state,
)

from conftest import rand_herm, rand_kraus, rand_unitary, w_example_witness_block

# regression constant: optimum tr(V*) of the W-marginal instance with a
# separable (PPT) target, cross-checked against a mixing-parameter bisection
W_INSTANCE_OPTIMUM = 1.0477756476

LAYOUT = qubit_layout("ABC")


def w_instance():
    fam = MarginalFamily(LAYOUT, [
        (("A", "B"), w_marginal(LAYOUT.sublayout(("A", "B")))),
        (("B", "C"), w_marginal(LAYOUT.sublayout(("B", "C")))),
    ])
    return RmpInstance(fam, FreeSetSpec.separable_ppt(SubsystemSet(LAYOUT, ("A", "C"))))


def white_noise_instance():
    mm = maximally_mixed(LAYOUT)
    fam = MarginalFamily(LAYOUT, [(("A", "B"), marginal_of(mm, "AB")),
                                  (("B", "C"), marginal_of(mm, "BC"))])
    return RmpInstance(fam, FreeSetSpec.separable_ppt(SubsystemSet(LAYOUT, ("A", "C"))))


def monogamy_instance():
    fam = MarginalFamily(LAYOUT, [
        (("A", "B"), sym_bell(LAYOUT.sublayout(("A", "B")))),
        (("B", "C"), sym_bell(LAYOUT.sublayout(("B", "C")))),
    ])
    return RmpInstance(fam, FreeSetSpec.all_states(SubsystemSet(LAYOUT, ("A", "B", "C"))))


def incoherent_ac_family(seed: int = 5) -> MarginalFamily:
    """The AB and BC marginals of sum_(a,c) p_ac |a><a| (x) sigma_ac (x)
    |c><c|, with random weights and random states sigma_ac of B: the AC
    marginal is diagonal, while B, and so the AB marginal, is coherent."""
    gen = np.random.default_rng(seed)
    weights = gen.random(4)
    rho = np.zeros((8, 8), dtype=complex)
    for k, p in enumerate(weights / weights.sum()):
        a, c = np.diag(np.eye(2)[k // 2]), np.diag(np.eye(2)[k % 2])
        sigma = random_density(qubit_layout("B"), gen).entries
        rho += p * np.kron(np.kron(a, sigma), c)
    rho = DensityMatrix.from_array(LAYOUT, rho)
    return MarginalFamily(LAYOUT, [(m, marginal_of(rho, m)) for m in ("AB", "BC")])


def incoherent_instance(target: str) -> RmpInstance:
    return RmpInstance(incoherent_ac_family(),
                       FreeSetSpec.incoherent(SubsystemSet(LAYOUT, tuple(target))))


class TestCompatibility:
    def test_white_noise_compatible(self):
        res = check_rfree_compatible(white_noise_instance())
        assert res.compatible
        assert res.residual < 1e-6
        # returned global state really has the required marginals
        assert np.max(np.abs(marginal_of(res.witness_state, "AB").entries - np.eye(4) / 4)) < 1e-6

    def test_monogamy_incompatible(self):
        res = check_rfree_compatible(monogamy_instance())
        assert not res.compatible
        assert res.certificate is not None

    def test_w_marginals_incompatible_with_separable_target(self):
        assert not check_rfree_compatible(w_instance()).compatible

    def test_w_marginals_compatible_without_free_restriction(self):
        inst = w_instance()
        all_states = RmpInstance(inst.marginals,
                                 FreeSetSpec.all_states(SubsystemSet(LAYOUT, ("A", "B", "C"))))
        res = check_rfree_compatible(all_states)
        assert res.compatible
        # the only compatible extension is the W state itself
        fid = np.real(np.trace(res.witness_state.entries @ w_state(LAYOUT).entries))
        assert fid == pytest.approx(1.0, abs=1e-5)


class TestRobustness:
    def test_compatible_instance_zero(self):
        res = robustness(white_noise_instance())
        assert res.status == Status.OPTIMAL
        assert res.value_log2 == pytest.approx(0.0, abs=1e-6)

    def test_w_instance_regression(self):
        res = robustness(w_instance())
        assert res.status == Status.OPTIMAL
        assert res.optimum == pytest.approx(W_INSTANCE_OPTIMUM, abs=1e-6)
        assert res.relaxation == "ppt-exact"
        # strong duality at the reported tolerance
        assert abs(res.solve_result.primal_value - res.solve_result.dual_value) <= \
            1e-7 * (1 + abs(res.solve_result.primal_value))

    def test_w_instance_bisection_cross_check(self):
        """Independent route: largest p with p*sigma + (1-p)*tau free-compatible,
        found by bisecting feasibility, matches 1/optimum coarsely."""
        from freemarg.herm import partial_trace_map, partial_transpose_map
        from freemarg.solver import ConicProgram, solve

        inst = w_instance()

        def feasible(p):
            prog = ConicProgram()
            rho = prog.add_variable("rho", 8)
            prog.add_scalar_equality("tr", [(rho, np.eye(8))], 1.0)
            for sub, sigma in inst.marginals.entries:
                prog.add_psd_inequality(f"dom[{sub.members}]",
                                        [(rho, partial_trace_map(LAYOUT, sub.members))],
                                        const=-p * sigma.entries)
            pt = (partial_transpose_map(LAYOUT.sublayout(("A", "C")), ("C",))
                  @ partial_trace_map(LAYOUT, ("A", "C")))
            prog.add_psd_inequality("ppt", [(rho, pt)])
            prog.set_objective([(rho, np.eye(8))], "min")
            return solve(prog).status == Status.OPTIMAL

        lo, hi = 0.5, 1.0
        for _ in range(11):
            mid = (lo + hi) / 2
            if feasible(mid):
                lo = mid
            else:
                hi = mid
        assert lo <= 1.0 / W_INSTANCE_OPTIMUM <= hi

    def test_monogamy_strictly_positive(self):
        res = robustness(monogamy_instance())
        assert res.status == Status.OPTIMAL
        assert res.optimum == pytest.approx(4.0 / 3.0, abs=1e-6)

    def test_relaxation_monotonicity(self):
        """Replacing the separable target set by all states never increases
        the measure (the free-compatible set only grows)."""
        inst = w_instance()
        r_ppt = robustness(inst).value_log2
        relaxed = RmpInstance(inst.marginals,
                              FreeSetSpec.all_states(SubsystemSet(LAYOUT, ("A", "C"))))
        r_all = robustness(relaxed).value_log2
        assert r_all <= r_ppt + 1e-7

    def test_infinite_when_free_set_is_pure_singleton(self):
        lay = LAYOUT
        target = SubsystemSet(lay, ("A", "C"))
        phi = pure(lay.sublayout(("A", "C")), ket(lay.sublayout(("A", "C")), "00"))
        free = FreeSetSpec.singleton(target, phi)
        fam = MarginalFamily(lay, [(("A", "B"), maximally_mixed(lay.sublayout(("A", "B"))))])
        res = robustness(RmpInstance(fam, free))
        assert res.status == Status.INFEASIBLE
        assert res.solve_result.iterations == 0
        assert res.value_log2 == np.inf
        assert "pure singleton" in res.diagnostics or "full-rank" in res.diagnostics

    def test_strong_duality_on_random_full_rank_instances(self, rng):
        for trial in range(10):
            inst = _random_instance(rng, trial)
            res = robustness(inst)
            assert res.status == Status.OPTIMAL
            rel = abs(res.solve_result.primal_value - res.solve_result.dual_value) / (
                1 + abs(res.solve_result.primal_value))
            assert rel <= 1e-7


def _random_instance(rng, trial):
    """Random marginal family over ABC with a full-rank-member free set."""
    lay = LAYOUT
    kinds = trial % 4
    target = SubsystemSet(lay, ("A", "C"))
    if kinds == 0:
        free = FreeSetSpec.all_states(target)
    elif kinds == 1:
        free = FreeSetSpec.separable_ppt(target)
    elif kinds == 2:
        free = FreeSetSpec.incoherent(target)
    else:
        free = FreeSetSpec.singleton(target, random_density(lay.sublayout(("A", "C")), rng))
    if trial % 2 == 0:
        global_state = random_density(lay, rng)
        fam = MarginalFamily(lay, [(("A", "B"), marginal_of(global_state, "AB")),
                                   (("B", "C"), marginal_of(global_state, "BC"))])
    else:
        fam = MarginalFamily(lay, [(("A", "B"), random_density(lay.sublayout(("A", "B")), rng)),
                                   (("B", "C"), random_density(lay.sublayout(("B", "C")), rng))])
    return RmpInstance(fam, free)


class TestWitness:
    def test_w_instance_witness(self):
        inst = w_instance()
        w = extract_witness(inst)
        assert w.gap >= 1e-4
        assert w.free_sup <= 1 + 1e-6
        assert w.value_at_sigma == pytest.approx(W_INSTANCE_OPTIMUM, abs=1e-6)
        for _, block in w.blocks:
            assert block.min_eig() > -1e-9

    def test_witness_free_sup_reproducible(self):
        inst = w_instance()
        w = extract_witness(inst)
        again = linear_max_over_set([(sub, op.entries) for sub, op in w.blocks], inst)
        assert again == pytest.approx(w.free_sup, abs=1e-6)

    def test_monogamy_witness(self):
        w = extract_witness(monogamy_instance())
        assert w.gap >= 1e-4

    def test_compatible_instance_raises(self):
        with pytest.raises(NoWitnessError, match="no witness exists"):
            extract_witness(white_noise_instance())

    def test_witness_value_helper(self):
        inst = w_instance()
        w = extract_witness(inst)
        assert w.value_at(inst.marginals) == pytest.approx(w.value_at_sigma, abs=1e-12)


class TestLinearMax:
    def test_objective_keys(self):
        # a subsystem set, its members or its label name the same map; a key
        # that is neither a marginal nor the target is refused by name
        inst = w_instance()
        ab = inst.marginals.entries[0][0]
        assert inst.extract(ab) is inst.extract(("A", "B")) is inst.extract("A,B")
        assert inst.extract(()) is inst.extract("")
        with pytest.raises(LayoutError, match=r"'B'.*\['A,B', 'B,C', 'A,C', ''\]"):
            inst.extract(("B",))

    def test_identity_objective_counts_blocks(self):
        inst = w_instance()
        val = linear_max_over_set([(("A", "B"), np.eye(4)), (("B", "C"), np.eye(4))], inst)
        assert val == pytest.approx(2.0, abs=1e-7)

    def test_singleton_feasible_set_is_exact(self, rng):
        lay = LAYOUT
        global_state = random_density(lay, rng)
        free = FreeSetSpec.singleton(SubsystemSet(lay, ("A", "B", "C")), global_state)
        inst = RmpInstance(MarginalFamily(lay, [(("A", "B"), marginal_of(global_state, "AB"))]),
                           free)
        obs = np.diag([0.5, -0.25, 1.5, 0.0])
        val = linear_max_over_set([(("A", "B"), obs)], inst)
        expect = float(np.trace(obs @ marginal_of(global_state, "AB").entries).real)
        assert val == pytest.approx(expect, abs=1e-6)

    def test_published_witness_strictly_below_sigma_value(self):
        inst = w_instance()
        block = w_example_witness_block
        objs = [(("A", "B"), block(LAYOUT.sublayout(("A", "B"))).entries),
                (("B", "C"), block(LAYOUT.sublayout(("B", "C"))).entries)]
        sup = linear_max_over_set(objs, inst)
        at_sigma = sum(float(np.trace(o @ w_marginal().entries).real) for _, o in objs)
        assert at_sigma - sup >= 1e-4


class TestInstanceModel:
    """An instance holds the one model of its free-compatible set, and each
    maximization over it solves at the settings of its own call."""

    OBJECTIVES = [(("A", "B"), np.diag([0.5, -0.25, 1.5, 0.0])), (("B", "C"), np.eye(4))]

    def test_settings_reach_each_maximization_of_a_shared_model(self):
        from freemarg.discrimination import advantage, task_from_witness

        inst = w_instance()
        wit = extract_witness(inst)  # the model serves the supremum at default settings
        unitaries = {tuple(sub.members): [np.eye(4, dtype=complex)] * 4 for sub, _ in wit.blocks}
        task = task_from_witness(wit, unitaries, inst)
        few = SolverSettings(max_iters=2)
        with pytest.raises(SolverFailure):
            inst.model.maximize(self.OBJECTIVES, few)
        with pytest.raises(SolverFailure):
            linear_max_over_set(self.OBJECTIVES, inst, few)
        with pytest.raises(SolverFailure):
            advantage(task, inst.marginals, inst, few)
        assert advantage(task, inst.marginals, inst) > 0  # the defaults still solve

    def test_batch_members_whose_keys_differ_match_lone_calls(self, rng):
        # each member adds its keys' terms in its own order, whatever the
        # keys of the other members, so it gets its lone call's bits
        inst = w_instance()
        o1, o2, o3 = (rand_herm(rng, 4) for _ in range(3))
        lists = [[("A,B", o1), ("A,C", o2)], [("A,C", o3)], [], [("A,C", o2), ("A,B", o1)],
                 [("B,C", o3), ("A,B", o2), ("B,C", o1)]]
        for objectives, res in zip(lists, inst.model.maximize_many(lists)):
            alone = inst.model.maximize(objectives)
            assert res.status == alone.status == Status.OPTIMAL
            assert res.iterations == alone.iterations
            assert (res.primal_value, res.dual_value) == (alone.primal_value, alone.dual_value)
            for got, want in [(res.primal_blocks, alone.primal_blocks),
                              (res.dual_multipliers, alone.dual_multipliers)]:
                assert got.keys() == want.keys()
                assert all(np.array_equal(got[name], want[name]) for name in want)

    def test_one_model_per_instance_ignored_by_equality(self):
        from test_channel_rmp import broadcasting_instance

        inst = w_instance()
        model = inst.model
        # the instance holds the one compiled program; each model wraps the
        # instance
        assert model.instance is inst and inst.model.instance is inst
        assert inst.compatible_set is inst.compatible_set
        copy = dataclasses.replace(inst)
        assert copy.compatible_set is not inst.compatible_set
        assert copy == inst and hash(copy) == hash(inst)
        assert inst == w_instance() and hash(inst) == hash(w_instance())
        channel = broadcasting_instance()
        assert channel.compatible_set is channel.compatible_set
        assert channel.model.instance is channel

    def test_an_instance_goes_with_its_last_reference(self, monkeypatch):
        # the instance holds its program and the model its instance, with no
        # cycle, so the instance of a histogram call is freed when it returns
        from freemarg import discrimination

        refs = []
        real = discrimination.w_histogram_instance

        def recorded():
            inst = real()
            refs.append(weakref.ref(inst))
            return inst

        monkeypatch.setattr(discrimination, "w_histogram_instance", recorded)
        gc.disable()
        try:
            assert discrimination.w_advantages([0, 1], 3).shape == (2,)
            assert len(refs) == 1 and refs[0]() is None
        finally:
            gc.enable()


class TestFreeOperations:
    def test_identity_channels_no_op(self):
        from freemarg.channel_rmp import ChannelSpec

        inst = w_instance()
        chans = []
        for sub, sigma in inst.marginals.entries:
            in_lay = SubsystemLayout([(l + "'", 2) for l in sub.members])
            chans.append((sub, ChannelSpec.identity(in_lay, sigma.layout)))
        out = apply_free_operation(inst.marginals, chans)
        for (s1, m1), (s2, m2) in zip(inst.marginals.entries, out.entries):
            assert np.max(np.abs(m1.entries - m2.entries)) < 1e-12

    def test_product_unitary_conjugates_marginals(self, rng):
        from freemarg.channel_rmp import ChannelSpec

        inst = w_instance()
        site = {l: ChannelSpec.from_unitary(rand_unitary(rng, 2),
                                            SubsystemLayout([(l + "'", 2)]),
                                            SubsystemLayout([(l, 2)]))
                for l in "ABC"}
        chans = product_channels_on_family(inst.marginals, site)
        out = apply_free_operation(inst.marginals, chans)
        # direct conjugation oracle
        us = {l: None for l in "ABC"}
        for l in "ABC":
            # recover the unitary from the Choi matrix: J = (U (x) I) Phi+ ...
            j = site[l].choi.entries
            vals, vecs = np.linalg.eigh(j)
            v = vecs[:, -1] * np.sqrt(2)
            us[l] = v.reshape(2, 2)  # column-major? row-major flatten of U/sqrt(d)
        for (sub, sigma), (_, evolved) in zip(inst.marginals.entries, out.entries):
            u = np.kron(us[sub.members[0]], us[sub.members[1]])
            direct = u @ sigma.entries @ u.conj().T
            assert np.max(np.abs(direct - evolved.entries)) < 1e-9

    @pytest.mark.parametrize("kind", ["SeparablePPT", "Incoherent", "Singleton"])
    def test_robustness_invariant_under_product_unitaries(self, rng, kind):
        """Rotating the family and the free set on the target AC by the same
        product unitary leaves the robustness unchanged."""
        from freemarg.channel_rmp import ChannelSpec

        target = SubsystemSet(LAYOUT, ("A", "C"))
        state = random_density(target.sublayout(), np.random.default_rng(7)).entries

        def free_set(u_t):
            """The free set rotated by U_T."""
            if kind == "Incoherent":
                return FreeSetSpec.incoherent(target, u_t @ np.eye(4))  # U_T B with B = I
            if kind == "Singleton":
                return FreeSetSpec.singleton(target, DensityMatrix.from_array(
                    target.sublayout(), u_t @ state @ u_t.conj().T))
            return FreeSetSpec.separable_ppt(target)  # invariant

        inst = RmpInstance(w_instance().marginals, free_set(np.eye(4)))
        base = robustness(inst).value_log2
        for _ in range(3):
            us = {l: rand_unitary(rng, 2) for l in "ABC"}
            site = {l: ChannelSpec.from_unitary(us[l], SubsystemLayout([(l + "'", 2)]),
                                                SubsystemLayout([(l, 2)]))
                    for l in "ABC"}
            fam2 = apply_free_operation(inst.marginals,
                                        product_channels_on_family(inst.marginals, site))
            val = robustness(RmpInstance(fam2, free_set(np.kron(us["A"], us["C"])))).value_log2
            assert val == pytest.approx(base, abs=1e-6)

    def test_robustness_never_increases_under_product_channels(self, rng):
        from freemarg.channel_rmp import ChannelSpec

        inst = w_instance()
        base = robustness(inst).value_log2
        for _ in range(3):
            site = {l: ChannelSpec.from_kraus(rand_kraus(rng, 2, 2, 2),
                                              SubsystemLayout([(l + "'", 2)]),
                                              SubsystemLayout([(l, 2)]))
                    for l in "ABC"}
            fam2 = apply_free_operation(inst.marginals,
                                        product_channels_on_family(inst.marginals, site))
            val = robustness(RmpInstance(fam2, inst.free)).value_log2
            assert val <= base + 1e-6


class TestWUniqueness:
    def test_both_extrema_are_one(self):
        res = verify_w_uniqueness()
        assert res["max_fid"] == pytest.approx(1.0, abs=1e-6)
        assert res["min_fid"] == pytest.approx(1.0, abs=1e-6)

    def test_relaxing_one_marginal_breaks_uniqueness(self):
        # replacing the BC pin by a compatible non-W marginal admits non-W
        # extensions, so the minimum fidelity drops below one.  (The literal
        # replacement by I/4 is infeasible: the B marginals disagree.)
        lay = LAYOUT
        alt = marginal_of(_product_extension(), "BC")
        fam = MarginalFamily(lay, [(("A", "B"), w_marginal(lay.sublayout(("A", "B")))),
                                   (("B", "C"), alt)])
        res = verify_w_uniqueness(family=fam)
        assert res["min_fid"] < 1 - 1e-4


def _product_extension():
    """W marginal on AB tensored with a maximally mixed C qubit."""
    from freemarg.herm import DensityMatrix, tensor

    w_ab = w_marginal(LAYOUT.sublayout(("A", "B")))
    mixed_c = maximally_mixed(LAYOUT.sublayout(("C",)))
    return DensityMatrix(tensor(w_ab.op, mixed_c.op))


class TestProblemMaps:
    @pytest.mark.parametrize("kind", ["state", "channel"])
    def test_second_problem_builds_no_maps(self, kind, monkeypatch):
        from freemarg import state_rmp
        from test_channel_rmp import broadcasting_instance

        make = w_instance if kind == "state" else broadcasting_instance
        inst = make()
        first, _ = state_rmp._program(inst, pinned=False, pairs=inst.pairs)
        built = []
        real = state_rmp.partial_trace_map
        monkeypatch.setattr(state_rmp, "partial_trace_map",
                            lambda *args: built.append(args) or real(*args))
        second, _ = state_rmp._program(inst, pinned=False, pairs=inst.pairs)
        pinned, _ = state_rmp._program(inst, pinned=True, pairs=inst.pairs)
        assert built == []
        monkeypatch.undo()
        fresh = make()
        dominate = [[g for g in prog.eq_groups if g.name.startswith("dominate[")]
                    for prog in (first, second)]
        marginals = [g for g in pinned.eq_groups if g.name.startswith("marginal[")]
        assert len(dominate[0]) == len(marginals) == len(inst.pairs)
        for g1, g2, g3, (_, m, _), (_, m3, _) in zip(*dominate, marginals, inst.pairs,
                                                     fresh.pairs):
            # the dominance rows of both programs hold the very maps of
            # inst.pairs, and the pinned marginals' string rows follow them
            assert g1.terms[0][1] is g2.terms[0][1] is m
            assert g3.terms[0][1].local.keep == m.local.keep
            assert np.array_equal(m.dense(), m3.dense())


class TestActivation:
    def test_w_marginal_value(self):
        val = activation_criterion(w_marginal(qubit_layout("AC")), samples=50)
        assert val == pytest.approx(2.0 / 3.0, abs=1e-9)
        assert val > 0.5

    def test_white_noise_flat(self):
        val = activation_criterion(maximally_mixed(qubit_layout("AC")), samples=30)
        assert val == pytest.approx(0.25, abs=1e-9)

    def test_perfect_overlap(self):
        lay = qubit_layout("AC")
        bell = pure(lay, ket(lay, "01") + ket(lay, "10"))
        assert activation_criterion(bell, samples=10) == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("d", [2, 3])
    @pytest.mark.parametrize("seed,samples", [(0, 1), (0, 40), (7, 5), (2 ** 40 + 3, 17)])
    def test_stacked_draws_match_the_loop(self, d, seed, samples):
        """One stack of normals, one stacked QR and stacked products give
        the values of one `haar_from_generator` draw and one Kronecker
        product per sample."""
        from freemarg.discrimination import _haar_from_normals, haar_from_generator
        from freemarg.state_rmp import _activation_overlaps

        rho = random_density(SubsystemLayout([("A", d), ("B", d)]), np.random.default_rng(d))
        psi = np.zeros(d * d)
        psi[[((i + 1) % d) * d + i for i in range(d)]] = 1 / np.sqrt(d)
        gen = np.random.Generator(np.random.Philox(key=np.uint64(seed)))
        us = [np.eye(d)] + [haar_from_generator(d, gen) for _ in range(samples)]
        loop = [float(np.real(psi @ np.kron(u, np.eye(d)) @ rho.entries
                              @ np.kron(u, np.eye(d)).conj().T @ psi)) for u in us]
        gen = np.random.Generator(np.random.Philox(key=np.uint64(seed)))
        stacked = _haar_from_normals(gen.normal(size=(samples, 2, d, d)))
        assert np.array_equal(stacked, np.array(us[1:]))
        values = _activation_overlaps(rho.entries, np.concatenate([np.eye(d)[None], stacked]))
        assert np.max(np.abs(values - loop)) <= 1e-15
        assert activation_criterion(rho, samples, seed) == np.max(values)


class TestReductionToPlainMarginalCompatibility:
    """target = whole system with all states free recovers plain marginal
    compatibility."""

    def test_compatible_families_by_construction(self, rng):
        free = FreeSetSpec.all_states(SubsystemSet(LAYOUT, ("A", "B", "C")))
        for _ in range(5):
            rho = random_density(LAYOUT, rng)
            fam = MarginalFamily(LAYOUT, [(("A", "B"), marginal_of(rho, "AB")),
                                          (("B", "C"), marginal_of(rho, "BC"))])
            assert check_rfree_compatible(RmpInstance(fam, free)).compatible

    def test_monogamy_counterexample(self):
        assert not check_rfree_compatible(monogamy_instance()).compatible

    def test_zero_robustness_iff_compatible(self, rng):
        free = FreeSetSpec.all_states(SubsystemSet(LAYOUT, ("A", "B", "C")))
        rho = random_density(LAYOUT, rng)
        fam = MarginalFamily(LAYOUT, [(("A", "B"), marginal_of(rho, "AB")),
                                      (("B", "C"), marginal_of(rho, "BC"))])
        assert robustness(RmpInstance(fam, free)).value_log2 == pytest.approx(0.0, abs=1e-6)
        assert robustness(monogamy_instance()).value_log2 > 1e-3


class TestIncoherentTarget:
    def test_rotated_basis_robustness(self, rng):
        """A family whose only extension has coherence in the rotated basis
        is incompatible; the measure goes positive and the witness is sound."""
        u = rand_unitary(rng, 4)
        free_rot = FreeSetSpec.incoherent(SubsystemSet(LAYOUT, ("A", "C")), basis=u)
        inst = RmpInstance(w_instance().marginals, free_rot)
        res = robustness(inst)
        assert res.status == Status.OPTIMAL
        # computational-basis-incoherent target for comparison
        free_comp = FreeSetSpec.incoherent(SubsystemSet(LAYOUT, ("A", "C")))
        res2 = robustness(RmpInstance(w_instance().marginals, free_comp))
        assert res2.status == Status.OPTIMAL
        assert res2.value_log2 > 1e-3  # the unique extension's AC marginal is coherent
        if res.value_log2 > 1e-6:
            w = extract_witness(inst, res)
            assert w.gap > 0


    def test_target_overlapping_a_pinned_marginal(self):
        # the target's off-diagonal strings go through the ledger: those a
        # pinned marginal fixes at 0 are skipped, and the rows have full rank
        inst = incoherent_instance("AC")
        prog, _ = _program(inst, pinned=True, pairs=inst.pairs)
        assert prog.compile()["A"].shape[0] == prog.num_rows == 36
        assert check_rfree_compatible(inst).compatible
        # the AB marginal is coherent: a string it fixes is stated again at
        # 0, and the family is infeasible with no solve
        inst = incoherent_instance("AB")
        prog, v = _program(inst, pinned=True, pairs=inst.pairs)
        prog.set_objective([(v, np.eye(8))], "min")
        res = solve(prog)
        assert res.status == Status.INFEASIBLE and res.iterations == 0
        assert res.certificate["note"] == "a string stated with two values"
        # the ray, in the rows as stated: A'y = 0 and b'y > 0
        y = np.zeros(prog.num_rows)
        for row, weight in prog.ray.items():
            y[row] = weight
        a, b = prog.equality_rows()
        assert np.max(np.abs(a.T @ y)) <= 1e-15
        assert b @ y > 1e-3
        assert not check_rfree_compatible(inst).compatible


class TestRoundingIsNoCertificate:
    """A part of b off the reduced rows that is rounding is no Farkas
    certificate, however small the feasibility tolerance: out of reach, the
    check fails and never answers incompatible."""

    @pytest.mark.parametrize("tol", [1e-16, 1e-300])
    @pytest.mark.parametrize("family", ["square", "truncated"])
    def test_compatible_family_at_an_unreachable_tolerance(self, family, tol):
        # white noise: full-rank string rows in the square eigenbasis of
        # their Gram matrix; the Incoherent target in a diagonal basis, the
        # same set, stated whole over the pinned marginals: 40 rows of rank
        # 36, a truncated reduction
        if family == "square":
            inst = white_noise_instance()
        else:
            inst = incoherent_instance("AC")
            inst = dataclasses.replace(inst, free=FreeSetSpec.incoherent(
                inst.free.target, basis=np.diag([1, 1j, -1, -1j])))
        prog, _ = _program(inst, pinned=True, pairs=inst.pairs)
        u_r = prog.compile()["u_r"]
        assert u_r.shape == ((40, 36) if family == "truncated" else (prog.num_rows,) * 2)
        with pytest.raises(SolverFailure):
            check_rfree_compatible(inst, SolverSettings(feas_tol=tol, gap_tol=tol))


class TestFullySeparableTarget:
    def test_w_family_with_global_separable_target(self):
        """Target = entire system with full separability (PPT intersection
        across every bipartition): the W marginals force entanglement."""
        free = FreeSetSpec.separable_ppt(SubsystemSet(LAYOUT, ("A", "B", "C")))
        assert len(free.bipartitions) == 3
        inst = RmpInstance(w_instance().marginals, free)
        res = robustness(inst)
        assert res.status == Status.OPTIMAL
        assert res.value_log2 > 1e-3
        assert res.relaxation == "ppt-outer"
        w = extract_witness(inst, res)
        assert w.gap >= 1e-4

    def test_white_noise_family_is_fully_separable_compatible(self):
        free = FreeSetSpec.separable_ppt(SubsystemSet(LAYOUT, ("A", "B", "C")))
        mm = maximally_mixed(LAYOUT)
        fam = MarginalFamily(LAYOUT, [(("A", "B"), marginal_of(mm, "AB")),
                                      (("B", "C"), marginal_of(mm, "BC"))])
        assert robustness(RmpInstance(fam, free)).value_log2 == pytest.approx(0.0, abs=1e-6)


def dmax_draw(k: int) -> tuple[DensityMatrix, DensityMatrix]:
    """Draw k of the D_max family: for each k in turn, rho is a random
    two-qubit state on AB and sigma the AB marginal of a random three-qubit
    state, both from default_rng(3)."""
    rng = np.random.default_rng(3)
    for _ in range(k + 1):
        rho = random_density(qubit_layout("AB"), rng)
        sigma = marginal_of(random_density(qubit_layout("ABC"), rng), "AB")
    return rho, sigma


# the draws whose robustness solve ends in NumericalFailure at the default
# 1e-8 tolerances, by global layout (a FOUND line in CHANGES.md)
DMAX_FAILURES = {"ABC": (2,), "AB": ()}


class TestSingletonReductionToDmax:
    """One marginal sigma on the target of a full-rank `Singleton` rho: the
    robustness is D_max(sigma || rho) = log2 lambda_max(rho^-1/2 sigma rho^-1/2)."""

    @pytest.mark.parametrize("labels,k", [
        pytest.param(labels, k, marks=pytest.mark.xfail(
            k in DMAX_FAILURES[labels], raises=SolverFailure, strict=True,
            reason="NumericalFailure at the default tolerances"))
        for labels in ("ABC", "AB") for k in range(10)])
    def test_closed_form(self, labels, k):
        rho, sigma = dmax_draw(k)
        lay = qubit_layout(labels)
        inst = RmpInstance(MarginalFamily(lay, [(("A", "B"), sigma)]),
                           FreeSetSpec.singleton(SubsystemSet(lay, ("A", "B")), rho))
        vals, vecs = np.linalg.eigh(rho.entries)
        inv_sqrt = (vecs / np.sqrt(vals)) @ vecs.conj().T
        dmax = np.log2(np.linalg.eigvalsh(inv_sqrt @ sigma.entries @ inv_sqrt)[-1])
        res = robustness(inst)
        assert res.status == Status.OPTIMAL
        assert res.value_log2 == pytest.approx(dmax, rel=1e-7)


class TestSupportRule:
    """A rank-deficient `Singleton` rho on the target AB and one marginal
    sigma on AB: the robustness is finite iff range(sigma) lies in
    range(rho), which the instance decides with no solve."""

    def test_rank_deficient_singleton_family(self):
        # 40 draws of rho for each rank r: draws 0-19 take sigma inside
        # range(rho), draws 20-39 a full-rank sigma; no finite draw is solved
        lay = qubit_layout("AB")
        rng = np.random.default_rng(5)
        for r in (1, 2, 3):
            for k in range(40):
                rho = random_density(lay, rng, rank=r)
                top = np.linalg.eigh(rho.entries)[1][:, -r:]  # a basis of range(rho)
                if k < 20:
                    g = rng.normal(size=(r, r)) + 1j * rng.normal(size=(r, r))
                    m = top @ (g @ g.conj().T) @ top.conj().T
                    sigma = DensityMatrix.from_array(lay, m / np.trace(m).real)
                else:
                    sigma = random_density(lay, rng)
                inst = RmpInstance(MarginalFamily(lay, [(("A", "B"), sigma)]),
                                   FreeSetSpec.singleton(SubsystemSet(lay, ("A", "B")), rho))
                assert inst.finite == (k < 20), (r, k)
                if inst.finite:
                    continue
                res = robustness(inst)
                assert (res.status, res.value_log2, res.solve_result.iterations) == \
                    (Status.INFEASIBLE, np.inf, 0), (r, k)
                cert = res.solve_result.certificate
                assert cert["marginal"] == "A,B" and cert["subsystems"] == ["A", "B"]
                # T\X is empty, so v must lie in ker P_rho: orthogonal to range(rho)
                v = cert["vector"][:, 0]
                assert np.linalg.norm(v) == pytest.approx(1, abs=1e-12)
                assert np.linalg.norm(top.conj().T @ v) <= 1e-12, (r, k)
                weight = np.vdot(v, sigma.entries @ v).real
                assert weight == pytest.approx(cert["weight"], abs=1e-12)
                assert weight > DEFAULT_TOLS.psd, (r, k)


class TestSingleBlockReduction:
    """One block covering the whole system with a separable target recovers
    the plain (generalized) entanglement robustness of that state."""

    def test_qubit_qutrit_entangled(self, rng):
        lay = SubsystemLayout([("A", 2), ("B", 3)])
        v = np.zeros(6, dtype=complex)
        v[0] = v[4] = 1 / np.sqrt(2)  # (|00> + |11>)/sqrt(2) inside 2x3
        from freemarg.states import pure

        psi = pure(lay, v)
        free = FreeSetSpec.separable_ppt(SubsystemSet(lay, ("A", "B")))
        inst = RmpInstance(MarginalFamily(lay, [(("A", "B"), psi)]), free)
        res = robustness(inst)
        assert res.status == Status.OPTIMAL
        # generalized robustness of a maximally-entangled qubit pair: 2^R = 2
        assert res.optimum == pytest.approx(2.0, abs=1e-6)
        assert res.relaxation == "ppt-exact"

    def test_qubit_qutrit_product(self, rng):
        lay = SubsystemLayout([("A", 2), ("B", 3)])
        from freemarg.herm import DensityMatrix, tensor

        a = random_density(SubsystemLayout([("A", 2)]), rng)
        b = random_density(SubsystemLayout([("B", 3)]), rng)
        prod = DensityMatrix(tensor(a.op, b.op))
        free = FreeSetSpec.separable_ppt(SubsystemSet(lay, ("A", "B")))
        inst = RmpInstance(MarginalFamily(lay, [(("A", "B"), prod)]), free)
        assert robustness(inst).value_log2 == pytest.approx(0.0, abs=1e-6)
