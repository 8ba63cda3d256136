import re
from types import SimpleNamespace

import numpy as np
import pytest

from freemarg.channel_rmp import (
    ChannelMarginalFamily,
    ChannelPair,
    ChannelRmpInstance,
    ChannelSpec,
    NoWitnessError,
    channel_linear_max_over_set,
    channel_robustness,
    channel_success_probability,
    channel_task_advantage,
    channel_witness,
    check_channel_compatible,
    frame_decompose,
    ic_state_frame,
    marginal_channel,
    state_discrimination_task,
    tensor_channels,
)
from freemarg.config import DEFAULT_TOLS
from freemarg.discrimination import advantage, task_from_witness, w_example_instance
from freemarg.freesets import FreeChannelSetSpec, FreeSetSpec
from freemarg.herm import (HermitianOperator, LayoutError, SubsystemLayout, SubsystemSet,
                           ValidationError, partial_trace_map)
from freemarg.solver import SolverFailure, SolverSettings, Status
from freemarg.state_rmp import check_rfree_compatible, extract_witness, robustness
from freemarg.states import maximally_mixed, qubit_layout

from conftest import depolarizing, rand_herm, rand_kraus, rand_unitary, replacement_defect_map


def primed(labels):
    return SubsystemLayout([(l + "'", 2) for l in labels])


def broadcasting_instance():
    """Two identity channels out of one qubit: forbidden by no-cloning."""
    gin = primed("A")
    gout = qubit_layout("AB")
    id_a = ChannelSpec.identity(gin, gout.sublayout(("A",)))
    id_b = ChannelSpec(gin, gout.sublayout(("B",)),
                       HermitianOperator(gout.sublayout(("B",)).concat(gin),
                                         id_a.choi.entries))
    p1 = ChannelPair(SubsystemSet(gin, ("A'",)), SubsystemSet(gout, ("A",)))
    p2 = ChannelPair(SubsystemSet(gin, ("A'",)), SubsystemSet(gout, ("B",)))
    fam = ChannelMarginalFamily(gin, gout, [(p1, id_a), (p2, id_b)])
    target = ChannelPair(SubsystemSet(gin, ("A'",)), SubsystemSet(gout, ("A", "B")))
    return ChannelRmpInstance(fam, target,
                              FreeChannelSetSpec.all_channels(target.inp, target.out))


def product_instance(rng, free=None):
    """Marginals of a product channel: compatible by construction."""
    gin = primed("AB")
    gout = qubit_layout("AB")
    ca = ChannelSpec.from_unitary(rand_unitary(rng, 2), gin.sublayout(("A'",)),
                                  gout.sublayout(("A",)))
    cb = ChannelSpec.from_kraus(rand_kraus(rng, 2, 2, 2), gin.sublayout(("B'",)),
                                gout.sublayout(("B",)))
    p1 = ChannelPair(SubsystemSet(gin, ("A'",)), SubsystemSet(gout, ("A",)))
    p2 = ChannelPair(SubsystemSet(gin, ("B'",)), SubsystemSet(gout, ("B",)))
    fam = ChannelMarginalFamily(gin, gout, [(p1, ca), (p2, cb)])
    target = ChannelPair(SubsystemSet(gin, ("A'", "B'")), SubsystemSet(gout, ("A", "B")))
    if free is None:
        free = FreeChannelSetSpec.all_channels(target.inp, target.out)
    return ChannelRmpInstance(fam, target, free), (ca, cb)


class TestChannelSpec:
    def test_identity_applies(self, rng):
        chan = ChannelSpec.identity(primed("A"), qubit_layout("A"))
        m = rand_herm(rng, 2)
        assert np.max(np.abs(chan.apply(m) - m)) < 1e-12

    def test_kraus_application_matches(self, rng):
        ks = rand_kraus(rng, 2, 2, 3)
        chan = ChannelSpec.from_kraus(ks, primed("A"), qubit_layout("A"))
        m = rand_herm(rng, 2)
        direct = sum(k @ m @ k.conj().T for k in ks)
        assert np.max(np.abs(chan.apply(m) - direct)) < 1e-12

    def test_adjoint_identity(self, rng):
        chan = ChannelSpec.from_kraus(rand_kraus(rng, 2, 2, 2), primed("A"), qubit_layout("A"))
        for _ in range(5):
            e = rand_herm(rng, 2)
            r = rand_herm(rng, 2)
            lhs = np.trace(e @ chan.apply(r))
            rhs = np.trace(chan.apply_adjoint(e) @ r)
            assert lhs == pytest.approx(rhs, abs=1e-10)

    def test_non_trace_preserving_rejected(self):
        k = [np.diag([1.0, 0.5])]
        with pytest.raises(ValidationError):
            ChannelSpec.from_kraus(k, primed("A"), qubit_layout("A"))

    def test_replacement_channel(self, rng):
        state = maximally_mixed(qubit_layout("T"))
        chan = ChannelSpec.replacement(state, primed("T"))
        m = rand_herm(rng, 2)
        assert np.max(np.abs(chan.apply(m) - np.trace(m) * state.entries)) < 1e-12

    def test_depolarizing(self, rng):
        chan = depolarizing(primed("A"), qubit_layout("A"), p=1.0)
        m = rand_herm(rng, 2)
        assert np.max(np.abs(chan.apply(m) - np.trace(m) * np.eye(2) / 2)) < 1e-12


class TestMarginalChannel:
    def test_product_channel_marginal(self, rng):
        gin = primed("AB")
        gout = qubit_layout("AB")
        u = rand_unitary(rng, 2)
        ca = ChannelSpec.from_unitary(u, gin.sublayout(("A'",)), gout.sublayout(("A",)))
        cb = ChannelSpec.from_kraus(rand_kraus(rng, 2, 2, 2), gin.sublayout(("B'",)),
                                    gout.sublayout(("B",)))
        prod = tensor_channels(ca, cb)
        pair = ChannelPair(SubsystemSet(gin, ("A'",)), SubsystemSet(gout, ("A",)))
        res = marginal_channel(prod, pair)
        assert res.exists
        assert np.max(np.abs(res.channel.choi.entries - ca.choi.entries)) < 1e-12

    def test_swap_has_no_marginal(self):
        gin = primed("AB")
        gout = qubit_layout("AB")
        swap = np.zeros((4, 4))
        swap[0, 0] = swap[3, 3] = 1.0
        swap[1, 2] = swap[2, 1] = 1.0
        chan = ChannelSpec.from_unitary(swap, gin, gout)
        pair = ChannelPair(SubsystemSet(gin, ("A'",)), SubsystemSet(gout, ("A",)))
        res = marginal_channel(chan, pair)
        assert not res.exists
        assert res.deviation > 0.1

    def test_depolarizing_marginal_exists(self):
        gin = primed("AB")
        gout = qubit_layout("AB")
        chan = depolarizing(gin, gout, p=1.0)
        pair = ChannelPair(SubsystemSet(gin, ("B'",)), SubsystemSet(gout, ("B",)))
        res = marginal_channel(chan, pair)
        assert res.exists
        # marginal of a replacement channel is again a replacement channel
        m = rand_herm(np.random.default_rng(1), 2)
        assert np.max(np.abs(res.channel.apply(m) - np.trace(m) * np.eye(2) / 2)) < 1e-10

    def test_no_signaling_by_construction(self, rng):
        """Products composed with local channels always have pair marginals."""
        gin = primed("AB")
        gout = qubit_layout("AB")
        for _ in range(100):
            ca = ChannelSpec.from_kraus(rand_kraus(rng, 2, 2, int(rng.integers(1, 4))),
                                        gin.sublayout(("A'",)), gout.sublayout(("A",)))
            cb = ChannelSpec.from_kraus(rand_kraus(rng, 2, 2, int(rng.integers(1, 4))),
                                        gin.sublayout(("B'",)), gout.sublayout(("B",)))
            prod = tensor_channels(ca, cb)
            pair_a = ChannelPair(SubsystemSet(gin, ("A'",)), SubsystemSet(gout, ("A",)))
            pair_b = ChannelPair(SubsystemSet(gin, ("B'",)), SubsystemSet(gout, ("B",)))
            assert marginal_channel(prod, pair_a).exists
            assert marginal_channel(prod, pair_b).exists

    @pytest.mark.parametrize("draw", range(4))
    def test_deviation_matches_the_replacement_defect(self, draw):
        # three inputs, one a qutrit: a random channel, which signals, and a
        # product of a channel A'B' -> A and one C' -> B, which signals
        # neither from C' to A nor from A'B' to B; each pair's deviation
        # against the replacement defect of the other inputs after the
        # partial trace onto the pair's outputs and every input
        gen = np.random.default_rng(draw)
        gin = SubsystemLayout([("A'", 2), ("B'", 3), ("C'", 2)])
        gout = qubit_layout("AB")
        rand = ChannelSpec.from_kraus(rand_kraus(gen, 12, 4, 3), gin, gout)
        prod = tensor_channels(
            ChannelSpec.from_kraus(rand_kraus(gen, 6, 2, 3), gin.sublayout(("A'", "B'")),
                                   gout.sublayout(("A",))),
            ChannelSpec.from_kraus(rand_kraus(gen, 2, 2, 2), gin.sublayout(("C'",)),
                                   gout.sublayout(("B",))))
        so = gout.concat(gin)
        pairs = [(("A'",), ("A",)), (("A'", "B'"), ("A",)), (("C'",), ("B",)),
                 (("B'",), ("A", "B"))]
        exists = []
        for chan in (rand, prod):
            for inp, out in pairs:
                pair = ChannelPair(SubsystemSet(gin, inp), SubsystemSet(gout, out))
                keep = out + gin.labels
                rest = [l for l in gin.labels if l not in inp]
                defect = replacement_defect_map(so.sublayout(keep), rest)
                ref = np.max(np.abs((defect @ partial_trace_map(so, keep)).apply(
                    chan.choi.entries)))
                res = marginal_channel(chan, pair)
                assert abs(res.deviation - ref) <= 1e-15
                assert res.exists == (ref <= DEFAULT_TOLS.psd)
                exists.append(res.exists)
        assert exists == [False] * 4 + [False, True, True, False]


class TestChannelRobustness:
    def test_compatible_by_construction_is_zero(self, rng):
        inst, _ = product_instance(rng)
        res = channel_robustness(inst)
        assert res.status == Status.OPTIMAL
        assert res.value_log2 == pytest.approx(0.0, abs=1e-6)

    def test_broadcasting_strictly_positive(self):
        res = channel_robustness(broadcasting_instance())
        assert res.status == Status.OPTIMAL
        assert res.value_log2 > 1e-3
        assert res.optimum == pytest.approx(4.0 / 3.0, abs=1e-6)
        # dual certificate confirms, with the strong-duality gap closed
        sr = res.solve_result
        assert abs(sr.primal_value - sr.dual_value) <= 1e-7 * (1 + abs(sr.primal_value))

    def test_singleton_identity_reduction(self):
        """Single pair covering the whole space with a singleton free set at
        the same channel: compatible, so the measure vanishes."""
        gin = primed("A")
        gout = qubit_layout("A")
        ident = ChannelSpec.identity(gin, gout)
        pair = ChannelPair(SubsystemSet(gin, ("A'",)), SubsystemSet(gout, ("A",)))
        fam = ChannelMarginalFamily(gin, gout, [(pair, ident)])
        with pytest.warns(UserWarning, match="not full rank"):  # the identity's Choi is pure
            free = FreeChannelSetSpec.singleton_channel(pair.inp, pair.out, ident.choi)
        with pytest.warns(UserWarning, match="no full-rank member"):
            res = channel_robustness(ChannelRmpInstance(fam, pair, free))
        assert res.value_log2 == pytest.approx(0.0, abs=1e-6)

    def test_free_set_on_another_pair_is_refused(self):
        # it would otherwise be ignored: the program pins the target pair
        inst = broadcasting_instance()
        other = inst.family.entries[0][0]  # A'->A, the target being A'->A,B
        with pytest.raises(LayoutError, match="target pair"):
            ChannelRmpInstance(inst.family, inst.target,
                               FreeChannelSetSpec.all_channels(other.inp, other.out))

    def test_free_output_state_constraint(self, rng):
        """With the free set forcing a replacement channel on the target, a
        unitary family is incompatible."""
        gin = primed("A")
        gout = qubit_layout("A")
        ident = ChannelSpec.identity(gin, gout)
        pair = ChannelPair(SubsystemSet(gin, ("A'",)), SubsystemSet(gout, ("A",)))
        fam = ChannelMarginalFamily(gin, gout, [(pair, ident)])
        state_spec = FreeSetSpec.all_states(SubsystemSet(gout, ("A",)))
        free = FreeChannelSetSpec.free_output_state(pair.inp, pair.out, state_spec)
        res = channel_robustness(ChannelRmpInstance(fam, pair, free))
        assert res.value_log2 > 0.5  # identity is far from any replacement map


def channel_dmax_draw(k: int) -> tuple[ChannelSpec, ChannelSpec]:
    """Draw k of the channel D_max family: for each k in turn, a qubit
    channel of two Kraus operators and a free one of four, whose Choi state
    is full rank, both from default_rng(5)."""
    rng = np.random.default_rng(5)
    for _ in range(k + 1):
        chan, free = (ChannelSpec.from_kraus(rand_kraus(rng, 2, 2, n), primed("A"),
                                             qubit_layout("A")) for n in (2, 4))
    return chan, free


class TestSingletonChannelReductionToDmax:
    """One pair, the target, and a `SingletonChannel` at a full-rank Choi J_F,
    pinned as the state `Singleton` on out (x) in: the robustness of the
    pair's Choi J is max(0, log2 lambda_max(J_F^-1/2 J J_F^-1/2))."""

    @pytest.mark.parametrize("k", range(10))
    def test_closed_form(self, k):
        chan, free = channel_dmax_draw(k)
        pair = ChannelPair(SubsystemSet(chan.in_layout, ("A'",)),
                           SubsystemSet(chan.out_layout, ("A",)))
        fam = ChannelMarginalFamily(chan.in_layout, chan.out_layout, [(pair, chan)])
        inst = ChannelRmpInstance(
            fam, pair, FreeChannelSetSpec.singleton_channel(pair.inp, pair.out, free.choi))
        vals, vecs = np.linalg.eigh(free.choi.entries)
        inv_sqrt = (vecs / np.sqrt(vals)) @ vecs.conj().T
        dmax = max(0.0, np.log2(np.linalg.eigvalsh(inv_sqrt @ chan.choi.entries @ inv_sqrt)[-1]))
        res = channel_robustness(inst)
        assert res.status == Status.OPTIMAL
        assert res.value_log2 == pytest.approx(dmax, rel=10 * SolverSettings().gap_tol)


class TestCompatibilityCheck:
    def test_product_compatible(self, rng):
        inst, (ca, cb) = product_instance(rng)
        res = check_channel_compatible(inst)
        assert res.compatible
        assert res.residual < 1e-6
        # the witness channel is a valid global channel with those marginals
        for pair, spec in inst.family.entries:
            got = marginal_channel(res.witness_state, pair)
            assert got.exists
            assert np.max(np.abs(got.channel.choi.entries - spec.choi.entries)) < 1e-5

    def test_broadcasting_incompatible(self):
        res = check_channel_compatible(broadcasting_instance())
        assert not res.compatible
        assert res.certificate is not None

    def test_matches_plain_feasibility_program(self, rng):
        """Independent route: raw feasibility program built from scratch."""
        from freemarg.herm import partial_trace_map
        from freemarg.solver import ConicProgram, solve

        for make, expected in ((product_instance, True), (None, False)):
            if make is None:
                inst = broadcasting_instance()
            else:
                inst, _ = make(rng)
            so = inst.layout
            gin = inst.family.global_in
            prog = ConicProgram()
            v = prog.add_variable("V", so.total_dim)
            prog.add_matrix_equality(
                "choi", [(v, partial_trace_map(so, gin.labels))],
                np.eye(gin.total_dim) / gin.total_dim)
            for pair, spec in inst.family.entries:
                keep = list(pair.out.members) + list(pair.inp.members)
                prog.add_matrix_equality(f"m[{pair.label()}]",
                                         [(v, partial_trace_map(so, keep))], spec.choi.entries)
            prog.set_objective([(v, np.eye(so.total_dim))], "min")
            direct = solve(prog).status == Status.OPTIMAL
            assert direct == expected
            assert check_channel_compatible(inst).compatible == expected


class TestFrames:
    def test_frame_is_informationally_complete(self):
        for d in (2, 3, 4):
            frame = ic_state_frame(d)
            assert len(frame) == d * d
            flat = np.stack([f.reshape(-1) for f in frame])
            assert np.linalg.matrix_rank(flat) == d * d

    def test_frame_decompose_round_trip(self, rng):
        e = rand_herm(rng, 4)
        w, xis, rhos = frame_decompose(e, 2, 2)
        rebuilt = sum(w[i, j] * np.kron(xi, rho.T)
                      for i, xi in enumerate(xis) for j, rho in enumerate(rhos))
        assert np.max(np.abs(rebuilt - e)) < 1e-9


class TestChannelWitness:
    def test_broadcasting_witness(self):
        inst = broadcasting_instance()
        w = channel_witness(inst)
        assert w.gap >= 1e-4
        assert w.free_sup <= 1 + 1e-6
        assert w.n_terms <= max(p.out.dim for p, _ in inst.family.entries) ** 2 + 3
        # folded form reproduces the Choi pairing per pair
        specs = dict((pair.label(), spec) for pair, spec in inst.family.entries)
        total = 0.0
        for label, terms in w.entries.items():
            spec = specs[label]
            total += sum(float(np.trace(wj @ spec.apply(rho)).real) for wj, rho in terms)
        assert total == pytest.approx(w.value_at_family, abs=1e-8)

    def test_compatible_instance_raises(self, rng):
        inst, _ = product_instance(rng)
        with pytest.raises(NoWitnessError):
            channel_witness(inst)


class TestStateDiscriminationTask:
    def test_task_has_strict_gap(self):
        inst = broadcasting_instance()
        w = channel_witness(inst)
        task = state_discrimination_task(w, inst)
        assert task.strictly_positive
        assert channel_task_advantage(task, inst) > 0

    def test_epsilon_zero_rejected(self):
        inst = broadcasting_instance()
        w = channel_witness(inst)
        with pytest.raises(ValueError):
            state_discrimination_task(w, inst, epsilon=0.0)

    def test_povm_completeness(self):
        inst = broadcasting_instance()
        w = channel_witness(inst)
        task = state_discrimination_task(w, inst, epsilon=0.2)
        for label, povm in task.povms.items():
            assert np.max(np.abs(sum(povm) - np.eye(povm[0].shape[0]))) < 1e-9

    def test_probability_bounds(self):
        inst = broadcasting_instance()
        w = channel_witness(inst)
        task = state_discrimination_task(w, inst, epsilon=0.1)
        p = channel_success_probability(task, inst.family)
        assert 0.0 <= p <= 1.0


class TestChannelSuccessProbability:
    def test_perfect_task(self):
        gin = primed("A")
        gout = qubit_layout("A")
        ident = ChannelSpec.identity(gin, gout)
        pair = ChannelPair(SubsystemSet(gin, ("A'",)), SubsystemSet(gout, ("A",)))
        fam = ChannelMarginalFamily(gin, gout, [(pair, ident)])
        from freemarg.channel_rmp import ChannelDiscriminationTask

        task = ChannelDiscriminationTask(
            pair_priors={pair.label(): 1.0},
            outcome_priors={pair.label(): np.array([0.5, 0.5])},
            states={pair.label(): [np.diag([1.0, 0.0]), np.diag([0.0, 1.0])]},
            povms={pair.label(): [np.diag([1.0, 0.0]), np.diag([0.0, 1.0])]},
            epsilon=0.0)
        assert channel_success_probability(task, fam) == pytest.approx(1.0, abs=1e-12)

    def test_depolarizing_output_is_input_independent(self, rng):
        gin = primed("A")
        gout = qubit_layout("A")
        dep = depolarizing(gin, gout, p=1.0)
        pair = ChannelPair(SubsystemSet(gin, ("A'",)), SubsystemSet(gout, ("A",)))
        fam = ChannelMarginalFamily(gin, gout, [(pair, dep)])
        from freemarg.channel_rmp import ChannelDiscriminationTask

        povm = [np.diag([0.7, 0.2]), np.diag([0.3, 0.8])]
        states = [np.diag([1.0, 0.0]), np.diag([0.0, 1.0])]
        task = ChannelDiscriminationTask({pair.label(): 1.0},
                                         {pair.label(): np.array([0.4, 0.6])},
                                         {pair.label(): states},
                                         {pair.label(): povm}, 0.0)
        got = channel_success_probability(task, fam)
        expect = 0.4 * np.trace(povm[0]).real / 2 + 0.6 * np.trace(povm[1]).real / 2
        assert got == pytest.approx(expect, abs=1e-12)

    def test_affinity_in_the_channel_family(self, rng):
        gin = primed("A")
        gout = qubit_layout("A")
        pair = ChannelPair(SubsystemSet(gin, ("A'",)), SubsystemSet(gout, ("A",)))
        c1 = ChannelSpec.from_kraus(rand_kraus(rng, 2, 2, 2), gin, gout)
        c2 = ChannelSpec.from_kraus(rand_kraus(rng, 2, 2, 2), gin, gout)
        from freemarg.channel_rmp import ChannelDiscriminationTask

        task = ChannelDiscriminationTask({pair.label(): 1.0},
                                         {pair.label(): np.array([0.5, 0.5])},
                                         {pair.label(): [np.diag([1.0, 0.0]), np.diag([0.0, 1.0])]},
                                         {pair.label(): [np.diag([0.6, 0.1]), np.diag([0.4, 0.9])]},
                                         0.0)
        vals = []
        for p in (0.0, 0.35, 1.0):
            choi = p * c1.choi.entries + (1 - p) * c2.choi.entries
            fam = ChannelMarginalFamily(gin, gout, [
                (pair, ChannelSpec(gin, gout, HermitianOperator(gout.concat(gin), choi)))])
            vals.append(channel_success_probability(task, fam))
        assert vals[1] == pytest.approx(0.35 * vals[2] + 0.65 * vals[0], abs=1e-12)


class TestLinearMaxOverSet:
    def test_identity_observables(self, rng):
        inst, _ = product_instance(rng)
        obs = {pair.label(): np.eye(pair.out.dim * pair.inp.dim)
               for pair, _ in inst.family.entries}
        val = channel_linear_max_over_set(obs, inst)
        # each pair Choi has unit trace
        assert val == pytest.approx(len(obs), abs=1e-6)

    def test_a_pair_is_a_key_as_its_label_is(self, rng):
        # one key rule for both instance kinds: a pair names its label
        inst = broadcasting_instance()
        pair = inst.family.entries[0][0]
        obs = rand_herm(rng, 4)
        by_pair = inst.model.maximize([(pair, obs)])
        by_label = inst.model.maximize([(pair.label(), obs)])
        assert by_pair.primal_value == by_label.primal_value
        assert inst.extract(inst.target) is inst.extract(inst.target.label())
        # the trace, key "", is an objective key of both kinds too
        assert inst.extract(()) is inst.extract("")
        with pytest.raises(LayoutError, match=re.escape(str(["A'->A", "A'->B", "A'->A,B", ""]))):
            inst.extract("A'->C")


class TestFreeOutputStateWrappedSpec:
    def test_incoherent_replacement_target(self, rng):
        """Free channels = replacement maps with an incoherent output: a
        coherence-creating preparation channel is incompatible and the
        witness machinery still works."""
        gin = primed("A")
        gout = qubit_layout("A")
        plus = np.array([[0.5, 0.5], [0.5, 0.5]], dtype=complex)
        from freemarg.herm import DensityMatrix

        prep = ChannelSpec.replacement(DensityMatrix.from_array(gout, plus), gin)
        pair = ChannelPair(SubsystemSet(gin, ("A'",)), SubsystemSet(gout, ("A",)))
        fam = ChannelMarginalFamily(gin, gout, [(pair, prep)])
        state_spec = FreeSetSpec.incoherent(SubsystemSet(gout, ("A",)))
        free = FreeChannelSetSpec.free_output_state(pair.inp, pair.out, state_spec)
        inst = ChannelRmpInstance(fam, pair, free)
        res = channel_robustness(inst)
        assert res.status == Status.OPTIMAL
        assert res.value_log2 > 0.1
        w = channel_witness(inst, res)
        assert w.gap > 1e-4

    def test_incoherent_replacement_accepts_free_member(self):
        gin = primed("A")
        gout = qubit_layout("A")
        from freemarg.herm import DensityMatrix

        diag = DensityMatrix.from_array(gout, np.diag([0.3, 0.7]))
        prep = ChannelSpec.replacement(diag, gin)
        pair = ChannelPair(SubsystemSet(gin, ("A'",)), SubsystemSet(gout, ("A",)))
        fam = ChannelMarginalFamily(gin, gout, [(pair, prep)])
        state_spec = FreeSetSpec.incoherent(SubsystemSet(gout, ("A",)))
        free = FreeChannelSetSpec.free_output_state(pair.inp, pair.out, state_spec)
        res = channel_robustness(ChannelRmpInstance(fam, pair, free))
        assert res.value_log2 == pytest.approx(0.0, abs=1e-6)


class TestMultiFactorMarginal:
    def test_two_to_one_pair(self, rng):
        """Marginal of a product channel onto a pair with a two-factor input."""
        gin = primed("AB")
        gout = qubit_layout("AB")
        ca = ChannelSpec.from_kraus(rand_kraus(rng, 2, 2, 2), gin.sublayout(("A'",)),
                                    gout.sublayout(("A",)))
        cb = ChannelSpec.from_kraus(rand_kraus(rng, 2, 2, 2), gin.sublayout(("B'",)),
                                    gout.sublayout(("B",)))
        prod = tensor_channels(ca, cb)
        pair = ChannelPair(SubsystemSet(gin, ("A'", "B'")), SubsystemSet(gout, ("A",)))
        res = marginal_channel(prod, pair)
        assert res.exists
        # oracle: E_A composed with tracing the B' input
        m = rand_herm(rng, 4)
        direct = ca.apply(np.trace(m.reshape(2, 2, 2, 2), axis1=1, axis2=3))
        assert np.max(np.abs(res.channel.apply(m) - direct)) < 1e-10


@pytest.fixture(scope="module")
def solved():
    """Per instance kind: the instance, its robustness and witness, and a
    fixed-epsilon task, all solved with the default settings."""
    w = w_example_instance()
    w_res = robustness(w)
    w_wit = extract_witness(w, w_res)
    us = {tuple(sub.members): [np.eye(4, dtype=complex)] * 4 for sub, _ in w_wit.blocks}
    b = broadcasting_instance()
    b_res = channel_robustness(b)
    b_wit = channel_witness(b, b_res)
    return {
        "state": SimpleNamespace(inst=w, res=w_res, wit=w_wit, us=us,
                                 task=task_from_witness(w_wit, us, epsilon=0.1)),
        "channel": SimpleNamespace(inst=b, res=b_res, wit=b_wit,
                                   task=state_discrimination_task(b_wit, b, epsilon=0.1)),
    }


# every solve of the shared marginal-problem core, per instance kind
SETTINGS_PATHS = {
    ("state", "compat"): lambda c, s: check_rfree_compatible(c.inst, settings=s),
    ("state", "robustness"): lambda c, s: robustness(c.inst, s),
    ("state", "witness_sup"): lambda c, s: extract_witness(c.inst, c.res, settings=s),
    ("state", "epsilon"): lambda c, s: task_from_witness(c.wit, c.us, c.inst, settings=s),
    ("state", "advantage"): lambda c, s: advantage(c.task, c.inst.marginals, c.inst, s),
    ("channel", "compat"): lambda c, s: check_channel_compatible(c.inst, settings=s),
    ("channel", "robustness"): lambda c, s: channel_robustness(c.inst, s),
    ("channel", "witness_sup"): lambda c, s: channel_witness(c.inst, c.res, settings=s),
    ("channel", "epsilon"): lambda c, s: state_discrimination_task(c.wit, c.inst, settings=s),
    ("channel", "advantage"): lambda c, s: channel_task_advantage(c.task, c.inst, s),
}


@pytest.mark.parametrize("kind,path", list(SETTINGS_PATHS))
def test_settings_reach_every_solve(solved, kind, path):
    with pytest.raises(SolverFailure):
        SETTINGS_PATHS[kind, path](solved[kind], SolverSettings(max_iters=1))
