import dataclasses

import numpy as np
import pytest

from freemarg.freesets import FreeChannelSetSpec, FreeSetSpec
from freemarg.herm import DensityMatrix, SubsystemLayout, SubsystemSet, partial_trace_map
from freemarg.programs import StringRows, attach_free_state_cone
from freemarg.solver import ConicProgram
from freemarg.states import ket, maximally_mixed, pure, qubit_layout, w_marginal

from conftest import rand_unitary


def two_qubit_sep(layout=None):
    layout = layout or qubit_layout("AC")
    return FreeSetSpec.separable_ppt(SubsystemSet(layout, layout.labels))


def attached(spec: FreeSetSpec) -> tuple[list[str], list[str]]:
    """The named equality rows and PSD groups that `attach_free_state_cone`
    adds for a variable on the target itself."""
    prog = ConicProgram()
    sub = spec.target.sublayout()
    rows = StringRows(prog, prog.add_variable("X", spec.target.dim), sub.dims)
    attach_free_state_cone(rows, partial_trace_map(sub, spec.target.members), spec)
    return [g.name for g in prog.eq_groups], [g.name for g in prog.psd_groups]


class TestEmit:
    def test_all_states(self):
        spec = FreeSetSpec.all_states(SubsystemSet(qubit_layout("T"), ("T",)))
        assert attached(spec) == ([], [])

    def test_separable_ppt_two_qubits(self):
        assert attached(two_qubit_sep()) == (["free.ppt[C].def"], ["free.ppt[C]"])

    def test_separable_default_covers_all_bipartitions(self):
        lay = qubit_layout("ABC")
        spec = FreeSetSpec.separable_ppt(SubsystemSet(lay, ("A", "B", "C")))
        assert attached(spec)[1] == ["free.ppt[B]", "free.ppt[C]", "free.ppt[B,C]"]

    def test_singleton(self):
        lay = qubit_layout("T")
        spec = FreeSetSpec.singleton(SubsystemSet(lay, ("T",)), maximally_mixed(lay))
        assert attached(spec) == (["free.pin"], [])

    def test_incoherent(self):
        spec = FreeSetSpec.incoherent(SubsystemSet(qubit_layout("T"), ("T",)))
        assert attached(spec) == (["free.diag"], [])


class TestMembership:
    def test_max_entangled_rejected(self):
        lay = qubit_layout("AC")
        phi = pure(lay, ket(lay, "00") + ket(lay, "11"))
        assert not two_qubit_sep(lay).check_membership(phi)

    def test_maximally_mixed_accepted(self):
        lay = qubit_layout("AC")
        assert two_qubit_sep(lay).check_membership(maximally_mixed(lay))

    def test_w_marginal_rejected(self):
        lay = qubit_layout("AC")
        assert not two_qubit_sep(lay).check_membership(w_marginal(lay))

    def test_incoherent_membership(self):
        lay = qubit_layout("T")
        spec = FreeSetSpec.incoherent(SubsystemSet(lay, ("T",)))
        assert spec.check_membership(DensityMatrix.from_array(lay, np.diag([0.3, 0.7])))
        plus = pure(lay, np.array([1.0, 1.0]))
        assert not spec.check_membership(plus)

    def test_singleton_membership(self):
        lay = qubit_layout("T")
        spec = FreeSetSpec.singleton(SubsystemSet(lay, ("T",)), maximally_mixed(lay))
        assert spec.check_membership(maximally_mixed(lay))
        assert not spec.check_membership(DensityMatrix.from_array(lay, np.diag([0.6, 0.4])))


class TestSeparabilityOracle:
    """2x2 PPT agrees with a brute-force separability oracle."""

    def test_random_separable_accepted(self, rng):
        lay = qubit_layout("AC")
        spec = two_qubit_sep(lay)
        for _ in range(100):
            k = rng.integers(1, 6)
            weights = rng.dirichlet(np.ones(k))
            m = np.zeros((4, 4), dtype=complex)
            for w in weights:
                a = rand_unitary(rng, 2)[:, 0]
                b = rand_unitary(rng, 2)[:, 0]
                v = np.kron(a, b)
                m += w * np.outer(v, v.conj())
            assert spec.check_membership(DensityMatrix.from_array(lay, m))

    def test_random_pure_entangled_rejected(self, rng):
        lay = qubit_layout("AC")
        spec = two_qubit_sep(lay)
        rejected = 0
        trials = 0
        while trials < 1000:
            v = rng.normal(size=4) + 1j * rng.normal(size=4)
            v /= np.linalg.norm(v)
            # independent oracle: Schmidt rank via singular values
            svals = np.linalg.svd(v.reshape(2, 2), compute_uv=False)
            if svals[1] < 1e-3:
                continue  # essentially a product state; skip
            trials += 1
            state = DensityMatrix.from_array(lay, np.outer(v, v.conj()))
            if not spec.check_membership(state):
                rejected += 1
        assert rejected == trials


class TestConeProperties:
    def test_convexity_of_membership(self, rng):
        lay = qubit_layout("AC")
        spec = two_qubit_sep(lay)
        members = []
        while len(members) < 20:
            g = rng.normal(size=(4, 6)) + 1j * rng.normal(size=(4, 6))
            m = g @ g.conj().T
            m /= np.trace(m).real
            state = DensityMatrix.from_array(lay, m)
            if spec.check_membership(state):
                members.append(state)
        for _ in range(20):
            i, j = rng.integers(0, len(members), size=2)
            p = rng.uniform()
            mix = p * members[i].entries + (1 - p) * members[j].entries
            assert spec.check_membership(DensityMatrix.from_array(lay, mix))

    def test_scale_invariance_of_cone(self, rng):
        lay = qubit_layout("AC")
        spec = two_qubit_sep(lay)
        m = maximally_mixed(lay).entries
        for alpha in (0.0, 0.5, 3.7, 120.0):
            assert spec.check_cone_membership(alpha * m, 1e-9)


class TestValidationAndJson:
    def test_pure_singleton_warns(self):
        lay = qubit_layout("T")
        state = pure(lay, np.array([1.0, 0.0]))
        with pytest.warns(UserWarning, match="full rank"):
            FreeSetSpec.singleton(SubsystemSet(lay, ("T",)), state)

    def test_full_rank_probe(self):
        lay = qubit_layout("AC")
        assert two_qubit_sep(lay).contains_full_rank_member()
        spec = FreeSetSpec.singleton(SubsystemSet(lay, tuple(lay.labels)), maximally_mixed(lay))
        assert spec.contains_full_rank_member()

    def test_relaxation_tag(self):
        assert two_qubit_sep().relaxation == "ppt-exact"
        lay = SubsystemLayout([("A", 3), ("B", 3)])
        spec = FreeSetSpec.separable_ppt(SubsystemSet(lay, ("A", "B")))
        assert spec.relaxation == "ppt-outer"

    def test_json_round_trip(self, rng):
        # every kind comes back equal, with the same hash, and differs from
        # the other kinds; a basis and a state are compared by value
        lay = qubit_layout("ABC")
        target = SubsystemSet(lay, ("A", "C"))
        specs = [FreeSetSpec.all_states(target),
                 FreeSetSpec.separable_ppt(target),
                 FreeSetSpec.incoherent(target),
                 FreeSetSpec.incoherent(target, basis=np.kron(rand_unitary(rng, 2),
                                                              rand_unitary(rng, 2))),
                 FreeSetSpec.singleton(target, maximally_mixed(target.sublayout()))]
        for spec in specs:
            data = spec.to_json()
            back = FreeSetSpec.from_json(data, lay)
            assert data["kind"] == spec.kind
            assert back == spec and hash(back) == hash(spec)
            assert back.basis is None or not back.basis.flags.writeable
        assert len(set(specs)) == len(specs)
        assert specs[3] != FreeSetSpec.incoherent(target, basis=np.eye(4))

    def test_operators_compare_by_value(self):
        lay = qubit_layout("AC")
        rho = maximally_mixed(lay)
        same = DensityMatrix.from_array(lay, np.eye(4) / 4)
        assert rho == same and hash(rho) == hash(same) and rho.op == same.op
        assert rho != DensityMatrix.from_array(qubit_layout("AB"), np.eye(4) / 4)
        assert rho != DensityMatrix.from_array(lay, np.diag([0.4, 0.2, 0.2, 0.2]))

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            FreeSetSpec("Bogus", SubsystemSet(qubit_layout("T"), ("T",)))

    @pytest.mark.parametrize("parts", [[()], [("A", "B", "C")], [("B",), ("B",)],
                                       [("A", "B"), ("B", "A")], [("A",), ("B", "C")],
                                       [("B", "B")]])
    def test_bipartitions_must_be_proper_and_distinct(self, parts):
        # an empty side, the whole target, the same side twice, a side and
        # its complement, a factor named twice
        with pytest.raises(ValueError, match="bipartition"):
            FreeSetSpec.separable_ppt(SubsystemSet(qubit_layout("ABC"), ("A", "B", "C")), parts)


class TestFreeChannelSpecs:
    def test_replacement_probe(self):
        gin = SubsystemLayout([("T'", 2)])
        gout = qubit_layout("T")
        inp = SubsystemSet(gin, ("T'",))
        out = SubsystemSet(gout, ("T",))
        assert FreeChannelSetSpec.all_channels(inp, out).contains_full_rank_member()
        wrapped = FreeSetSpec.all_states(out)
        assert FreeChannelSetSpec.free_output_state(inp, out, wrapped).contains_full_rank_member()

    def test_each_kind_is_the_state_set_it_reduces_to(self):
        gin = SubsystemLayout([("T'", 2)])
        gout = qubit_layout("T")
        inp, out = SubsystemSet(gin, ("T'",)), SubsystemSet(gout, ("T",))
        pair = SubsystemSet(gout.concat(gin), ("T", "T'"))  # the Choi layout out (x) in
        assert FreeChannelSetSpec.all_channels(inp, out).state_spec == FreeSetSpec.all_states(pair)
        depolarizing = maximally_mixed(gout.concat(gin))
        spec = FreeChannelSetSpec.singleton_channel(inp, out, depolarizing.op)
        assert spec.state_spec == FreeSetSpec.singleton(pair, depolarizing)
        assert spec.contains_full_rank_member() and spec.relaxation is None
        two_out = SubsystemSet(qubit_layout("TU"), ("T", "U"))
        wrapped = FreeSetSpec.separable_ppt(two_out)
        assert FreeChannelSetSpec.free_output_state(inp, two_out, wrapped).relaxation == "ppt-exact"
        # a kind other than FreeOutputState reduces to its own state set
        with pytest.raises(ValueError, match="only FreeOutputState"):
            FreeChannelSetSpec("AllChannels", inp, out, state_spec=FreeSetSpec.all_states(out))
        with pytest.raises(ValueError, match="needs a wrapped"):
            FreeChannelSetSpec("FreeOutputState", inp, out)

    def test_replace_round_trips_each_kind(self):
        # `dataclasses.replace` passes the filled state set back to the constructor
        gin = SubsystemLayout([("T'", 2)])
        gout = qubit_layout("T")
        inp, out = SubsystemSet(gin, ("T'",)), SubsystemSet(gout, ("T",))
        for spec in (FreeChannelSetSpec.all_channels(inp, out),
                     FreeChannelSetSpec.free_output_state(inp, out, FreeSetSpec.all_states(out)),
                     FreeChannelSetSpec.singleton_channel(
                         inp, out, maximally_mixed(gout.concat(gin)).op)):
            assert dataclasses.replace(spec) == spec

    def test_singleton_rank_warning_points_at_the_caller(self):
        # not into the dataclass-generated __init__, which prints as <string>
        from freemarg.channel_rmp import ChannelSpec

        lay = qubit_layout("T")
        with pytest.warns(UserWarning, match="not full rank") as record:
            FreeSetSpec.singleton(SubsystemSet(lay, ("T",)), pure(lay, np.array([1.0, 0.0])))
        gin = SubsystemLayout([("T'", 2)])
        with pytest.warns(UserWarning, match="not full rank") as record_channel:
            FreeChannelSetSpec.singleton_channel(SubsystemSet(gin, ("T'",)),
                                                 SubsystemSet(lay, ("T",)),
                                                 ChannelSpec.identity(gin, lay).choi)
        assert [w.filename for w in list(record) + list(record_channel)] == [__file__] * 2

    def test_singleton_channel_probe(self):
        from freemarg.channel_rmp import ChannelSpec

        gin = SubsystemLayout([("T'", 2)])
        gout = qubit_layout("T")
        ident = ChannelSpec.identity(gin, gout)
        with pytest.warns(UserWarning, match="not full rank"):
            spec = FreeChannelSetSpec.singleton_channel(
                SubsystemSet(gin, ("T'",)), SubsystemSet(gout, ("T",)), ident.choi)
        assert not spec.contains_full_rank_member()


class TestIncoherentRotatedBasis:
    def test_membership_in_rotated_basis(self, rng):
        lay = qubit_layout("T")
        u = rand_unitary(rng, 2)
        spec = FreeSetSpec.incoherent(SubsystemSet(lay, ("T",)), basis=u)
        diag_in_u = DensityMatrix.from_array(lay, u @ np.diag([0.2, 0.8]) @ u.conj().T)
        assert spec.check_membership(diag_in_u)
        # a state diagonal in the computational basis generally is not
        comp_diag = DensityMatrix.from_array(lay, np.diag([0.2, 0.8]))
        rotated = u.conj().T @ comp_diag.entries @ u
        off = rotated - np.diag(np.diag(rotated))
        if np.max(np.abs(off)) > 1e-6:
            assert not spec.check_membership(comp_diag)

    def test_basis_as_list(self, rng):
        # the basis is stored as an array, so a nested list gives the same
        # memberships and the same robustness
        from freemarg.discrimination import w_example_instance
        from freemarg.state_rmp import RmpInstance, robustness

        w = w_example_instance()
        u = np.kron(rand_unitary(rng, 2), rand_unitary(rng, 2))
        as_array = FreeSetSpec.incoherent(w.target, basis=u)
        as_list = FreeSetSpec.incoherent(w.target, basis=u.tolist())
        states = [maximally_mixed(w.target.sublayout()),
                  DensityMatrix.from_array(w.target.sublayout(), u @ np.diag([.1, .2, .3, .4])
                                           @ u.conj().T),
                  DensityMatrix.from_array(w.target.sublayout(), np.diag([.1, .2, .3, .4]))]
        assert [as_list.check_membership(s) for s in states] == \
            [as_array.check_membership(s) for s in states] == [True, True, False]
        by_list = robustness(RmpInstance(w.marginals, as_list))
        by_array = robustness(RmpInstance(w.marginals, as_array))
        assert by_list.status == by_array.status
        assert by_list.value_log2 == by_array.value_log2
