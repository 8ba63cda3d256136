"""Equality rows by product-operator strings: the string bases, each string
stated once, the Farkas ray of a string stated with two values, and full
rank by the Gram test alone for the package's programs."""

import dataclasses

import numpy as np
import pytest

from freemarg import solver, state_rmp
from freemarg.channel_rmp import ChannelMarginalFamily, ChannelPair, ChannelRmpInstance
from freemarg.discrimination import w_example_instance, w_histogram_instance
from freemarg.freesets import FreeChannelSetSpec, FreeSetSpec
from freemarg.herm import (DensityMatrix, SubsystemSet, factor_basis, smat, string_rows, svec,
                           tensor)
from freemarg.solver import Status
from freemarg.states import marginal_of, qubit_layout, random_density

from test_channel_rmp import broadcasting_instance, channel_dmax_draw, product_instance
from test_scaling import cyclic_instance, whole_layout_instance
from test_state_rmp import (dmax_draw, incoherent_instance, monogamy_instance,
                            white_noise_instance)


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_factor_basis_is_orthonormal_with_the_scaled_identity_first(d):
    basis = factor_basis(d)
    assert np.array_equal(basis, np.swapaxes(basis.conj(), -1, -2))
    q = svec(basis)
    assert np.max(np.abs(q @ q.T - np.eye(d * d))) <= 1e-15
    assert np.max(np.abs(basis[0] - np.eye(d) / np.sqrt(d))) <= 1e-16
    assert np.max(np.abs(np.trace(basis[1:], axis1=1, axis2=2)), initial=0.0) <= 1e-15


def test_string_rows_are_tensor_products_of_factor_elements():
    q = string_rows((2, 3))
    assert np.max(np.abs(q @ q.T - np.eye(36))) <= 1e-15
    # string 9 a + b is factor element a on the qubit, b on the qutrit
    for s in (0, 5, 13, 35):
        a, b = divmod(s, 9)
        assert np.max(np.abs(smat(q[s], 6) - np.kron(factor_basis(2)[a], factor_basis(3)[b]))) \
            <= 1e-16


def compatible_state_instance(rng) -> state_rmp.RmpInstance:
    """Marginals AB and BC of rho_AB (x) rho_C with a PPT target AC."""
    layout = qubit_layout("ABC")
    glob = DensityMatrix(tensor(random_density(qubit_layout("AB"), rng).op,
                                random_density(qubit_layout("C"), rng).op))
    fam = state_rmp.MarginalFamily(layout, [(m, marginal_of(glob, m)) for m in ("AB", "BC")])
    return state_rmp.RmpInstance(fam, FreeSetSpec.separable_ppt(SubsystemSet(layout, ("A", "C"))))


def singleton_instance(labels: str) -> state_rmp.RmpInstance:
    rho, sigma = dmax_draw(0)
    lay = qubit_layout(labels)
    return state_rmp.RmpInstance(state_rmp.MarginalFamily(lay, [(("A", "B"), sigma)]),
                                 FreeSetSpec.singleton(SubsystemSet(lay, ("A", "B")), rho))


def singleton_channel_instance():
    chan, free = channel_dmax_draw(0)
    pair = ChannelPair(SubsystemSet(chan.in_layout, ("A'",)), SubsystemSet(chan.out_layout, ("A",)))
    fam = ChannelMarginalFamily(chan.in_layout, chan.out_layout, [(pair, chan)])
    return ChannelRmpInstance(fam, pair,
                              FreeChannelSetSpec.singleton_channel(pair.inp, pair.out, free.choi))


def free_output_instance():
    inst, _ = product_instance(np.random.default_rng(3))
    out = inst.target.out
    state_spec = FreeSetSpec.separable_ppt(SubsystemSet(out.sublayout(), out.members))
    return dataclasses.replace(inst, free=FreeChannelSetSpec.free_output_state(
        inst.target.inp, inst.target.out, state_spec))


# the families of the tier-1 tests and of the benchmark's workloads
FAMILIES = {
    "w": w_example_instance,
    "w_histogram": w_histogram_instance,
    "monogamy": monogamy_instance,
    "white_noise": white_noise_instance,
    "compatible_state": lambda: compatible_state_instance(np.random.default_rng(4)),
    "singleton_ab": lambda: singleton_instance("AB"),
    "singleton_abc": lambda: singleton_instance("ABC"),
    "whole_layout_singleton": lambda: whole_layout_instance("singleton"),
    "broadcasting": broadcasting_instance,
    "product_channel": lambda: product_instance(np.random.default_rng(1))[0],
    "free_output_state": free_output_instance,
    "singleton_channel": singleton_channel_instance,
    "cyclic_six_qubits": lambda: cyclic_instance(6),
    "cyclic_six_qubits_compatible": lambda: cyclic_instance(6, noise=0.7),
    # an Incoherent target over a pinned marginal: diagonal AC, coherent AB
    "incoherent_ac": lambda: incoherent_instance("AC"),
    "incoherent_ab": lambda: incoherent_instance("AB"),
}


@pytest.mark.filterwarnings("ignore:Singleton free state is not full rank:UserWarning")
@pytest.mark.parametrize("family", list(FAMILIES))
def test_package_programs_are_full_rank_without_the_dense_qr(family):
    inst = FAMILIES[family]()
    programs = [state_rmp._program(inst, pinned=True, pairs=inst.pairs)[0],
                state_rmp._program(inst, pinned=False, pairs=inst.pairs)[0],
                state_rmp._program(inst, pinned=True)[0]]
    for prog in programs:
        if prog.ray:  # a string stated with two values: infeasible, unsolved
            assert solver.solve(prog).iterations == 0
            continue
        data = prog.compile()
        m = prog.num_rows
        assert data["A"].shape[0] == m
        assert not np.any(data["b_perp"])
        u_r = data["u_r"]
        if isinstance(u_r, solver._Rows):  # the rows themselves
            assert np.array_equal(u_r.dense(), np.eye(m))
        else:  # string rows on the dense layout, in the eigenbasis of their Gram matrix
            assert any(g.basis is not None for g in prog.eq_groups)
            assert all(rows.local is None for rows in data["block_rows"])
            assert np.max(np.abs(u_r.T @ u_r - np.eye(m))) <= 1e-13


def overlapping_family(shift: float) -> state_rmp.RmpInstance:
    """Marginals AB and BC of one state, the BC marginal then moved by
    shift (Z (x) I)/2, so that the two B marginals differ by `shift` in two
    entries; a PPT target AC."""
    layout = qubit_layout("ABC")
    rho = random_density(layout, np.random.default_rng(6))
    sigma_bc = marginal_of(rho, "BC").entries + shift * np.kron(np.diag([1.0, -1.0]), np.eye(2)) / 4
    fam = state_rmp.MarginalFamily(layout, [
        (("A", "B"), marginal_of(rho, "AB")),
        (("B", "C"), DensityMatrix.from_array(layout.sublayout(("B", "C")), sigma_bc))])
    return state_rmp.RmpInstance(fam, FreeSetSpec.separable_ppt(SubsystemSet(layout, ("A", "C"))))


def test_inconsistent_overlap_is_infeasible_unsolved():
    inst = overlapping_family(2e-3)
    (_, sigma_ab), (_, sigma_bc) = inst.marginals.entries
    gap = marginal_of(sigma_ab, "B").entries - marginal_of(sigma_bc, "B").entries
    assert np.max(np.abs(gap)) == pytest.approx(1e-3, rel=1e-9)
    prog, v = state_rmp._program(inst, pinned=True, pairs=inst.pairs)
    prog.set_objective([(v, np.eye(8))], "min")
    res = solver.solve(prog)
    assert res.status == Status.INFEASIBLE and res.iterations == 0
    # the ray, in the rows as stated: A'y = 0 and b'y > 0, the difference of
    # the coefficient of Z/sqrt(2) in the two B marginals
    y = np.zeros(prog.num_rows)
    for row, weight in prog.ray.items():
        y[row] = weight
    a, b = prog.equality_rows()
    assert np.max(np.abs(a.T @ y)) <= 1e-15
    assert b @ y == pytest.approx(1e-3 * np.sqrt(2), rel=1e-9)
    # as group multipliers: -1 and +1 on the two statements of Z on B, so
    # that I (x) Z (x) I, tensored up from each, cancels
    ray = res.certificate["equality_ray"]
    z = np.diag([1.0, -1.0])
    assert np.max(np.abs(ray["marginal[A,B]"] + np.kron(np.eye(2), z) / np.sqrt(2))) <= 1e-15
    assert np.max(np.abs(ray["marginal[B,C]"] - np.kron(z, np.eye(2)) / np.sqrt(2))) <= 1e-15
    assert np.max(np.abs(ray["unit_trace"])) == 0
    assert state_rmp.check_rfree_compatible(inst).compatible is False


def test_overlap_within_the_compatibility_level_is_stated_once():
    # a difference far below DEFAULT_TOLS.compat is rounding: the first
    # statement holds, and the family solves as compatible
    inst = overlapping_family(1e-12)
    prog, _ = state_rmp._program(inst, pinned=True, pairs=inst.pairs)
    assert not prog.ray and prog.num_rows == 1 + 15 + 12 + 16
    assert state_rmp.check_rfree_compatible(inst).compatible
