"""Solves of four- to seven-qubit programs, and the build of an eight-qubit
one.  Their V blocks are large, so they take the solver's local path
without any forcing, and their rows and maps stay nonzeros.  A row group
on V that is not one partial trace followed by a map, such as the bare
partial transpose of a PPT target on the whole layout, takes the local
form that keeps every factor; a slack's term, minus the identity, is the
partial trace onto its one factor.  Forced onto the dense path, each
program finds the same optimum."""

import dataclasses
import math
import sys
import tracemalloc

import numpy as np
import pytest

from freemarg import solver, state_rmp
from freemarg.freesets import FreeSetSpec
from freemarg.herm import DensityMatrix, SubsystemSet, partial_trace, permute_factors, tensor
from freemarg.states import marginal_of, max_entangled, qubit_layout, random_density

# cyclic 3-body marginals of n qubits
MARGINALS = {6: ("ABC", "BCD", "CDE", "DEF", "AEF", "ABF"),
             7: ("ABC", "BCD", "CDE", "DEF", "EFG", "AFG", "ABG"),
             8: ("ABC", "BCD", "CDE", "DEF", "EFG", "FGH", "AGH", "ABH")}


def cyclic_instance(n: int, seed: int = 0, noise: float = 0.3) -> state_rmp.RmpInstance:
    """The marginals MARGINALS[n] of (1 - p) (Phi+_AC (x) rho_rest) + p I/2^n,
    p = `noise`, with rho_rest a seeded rank-2 state, and a PPT target AC.
    The optimum depends only on the Phi+ part: 1.55 at six qubits and the
    default noise.  At noise 0.7 the AC marginal is PPT, and the family
    compatible."""
    labels = "ABCDEFGH"[:n]
    layout = qubit_layout(labels)
    rest = qubit_layout("".join(lbl for lbl in labels if lbl not in "AC"))
    rho = random_density(rest, np.random.default_rng(seed), rank=2)
    glob = permute_factors(tensor(max_entangled(qubit_layout("AC")).op, rho.op),
                           list(layout.labels)).entries
    glob = DensityMatrix.from_array(layout, (1 - noise) * glob + noise * np.eye(2 ** n) / 2 ** n)
    fam = state_rmp.MarginalFamily(layout, [
        (tuple(m), DensityMatrix(partial_trace(glob.op, SubsystemSet(layout, tuple(m)))))
        for m in MARGINALS[n]])
    return state_rmp.RmpInstance(fam, FreeSetSpec.separable_ppt(SubsystemSet(layout, ("A", "C"))))


@pytest.fixture
def densified(monkeypatch):
    """The shapes of the rows the solver makes dense, as it makes them (not
    the small outer maps that a composition makes dense)."""
    shapes = []
    real = solver._Rows.dense

    def dense(self):
        if sys._getframe(1).f_globals["__name__"] == solver.__name__:
            shapes.append(self.shape)
        return real(self)

    monkeypatch.setattr(solver._Rows, "dense", dense)
    return shapes


def robustness_program(inst):
    return state_rmp._program(inst, pinned=False, pairs=inst.pairs)[0]


def test_six_qubit_robustness_then_witness(densified, monkeypatch):
    inst = cyclic_instance(6)
    data = robustness_program(inst).compile()
    rows = data["A"]
    assert isinstance(rows, solver._Rows) and rows.shape == (400, 4496)
    assert data["block_rows"][0].local is not None
    res = state_rmp.robustness(inst)
    assert res.status.value == "Optimal"
    assert abs(res.value_log2 - math.log2(1.55)) <= 1e-8
    wit = state_rmp.extract_witness(inst, res)
    assert abs(wit.value_at_sigma - res.optimum) <= 1e-6
    assert wit.gap > 0
    # the witness's small program has dense rows, the robustness program not
    assert rows.shape not in densified
    # the dense path, forced, finds the same optimum
    monkeypatch.setattr(solver, "_LOCAL_SCHUR_MACS", math.inf)
    assert robustness_program(inst).compile()["block_rows"][0].mats is not None
    forced = state_rmp.robustness(inst)
    assert abs(forced.value_log2 - res.value_log2) <= 1e-10


def test_kkt_step_allocates_no_square_array_but_the_factor():
    """After a warm-up step, building M, its factor and a step's three
    solves allocate no r x r array but the Cholesky factor: M and its
    symmetrized copy live in buffers the model keeps, and the blocked
    substitution forms no inverse of the factor."""
    prog = robustness_program(cyclic_instance(6))
    model = solver._Model(prog.compile())
    r = model.a.shape[0]
    cur = solver._Iterate(*[[np.eye(shape[-1], dtype=complex)[None].repeat(shape[0], 0)[None]
                             for shape in model.blocks.shapes] for _ in range(2)],
                          np.zeros((1, r)), np.ones(1), np.ones(1))
    c = prog.sense * prog.objective[None]
    settings = solver.SolverSettings()
    with np.errstate(divide="ignore", invalid="ignore"):   # as in `solve_many`
        cur = solver._newton(model, cur, c, solver._status(model, c, cur, settings, 1e-8))[0]
    g = solver._Scaling(cur.xm, cur.sm).g
    rhs = [np.random.default_rng(0).normal(size=(1, r, k)) for k in (3, 1, 1)]
    tracemalloc.start()
    try:
        normal = solver._Normal.assemble(model, g, 1)
        for part in rhs:
            normal.solve(part)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * r * r * 8


@pytest.fixture
def layouts(monkeypatch):
    """The layout of every block, by name, of every program as it compiles."""
    seen = []
    real = solver.ConicProgram.compile

    def compile(self):
        data = real(self)
        seen.append({blk.name: "local" if rows.local is not None else "dense"
                     for blk, rows in zip(self.blocks, data["block_rows"])})
        return data

    monkeypatch.setattr(solver.ConicProgram, "compile", compile)
    return seen


def test_witness_model_of_six_qubits_is_local(layouts):
    # V of order 64 in 17 rows: its dense product costs more than the local one
    cyclic_instance(6).compatible_set
    assert layouts == [{"V": "local", "free.ppt[C].slack": "dense"}]


def w_programs():
    from freemarg.discrimination import w_example_instance

    inst = w_example_instance()
    state_rmp.check_rfree_compatible(inst)
    state_rmp.extract_witness(inst, state_rmp.robustness(inst))


def product_channel_programs():
    # V of order 16 has 176 rows before the rank reduction and 112 or 119
    # after, and its dense product uses the reduced ones
    from test_channel_rmp import product_instance

    inst, _ = product_instance(np.random.default_rng(1))
    state_rmp.check_rfree_compatible(inst)
    state_rmp.robustness(inst)
    inst.compatible_set


def histogram_model():
    from freemarg.discrimination import w_advantages

    w_advantages([0, 1], seed=3)


@pytest.mark.parametrize("run", [w_programs, product_channel_programs, histogram_model])
def test_small_programs_keep_the_dense_layout(layouts, run):
    run()
    assert layouts and all(set(blocks.values()) == {"dense"} for blocks in layouts)


def ppt_abcd(layout):
    return FreeSetSpec.separable_ppt(SubsystemSet(layout, tuple("ABCD")), [("A", "B")])


def incoherent_ac(layout):
    return FreeSetSpec.incoherent(SubsystemSet(layout, ("A", "C")))


# the free set, the layout of each large block by name, and log2 of the optimum
TARGETS = {
    # the slack of the PPT inequality, of order 16, is local by its term, minus
    # the identity
    "ppt_abcd": (ppt_abcd, {"V": "local", "free.ppt[A,B].slack": "local"}, math.log2(1.55)),
    # each off-diagonal probe is a row composed with the extraction onto AC
    "incoherent_ac": (incoherent_ac, {"V": "local"}, 0.76553474738),
}


@pytest.mark.parametrize("target", list(TARGETS))
def test_six_qubit_robustness_by_target(target):
    make, layouts, value = TARGETS[target]
    inst = cyclic_instance(6)
    inst = dataclasses.replace(inst, free=make(inst.layout))
    prog = robustness_program(inst)
    data = prog.compile()
    large = {blk.name: "local" if rows.local is not None else "dense"
             for blk, rows in zip(prog.blocks, data["block_rows"])
             if solver._BlockRows.large(rows.rows.size, blk.cdim)}
    assert large == layouts
    res = state_rmp.robustness(inst)
    assert res.status.value == "Optimal"
    assert abs(res.value_log2 - value) <= 1e-8


def test_compatible_six_qubit_family_states_each_string_once(monkeypatch):
    # the pinned marginals overlap, and each Pauli string inside some cyclic
    # window is stated once, 1 + 18 + 108 + 162 of them, next to the 16 rows
    # of the PPT slack: full rank, so A keeps its nonzeros and U_r is the
    # identity, and V, large, takes the local Schur path in the rows of A
    inst = cyclic_instance(6, noise=0.7)
    data = state_rmp._program(inst, pinned=True, pairs=inst.pairs)[0].compile()
    assert isinstance(data["A"], solver._Rows) and data["A"].shape == (305, 4112)
    u_r = data["u_r"]
    assert isinstance(u_r, solver._Rows) and np.array_equal(u_r.dense(), np.eye(305))
    assert data["block_rows"][0].local is not None
    res = state_rmp.check_rfree_compatible(inst)
    monkeypatch.setattr(solver, "_LOCAL_SCHUR_MACS", math.inf)
    forced = state_rmp.check_rfree_compatible(inst)
    assert res.compatible and forced.compatible
    assert np.max(np.abs(res.witness_state.entries - forced.witness_state.entries)) <= 1e-8


def whole_layout_instance(target: str) -> state_rmp.RmpInstance:
    """Three 3-body marginals of a seeded rank-2 state of four qubits, with a
    free set on the whole layout: PPT across AB|CD, incoherence in a Haar
    basis, or a seeded full-rank singleton."""
    from freemarg.discrimination import haar_from_generator

    layout = qubit_layout("ABCD")
    rng = np.random.default_rng(7)
    rho = random_density(layout, rng, rank=2)
    fam = state_rmp.MarginalFamily(layout, [(tuple(m), marginal_of(rho, m))
                                            for m in ("ABC", "BCD", "ACD")])
    whole = SubsystemSet(layout, layout.labels)
    free = {"ppt": lambda: FreeSetSpec.separable_ppt(whole, [("A", "B")]),
            "incoherent_rotated": lambda: FreeSetSpec.incoherent(
                whole, haar_from_generator(16, np.random.default_rng(5))),
            "singleton": lambda: FreeSetSpec.singleton(whole, random_density(layout, rng))}
    return state_rmp.RmpInstance(fam, free[target]())


@pytest.mark.parametrize("target", ["ppt", "incoherent_rotated", "singleton"])
def test_four_qubit_whole_layout_target_is_local(target, monkeypatch):
    # V has a row group with no partial-trace form: the bare partial
    # transpose, one row per rotated probe, or the replacement defect
    inst = whole_layout_instance(target)
    assert robustness_program(inst).compile()["block_rows"][0].local is not None
    res = state_rmp.robustness(inst)
    monkeypatch.setattr(solver, "_LOCAL_SCHUR_MACS", math.inf)
    forced = state_rmp.robustness(inst)
    assert res.status.value == forced.status.value == "Optimal"
    assert abs(res.value_log2 - forced.value_log2) <= 1e-9


def test_seven_qubit_robustness(densified):
    inst = cyclic_instance(7)
    rows = robustness_program(inst).compile()["A"]
    assert isinstance(rows, solver._Rows) and rows.shape[0] == 464
    res = state_rmp.robustness(inst)
    assert res.status.value == "Optimal"
    assert abs(res.value_log2 - 0.6322682) <= 1e-7
    assert not densified


def test_eight_qubit_program_builds_in_little_memory():
    """No map matrix over the 4^8 svec coordinates is built: one dense
    64 x 65536 partial-trace matrix alone would take 33.5 MB."""
    tracemalloc.start()
    try:
        inst = cyclic_instance(8)
        prog = robustness_program(inst)
        data = prog.compile()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 48e6
    assert prog.blocks[0].name == "V" and data["block_rows"][0].local is not None
