"""Acceptance suite: every criterion runs at its stated tolerance and prints
one pass/fail line (run with `pytest -s tests/test_acceptance.py -v`)."""

import time

import numpy as np

from freemarg.channel_rmp import (
    ChannelMarginalFamily,
    ChannelPair,
    ChannelRmpInstance,
    ChannelSpec,
    NoWitnessError as ChannelNoWitnessError,
    channel_success_probability,
    channel_witness,
    check_channel_compatible,
)
from freemarg.discrimination import (
    W_EXAMPLE_WEIGHTS,
    histogram_experiment,
    success_probability,
    task_from_witness,
    w_example_instance,
)
from freemarg.freesets import FreeChannelSetSpec, FreeSetSpec
from freemarg.herm import (
    HermitianOperator,
    LinearMap,
    SubsystemLayout,
    SubsystemSet,
    identity_map,
    partial_trace_map,
    partial_transpose,
    svec,
    tensor,
    trace_norm,
)
from freemarg.solver import ConicProgram, Status, solve
from freemarg.state_rmp import (
    MarginalFamily,
    NoWitnessError,
    RmpInstance,
    Witness,
    activation_criterion,
    apply_free_operation,
    check_rfree_compatible,
    extract_witness,
    product_channels_on_family,
    robustness,
    verify_w_uniqueness,
)
from freemarg.states import (
    marginal_of,
    maximally_mixed,
    qubit_layout,
    random_density,
    sym_bell,
    w_marginal,
)

from conftest import psd_split, rand_herm, rand_kraus, rand_unitary, w_example_witness_block

LAYOUT = qubit_layout("ABC")


def report(num, ok, detail):
    print(f"\ncriterion {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


def w_instance():
    fam = MarginalFamily(LAYOUT, [
        (("A", "B"), w_marginal(LAYOUT.sublayout(("A", "B")))),
        (("B", "C"), w_marginal(LAYOUT.sublayout(("B", "C")))),
    ])
    return RmpInstance(fam, FreeSetSpec.separable_ppt(SubsystemSet(LAYOUT, ("A", "C"))))


def monogamy_instance():
    fam = MarginalFamily(LAYOUT, [
        (("A", "B"), sym_bell(LAYOUT.sublayout(("A", "B")))),
        (("B", "C"), sym_bell(LAYOUT.sublayout(("B", "C")))),
    ])
    return RmpInstance(fam, FreeSetSpec.all_states(SubsystemSet(LAYOUT, ("A", "B", "C"))))


def broadcasting_instance():
    gin = SubsystemLayout([("A'", 2)])
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


def test_criterion_1_reference_task_reproduction():
    """Reconstructed witness reproduces the published spectral data to 1e-12
    and the POVM completeness identity to 1e-9, in under a second."""
    t0 = time.time()
    blocks = tuple(
        (SubsystemSet(LAYOUT, members), w_example_witness_block(LAYOUT.sublayout(members)))
        for members in (("A", "B"), ("B", "C")))
    wit = Witness(blocks, free_sup=0.96, value_at_sigma=1.0)
    unitaries = {tuple(sub.members): [np.eye(4, dtype=complex)] * 4 for sub, _ in blocks}
    task = task_from_witness(wit, unitaries, epsilon=0.01)
    eig_err = max(float(np.max(np.abs(b.spectral_weights - W_EXAMPLE_WEIGHTS)))
                  for b in task.blocks)
    povm_err = max(float(np.max(np.abs(sum(b.povm) - np.eye(4)))) for b in task.blocks)
    elapsed = time.time() - t0
    report(1, eig_err < 1e-12 and povm_err < 1e-9 and elapsed < 1.0,
           f"eigenvalue error {eig_err:.2e} (<1e-12), POVM completeness "
           f"{povm_err:.2e} (<1e-9), runtime {elapsed:.2f}s (<1s)")


def test_criterion_2_histogram_desk_scale():
    """1000 Haar samples of the discrimination advantage: mean within
    0.0066818 +- 0.0005, every sample in [0.0015, 0.0110] and positive."""
    t0 = time.time()
    hist = histogram_experiment(1000, seed=0)
    elapsed = time.time() - t0
    ok_mean = abs(hist.mean - 0.0066818) <= 0.0005
    ok_range = bool(np.all(hist.samples >= 0.0015) and np.all(hist.samples <= 0.0110))
    ok_pos = bool(np.all(hist.samples > 0))
    report(2, ok_mean and ok_range and ok_pos and elapsed < 600,
           f"mean {hist.mean:.7f} (target 0.0066818 +- 0.0005), "
           f"range [{hist.min:.6f}, {hist.max:.6f}] within [0.0015, 0.0110], "
           f"all positive: {ok_pos}, runtime {elapsed:.0f}s (<600s)")


def test_criterion_3_w_uniqueness_and_activation():
    """Extremal overlaps with the W state both equal one; the activation value
    of the W marginal at the identity is exactly 2/3 > 1/2."""
    fid = verify_w_uniqueness()
    act = activation_criterion(w_marginal(qubit_layout("AC")), samples=100)
    ok = (abs(fid["max_fid"] - 1) < 1e-6 and abs(fid["min_fid"] - 1) < 1e-6
          and abs(act - 2 / 3) < 1e-12 and act > 0.5)
    report(3, ok, f"max_fid {fid['max_fid']:.8f}, min_fid {fid['min_fid']:.8f} "
           f"(both 1 +- 1e-6), activation {act:.12f} (= 2/3 > 1/2)")


def test_criterion_4_strong_duality_and_degenerate_cone():
    """50 random full-rank-free instances close the duality gap to 1e-7;
    the degenerate-cone pair returns Infeasible primal / Unbounded dual."""
    rng = np.random.default_rng(20260810)
    worst = 0.0
    for trial in range(50):
        target = SubsystemSet(LAYOUT, ("A", "C"))
        kind = trial % 4
        if kind == 0:
            free = FreeSetSpec.all_states(target)
        elif kind == 1:
            free = FreeSetSpec.separable_ppt(target)
        elif kind == 2:
            free = FreeSetSpec.incoherent(target)
        else:
            free = FreeSetSpec.singleton(target, random_density(LAYOUT.sublayout(("A", "C")), rng))
        if trial % 2 == 0:
            rho = random_density(LAYOUT, rng)
            fam = MarginalFamily(LAYOUT, [(("A", "B"), marginal_of(rho, "AB")),
                                          (("B", "C"), marginal_of(rho, "BC"))])
        else:
            fam = MarginalFamily(LAYOUT,
                                 [(("A", "B"), random_density(LAYOUT.sublayout(("A", "B")), rng)),
                                  (("B", "C"), random_density(LAYOUT.sublayout(("B", "C")), rng))])
        res = robustness(RmpInstance(fam, free))
        assert res.status == Status.OPTIMAL
        sr = res.solve_result
        worst = max(worst, abs(sr.primal_value - sr.dual_value) / (1 + abs(sr.primal_value)))

    # degenerate cone: min tr(V) over V in {a |0><0|} with V >= I/2
    prog = ConicProgram()
    v = prog.add_variable("V", 2)
    s2 = np.sqrt(2)
    prog.add_scalar_equality("off_re", [(v, np.array([[0, 1], [1, 0]]) / s2)], 0.0)
    prog.add_scalar_equality("off_im", [(v, np.array([[0, -1j], [1j, 0]]) / s2)], 0.0)
    prog.add_scalar_equality("corner", [(v, np.diag([0.0, 1.0]))], 0.0)
    prog.add_psd_inequality("dom", [(v, identity_map(2))], const=-np.eye(2) / 2)
    prog.set_objective([(v, np.eye(2))], "min")
    primal_status = solve(prog).status

    dual = ConicProgram()
    y = dual.add_variable("Y", 2)
    dual.add_psd_inequality("cap", [(y, LinearMap(-svec(np.diag([1.0, 0.0]))[None]))],
                            const=np.ones((1, 1)))
    dual.set_objective([(y, np.eye(2) / 2)], "max")
    dual_status = solve(dual).status

    report(4, worst <= 1e-7 and primal_status == Status.INFEASIBLE
           and dual_status == Status.UNBOUNDED,
           f"worst relative duality gap {worst:.2e} (<=1e-7) over 50 instances; "
           f"degenerate pair: {primal_status.value} / {dual_status.value}")


def test_criterion_5_witness_soundness():
    """Every incompatible regression instance yields a witness with a strict
    gap >= 1e-4; every compatible one errors out."""
    gaps = {}
    gaps["w-marginals"] = extract_witness(w_instance()).gap
    gaps["monogamy"] = extract_witness(monogamy_instance()).gap
    gaps["broadcasting"] = channel_witness(broadcasting_instance()).gap

    mm = maximally_mixed(LAYOUT)
    compat_state = RmpInstance(
        MarginalFamily(LAYOUT, [(("A", "B"), marginal_of(mm, "AB")),
                                (("B", "C"), marginal_of(mm, "BC"))]),
        FreeSetSpec.separable_ppt(SubsystemSet(LAYOUT, ("A", "C"))))
    raised_state = False
    try:
        extract_witness(compat_state)
    except NoWitnessError:
        raised_state = True

    rng = np.random.default_rng(5)
    gin = SubsystemLayout([("A'", 2), ("B'", 2)])
    gout = qubit_layout("AB")
    ca = ChannelSpec.from_unitary(rand_unitary(rng, 2), gin.sublayout(("A'",)),
                                  gout.sublayout(("A",)))
    cb = ChannelSpec.from_unitary(rand_unitary(rng, 2), gin.sublayout(("B'",)),
                                  gout.sublayout(("B",)))
    p1 = ChannelPair(SubsystemSet(gin, ("A'",)), SubsystemSet(gout, ("A",)))
    p2 = ChannelPair(SubsystemSet(gin, ("B'",)), SubsystemSet(gout, ("B",)))
    fam = ChannelMarginalFamily(gin, gout, [(p1, ca), (p2, cb)])
    tgt = ChannelPair(SubsystemSet(gin, ("A'", "B'")), SubsystemSet(gout, ("A", "B")))
    compat_chan = ChannelRmpInstance(fam, tgt, FreeChannelSetSpec.all_channels(tgt.inp, tgt.out))
    raised_chan = False
    try:
        channel_witness(compat_chan)
    except ChannelNoWitnessError:
        raised_chan = True

    ok = all(g >= 1e-4 for g in gaps.values()) and raised_state and raised_chan
    report(5, ok, "gaps " + ", ".join(f"{k}={v:.4f}" for k, v in gaps.items())
           + f" (all >=1e-4); compatible instances error: {raised_state and raised_chan}")


def test_criterion_6_monotone_property():
    """Robustness of the W marginals is invariant under 20 product-unitary
    free operations and never increases under 20 product-channel ones."""
    rng = np.random.default_rng(99)
    inst = w_instance()
    base = robustness(inst).value_log2

    worst_dev = 0.0
    for _ in range(20):
        site = {l: ChannelSpec.from_unitary(rand_unitary(rng, 2),
                                            SubsystemLayout([(l + "'", 2)]),
                                            SubsystemLayout([(l, 2)]))
                for l in "ABC"}
        fam = apply_free_operation(inst.marginals,
                                   product_channels_on_family(inst.marginals, site))
        val = robustness(RmpInstance(fam, inst.free)).value_log2
        worst_dev = max(worst_dev, abs(val - base))

    worst_excess = -np.inf
    for _ in range(20):
        site = {l: ChannelSpec.from_kraus(rand_kraus(rng, 2, 2, 2),
                                          SubsystemLayout([(l + "'", 2)]),
                                          SubsystemLayout([(l, 2)]))
                for l in "ABC"}
        fam = apply_free_operation(inst.marginals,
                                   product_channels_on_family(inst.marginals, site))
        val = robustness(RmpInstance(fam, inst.free)).value_log2
        worst_excess = max(worst_excess, val - base)

    report(6, worst_dev <= 1e-6 and worst_excess <= 1e-6,
           f"unitary-invariance deviation {worst_dev:.2e} (<=1e-6); "
           f"channel excess {worst_excess:.2e} (never increases)")


def test_criterion_7_reduction_checks():
    """target = everything with nothing forbidden reduces to the plain
    marginal problems, for states and for channels."""
    rng = np.random.default_rng(31)
    free = FreeSetSpec.all_states(SubsystemSet(LAYOUT, ("A", "B", "C")))
    mismatches = 0
    for trial in range(50):
        rho = random_density(LAYOUT, rng)
        fam = MarginalFamily(LAYOUT, [(("A", "B"), marginal_of(rho, "AB")),
                                      (("B", "C"), marginal_of(rho, "BC"))])
        got = check_rfree_compatible(RmpInstance(fam, free)).compatible
        direct = _direct_marginal_feasibility(fam)
        if got is not True or direct is not True:
            mismatches += 1
    mono = check_rfree_compatible(monogamy_instance()).compatible
    mono_direct = _direct_marginal_feasibility(monogamy_instance().marginals)

    chan_match = 0
    for trial in range(10):
        gin = SubsystemLayout([("A'", 2), ("B'", 2)])
        gout = qubit_layout("AB")
        ca = ChannelSpec.from_kraus(rand_kraus(rng, 2, 2, 2), gin.sublayout(("A'",)),
                                    gout.sublayout(("A",)))
        cb = ChannelSpec.from_kraus(rand_kraus(rng, 2, 2, 2), gin.sublayout(("B'",)),
                                    gout.sublayout(("B",)))
        p1 = ChannelPair(SubsystemSet(gin, ("A'",)), SubsystemSet(gout, ("A",)))
        p2 = ChannelPair(SubsystemSet(gin, ("B'",)), SubsystemSet(gout, ("B",)))
        fam = ChannelMarginalFamily(gin, gout, [(p1, ca), (p2, cb)])
        tgt = ChannelPair(SubsystemSet(gin, ("A'", "B'")), SubsystemSet(gout, ("A", "B")))
        inst = ChannelRmpInstance(fam, tgt, FreeChannelSetSpec.all_channels(tgt.inp, tgt.out))
        got = check_channel_compatible(inst).compatible
        if got == _direct_channel_feasibility(inst):
            chan_match += 1
    bcast = check_channel_compatible(broadcasting_instance()).compatible

    ok = (mismatches == 0 and mono is False and mono_direct is False
          and chan_match == 10 and bcast is False)
    report(7, ok, f"50/50 state reductions compatible both routes; monogamy "
           f"incompatible both routes; {chan_match}/10 channel reductions match; "
           f"broadcasting incompatible: {not bcast}")


def _direct_marginal_feasibility(fam: MarginalFamily) -> bool:
    d = fam.layout.total_dim
    prog = ConicProgram()
    rho = prog.add_variable("rho", d)
    prog.add_scalar_equality("tr", [(rho, np.eye(d))], 1.0)
    for sub, sigma in fam.entries:
        prog.add_matrix_equality(f"m[{sub.members}]",
                                 [(rho, partial_trace_map(fam.layout, sub.members))],
                                 sigma.entries)
    prog.set_objective([(rho, np.eye(d))], "min")
    return solve(prog).status == Status.OPTIMAL


def _direct_channel_feasibility(inst: ChannelRmpInstance) -> bool:
    so = inst.layout
    gin = inst.family.global_in
    prog = ConicProgram()
    v = prog.add_variable("V", so.total_dim)
    prog.add_matrix_equality("choi", [(v, partial_trace_map(so, gin.labels))],
                             np.eye(gin.total_dim) / gin.total_dim)
    for pair, spec in inst.family.entries:
        keep = list(pair.out.members) + list(pair.inp.members)
        prog.add_matrix_equality(f"m[{pair.label()}]",
                                 [(v, partial_trace_map(so, keep))], spec.choi.entries)
    prog.set_objective([(v, np.eye(so.total_dim))], "min")
    return solve(prog).status == Status.OPTIMAL


def test_criterion_8_property_suite():
    """Affinity of both success probabilities, relaxation monotonicity,
    involution/trace identities, and byte-identical seeded reruns."""
    rng = np.random.default_rng(4)

    # affinity of the state-side success probability
    inst = w_example_instance()
    blocks = tuple(
        (SubsystemSet(LAYOUT, members), w_example_witness_block(LAYOUT.sublayout(members)))
        for members in (("A", "B"), ("B", "C")))
    wit = Witness(blocks, free_sup=0.96, value_at_sigma=1.0)
    unitaries = {tuple(sub.members): [np.eye(4, dtype=complex)] * 4 for sub, _ in blocks}
    task = task_from_witness(wit, unitaries, epsilon=0.3)
    rho_a = random_density(LAYOUT, rng)
    rho_b = random_density(LAYOUT, rng)

    def fam_of(rho):
        return MarginalFamily(LAYOUT, [(("A", "B"), marginal_of(rho, "AB")),
                                       (("B", "C"), marginal_of(rho, "BC"))])

    from freemarg.herm import DensityMatrix

    p = 0.42
    mixed = DensityMatrix.from_array(LAYOUT, p * rho_a.entries + (1 - p) * rho_b.entries)
    aff_state = abs(success_probability(task, fam_of(mixed))
                    - p * success_probability(task, fam_of(rho_a))
                    - (1 - p) * success_probability(task, fam_of(rho_b)))

    # affinity of the channel-side success probability
    gin = SubsystemLayout([("A'", 2)])
    gout = qubit_layout("A")
    c1 = ChannelSpec.from_kraus(rand_kraus(rng, 2, 2, 2), gin, gout)
    c2 = ChannelSpec.from_kraus(rand_kraus(rng, 2, 2, 2), gin, gout)
    pair = ChannelPair(SubsystemSet(gin, ("A'",)), SubsystemSet(gout, ("A",)))
    from freemarg.channel_rmp import ChannelDiscriminationTask

    ctask = ChannelDiscriminationTask({pair.label(): 1.0},
                                      {pair.label(): np.array([0.5, 0.5])},
                                      {pair.label(): [np.diag([1.0, 0.0]), np.diag([0.0, 1.0])]},
                                      {pair.label(): [np.diag([0.6, 0.1]), np.diag([0.4, 0.9])]},
                                      0.0)

    def chan_fam(choi):
        return ChannelMarginalFamily(gin, gout, [
            (pair, ChannelSpec(gin, gout, HermitianOperator(gout.concat(gin), choi)))])

    q = 0.37
    mix_choi = q * c1.choi.entries + (1 - q) * c2.choi.entries
    aff_chan = abs(channel_success_probability(ctask, chan_fam(mix_choi))
                   - q * channel_success_probability(ctask, chan_fam(c1.choi.entries))
                   - (1 - q) * channel_success_probability(ctask, chan_fam(c2.choi.entries)))

    # relaxation monotonicity
    winst = w_instance()
    r_ppt = robustness(winst).value_log2
    r_all = robustness(RmpInstance(winst.marginals,
                                   FreeSetSpec.all_states(SubsystemSet(LAYOUT, ("A", "C")))
                                   )).value_log2
    relax_ok = r_all <= r_ppt + 1e-7

    # involution / trace identities
    m = HermitianOperator(LAYOUT, rand_herm(rng, 8))
    part = SubsystemSet(LAYOUT, ("A", "C"))
    invol = float(np.max(np.abs(
        partial_transpose(partial_transpose(m, part), part).entries - m.entries)))
    a2 = HermitianOperator(qubit_layout("X"), rand_herm(rng, 2))
    b2 = HermitianOperator(qubit_layout("Y"), rand_herm(rng, 2))
    trace_mult = abs(tensor(a2, b2).trace() - a2.trace() * b2.trace())
    pos, neg = psd_split(m)
    tn = abs(trace_norm(m) - np.trace(pos).real - np.trace(neg).real)

    # determinism: byte-identical CSV for the same seed
    h1 = histogram_experiment(3, seed=123)
    h2 = histogram_experiment(3, seed=123)
    determinism = h1.to_csv() == h2.to_csv()

    ok = (aff_state < 1e-12 and aff_chan < 1e-12 and relax_ok
          and invol < 1e-14 and trace_mult < 1e-12 and tn < 1e-10 and determinism)
    report(8, ok, f"affinity residuals {aff_state:.1e}/{aff_chan:.1e} (<1e-12); "
           f"relaxation monotone: {relax_ok}; involution {invol:.1e}; "
           f"trace identities {trace_mult:.1e}/{tn:.1e}; seeded CSV identical: {determinism}")
