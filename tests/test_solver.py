import logging

import numpy as np
import pytest

from freemarg.herm import (
    LinearMap,
    SubsystemLayout,
    hermitian_basis,
    identity_map,
    partial_trace_map,
    partial_transpose_map,
    smat,
    svec,
)
from freemarg import solver
from freemarg.solver import (
    ConicProgram,
    Status,
    _BlockRows,
    _step_to_boundary,
    solve,
    solve_many,
)
from freemarg.states import marginal_of, qubit_layout, random_density

from conftest import rand_herm, replacement_defect_map


@pytest.fixture(params=["dense", "local"])
def schur_path(request, monkeypatch):
    """Assemble the Schur complement of every block densely (the default for
    small blocks) or by local contraction (the default for large blocks)."""
    if request.param == "local":
        monkeypatch.setattr(solver, "_LOCAL_SCHUR_MACS", -1)
    return request.param


def make_random_feasible(rng, dims, nrows):
    """Primal/dual strictly feasible instance by construction."""
    prog = ConicProgram()
    refs = [prog.add_variable(f"X{k}", d) for k, d in enumerate(dims)]

    def pd(d):
        g = rng.normal(size=(d, 2 * d)) + 1j * rng.normal(size=(d, 2 * d))
        return g @ g.conj().T / (2 * d) + 0.1 * np.eye(d)

    x0 = [pd(d) for d in dims]
    cs = [pd(d).astype(complex) for d in dims]
    y0 = rng.normal(size=nrows)
    for k in range(nrows):
        probes = [rand_herm(rng, d) for d in dims]
        rhs = sum(float(np.trace(p @ x).real) for p, x in zip(probes, x0))
        prog.add_scalar_equality(f"eq{k}", list(zip(refs, probes)), rhs)
        for c, p in zip(cs, probes):
            c += y0[k] * p
    prog.set_objective(list(zip(refs, cs)), "min")
    return prog


class TestBasics:
    def test_forced_optimum(self):
        prog = ConicProgram()
        x = prog.add_variable("X", 2)
        prog.add_psd_inequality("dom", [(x, identity_map(2))], const=-np.eye(2))
        prog.set_objective([(x, np.eye(2))], "min")
        res = solve(prog)
        assert res.status == Status.OPTIMAL
        assert res.primal_value == pytest.approx(2.0, abs=1e-7)
        assert np.max(np.abs(res.primal_blocks["X"] - np.eye(2))) < 1e-6
        # dual multiplier of the domination constraint is the identity
        assert np.max(np.abs(res.dual_multipliers["dom"] - np.eye(2))) < 1e-6

    def test_status_optimal_contract(self, rng):
        prog = make_random_feasible(rng, [3, 2], 6)
        res = solve(prog)
        assert res.status == Status.OPTIMAL
        assert abs(res.primal_value - res.dual_value) <= 1e-8 * (1 + abs(res.primal_value))
        assert res.residuals["primal"] <= 1e-7
        assert res.residuals["dual"] <= 1e-7


class TestTermDimensions:
    """A term must fit its block: a map built for another block size, or a
    probe of another order, would spill into the next block's columns."""

    @staticmethod
    def two_blocks():
        prog = ConicProgram()
        return prog, prog.add_variable("X", 2), prog.add_variable("Y", 4)

    def test_map_on_a_smaller_block_is_refused(self):
        prog, x, y = self.two_blocks()
        pt = partial_trace_map(qubit_layout("AB"), ("A",))
        with pytest.raises(ValueError, match="'marg'.*input dim 4 != 2"):
            prog.add_matrix_equality("marg", [(x, pt)], np.eye(2) / 2)
        with pytest.raises(ValueError, match="'cone'.*input dim 4 != 2"):
            prog.add_psd_inequality("cone", [(x, pt)])

    def test_probe_of_another_order_is_refused(self):
        prog, x, y = self.two_blocks()
        with pytest.raises(ValueError, match="'tr'.*order 2"):
            prog.add_scalar_equality("tr", [(x, np.eye(4))], 1.0)


class TestDegenerateConePair:
    """A cone so degenerate that primal and dual are both infinite."""

    def build_primal(self):
        prog = ConicProgram()
        v = prog.add_variable("V", 2)
        s2 = np.sqrt(2)
        e_re = np.array([[0, 1], [1, 0]]) / s2
        e_im = np.array([[0, -1j], [1j, 0]]) / s2
        e_11 = np.diag([0.0, 1.0])
        prog.add_scalar_equality("off_re", [(v, e_re)], 0.0)
        prog.add_scalar_equality("off_im", [(v, e_im)], 0.0)
        prog.add_scalar_equality("corner", [(v, e_11)], 0.0)
        prog.add_psd_inequality("dom", [(v, identity_map(2))], const=-np.eye(2) / 2)
        prog.set_objective([(v, np.eye(2))], "min")
        return prog

    def test_primal_infeasible(self):
        res = solve(self.build_primal())
        assert res.status == Status.INFEASIBLE
        assert res.primal_value == np.inf
        assert res.certificate["kind"] == "primal-infeasibility"

    def test_dual_unbounded(self):
        prog = ConicProgram()
        y = prog.add_variable("Y", 2)
        e00 = np.diag([1.0, 0.0])
        prog.add_psd_inequality("cap", [(y, LinearMap(-svec(e00)[None]))],
                                const=np.ones((1, 1)))
        prog.set_objective([(y, np.eye(2) / 2)], "max")
        res = solve(prog)
        assert res.status == Status.UNBOUNDED
        assert res.primal_value == np.inf
        ray = res.certificate["ray_blocks"]["Y"]
        # improving ray grows tr(Y)/2 while keeping <0|Y|0> fixed
        assert ray[1, 1].real > 10 * abs(ray[0, 0])


class TestRandomInstances:
    def test_fifty_strictly_feasible(self, rng):
        for _ in range(50):
            dims = [int(rng.integers(2, 5)), int(rng.integers(1, 4))]
            nrows = int(rng.integers(1, sum(d * d for d in dims)))
            prog = make_random_feasible(rng, dims, nrows)
            res = solve(prog)
            assert res.status == Status.OPTIMAL
            rel = abs(res.primal_value - res.dual_value) / (
                1 + abs(res.primal_value) + abs(res.dual_value))
            assert rel <= 1e-7
            # weak duality, minimization orientation
            assert res.primal_value >= res.dual_value - 1e-6 * (1 + abs(res.primal_value))

    def test_infeasible_detection(self):
        prog = ConicProgram()
        x = prog.add_variable("X", 2)
        prog.add_scalar_equality("neg_trace", [(x, np.eye(2))], -1.0)
        prog.set_objective([(x, np.eye(2))], "min")
        assert solve(prog).status == Status.INFEASIBLE

    def test_unbounded_detection(self):
        prog = ConicProgram()
        x = prog.add_variable("X", 2)
        prog.add_scalar_equality("pin", [(x, np.diag([1.0, 0.0]))], 1.0)
        prog.set_objective([(x, np.diag([0.0, -1.0]))], "min")
        assert solve(prog).status == Status.UNBOUNDED

    def test_inconsistent_equalities(self):
        prog = ConicProgram()
        x = prog.add_variable("X", 2)
        prog.add_scalar_equality("a", [(x, np.eye(2))], 1.0)
        prog.add_scalar_equality("b", [(x, np.eye(2))], 2.0)
        prog.set_objective([(x, np.eye(2))], "min")
        res = solve(prog)
        assert res.status == Status.INFEASIBLE
        assert res.residuals["note"] == "inconsistent equalities"
        # the Farkas ray of the rows: A'y = 0 and b'y > 0
        ray = res.certificate["equality_ray"]
        assert abs(ray["a"] + ray["b"]) < 1e-12
        assert ray["a"] + 2.0 * ray["b"] > 0

    @pytest.mark.parametrize("with_trace_row", [True, False])
    def test_zero_row_with_nonzero_rhs(self, with_trace_row):
        # without the trace row every row is zero and the rows have rank 0
        prog = ConicProgram()
        x = prog.add_variable("X", 2)
        if with_trace_row:
            prog.add_scalar_equality("trace", [(x, np.eye(2))], 1.0)
        prog.add_scalar_equality("zero", [(x, np.zeros((2, 2)))], 1.0)
        prog.set_objective([(x, np.eye(2))], "min")
        res = solve(prog)
        assert res.status == Status.INFEASIBLE
        assert res.residuals["note"] == "inconsistent equalities"
        # the Farkas ray of the original rows: A'y = 0 and b'y > 0
        rows, rhs = prog.equality_rows()
        ray = res.certificate["equality_ray"]
        y = np.array([ray[g.name] for g in prog.eq_groups])
        assert np.max(np.abs(rows.dense().T @ y)) < 1e-12
        assert rhs @ y > 0


def real_embedding(m):
    return np.block([[m.real, -m.imag], [m.imag, m.real]])


class TestComplexVsEmbedded:
    def test_embedding_double(self, rng):
        # solve min tr(C X) s.t. tr(P X) = 1 twice: complex form and its
        # real-embedded double with objective halved
        c = rand_herm(rng, 3)
        p = rand_herm(rng, 3)
        p = p @ p.conj().T + 0.2 * np.eye(3)
        prog = ConicProgram()
        x = prog.add_variable("X", 3)
        prog.add_scalar_equality("pin", [(x, p)], 1.0)
        prog.set_objective([(x, c + 3 * np.eye(3))], "min")
        res = solve(prog)

        prog_e = ConicProgram()
        xe = prog_e.add_variable("X", 6)
        prog_e.add_scalar_equality("pin", [(xe, real_embedding(p) / 2)], 1.0)
        prog_e.set_objective([(xe, real_embedding(c + 3 * np.eye(3)) / 2)], "min")
        res_e = solve(prog_e)
        assert res.status == res_e.status == Status.OPTIMAL
        assert res_e.primal_value == pytest.approx(res.primal_value, abs=1e-7)


class TestHermitianCoordinates:
    def test_round_trip(self, rng):
        for d in (1, 2, 5):
            m = rand_herm(rng, d)
            assert svec(m).shape == (d * d,)
            assert np.max(np.abs(smat(svec(m), d) - m)) < 1e-14

    def test_isometry(self, rng):
        h, k = rand_herm(rng, 4), rand_herm(rng, 4)
        assert svec(h) @ svec(k) == pytest.approx(np.trace(h @ k).real, abs=1e-12)

    def test_basis_is_smat_of_unit_vectors(self):
        d = 3
        basis = hermitian_basis(d)
        assert len(basis) == d * d
        for k, e in enumerate(np.eye(d * d)):
            assert np.array_equal(basis[k], smat(e, d))
            assert np.array_equal(svec(basis[k]), e)

    def test_batched_matches_per_matrix(self, rng):
        ms = np.stack([rand_herm(rng, 3) for _ in range(4)]).reshape(2, 2, 3, 3)
        vs = svec(ms)
        assert vs.shape == (2, 2, 9)
        for i in range(2):
            for j in range(2):
                assert np.array_equal(vs[i, j], svec(ms[i, j]))
                assert np.array_equal(smat(vs, 3)[i, j], smat(vs[i, j], 3))


class TestStepToBoundary:
    @staticmethod
    def step(lam, dm):
        # the solver passes lam diagonal; rotate a general lam into its eigenbasis
        w, q = np.linalg.eigh(lam)
        return _step_to_boundary(1.0 / np.sqrt(w), q.conj().T @ dm @ q)

    def test_step_is_the_boundary(self, rng):
        for d in (1, 2, 4, 6):
            for _ in range(10):
                g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
                lam = g @ g.conj().T + 0.01 * np.eye(d)
                dm = rand_herm(rng, d)
                # give dm a negative eigenvalue, so the boundary is reached
                dm -= max(0.0, np.linalg.eigvalsh(dm)[0] + 0.1) * np.eye(d)
                a = self.step(lam, dm)
                assert np.isfinite(a) and a > 0
                assert np.linalg.eigvalsh(lam + 0.999 * a * dm)[0] > 0
                assert np.linalg.eigvalsh(lam + 1.001 * a * dm)[0] <= 0

    def test_psd_direction_is_unbounded(self, rng):
        g = rand_herm(rng, 3)
        assert self.step(np.diag([1.0, 2.0, 3.0]), g @ g) == np.inf

    def test_indefinite_scaling_point_raises(self, monkeypatch):
        # the step needs lam^-1/2, so the scaling refuses a zero lam, here
        # an SVD of Ls' Lx that reports one
        svd = np.linalg.svd

        def singular(m):
            u, lam, vh = svd(m)
            return u, lam * (np.arange(lam.shape[-1]) > 0), vh

        monkeypatch.setattr(np.linalg, "svd", singular)
        eye = np.eye(2, dtype=complex)[None, None]
        with pytest.raises(np.linalg.LinAlgError):
            solver._Scaling([eye], [eye])


class TestBlocks:
    """The svec conversions of the solver, one gather or scatter over blocks
    of repeated orders, against `svec` and `smat` block by block."""

    DIMS = (1, 3, 3, 8, 3)

    def test_round_trip_matches_svec_and_smat(self, rng):
        blocks = solver._Blocks(self.DIMS)
        ends = np.cumsum([d * d for d in self.DIMS])
        v = rng.normal(size=(4, ends[-1]))
        mats = blocks.unpack(v)
        assert [m.shape for m in mats] == [(4, 1, 1, 1), (4, 3, 3, 3), (4, 1, 8, 8)]
        for (order, at), d, end in zip(blocks.place, self.DIMS, ends):
            assert np.array_equal(mats[order][:, at], smat(v[:, end - d * d:end], d))
        per_block = [svec(mats[order][:, at]) for order, at in blocks.place]
        back = blocks.pack(mats)
        assert np.array_equal(back, np.concatenate(per_block, axis=-1))
        # smat's 1/sqrt2 and svec's sqrt2 round, so the trip is exact to an ulp
        assert np.max(np.abs(back - v)) <= 2 * np.finfo(float).eps * np.max(np.abs(v))


class TestScaling:
    """The Nesterov-Todd scaling phase on its own, on stacks of three complex
    positive definite X and S per block, one stack per block order."""

    DIMS = (1, 3, 3, 8)

    @pytest.fixture
    def points(self, rng):
        shapes = solver._Blocks(self.DIMS).shapes

        def pd(n, d):
            z = rng.normal(size=(3, n, d, 2 * d)) + 1j * rng.normal(size=(3, n, d, 2 * d))
            return z @ np.swapaxes(z.conj(), -1, -2) / (2 * d) + 0.1 * np.eye(d)

        return [pd(n, d) for n, d, _ in shapes], [pd(n, d) for n, d, _ in shapes]

    def test_scaled_point_is_diagonal(self, points):
        xm, sm = points
        sc = solver._Scaling(xm, sm)
        for x, s, f, lam, r in zip(xm, sm, sc.f, sc.lam, sc.r):
            diag = lam[..., :, None] * np.eye(lam.shape[-1])
            fi = np.linalg.inv(f)
            for scaled in (fi @ x @ solver._ct(fi), solver._ct(f) @ s @ f):
                assert np.max(np.abs(scaled - diag)) <= 1e-12 * np.max(lam)
            assert np.array_equal(r, np.concatenate([1.0 / np.sqrt(lam)] * 2, axis=1))

    def test_w_maps_s_to_x(self, points):
        xm, sm = points
        blocks = solver._Blocks(self.DIMS)
        sc = solver._Scaling(xm, sm)
        for x, s, f, g in zip(xm, sm, sc.f, sc.g):
            assert np.array_equal(g, f @ solver._ct(f))
            assert np.max(np.abs(g @ s @ g - x)) <= 1e-12 * np.max(np.abs(x))
        x, s = blocks.pack(xm), blocks.pack(sm)
        w_s = blocks.pack(sc.w(blocks.unpack(s)))
        assert np.max(np.abs(w_s - x)) <= 1e-12 * np.max(np.abs(x))

    def test_newton_equation_in_the_scaled_space(self, points, rng):
        # the unscaled Newton direction dx = F T~ F' - W ds W, for a target
        # T~ = 2 t / (lam_i + lam_j), is scaled dx~ = T~ - F' ds F, which
        # `_direction` takes; the predictor's target -lam is -X unscaled
        xm, sm = points
        sc = solver._Scaling(xm, sm)
        for x, f, g, lam in zip(xm, sc.f, sc.g, sc.lam):
            d = lam.shape[-1]
            t, ds = (np.array([[rand_herm(rng, d) for _ in lam[0]] for _ in lam]) for _ in range(2))
            t -= np.eye(d) * (lam * lam)[..., None, :]
            target = 2.0 * t / (lam[..., :, None] + lam[..., None, :])
            dx = f @ target @ solver._ct(f) - g @ ds @ g
            fi = np.linalg.inv(f)
            want = target - solver._ct(f) @ ds @ f
            assert np.max(np.abs(fi @ dx @ solver._ct(fi) - want)) <= 1e-12 * np.max(np.abs(want))
            unscaled = f @ (-lam[..., :, None] * np.eye(d)) @ solver._ct(f)
            assert np.max(np.abs(unscaled + x)) <= 1e-12 * np.max(np.abs(x))

    def test_members_equal_their_solo_scaling(self, points):
        xm, sm = points
        sc = solver._Scaling(xm, sm)
        for k in range(3):
            solo = solver._Scaling([x[k:k + 1] for x in xm], [s[k:k + 1] for s in sm])
            for name in ("f", "lam", "g", "r"):
                for stacked, one in zip(getattr(sc, name), getattr(solo, name)):
                    assert np.array_equal(stacked[k], one[0])

    def test_blocks_equal_their_scaling_alone(self, points):
        xm, sm = points
        sc = solver._Scaling(xm, sm)
        for order, (x, s) in enumerate(zip(xm, sm)):
            for at in range(x.shape[1]):
                alone = solver._Scaling([x[:, at:at + 1]], [s[:, at:at + 1]])
                for name in ("f", "lam", "g"):
                    assert np.array_equal(getattr(sc, name)[order][:, at],
                                          getattr(alone, name)[0][:, 0])


class TestDeterminism:
    def test_bit_identical_resolves(self, rng):
        prog = make_random_feasible(rng, [3, 2], 5)
        r1 = solve(prog)
        r2 = solve(prog)
        assert r1.primal_value == r2.primal_value
        assert r1.iterations == r2.iterations
        for k in r1.primal_blocks:
            assert np.array_equal(r1.primal_blocks[k], r2.primal_blocks[k])


class TestSolveMany:
    """A batch of objectives over one program gives, member by member, the
    solo results bit for bit, whatever the other members do."""

    @staticmethod
    def same(batch, solo):
        assert batch.status == solo.status
        assert batch.iterations == solo.iterations
        assert np.array_equal(batch.primal_value, solo.primal_value, equal_nan=True)

    def test_random_objectives_match_solo_and_the_smallest_eigenvalue(self, rng):
        prog = ConicProgram()
        x = prog.add_variable("X", 5)
        prog.add_scalar_equality("trace", [(x, np.eye(5))], 1.0)
        costs = [rand_herm(rng, 5) for _ in range(20)]
        batch = solve_many(prog, [prog.objective_vector([(x, cm)]) for cm in costs])
        for cm, res in zip(costs, batch):
            assert res.status == Status.OPTIMAL
            assert abs(res.primal_value - np.linalg.eigvalsh(cm)[0]) <= 1e-7
            self.same(res, solve(prog.with_objective([(x, cm)], "min")))

    @staticmethod
    def one_member_result(program, data, c, x, y, s, tau):
        """The Optimal result of one member as the loop built it before the
        results were stacked: 1-D products, `np.linalg.norm` and floats."""
        sense, a, b = program.sense, data["A"], data["b"]
        r = a.shape[0]
        xs, ys, ss = x / tau, y / tau, s / tau
        y_orig = sense * data["d_inv"] * (data["u_r"] @ ys)
        duals = {}
        for g in program.eq_groups:
            part = y_orig[g.rows]
            duals[g.name] = (smat(part @ g.basis, int(np.sqrt(g.basis.shape[1])))
                             if g.basis is not None else float(part[0]) if g.scalar
                             else smat(part, int(np.sqrt(part.size))))
        duals.update((g.name, smat(sense * ss[program.block_slice(g.slack)], g.slack.cdim))
                     for g in program.psd_groups)
        pobj = sense * float(c @ xs)
        dobj = sense * float(b @ ys) if r else 0.0
        residuals = {"primal": float(np.linalg.norm((a @ xs) - b)) if r else 0.0,
                     "dual": float(np.linalg.norm((a.T @ ys if r else 0.0) + ss - c)),
                     "compl": float(xs @ ss),
                     "relgap": abs(pobj - dobj) / (1 + abs(pobj) + abs(dobj))}
        return pobj, dobj, abs(pobj - dobj), residuals, program.unpack_blocks(xs), duals

    def test_stacked_results_equal_the_one_member_formulas(self, rng, schur_path):
        # the W family pinned (string rows in a basis, a PPT slack, max) and a
        # program with a scalar row and dependent rows (min); A dense, or
        # kept by its nonzeros
        from freemarg import state_rmp
        from freemarg.discrimination import w_example_instance

        inst = w_example_instance()
        w_set, _ = state_rmp._program(inst, pinned=True, pairs=inst.pairs)
        w_set.set_objective([], "max")
        prog = ConicProgram()
        x = prog.add_variable("X", 3)
        prog.add_scalar_equality("trace", [(x, np.eye(3))], 1.0)
        prog.add_matrix_equality("whole", [(x, identity_map(3))], np.eye(3) / 3)  # dependent
        prog.add_psd_inequality("floor", [(x, identity_map(3))], -np.eye(3) / 10)
        for program in (w_set, prog):
            data = program.compile()
            r, n = data["A"].shape
            c, x, s = (rng.normal(size=(4, n)) for _ in range(3))
            y, tau = rng.normal(size=(4, r)), rng.uniform(0.5, 2.0, size=4)
            stacked = solver._optimal_results(program, data, c, x, y, s, tau, 7)
            for k, res in enumerate(stacked):
                pobj, dobj, gap, residuals, blocks, duals = self.one_member_result(
                    program, data, c[k], x[k], y[k], s[k], tau[k])
                assert (res.primal_value, res.dual_value, res.gap) == (pobj, dobj, gap)
                assert res.residuals == residuals and res.iterations == 7
                for got, want in [(res.primal_blocks, blocks), (res.dual_multipliers, duals)]:
                    assert got.keys() == want.keys()
                    assert all(np.array_equal(got[name], want[name]) for name in want)

    def test_mixed_statuses_in_one_batch(self):
        # X >= 0 is free, so only the +I objective on it is bounded below
        prog = ConicProgram()
        x = prog.add_variable("X", 2)
        y = prog.add_variable("Y", 2)
        prog.add_scalar_equality("unit", [(y, np.eye(2))], 1.0)
        terms = [[(x, cx), (y, 2 * np.eye(2))]
                 for cx in (np.eye(2), -np.eye(2), np.diag([1.0, -1.0]))]
        batch = solve_many(prog, [prog.objective_vector(t) for t in terms])
        solo = [solve(prog.with_objective(t, "min")) for t in terms]
        assert [r.status for r in solo] == [Status.OPTIMAL, Status.UNBOUNDED, Status.UNBOUNDED]
        assert solo[0].primal_value == pytest.approx(2.0, abs=1e-7)
        for res, ref in zip(batch, solo):
            self.same(res, ref)

    def test_failing_member_ends_alone(self, rng, monkeypatch):
        # a Cholesky factorization that fails on any stack holding a block
        # with an imaginary part: only the member with a complex objective
        # grows one, after its first step
        prog = ConicProgram()
        x = prog.add_variable("X", 3)
        prog.add_scalar_equality("trace", [(x, np.eye(3))], 1.0)
        poison = np.diag([1.0, 2.0, 3.0]) + 0j
        poison[0, 1], poison[1, 0] = 0.5j, -0.5j
        costs = [np.diag(rng.permutation([1.0, 2.0, 3.0])) for _ in range(4)]
        costs.insert(2, poison)
        real_cholesky = np.linalg.cholesky

        def cholesky(m):
            if np.any(np.abs(np.imag(m)) > 1e-9):
                raise np.linalg.LinAlgError("injected failure")
            return real_cholesky(m)

        monkeypatch.setattr(np.linalg, "cholesky", cholesky)
        batch = solve_many(prog, [prog.objective_vector([(x, cm)]) for cm in costs])
        solo = [solve(prog.with_objective([(x, cm)], "min")) for cm in costs]
        assert batch[2].status == Status.NUMERICAL_FAILURE
        assert "injected failure" in batch[2].residuals["note"]
        for k, (res, ref) in enumerate(zip(batch, solo)):
            self.same(res, ref)
            if k != 2:
                assert res.status == Status.OPTIMAL
                assert res.primal_value == pytest.approx(1.0, abs=1e-7)

    def test_repeated_block_orders_match_solo(self, rng):
        # blocks of orders 2, 3, 2, 3, 1 share two stacks of equal order
        prog = make_random_feasible(rng, [2, 3, 2, 3, 1], 6)
        refs = prog.blocks
        costs = [prog.objective_vector([(ref, rand_herm(rng, ref.cdim) + 3 * np.eye(ref.cdim))
                                        for ref in refs]) for _ in range(4)]
        costs.append(prog.objective)
        batch = solve_many(prog, costs)
        for cost, res in zip(costs, batch):
            assert res.status == Status.OPTIMAL
            solo = solve_many(prog, [cost])[0]
            self.same(res, solo)
            for name, block in solo.primal_blocks.items():
                assert np.array_equal(res.primal_blocks[name], block)

    def test_program_without_equalities(self):
        prog = ConicProgram()
        x = prog.add_variable("X", 2)
        terms = [[(x, np.eye(2))], [(x, -np.eye(2))]]
        batch = solve_many(prog, [prog.objective_vector(t) for t in terms])
        assert [r.status for r in batch] == [Status.OPTIMAL, Status.UNBOUNDED]
        for res, t in zip(batch, terms):
            self.same(res, solve(prog.with_objective(t, "min")))

    def test_no_objectives(self):
        prog = make_random_feasible(np.random.default_rng(1), [2], 2)
        assert solve_many(prog, []) == []


class TestLinMaps:
    def test_adjoint_identities(self, rng):
        lay = qubit_layout("ABC")
        maps = [
            partial_trace_map(lay, ("A", "C")),
            partial_transpose_map(lay, ("B",)),
            replacement_defect_map(lay, ("B",)),
            replacement_defect_map(lay, ("A", "C"), rand_herm(rng, 4)),
            replacement_defect_map(lay, lay.labels, rand_herm(rng, 8)),
            replacement_defect_map(lay.sublayout(("A", "C")), ("C",))
            @ partial_trace_map(lay, ("A", "C")),
            partial_transpose_map(lay.sublayout(("A", "C")), ("C",))
            @ partial_trace_map(lay, ("A", "C")),
        ]
        for lm in maps:
            for _ in range(5):
                m = rand_herm(rng, lm.in_dim)
                h = rand_herm(rng, lm.out_dim)
                lhs = np.trace(h.conj().T @ lm.apply(m))
                rhs = np.trace(lm.adjoint(h).conj().T @ m)
                assert lhs == pytest.approx(rhs, abs=1e-10)

    def test_partial_trace_map_matches_op(self, rng):
        from freemarg.herm import HermitianOperator, SubsystemSet, partial_trace

        lay = qubit_layout("ABC")
        m = rand_herm(rng, 8)
        lm = partial_trace_map(lay, ("B", "C"))
        direct = partial_trace(HermitianOperator(lay, m), SubsystemSet(lay, ("B", "C")))
        assert np.allclose(lm.apply(m), direct.entries)


class TestObjectiveSwap:
    def test_with_objective_reuses_constraints(self, rng):
        prog = make_random_feasible(rng, [3], 4)
        res1 = solve(prog)
        prog2 = prog.with_objective(
            [(prog.blocks[0], np.eye(3))], "min")
        res2 = solve(prog2)
        assert res2.status == Status.OPTIMAL
        # original program unchanged
        res1b = solve(prog)
        assert res1b.primal_value == res1.primal_value


class TestTrace:
    def test_debug_logger_emits_lines(self, rng, caplog):
        caplog.set_level(logging.DEBUG, logger="freemarg.solver")
        prog = make_random_feasible(rng, [2], 2)
        solve(prog)
        assert "iter" in caplog.text and "mu=" in caplog.text


def every_map_kind(rng) -> dict[int, np.ndarray]:
    """svec rows on a block of order 8 and one of order 4, of each kind the
    programs build, shuffled among zero rows."""
    lay = qubit_layout("ABC")
    ac = lay.sublayout(("A", "C"))
    rows = {
        8: [partial_trace_map(lay, ("A", "B")).dense(),
            (partial_transpose_map(ac, ("C",)) @ partial_trace_map(lay, ("A", "C"))).dense(),
            replacement_defect_map(lay, ("B",)).dense(),
            (replacement_defect_map(ac, ("C",)) @ partial_trace_map(lay, ("A", "C"))).dense(),
            replacement_defect_map(lay, lay.labels, rand_herm(rng, 8)).dense(),
            svec(np.eye(8))[None],
            -np.eye(64),
            np.zeros((3, 64))],
        4: [replacement_defect_map(qubit_layout("AB"), ("B",)).dense(), -np.eye(16),
            np.zeros((2, 16))],
    }
    return {d: rng.permutation(np.vstack(parts)) for d, parts in rows.items()}


class TestSchurAssembly:
    """M_n[l, k] = tr(A_k G A_l G), assembled densely or by local
    contraction, and what the solver builds on it."""

    # the dense layout is built from the block's dense columns of A, or,
    # where A keeps its nonzeros, from A_n's nonzeros scattered into zeros
    @pytest.mark.parametrize("reduced", [True, False], ids=["dense", "from_nonzeros"])
    def test_matches_the_trace_formula(self, rng, reduced):
        for d, a_blk in every_map_kind(rng).items():
            if reduced:
                part = a_blk
            else:
                rows, coords = np.nonzero(a_blk)
                part = np.zeros_like(a_blk)
                part[rows, coords] = a_blk[rows, coords]
            blk = _BlockRows.of(part, d)
            assert blk.mats is not None and blk.local is None
            assert np.array_equal(blk.rows, np.unique(np.nonzero(a_blk)[0]))
            z = rng.normal(size=(2, d, d)) + 1j * rng.normal(size=(2, d, d))
            g = z @ np.swapaxes(z.conj(), -1, -2) + 0.1 * np.eye(d)
            m_n = np.zeros((2, len(a_blk), len(a_blk)))
            blk.add_schur(g, m_n)
            ag = smat(a_blk, d) @ g[:, None]
            ref = np.einsum("ckij,clji->clk", ag, ag).real
            assert np.max(np.abs(m_n - ref)) <= 1e-12 * np.max(np.abs(ref))

    def test_local_layout_matches_the_trace_formula(self, rng, monkeypatch):
        # groups of mixed sizes, two of them PSD inequalities with a slack,
        # one of those on the identity, on factors of dimensions 2, 3, 2,
        # with uneven row norms; every block is local, a slack by its term
        # minus the identity
        monkeypatch.setattr(solver, "_LOCAL_SCHUR_MACS", -1)
        lay = SubsystemLayout([("A", 2), ("B", 3), ("C", 2)])
        ac = lay.sublayout(("A", "C"))
        prog = ConicProgram()
        v = prog.add_variable("V", 12)
        prog.add_matrix_equality("ab", [(v, partial_trace_map(lay, ("A", "B")))],
                                 rand_herm(rng, 6))
        prog.add_matrix_equality("none", [(v, partial_trace_map(lay, ()))], np.ones((1, 1)))
        prog.add_psd_inequality("ppt", [(v, partial_transpose_map(ac, ("C",))
                                         @ partial_trace_map(lay, ("A", "C")))])
        prog.add_matrix_equality("bc", [(v, partial_trace_map(lay, ("B", "C")))],
                                 rand_herm(rng, 6))
        prog.add_matrix_equality("ac", [(v, partial_trace_map(lay, ("A", "C")))],
                                 rand_herm(rng, 4))
        prog.add_psd_inequality("all", [(v, partial_trace_map(lay, lay.labels))],
                                const=-np.eye(12) / 24)
        assert [blk.cdim for blk in prog.blocks] == [12, 4, 12]
        self.check_local_layout(rng, prog)

    def test_local_layout_of_groups_without_their_own_form(self, rng, monkeypatch):
        # groups that keep every factor: a bare replacement defect, two
        # terms on V, a form over other factors and a probe row, next to
        # the partial trace onto every factor; each group its own kept set
        monkeypatch.setattr(solver, "_LOCAL_SCHUR_MACS", -1)
        lay = SubsystemLayout([("A", 2), ("B", 3), ("C", 2)])
        prog = ConicProgram()
        v = prog.add_variable("V", 12)
        prog.add_matrix_equality("ab", [(v, partial_trace_map(lay, ("A", "B")))],
                                 rand_herm(rng, 6))
        prog.add_matrix_equality("defect", [(v, replacement_defect_map(lay, ("B",)))],
                                 np.zeros((12, 12)))
        prog.add_matrix_equality("two", [(v, partial_trace_map(lay, ("B", "C")))] * 2,
                                 rand_herm(rng, 6))
        other = SubsystemLayout([("X", 6), ("Y", 2)])
        prog.add_matrix_equality("other", [(v, partial_trace_map(other, ("Y",)))],
                                 rand_herm(rng, 2))
        prog.add_scalar_equality("probe", [(v, rand_herm(rng, 12))], 1.0)
        prog.add_matrix_equality("all", [(v, partial_trace_map(lay, lay.labels))],
                                 rand_herm(rng, 12))
        # one (rows, scale, inner) per group: the partial traces onto AB and
        # onto every factor have no inner, the others their summed matrix
        groups = self.check_local_layout(rng, prog)[0].local[1]
        assert [rows for rows, _, _ in groups] == [g.rows for g in prog.eq_groups]
        assert [inner is None for _, _, inner in groups] == [True, False, False, False, False,
                                                             True]
        assert all(scale.size == rows.stop - rows.start for rows, scale, _ in groups)

    @staticmethod
    def check_local_layout(rng, prog):
        """Each block's rows on the local layout, built from its row groups
        (these rows are rank-deficient, so `compile` lays every block out
        dense), checked against the trace formula."""
        d_inv = prog.compile()["d_inv"]
        a_n = d_inv[:, None] * prog.equality_rows()[0].dense()
        block_rows = [_BlockRows.of_local(prog._local_terms(blk), d_inv) for blk in prog.blocks]
        for blk, rows in zip(prog.blocks, block_rows):
            assert rows.local is not None
            d = blk.cdim
            z = rng.normal(size=(2, d, d)) + 1j * rng.normal(size=(2, d, d))
            g = z @ np.swapaxes(z.conj(), -1, -2) + 0.1 * np.eye(d)
            m_n = np.zeros((2, len(a_n), len(a_n)))
            rows.add_schur(g, m_n)
            ag = smat(a_n[:, prog.block_slice(blk)], d) @ g[:, None]
            ref = np.einsum("ckij,clji->clk", ag, ag).real
            assert np.max(np.abs(m_n - ref)) <= 1e-12 * np.max(np.abs(ref))
        return block_rows

    def test_batch_member_equals_solo_on_four_qubits(self, rng, schur_path):
        from freemarg.freesets import FreeSetSpec
        from freemarg.herm import SubsystemSet
        from freemarg.state_rmp import MarginalFamily, RmpInstance, _program
        from freemarg.states import marginal_of, random_density

        lay = qubit_layout("ABCD")
        rho = random_density(lay, rng)
        fam = MarginalFamily(lay, [(m, marginal_of(rho, m)) for m in ("ABC", "BCD")])
        inst = RmpInstance(fam, FreeSetSpec.all_states(SubsystemSet(lay, lay.labels)))
        prog, v = _program(inst, pinned=True, pairs=inst.pairs)
        v_rows = prog.compile()["block_rows"][0]
        assert (v_rows.mats is None) == (v_rows.local is not None) == (schur_path == "local")
        costs = [rand_herm(rng, 16) for _ in range(3)]
        batch = solve_many(prog, [-prog.objective_vector([(v, cm)]) for cm in costs])
        for cm, res in zip(costs, batch):
            solo = solve(prog.with_objective([(v, -cm)], "min"))
            assert res.status == Status.OPTIMAL
            TestSolveMany.same(res, solo)
            assert np.array_equal(res.primal_blocks["V"], solo.primal_blocks["V"])

    def test_batch_member_equals_solo_with_a_small_inverse_leaf(self, rng, schur_path,
                                                                monkeypatch):
        # the KKT solves then substitute over many diagonal blocks, not one
        monkeypatch.setattr(solver, "_INV_LEAF", 5)
        self.test_batch_member_equals_solo_on_four_qubits(rng, schur_path)

    def test_block_without_rows_and_program_without_equalities(self, monkeypatch):
        # every block large, so compile() tries the Gram test; in the
        # mixed-status program the block X is in no equality row
        monkeypatch.setattr(solver, "_LOCAL_SCHUR_MACS", -1)
        TestSolveMany().test_mixed_statuses_in_one_batch()
        TestSolveMany().test_program_without_equalities()


class TestRankReduction:
    """compile() shows full rank by a Cholesky factor of the Gram matrix G of
    the normalized rows, and otherwise finds the rank from the eigenvalues
    of G, by one threshold; a plain SVD of the rows finds the same rank."""

    @staticmethod
    def w_compatibility():
        """The W family's compatibility program with each marginal stated
        whole, by its partial trace: AB and BC both fix the B marginal, and
        the trace row its trace, so the rows are rank-deficient (the package
        states each product string once instead)."""
        from freemarg.discrimination import w_example_instance
        from freemarg.programs import StringRows, attach_free_state_cone

        inst = w_example_instance()
        prog = ConicProgram()
        v = prog.add_variable("V", inst.layout.total_dim)
        prog.add_matrix_equality("unit_trace", [(v, inst.extract(()))], np.ones((1, 1)))
        for label, m, target in inst.pairs:
            prog.add_matrix_equality(f"marginal[{label}]", [(v, m)], target)
        attach_free_state_cone(StringRows(prog, v, inst.layout.dims),
                               inst.extract(inst.free.target), inst.free)
        return prog

    def test_gram_of_heavy_columns(self):
        # each string of a whole-layout pin meets the diagonal of V, so 16
        # columns hold more entries than `herm._HEAVY`: one dense product
        from freemarg import herm
        from freemarg.state_rmp import _program

        from test_scaling import whole_layout_instance

        inst = whole_layout_instance("singleton")
        a = _program(inst, pinned=False, pairs=inst.pairs)[0].equality_rows()[0]
        assert np.sum(np.bincount(a.cols) > herm._HEAVY) == 16
        dense = a.dense()
        assert np.max(np.abs(a.gram() - dense @ dense.T)) <= 1e-12

    @staticmethod
    def broadcasting_compatibility():
        from freemarg.state_rmp import _program

        from test_channel_rmp import broadcasting_instance

        inst = broadcasting_instance()
        return _program(inst, pinned=True, pairs=inst.pairs)[0]

    @staticmethod
    def four_qubit_robustness():
        from freemarg.freesets import FreeSetSpec
        from freemarg.herm import SubsystemSet
        from freemarg.state_rmp import MarginalFamily, RmpInstance, _program
        from freemarg.states import marginal_of, random_density

        lay = qubit_layout("ABCD")
        rho = random_density(lay, np.random.default_rng(4), rank=2)
        fam = MarginalFamily(lay, [(m, marginal_of(rho, m)) for m in ("ABC", "BCD", "ACD")])
        inst = RmpInstance(fam, FreeSetSpec.separable_ppt(SubsystemSet(lay, ("A", "C"))))
        return _program(inst, pinned=False, pairs=inst.pairs)[0]

    @staticmethod
    def six_qubit_robustness():
        from test_scaling import cyclic_instance, robustness_program

        return robustness_program(cyclic_instance(6))

    @staticmethod
    def repeated_row():
        """Random scalar rows on two blocks, the last one the first times
        1 + 1e-9: equal rows once normalized."""
        rng = np.random.default_rng(5)
        prog = ConicProgram()
        refs = [prog.add_variable("X", 3), prog.add_variable("Y", 2)]
        probes = [[rand_herm(rng, ref.cdim) for ref in refs] for _ in range(4)]
        for k, row in enumerate(probes + [[(1 + 1e-9) * p for p in probes[0]]]):
            prog.add_scalar_equality(f"eq{k}", list(zip(refs, row)), 1.0 + 1e-9 * (k == 4))
        return prog

    @staticmethod
    def plain_svd_rank(prog):
        """The normalized rows as a dense array, their rank by a plain SVD,
        and the singular values and threshold it came from."""
        a = prog.equality_rows()[0].dense()
        norms = np.linalg.norm(a, axis=1)
        a_n = a / np.where(norms > 1e-14, norms, np.inf)[:, None]
        sv = np.linalg.svd(a_n, compute_uv=False)
        tol = max(sv[0] * max(a.shape) * 1e-13, 1e-13)
        return a_n, int(np.sum(sv > tol)), sv, tol

    PROGRAMS = ["w_compatibility", "broadcasting_compatibility", "four_qubit_robustness",
                "six_qubit_robustness", "repeated_row"]

    @pytest.mark.parametrize("make", PROGRAMS)
    def test_rank_matches_plain_svd(self, make):
        prog = getattr(self, make)()
        a_n, rank, sv, tol = self.plain_svd_rank(prog)
        assert prog.compile()["A"].shape[0] == rank
        # and the rank is unambiguous at that threshold
        assert sv[rank - 1] > 1e6 * tol and (rank == sv.size or sv[rank] < 1e-3 * tol)
        if make in ("w_compatibility", "repeated_row"):
            assert rank < len(a_n)
        if make == "six_qubit_robustness":
            assert rank == len(a_n) == 400

    @pytest.mark.parametrize("make", PROGRAMS)
    def test_compile_takes_no_qr_or_svd(self, make, schur_path, monkeypatch):
        prog = getattr(self, make)()
        a_n, rank, _, _ = self.plain_svd_rank(prog)
        gram = a_n @ a_n.T
        t = 10 * len(a_n) * np.finfo(float).eps * np.trace(gram)
        assert solver._full_rank(gram, t) == (rank == len(a_n))

        def refuse(*args, **kwargs):
            raise AssertionError("compile took a QR or an SVD")

        # only around compile(): the NT scaling of a solve takes an SVD
        with monkeypatch.context() as patch:
            patch.setattr(np.linalg, "qr", refuse)
            patch.setattr(np.linalg, "svd", refuse)
            data = prog.compile()
        assert data["A"].shape[0] == rank
        # rank-deficient rows are dense; where every block is large,
        # full-rank rows keep their nonzeros
        if rank < len(a_n) or schur_path == "local":
            assert isinstance(data["A"], solver._Rows) == (rank == len(a_n))

    def test_row_within_the_rank_threshold_of_another_is_dependent(self):
        # the last row is the first plus 1e-9 times an independent probe, its
        # right-hand side consistent: once normalized, its squared distance
        # from the span of the others, about 1e-18, is below the rank
        # threshold t = 10 m eps tr(G), so it is dropped, and b_n's part
        # along it is below the infeasibility test
        rng = np.random.default_rng(8)
        prog = ConicProgram()
        x = prog.add_variable("X", 3)
        z = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        x0 = z @ z.conj().T / np.trace(z @ z.conj().T).real
        probes = [rand_herm(rng, 3) for _ in range(4)]
        probes.append(probes[0] + 1e-9 * rand_herm(rng, 3))
        for k, probe in enumerate(probes):
            prog.add_scalar_equality(f"eq{k}", [(x, probe)], np.trace(probe @ x0).real)
        prog.set_objective([(x, np.eye(3))], "min")
        assert prog.compile()["A"].shape[0] == len(probes) - 1
        assert solve(prog).status == Status.OPTIMAL

    def test_inconsistent_overlap_stated_whole_has_a_clean_ray(self):
        # AB and BC of one state, each stated whole by its partial trace, AB's
        # diagonal moved by 1e-5 diag(1, -1, 0, 0): the rows are dependent,
        # the two B marginals differ, and b_n's part along the dropped
        # eigenvectors of G is a Farkas ray of the rows as stated
        layout = qubit_layout("ABC")
        rho = random_density(layout, np.random.default_rng(6))
        prog = ConicProgram()
        v = prog.add_variable("V", 8)
        prog.add_scalar_equality("tr", [(v, np.eye(8))], 1.0)
        for keep, shift in (("AB", 1e-5), ("BC", 0.0)):
            target = marginal_of(rho, keep).entries + shift * np.diag([1.0, -1.0, 0.0, 0.0])
            prog.add_matrix_equality(keep, [(v, partial_trace_map(layout, tuple(keep)))], target)
        prog.set_objective([(v, np.eye(8))], "min")
        res = solve(prog)
        assert res.status == Status.INFEASIBLE and res.iterations == 0
        assert res.residuals["note"] == "inconsistent equalities"
        ray = res.certificate["equality_ray"]
        y = np.concatenate([[ray["tr"]], svec(ray["AB"]), svec(ray["BC"])])
        rows, rhs = prog.equality_rows()
        assert np.linalg.norm(rows.T @ y) <= 1e-9 * (rhs @ y)


class TestBlockedSolve:
    """M^-1 by blocked forward and back substitution over the Cholesky factor
    of M, with diagonal blocks of order b = `_INV_LEAF`."""

    @staticmethod
    def spd_stack(rng, order):
        z = rng.normal(size=(3, order, order)) / np.sqrt(order)
        return z @ np.swapaxes(z, -1, -2) + np.eye(order)

    @pytest.mark.parametrize("order", [1, solver._INV_LEAF, solver._INV_LEAF + 1,
                                       2 * solver._INV_LEAF + 3, 400])
    @pytest.mark.parametrize("columns", [1, 3])
    def test_matches_the_lapack_solve(self, rng, order, columns):
        m = self.spd_stack(rng, order)
        rhs = rng.normal(size=(3, order, columns))
        ref = np.linalg.solve(m, rhs)
        normal = solver._Normal(m)
        out = normal.solve(rhs)
        for got in (normal.substitute(rhs), out):
            assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))
        for k in range(3):
            assert np.array_equal(out[k], solver._Normal(m[k:k + 1]).solve(rhs[k:k + 1])[0])

    @pytest.mark.parametrize("order", [1, 17, solver._INV_LEAF])
    def test_one_block_applies_the_inverse_factor_twice(self, rng, order):
        # as the explicit inverse li of the factor did: li' (li rhs)
        m = self.spd_stack(rng, order)
        rhs = rng.normal(size=(3, order, 3))
        li = np.linalg.inv(np.linalg.cholesky(m))
        ref = np.swapaxes(li, -1, -2) @ (li @ rhs)
        assert np.array_equal(solver._Normal(m).substitute(rhs), ref)


class TestNonzeroRows:
    def test_products_match_the_dense_rows_member_by_member(self, rng):
        from test_scaling import cyclic_instance, robustness_program

        data = robustness_program(cyclic_instance(6)).compile()
        a = data["A"]
        assert isinstance(a, solver._Rows)
        assert a.shape == (400, 4496) and data["u_r"].shape == (400, 400)
        dense = a.dense()
        for mat, ref_mat in ((a, dense), (a.T, dense.T)):
            v = rng.normal(size=(3, mat.shape[1]))
            out = solver._mv(mat, v)
            ref = v @ ref_mat.T
            assert np.max(np.abs(out - ref)) <= 1e-13 * np.max(np.abs(ref))
            for k in range(3):
                assert np.array_equal(out[k], solver._mv(mat, v[k:k + 1])[0])
                assert np.array_equal(out[k], mat @ v[k])
