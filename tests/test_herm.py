import json

import numpy as np
import pytest

from freemarg.herm import (
    DensityMatrix,
    HermitianOperator,
    LayoutError,
    LinearMap,
    LocalSchur,
    SubsystemLayout,
    SubsystemSet,
    ValidationError,
    _Rows,
    eig_hermitian,
    hermitian_basis,
    identity_map,
    partial_trace,
    partial_trace_map,
    partial_transpose,
    partial_transpose_map,
    permute_array,
    permute_factors,
    ptranspose_array,
    smat,
    svec,
    tensor,
    trace_norm,
)
from freemarg.states import ket, maximally_mixed, pure, qubit_layout, w_marginal, w_state

from conftest import (defect_adjoint, psd_split, rand_herm, replacement_defect_map,
                      w_example_witness_block)


def herm(labels, m):
    return HermitianOperator(qubit_layout(labels), m)


class TestLayouts:
    def test_basic(self):
        lay = SubsystemLayout([("A", 2), ("B", 3)])
        assert lay.total_dim == 6
        assert lay.labels == ("A", "B")
        assert lay.dim_of(["B"]) == 3

    def test_duplicate_labels_rejected(self):
        with pytest.raises(LayoutError):
            SubsystemLayout([("A", 2), ("A", 2)])

    def test_bad_dim_rejected(self):
        with pytest.raises(LayoutError):
            SubsystemLayout([("A", 0)])

    def test_subsystem_set_orders_members(self):
        lay = qubit_layout("ABC")
        s = SubsystemSet(lay, ("C", "A"))
        assert s.members == ("A", "C")

    def test_unknown_label(self):
        with pytest.raises(LayoutError):
            SubsystemSet(qubit_layout("AB"), ("Z",))


class TestHermitianValidation:
    def test_non_hermitian_rejected(self):
        m = np.array([[0, 1], [0, 0]], dtype=complex)
        with pytest.raises(ValidationError):
            HermitianOperator(qubit_layout("A"), m)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_entry_rejected(self, bad):
        # NaN - NaN is NaN, and `dev > tol` is False for it
        m = np.eye(4, dtype=complex)
        m[0, 0] = bad
        with pytest.raises(ValidationError, match="finite"):
            HermitianOperator(qubit_layout("AB"), m)

    def test_density_matrix_checks(self):
        lay = qubit_layout("A")
        with pytest.raises(ValidationError):
            DensityMatrix.from_array(lay, np.diag([1.5, -0.5]))
        with pytest.raises(ValidationError):
            DensityMatrix.from_array(lay, np.diag([0.7, 0.7]))

    def test_entries_immutable(self):
        op = herm("A", np.eye(2))
        with pytest.raises(ValueError):
            op.entries[0, 0] = 5.0


class TestTensor:
    def test_identity(self):
        out = tensor(herm("A", np.eye(2)), herm("B", np.eye(2)))
        assert np.array_equal(out.entries, np.eye(4))

    def test_computational_basis(self):
        p0 = herm("A", np.diag([1.0, 0.0]))
        p1 = herm("B", np.diag([0.0, 1.0]))
        out = tensor(p0, p1)
        assert np.allclose(out.entries, np.diag([0, 1, 0, 0]))

    def test_trace_multiplicative(self, rng):
        for _ in range(20):
            a = herm("A", rand_herm(rng, 2))
            b = herm("B", rand_herm(rng, 2))
            assert tensor(a, b).trace() == pytest.approx(a.trace() * b.trace(), abs=1e-12)

    def test_label_collision(self):
        with pytest.raises(LayoutError):
            tensor(herm("A", np.eye(2)), herm("A", np.eye(2)))


class TestPartialTrace:
    def test_max_entangled_marginal(self):
        lay = qubit_layout("AB")
        phi = pure(lay, ket(lay, "00") + ket(lay, "11"))
        red = partial_trace(phi.op, SubsystemSet(lay, ("A",)))
        assert np.allclose(red.entries, np.eye(2) / 2, atol=1e-14)

    def test_product_state(self, rng):
        lay = qubit_layout("AB")
        a = rand_herm(rng, 2)
        a = a @ a.conj().T
        a /= np.trace(a).real
        rho = tensor(herm("A", a), herm("B", np.diag([0.25, 0.75])))
        red = partial_trace(rho, SubsystemSet(lay, ("A",)))
        assert np.allclose(red.entries, a, atol=1e-14)

    def test_w_state_marginal(self):
        # two-body reduction of the W state: 2/3 |psi><psi| + 1/3 |00><00|
        lay = qubit_layout("ABC")
        red = partial_trace(w_state(lay).op, SubsystemSet(lay, ("A", "B")))
        assert np.allclose(red.entries, w_marginal().entries, atol=1e-14)

    def test_trace_preserved(self, rng):
        lay = qubit_layout("ABC")
        m = rand_herm(rng, 8)
        red = partial_trace(HermitianOperator(lay, m), SubsystemSet(lay, ("B",)))
        assert red.trace() == pytest.approx(np.trace(m).real, abs=1e-12)

    def test_tensor_then_trace(self, rng):
        for _ in range(10):
            a = herm("A", rand_herm(rng, 2))
            b = herm("B", rand_herm(rng, 2))
            both = tensor(a, b)
            red = partial_trace(both, SubsystemSet(both.layout, ("A",)))
            assert np.max(np.abs(red.entries - b.trace() * a.entries)) < 1e-12


class TestPartialTranspose:
    def test_product_case(self, rng):
        a, b = rand_herm(rng, 2), rand_herm(rng, 2)
        rho = tensor(herm("A", a), herm("B", b))
        pt = partial_transpose(rho, SubsystemSet(rho.layout, ("B",)))
        assert np.allclose(pt.entries, np.kron(a, b.T), atol=1e-14)

    def test_max_entangled_negative_eigenvalue(self):
        lay = qubit_layout("AB")
        phi = pure(lay, ket(lay, "00") + ket(lay, "11"))
        pt = partial_transpose(phi.op, SubsystemSet(lay, ("B",)))
        assert pt.min_eig() == pytest.approx(-0.5, abs=1e-12)

    def test_involution(self, rng):
        lay = qubit_layout("ABC")
        m = HermitianOperator(lay, rand_herm(rng, 8))
        part = SubsystemSet(lay, ("A", "C"))
        twice = partial_transpose(partial_transpose(m, part), part)
        assert np.max(np.abs(twice.entries - m.entries)) < 1e-14

    def test_commutes_with_partial_trace_on_disjoint_factors(self, rng):
        lay = qubit_layout("ABC")
        m = HermitianOperator(lay, rand_herm(rng, 8))
        keep = SubsystemSet(lay, ("A", "B"))
        part = SubsystemSet(lay, ("A",))
        left = partial_trace(partial_transpose(m, part), keep)
        sub_part = SubsystemSet(left.layout, ("A",))
        right = partial_transpose(partial_trace(m, keep), sub_part)
        assert np.max(np.abs(left.entries - right.entries)) < 1e-12


class TestEig:
    def test_diagonal(self):
        lay = SubsystemLayout([("A", 3)])
        vals, vecs = eig_hermitian(HermitianOperator(lay, np.diag([3.0, 1.0, 2.0])))
        assert np.allclose(vals, [1, 2, 3])

    def test_pauli_x(self):
        sx = np.array([[0, 1], [1, 0]], dtype=complex)
        vals, vecs = eig_hermitian(herm("A", sx))
        assert np.allclose(vals, [-1, 1])

    def test_published_shifted_witness_spectrum(self):
        # the four reference eigenvalues of the shifted W-marginal witness
        from freemarg.discrimination import W_EXAMPLE_WEIGHTS

        block = w_example_witness_block()
        shifted = HermitianOperator(block.layout, block.entries + 0.01 * np.eye(4))
        vals, _ = eig_hermitian(shifted)
        assert np.max(np.abs(vals - W_EXAMPLE_WEIGHTS)) < 1e-12

    def test_reconstruction(self, rng):
        for d in (2, 4, 8):
            m = rand_herm(rng, d)
            op = HermitianOperator(SubsystemLayout([("A", d)]), m)
            vals, vecs = eig_hermitian(op)
            rebuilt = (vecs * vals) @ vecs.conj().T
            scale = max(1.0, np.max(np.abs(m)))
            assert np.max(np.abs(rebuilt - m)) < 1e-10 * scale

    def test_phase_convention(self, rng):
        m = rand_herm(rng, 4)
        _, vecs = eig_hermitian(HermitianOperator(SubsystemLayout([("A", 4)]), m))
        for k in range(4):
            first = vecs[np.flatnonzero(np.abs(vecs[:, k]) > 1e-12)[0], k]
            assert abs(first.imag) < 1e-12 and first.real > 0

    def test_deterministic(self, rng):
        m = rand_herm(rng, 6)
        op = HermitianOperator(SubsystemLayout([("A", 6)]), m)
        v1, w1 = eig_hermitian(op)
        v2, w2 = eig_hermitian(op)
        assert np.array_equal(v1, v2) and np.array_equal(w1, w2)


def rand_density_matrix(rng, d):
    z = rand_herm(rng, d)
    m = z @ z
    return m / np.trace(m).real


def reference_matrix(adjoint, out_dim):
    """A map's dense matrix by the adjoint route: row k is svec of the
    adjoint at the k-th element of the Hermitian basis."""
    return svec(adjoint(hermitian_basis(out_dim)))


def ptrace_adjoint(layout, keep):
    """H -> H (x) I on the dropped factors, back in layout order."""
    n = len(layout.dims)
    keep_axes = sorted(layout.axes_of(keep))
    order = keep_axes + [a for a in range(n) if a not in keep_axes]
    eye = np.eye(layout.total_dim // layout.dim_of(keep))
    dims, back = [layout.dims[a] for a in order], [order.index(a) for a in range(n)]
    return lambda h: permute_array(np.kron(h, eye), dims, back)


class TestMapsByNonzeros:
    """Each map's nonzeros, row by row, equal bit for bit those of its dense
    matrix built by the adjoint route; `apply` and `adjoint` agree with that
    matrix to 1e-15."""

    LAYOUT = SubsystemLayout([("A", 2), ("B", 3), ("C", 2)])

    @classmethod
    def cases(cls, rng):
        lay = cls.LAYOUT
        d = lay.total_dim
        ac = lay.sublayout(("A", "C"))
        state = rand_density_matrix(rng, 3)
        out = {}
        for keep in ("", "A", "B", "AC", "CA", "BC", "ABC"):  # "AC": not contiguous
            out[f"ptrace[{keep}]"] = (partial_trace_map(lay, tuple(keep)),
                                      reference_matrix(ptrace_adjoint(lay, keep), lay.dim_of(keep)))
        for part in ("A", "B", "AC", "ABC"):
            axes = lay.axes_of(part)
            out[f"ptranspose[{part}]"] = (
                partial_transpose_map(lay, tuple(part)),
                reference_matrix(lambda h, axes=axes: ptranspose_array(h, lay.dims, axes), d))
        out["defect[B]"] = (replacement_defect_map(lay, ("B",)),
                            reference_matrix(defect_adjoint(lay, ("B",)), d))
        out["defect[B],state"] = (replacement_defect_map(lay, ("B",), state),
                                  reference_matrix(defect_adjoint(lay, ("B",), state), d))
        everything = rand_density_matrix(rng, d)
        out["defect[ABC],state"] = (replacement_defect_map(lay, lay.labels, everything),
                                    reference_matrix(defect_adjoint(lay, "ABC", everything), d))
        # compositions after a partial trace, and probe rows
        tr_ac = out["ptrace[AC]"]
        inner = [("ptranspose[C]", partial_transpose_map(ac, ("C",)),
                  reference_matrix(lambda h: ptranspose_array(h, ac.dims, (1,)), 4)),
                 ("defect[C]", replacement_defect_map(ac, ("C",)),
                  reference_matrix(defect_adjoint(ac, ("C",)), 4))]
        for name, outer, ref in inner:
            out[f"{name}@ptrace[AC]"] = (outer @ tr_ac[0], ref @ tr_ac[1])
        probe = svec(rand_herm(rng, 4))[None]
        out["probe@ptrace[AC]"] = (LinearMap(probe) @ tr_ac[0], probe @ tr_ac[1])
        probe = svec(rand_herm(rng, d))[None]
        out["probe"] = (LinearMap(probe), probe)
        return out

    NAMES = ["ptrace[]", "ptrace[A]", "ptrace[B]", "ptrace[AC]", "ptrace[CA]", "ptrace[BC]",
             "ptrace[ABC]", "ptranspose[A]", "ptranspose[B]", "ptranspose[AC]",
             "ptranspose[ABC]", "defect[B]", "defect[B],state", "defect[ABC],state",
             "ptranspose[C]@ptrace[AC]", "defect[C]@ptrace[AC]", "probe@ptrace[AC]", "probe"]

    @pytest.mark.parametrize("name", NAMES)
    def test_nonzeros_match_the_dense_route(self, rng, name):
        lmap, ref = self.cases(rng)[name]
        rows, cols = np.nonzero(ref)
        assert lmap.nz.shape == ref.shape
        assert np.array_equal(lmap.nz.rows, rows) and np.array_equal(lmap.nz.cols, cols)
        assert lmap.nz.vals.tobytes() == ref[rows, cols].tobytes()
        # to 1e-15 of the sum of the magnitudes of each entry's terms
        x, y = svec(rand_herm(rng, lmap.in_dim)), svec(rand_herm(rng, lmap.out_dim))
        assert np.all(np.abs(svec(lmap.apply(smat(x, lmap.in_dim))) - ref @ x)
                      <= 1e-15 * (np.abs(ref) @ np.abs(x)))
        assert np.all(np.abs(svec(lmap.adjoint(smat(y, lmap.out_dim))) - y @ ref)
                      <= 1e-15 * (np.abs(y) @ np.abs(ref)))

    def test_partial_trace_and_transpose_entries_are_plus_or_minus_one(self, rng):
        for name in self.NAMES:
            if name.startswith(("ptrace", "ptranspose")):
                assert set(np.abs(self.cases(rng)[name][0].nz.vals)) == {1.0}

    def test_keeps_its_own_copy(self):
        a = np.zeros((1, 4))
        lmap = LinearMap(a)
        a[0, 0] = 1.0
        assert lmap.nz.vals.size == 0
        rows, cols, vals = np.array([0]), np.array([3]), np.array([2.0])
        lmap = LinearMap(_Rows(rows, cols, vals, (1, 4)))
        rows[0], cols[0], vals[0] = 5, 5, 5.0
        assert np.array_equal(lmap.dense(), [[0.0, 0.0, 0.0, 2.0]])
        with pytest.raises(ValueError):
            lmap.nz.vals[0] = 1.0


class TestLocalSchur:
    """The Schur block L S L'^T of two maps with local forms (L, X) and
    (L', Y), against tr(A_k G B_l G) of their rows, for a stack of two G."""

    LAYOUT = SubsystemLayout([("A", 2), ("B", 3), ("C", 2)])

    @classmethod
    def maps(cls):
        lay = cls.LAYOUT
        ac = lay.sublayout(("A", "C"))
        out = {keep: partial_trace_map(lay, tuple(keep))
               for keep in ("", "A", "B", "AB", "BC", "AC", "ABC")}
        out["pt(AC)"] = partial_transpose_map(ac, ("C",)) @ out["AC"]
        return out

    @pytest.mark.parametrize("x, y", [
        ("AB", "AB"), ("AC", "AC"),            # equal, contiguous or not
        ("AB", "BC"), ("AC", "BC"),            # overlapping
        ("A", "BC"), ("B", "AC"),              # disjoint
        ("", ""), ("", "AB"), ("ABC", ""),     # nothing kept, or all
        ("pt(AC)", "AC"), ("pt(AC)", "pt(AC)"), ("AB", "pt(AC)"),
    ])
    def test_matches_the_trace_formula(self, rng, x, y):
        d = self.LAYOUT.total_dim
        z = rng.normal(size=(2, d, d)) + 1j * rng.normal(size=(2, d, d))
        g = z @ np.swapaxes(z.conj(), -1, -2) + 0.1 * np.eye(d)
        mx, my = self.maps()[x], self.maps()[y]
        s = LocalSchur(mx.local.dims, [mx.local.keep, my.local.keep])(g)[0, 1]
        lx, ly = (np.eye(s.shape[-2]) if mx.local.inner is None else mx.local.inner,
                  np.eye(s.shape[-1]) if my.local.inner is None else my.local.inner)
        out = lx @ s @ ly.T
        ax, ay = smat(mx.dense(), d) @ g[:, None], smat(my.dense(), d) @ g[:, None]
        ref = np.einsum("ckij,clji->ckl", ax, ay).real
        assert out.shape == ref.shape
        assert np.max(np.abs(out - ref)) <= 1e-12 * np.max(np.abs(ref))

    def test_composition_carries_the_local_form(self):
        maps = self.maps()
        ab = self.LAYOUT.sublayout(("A", "B"))
        assert maps["AC"].local == (self.LAYOUT.dims, (0, 2), None, 1.0)
        pin = replacement_defect_map(ab, ("B",))
        outer = replacement_defect_map(ab, ("A",)) @ pin @ maps["AB"]
        assert outer.local.keep == (0, 1)
        assert np.allclose(outer.local.inner @ maps["AB"].dense(), outer.dense(), atol=1e-14)
        # only the innermost map decides: a map before a partial trace has none
        assert (maps["AB"] @ replacement_defect_map(self.LAYOUT, ("C",))).local is None

    def test_the_identity_leaves_the_outer_map_as_it_is(self):
        # the partial trace onto every factor is the identity, with the local
        # form "keep every factor"; after it an outer map keeps its nonzeros
        # and its lack of a local form
        lay = self.LAYOUT
        identity = self.maps()["ABC"]
        assert np.array_equal(identity.dense(), np.eye(lay.total_dim ** 2))
        assert identity.local == (lay.dims, (0, 1, 2), None, 1.0)
        for outer in (partial_transpose_map(lay, ("B",)), replacement_defect_map(lay, ("A",)),
                      LinearMap(svec(np.diag(np.arange(12.0)))[None])):
            composed = outer @ identity
            assert composed.local is None
            for mine, theirs in zip(composed.nz, outer.nz):
                assert np.array_equal(mine, theirs)
        minus = identity_map(5, -1.0)
        assert np.array_equal(minus.dense(), -np.eye(25))
        assert minus.local == ((5,), (0,), None, -1.0)
        transpose = partial_transpose_map(SubsystemLayout([("A", 5)]), ("A",))
        assert (transpose @ minus).local.scale == -1.0


class TestNorms:
    def test_trace_norm_matches_psd_split(self, rng):
        for _ in range(10):
            m = rand_herm(rng, 5)
            op = HermitianOperator(SubsystemLayout([("A", 5)]), m)
            pos, neg = psd_split(op)
            assert trace_norm(op) == pytest.approx(
                np.trace(pos).real + np.trace(neg).real, abs=1e-10)
            assert np.max(np.abs(pos - neg - m)) < 1e-12
            assert np.linalg.eigvalsh(pos)[0] > -1e-12
            assert np.linalg.eigvalsh(neg)[0] > -1e-12


class TestPermute:
    def test_permutation_round_trip(self, rng):
        lay = qubit_layout("ABC")
        m = HermitianOperator(lay, rand_herm(rng, 8))
        p = permute_factors(m, ("C", "A", "B"))
        assert p.layout.labels == ("C", "A", "B")
        back = permute_factors(p, ("A", "B", "C"))
        assert np.max(np.abs(back.entries - m.entries)) < 1e-14

    def test_matches_kron_swap(self, rng):
        a, b = rand_herm(rng, 2), rand_herm(rng, 3)
        big = tensor(HermitianOperator(SubsystemLayout([("A", 2)]), a),
                     HermitianOperator(SubsystemLayout([("B", 3)]), b))
        swapped = permute_factors(big, ("B", "A"))
        assert np.allclose(swapped.entries, np.kron(b, a), atol=1e-14)


class TestSerialization:
    def test_exact_round_trip(self, rng):
        m = rand_herm(rng, 4)
        op = HermitianOperator(qubit_layout("AB"), m)
        text = json.dumps(op.to_json())
        back = HermitianOperator.from_json(json.loads(text))
        assert np.array_equal(back.entries, op.entries)
        assert back.layout == op.layout

    def test_density_round_trip(self):
        rho = maximally_mixed(qubit_layout("AB"))
        back = DensityMatrix.from_json(json.loads(json.dumps(rho.to_json())))
        assert np.array_equal(back.entries, rho.entries)
