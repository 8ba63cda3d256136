import functools
import hashlib
import os
import sys
import warnings

# One BLAS thread, as the benchmark pins it: with two threads on a two-core
# host busy with other work, one seven-qubit solve took 43 s instead of 2 s.
# BLAS reads these when numpy is first imported, so that must come later.
if "numpy" in sys.modules:
    warnings.warn("numpy was imported before tests/conftest.py; BLAS threads are not pinned")
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np
import pytest

from freemarg.discrimination import W_EXAMPLE_DELTA, W_EXAMPLE_VECTORS, W_EXAMPLE_WEIGHTS
from freemarg.channel_rmp import ChannelSpec
from freemarg.herm import (HermitianOperator, LinearMap, hermitian_basis, permute_array,
                           svec)
from freemarg.solver import ConicProgram
from freemarg.states import qubit_layout


def pytest_addoption(parser):
    parser.addoption("--record-programs", metavar="FILE",
                     help="write a line per fresh ConicProgram.compile() to FILE: the test id "
                          "and a sha256 of the compiled data and the group names")


def pytest_configure(config):
    path = config.getoption("--record-programs")
    if not path:
        return
    out = open(path, "w")
    patch = pytest.MonkeyPatch()
    config.add_cleanup(out.close)
    config.add_cleanup(patch.undo)
    patch.setattr(ConicProgram, "compile", _recording(ConicProgram.compile, out))


def _recording(compile_, out):
    """`compile_` that writes the test id and `program_hash` of each program
    it compiles afresh to `out`."""
    @functools.wraps(compile_)
    def compile(prog):
        fresh = prog._compiled is None
        data = compile_(prog)
        if fresh:
            test = os.environ.get("PYTEST_CURRENT_TEST", "").rsplit(" ", 1)[0]
            out.write(f"{test}\t{program_hash(prog, data)}\n")
        return data
    return compile


def program_hash(prog, data) -> str:
    """sha256 over A, b, u_r, d_inv, b_perp, dims, each block's rows, mats
    and local groups, and the names of the program's groups."""
    h = hashlib.sha256()
    for key in ("A", "b", "u_r", "d_inv", "b_perp", "dims", "block_rows"):
        _digest(h, data[key])
    _digest(h, [g.name for g in prog.eq_groups + prog.psd_groups])
    return h.hexdigest()


def _digest(h, obj):
    """Feed obj to h: an array by its dtype, shape and bytes, a sequence or a
    dict item by item, an object with attributes by them, else its repr."""
    if isinstance(obj, np.ndarray):
        h.update(f"{obj.dtype}{obj.shape}".encode())
        h.update(np.ascontiguousarray(obj).tobytes())
    elif isinstance(obj, (tuple, list)):
        h.update(f"{type(obj).__name__}{len(obj)}".encode())
        for item in obj:
            _digest(h, item)
    elif isinstance(obj, dict):
        _digest(h, sorted(obj.items()))
    elif hasattr(obj, "__dict__"):
        _digest(h, vars(obj))
    else:
        h.update(repr(obj).encode())


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)


def rand_herm(rng, d):
    m = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return (m + m.conj().T) / 2


def rand_unitary(rng, d):
    z = (rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))) / np.sqrt(2)
    q, r = np.linalg.qr(z)
    ph = np.diag(r) / np.abs(np.diag(r))
    return q * ph


def psd_split(a: HermitianOperator) -> tuple[np.ndarray, np.ndarray]:
    """Jordan split a = a+ - a- with both parts PSD."""
    vals, vecs = np.linalg.eigh(a.entries)
    pos = (vecs * np.clip(vals, 0, None)) @ vecs.conj().T
    neg = (vecs * np.clip(-vals, 0, None)) @ vecs.conj().T
    return pos, neg


def defect_adjoint(layout, fixed, state=None):
    """The adjoint of M -> M - tr_F(M) (x) state, the factors F = `fixed`
    replaced in place by `state` (default I/d_F):
    H -> H - tr_F((I (x) state) H) (x) I_F."""
    n = len(layout.dims)
    fixed_axes = sorted(layout.axes_of(fixed))
    order = [a for a in range(n) if a not in fixed_axes] + fixed_axes
    d_f = layout.dim_of(fixed)
    d_r = layout.total_dim // d_f
    sigma = np.eye(d_f) / d_f if state is None else state
    dims, back = [layout.dims[a] for a in order], [order.index(a) for a in range(n)]

    def adjoint(h):
        t = permute_array(h, layout.dims, order).reshape(-1, d_r, d_f, d_r, d_f)
        reduced = np.einsum("xaibj,ji->xab", t, sigma)
        return h - permute_array(np.kron(reduced, np.eye(d_f)), dims, back)

    return adjoint


def replacement_defect_map(layout, fixed, state=None) -> LinearMap:
    """The replacement defect M -> M - tr_F(M) (x) state as a map with no
    local form: row k of its matrix is svec of its adjoint at
    `hermitian_basis(d)[k]`, a dense matrix over the d^2 coordinates."""
    adjoint = defect_adjoint(layout, fixed, state)
    return LinearMap(svec(adjoint(hermitian_basis(layout.total_dim))))


def depolarizing(in_layout, out_layout, p=1.0) -> ChannelSpec:
    """E(rho) = (1-p) rho + p tr(rho) I/d."""
    d = in_layout.total_dim
    ident = ChannelSpec.identity(in_layout, out_layout).choi.entries
    j = (1 - p) * ident + p * np.kron(np.eye(d) / d, np.eye(d) / d)
    return ChannelSpec(in_layout, out_layout, HermitianOperator(out_layout.concat(in_layout), j))


def w_example_witness_block(layout=None) -> HermitianOperator:
    """The two-qubit witness block reconstructed from the published spectrum."""
    layout = layout or qubit_layout("AB")
    m = np.zeros((4, 4), dtype=complex)
    for i in range(4):
        v = W_EXAMPLE_VECTORS[:, i]
        m += (W_EXAMPLE_WEIGHTS[i] - W_EXAMPLE_DELTA) * np.outer(v, v.conj())
    return HermitianOperator(layout, m)


def rand_kraus(rng, d_in, d_out, n_kraus):
    """Random CPTP channel Kraus operators via a Haar isometry."""
    g = rng.normal(size=(d_out * n_kraus, d_in)) + 1j * rng.normal(size=(d_out * n_kraus, d_in))
    q, _ = np.linalg.qr(g)
    return [q[k * d_out:(k + 1) * d_out, :] for k in range(n_kraus)]
