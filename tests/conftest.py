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
from freemarg.herm import HermitianOperator
from freemarg.states import qubit_layout


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
