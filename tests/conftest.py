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


def rand_kraus(rng, d_in, d_out, n_kraus):
    """Random CPTP channel Kraus operators via a Haar isometry."""
    g = rng.normal(size=(d_out * n_kraus, d_in)) + 1j * rng.normal(size=(d_out * n_kraus, d_in))
    q, _ = np.linalg.qr(g)
    return [q[k * d_out:(k + 1) * d_out, :] for k in range(n_kraus)]
