"""Standard states and small constructors used throughout the package."""

from __future__ import annotations

import numpy as np

from .herm import DensityMatrix, SubsystemLayout, SubsystemSet


def qubit_layout(labels: str | list[str]) -> SubsystemLayout:
    return SubsystemLayout([(l, 2) for l in labels])


def ket(layout: SubsystemLayout, index: int | str) -> np.ndarray:
    """Computational basis vector, by flat index or digit string."""
    if isinstance(index, str):
        flat = 0
        for digit, dim in zip(index, layout.dims):
            flat = flat * dim + int(digit)
        index = flat
    v = np.zeros(layout.total_dim, dtype=complex)
    v[index] = 1.0
    return v


def pure(layout: SubsystemLayout, vec: np.ndarray) -> DensityMatrix:
    vec = np.asarray(vec, dtype=complex)
    vec = vec / np.linalg.norm(vec)
    return DensityMatrix.from_array(layout, np.outer(vec, vec.conj()))


def maximally_mixed(layout: SubsystemLayout) -> DensityMatrix:
    d = layout.total_dim
    return DensityMatrix.from_array(layout, np.eye(d) / d)


def max_entangled(layout: SubsystemLayout) -> DensityMatrix:
    """|Phi+> = sum_i |ii>/sqrt(d) on a two-factor layout of equal dims."""
    da, db = layout.dims
    if da != db:
        raise ValueError("maximally entangled state needs equal local dimensions")
    v = np.zeros(da * db, dtype=complex)
    for i in range(da):
        v[i * db + i] = 1.0
    return pure(layout, v)


def sym_bell(layout: SubsystemLayout) -> DensityMatrix:
    """(|01> + |10>)/sqrt(2) on a two-qubit layout."""
    v = ket(layout, "01") + ket(layout, "10")
    return pure(layout, v)


def w_state(layout: SubsystemLayout | None = None) -> DensityMatrix:
    """(|001> + |010> + |100>)/sqrt(3) on three qubits."""
    layout = layout or qubit_layout("ABC")
    v = ket(layout, "001") + ket(layout, "010") + ket(layout, "100")
    return pure(layout, v)


def w_marginal(layout: SubsystemLayout | None = None) -> DensityMatrix:
    """Two-qubit marginal of the W state: 2/3 |psi><psi| + 1/3 |00><00|
    with |psi> = (|01> + |10>)/sqrt(2); identical for every qubit pair."""
    layout = layout or qubit_layout("AB")
    psi = (ket(layout, "01") + ket(layout, "10")) / np.sqrt(2)
    zero = ket(layout, "00")
    m = (2 / 3) * np.outer(psi, psi.conj()) + (1 / 3) * np.outer(zero, zero.conj())
    return DensityMatrix.from_array(layout, m)


def random_density(layout: SubsystemLayout, rng: np.random.Generator,
                   rank: int | None = None) -> DensityMatrix:
    d = layout.total_dim
    k = rank or d
    g = rng.normal(size=(d, k)) + 1j * rng.normal(size=(d, k))
    m = g @ g.conj().T
    return DensityMatrix.from_array(layout, m / np.trace(m).real)


def marginal_of(rho: DensityMatrix, labels: list[str] | tuple[str, ...] | str) -> DensityMatrix:
    from .herm import partial_trace

    keep = SubsystemSet(rho.layout, list(labels))
    return DensityMatrix(partial_trace(rho.op, keep))
