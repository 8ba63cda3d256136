"""Dense complex Hermitian linear algebra over labeled tensor-product spaces.

Operators carry a `SubsystemLayout` naming their tensor factors, so partial
traces and partial transposes are addressed by label rather than by axis
index.  The basis convention is the usual Kronecker one: the first factor is
the most significant index, e.g. a two-qubit basis is ordered
|00>, |01>, |10>, |11>.

All values are immutable after construction and safe to share across
workers.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .config import DEFAULT_TOLS


class LayoutError(ValueError):
    """Label bookkeeping went wrong (unknown label, collision, mismatch)."""


class ValidationError(ValueError):
    """A matrix failed a Hermiticity / PSD / trace invariant."""


# ---------------------------------------------------------------------------
# Layouts
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SubsystemLayout:
    """Ordered collection of labeled tensor factors."""

    factors: tuple[tuple[str, int], ...]

    def __init__(self, factors: Iterable[tuple[str, int]]):
        factors = tuple((str(lbl), int(dim)) for lbl, dim in factors)
        labels = [lbl for lbl, _ in factors]
        if len(set(labels)) != len(labels):
            raise LayoutError(f"duplicate labels in layout: {labels}")
        if any(dim < 1 for _, dim in factors):
            raise LayoutError("every factor dimension must be >= 1")
        object.__setattr__(self, "factors", factors)

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(lbl for lbl, _ in self.factors)

    @property
    def dims(self) -> tuple[int, ...]:
        return tuple(dim for _, dim in self.factors)

    @property
    def total_dim(self) -> int:
        return int(np.prod(self.dims, dtype=np.int64)) if self.factors else 1

    def dim_of(self, labels: Iterable[str]) -> int:
        by_label = dict(self.factors)
        return int(np.prod([by_label[l] for l in self._check(labels)], dtype=np.int64))

    def axes_of(self, labels: Iterable[str]) -> tuple[int, ...]:
        order = {lbl: k for k, (lbl, _) in enumerate(self.factors)}
        return tuple(order[l] for l in self._check(labels))

    def sublayout(self, labels: Iterable[str]) -> "SubsystemLayout":
        """Sub-layout of the given labels, kept in this layout's order."""
        keep = set(self._check(labels))
        return SubsystemLayout([f for f in self.factors if f[0] in keep])

    def concat(self, other: "SubsystemLayout") -> "SubsystemLayout":
        clash = set(self.labels) & set(other.labels)
        if clash:
            raise LayoutError(f"label collision between layouts: {sorted(clash)}")
        return SubsystemLayout(self.factors + other.factors)

    def _check(self, labels: Iterable[str]) -> tuple[str, ...]:
        labels = tuple(labels)
        unknown = [l for l in labels if l not in self.labels]
        if unknown:
            raise LayoutError(f"unknown labels {unknown}; layout has {self.labels}")
        return labels

    def to_json(self) -> list:
        return [[lbl, dim] for lbl, dim in self.factors]

    @staticmethod
    def from_json(data: Sequence) -> "SubsystemLayout":
        """[[label, dim], ...]; a dimension must be an integer, not a string."""
        return SubsystemLayout([(str(l), operator.index(d)) for l, d in data])


@dataclass(frozen=True)
class SubsystemSet:
    """A nonempty subset of a layout's factor labels (order: as in layout)."""

    layout: SubsystemLayout
    members: tuple[str, ...]

    def __init__(self, layout: SubsystemLayout, members: Iterable[str]):
        members = tuple(members)
        if not members:
            raise LayoutError("subsystem set must be nonempty")
        if len(set(members)) != len(members):
            raise LayoutError(f"repeated labels in subsystem set: {members}")
        layout._check(members)
        ordered = tuple(l for l in layout.labels if l in set(members))
        object.__setattr__(self, "layout", layout)
        object.__setattr__(self, "members", ordered)

    @property
    def dim(self) -> int:
        return self.layout.dim_of(self.members)

    def sublayout(self) -> SubsystemLayout:
        return self.layout.sublayout(self.members)


# ---------------------------------------------------------------------------
# Array-level helpers (raw ndarrays + explicit dims)
# ---------------------------------------------------------------------------


def hermitize(arr: np.ndarray) -> np.ndarray:
    """Hermitian part of a square matrix, or of each matrix of a stack."""
    return (arr + np.swapaxes(arr.conj(), -1, -2)) / 2


def ptrace_array(arr: np.ndarray, dims: Sequence[int], keep_axes: Sequence[int]) -> np.ndarray:
    """Partial trace of a square matrix over the axes not in `keep_axes`."""
    n = len(dims)
    keep = sorted(keep_axes)
    t = arr.reshape(*dims, *dims)
    # trace out dropped axes one at a time, highest axis first
    for ax in sorted(set(range(n)) - set(keep), reverse=True):
        t = np.trace(t, axis1=ax, axis2=ax + t.ndim // 2)
    d = int(np.prod([dims[a] for a in keep], dtype=np.int64)) if keep else 1
    return t.reshape(d, d)


def ptranspose_array(arr: np.ndarray, dims: Sequence[int], part_axes: Sequence[int]) -> np.ndarray:
    """Transpose the designated tensor factors of a square matrix."""
    n = len(dims)
    t = arr.reshape(*dims, *dims)
    perm = list(range(2 * n))
    for ax in part_axes:
        perm[ax], perm[ax + n] = perm[ax + n], perm[ax]
    d = arr.shape[0]
    return t.transpose(perm).reshape(d, d)


def permute_array(arr: np.ndarray, dims: Sequence[int], perm: Sequence[int]) -> np.ndarray:
    """Reorder tensor factors: axis k of the result is axis perm[k] of the input."""
    n = len(dims)
    t = arr.reshape(*dims, *dims)
    full = list(perm) + [p + n for p in perm]
    d = arr.shape[0]
    return t.transpose(full).reshape(d, d)


# ---------------------------------------------------------------------------
# Operator types
# ---------------------------------------------------------------------------


def _freeze(arr: np.ndarray) -> np.ndarray:
    out = np.array(arr, dtype=complex)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class HermitianOperator:
    """A dense Hermitian matrix over a labeled tensor-product space."""

    layout: SubsystemLayout
    entries: np.ndarray = field(repr=False)

    def __init__(self, layout: SubsystemLayout, entries: np.ndarray):
        entries = np.asarray(entries, dtype=complex)
        d = layout.total_dim
        if entries.shape != (d, d):
            raise ValidationError(f"entries shape {entries.shape} != layout dim {d}")
        dev = float(np.max(np.abs(entries - entries.conj().T))) if d else 0.0
        if dev > DEFAULT_TOLS.hermiticity:
            raise ValidationError(f"not Hermitian: max |M - M^dag| = {dev:.3e}")
        object.__setattr__(self, "layout", layout)
        object.__setattr__(self, "entries", _freeze(hermitize(entries)))

    @property
    def dim(self) -> int:
        return self.layout.total_dim

    def trace(self) -> float:
        return float(np.trace(self.entries).real)

    def min_eig(self) -> float:
        return float(np.linalg.eigvalsh(self.entries)[0])

    def subsystems(self, labels: Iterable[str]) -> SubsystemSet:
        return SubsystemSet(self.layout, labels)

    def to_json(self) -> dict:
        return {"layout": self.layout.to_json(), "data": matrix_to_json(self.entries)}

    @staticmethod
    def from_json(data: dict) -> "HermitianOperator":
        layout = SubsystemLayout.from_json(data["layout"])
        return HermitianOperator(layout, matrix_from_json(data["data"]))


@dataclass(frozen=True)
class DensityMatrix:
    """Unit-trace PSD Hermitian operator."""

    op: HermitianOperator

    def __init__(self, op: HermitianOperator):
        if op.min_eig() < -DEFAULT_TOLS.psd:
            raise ValidationError(f"not PSD: min eigenvalue {op.min_eig():.3e}")
        if abs(op.trace() - 1.0) > DEFAULT_TOLS.trace:
            raise ValidationError(f"trace {op.trace()} != 1")
        object.__setattr__(self, "op", op)

    @property
    def layout(self) -> SubsystemLayout:
        return self.op.layout

    @property
    def entries(self) -> np.ndarray:
        return self.op.entries

    @property
    def dim(self) -> int:
        return self.op.dim

    @staticmethod
    def from_array(layout: SubsystemLayout, entries: np.ndarray) -> "DensityMatrix":
        return DensityMatrix(HermitianOperator(layout, entries))

    def to_json(self) -> dict:
        return self.op.to_json()

    @staticmethod
    def from_json(data: dict) -> "DensityMatrix":
        return DensityMatrix(HermitianOperator.from_json(data))


# ---------------------------------------------------------------------------
# Operations
# ---------------------------------------------------------------------------


def tensor(a: HermitianOperator, b: HermitianOperator) -> HermitianOperator:
    """Kronecker product on concatenated layouts."""
    return HermitianOperator(a.layout.concat(b.layout), np.kron(a.entries, b.entries))


def partial_trace(a: HermitianOperator, keep: SubsystemSet) -> HermitianOperator:
    """Trace out all factors outside `keep`; result keeps the original order."""
    if keep.layout != a.layout:
        raise LayoutError("subsystem set refers to a different layout")
    axes = a.layout.axes_of(keep.members)
    out = ptrace_array(a.entries, a.layout.dims, axes)
    return HermitianOperator(a.layout.sublayout(keep.members), out)


def partial_transpose(a: HermitianOperator, part: SubsystemSet) -> HermitianOperator:
    """Transpose the factors in `part`, leaving the rest untouched."""
    if part.layout != a.layout:
        raise LayoutError("subsystem set refers to a different layout")
    axes = a.layout.axes_of(part.members)
    return HermitianOperator(a.layout, ptranspose_array(a.entries, a.layout.dims, axes))


def permute_factors(a: HermitianOperator, new_order: Sequence[str]) -> HermitianOperator:
    """Reorder the tensor factors to the given label order."""
    if sorted(new_order) != sorted(a.layout.labels):
        raise LayoutError(f"{new_order} is not a permutation of {a.layout.labels}")
    perm = a.layout.axes_of(new_order)
    out = permute_array(a.entries, a.layout.dims, perm)
    layout = SubsystemLayout([a.layout.factors[p] for p in perm])
    return HermitianOperator(layout, out)


def eig_hermitian(a: HermitianOperator) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition with a deterministic ordering convention.

    Eigenvalues ascend; each eigenvector is phase-normalized so its first
    non-negligible component is real positive; (near-)degenerate groups are
    ordered lexicographically by the normalized vector entries.
    """
    vals, vecs = np.linalg.eigh(a.entries)
    vecs = _phase_normalize(vecs)
    order = _tie_break_order(vals, vecs)
    return vals[order].copy(), vecs[:, order].copy()


def _phase_normalize(vecs: np.ndarray) -> np.ndarray:
    out = vecs.copy()
    for k in range(out.shape[1]):
        v = out[:, k]
        idx = np.flatnonzero(np.abs(v) > 1e-12)
        if idx.size:
            ph = v[idx[0]] / abs(v[idx[0]])
            out[:, k] = v / ph
    return out


def _tie_break_order(vals: np.ndarray, vecs: np.ndarray) -> list[int]:
    scale = max(1.0, float(np.max(np.abs(vals)))) if vals.size else 1.0
    order: list[int] = []
    i = 0
    while i < len(vals):
        j = i
        while j + 1 < len(vals) and vals[j + 1] - vals[i] <= 1e-12 * scale:
            j += 1
        group = list(range(i, j + 1))
        group.sort(key=lambda k: tuple(
            (round(float(x.real), 12), round(float(x.imag), 12)) for x in vecs[:, k]))
        order.extend(group)
        i = j + 1
    return order


def trace_norm(a: HermitianOperator | np.ndarray) -> float:
    m = a.entries if isinstance(a, HermitianOperator) else np.asarray(a)
    return float(np.sum(np.abs(np.linalg.eigvalsh(m))))


def psd_split(a: HermitianOperator) -> tuple[np.ndarray, np.ndarray]:
    """Jordan split a = a+ - a- with both parts PSD."""
    vals, vecs = np.linalg.eigh(a.entries)
    pos = (vecs * np.clip(vals, 0, None)) @ vecs.conj().T
    neg = (vecs * np.clip(-vals, 0, None)) @ vecs.conj().T
    return pos, neg


# ---------------------------------------------------------------------------
# Matrix JSON round-tripping
# ---------------------------------------------------------------------------


def matrix_to_json(m: np.ndarray) -> list:
    """Row-major nested list of [re, im] pairs (floats round-trip exactly)."""
    m = np.asarray(m, dtype=complex)
    return [[[float(x.real), float(x.imag)] for x in row] for row in m]


def matrix_from_json(data: Sequence) -> np.ndarray:
    rows = [[complex(float(re), float(im)) for re, im in row] for row in data]
    return np.array(rows, dtype=complex)
