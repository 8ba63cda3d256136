"""JSON schemas for instances and results.

Matrices are row-major arrays of [re, im] pairs; floats use Python's shortest
round-trip representation, so files reload bit-exactly.
"""

from __future__ import annotations

import json
from typing import Any

import numpy as np

from .channel_rmp import (
    ChannelMarginalFamily,
    ChannelPair,
    ChannelRmpInstance,
    ChannelSpec,
)
from .config import DEFAULT_TOLS
from .freesets import FreeChannelSetSpec, FreeSetSpec
from .herm import (
    DensityMatrix,
    HermitianOperator,
    SubsystemLayout,
    SubsystemSet,
    matrix_from_json,
    matrix_to_json,
)
from .state_rmp import MarginalFamily, RmpInstance


class SchemaError(ValueError):
    """The input JSON does not follow the instance schema."""


# ---------------------------------------------------------------------------
# Instances
# ---------------------------------------------------------------------------


def state_instance_to_json(inst: RmpInstance) -> dict:
    return {
        "kind": "state",
        "layout": inst.layout.to_json(),
        "marginals": [
            {"subsystems": list(sub.members), "matrix": matrix_to_json(sigma.entries)}
            for sub, sigma in inst.marginals.entries
        ],
        "target": list(inst.target.members),
        "free": inst.free.to_json(),
    }


def _labels(value) -> list:
    """A label list; a string is refused, since `SubsystemSet` reads "AB" as ["A", "B"]."""
    if not isinstance(value, list):
        raise SchemaError(f"a list of subsystem labels must be a JSON list, not {value!r}")
    return value


def _free_state_from_json(data: dict, layout: SubsystemLayout, target) -> FreeSetSpec:
    """The free state set of `data`, whose target defaults to `target`."""
    data = {"target": target, **data}
    _labels(data["target"])
    if target is not None and data["target"] != _labels(target):
        raise SchemaError("instance target and free-set target disagree")
    params = data.get("params")
    if isinstance(params, dict) and params.get("bipartitions") is not None:
        for part in _labels(params["bipartitions"]):
            _labels(part)
    return FreeSetSpec.from_json(data, layout)


def state_instance_from_json(data: dict) -> RmpInstance:
    layout = SubsystemLayout.from_json(data["layout"])
    entries = []
    for item in data["marginals"]:
        sub = SubsystemSet(layout, _labels(item["subsystems"]))
        sigma = DensityMatrix.from_array(layout.sublayout(sub.members),
                                         matrix_from_json(item["matrix"]))
        entries.append((sub, sigma))
    family = MarginalFamily(layout, entries)
    return RmpInstance(family, _free_state_from_json(data["free"], layout, data.get("target")))


def channel_instance_to_json(inst: ChannelRmpInstance) -> dict:
    return {
        "kind": "channel",
        "input_layout": inst.family.global_in.to_json(),
        "output_layout": inst.family.global_out.to_json(),
        "pairs": [
            {"in": list(pair.inp.members), "out": list(pair.out.members),
             "choi": matrix_to_json(spec.choi.entries)}
            for pair, spec in inst.family.entries
        ],
        "target": {"in": list(inst.target.inp.members), "out": list(inst.target.out.members)},
        "free": inst.free.to_json(),
    }


def channel_instance_from_json(data: dict) -> ChannelRmpInstance:
    gin = SubsystemLayout.from_json(data["input_layout"])
    gout = SubsystemLayout.from_json(data["output_layout"])
    entries = []
    for item in data["pairs"]:
        pair = ChannelPair(SubsystemSet(gin, _labels(item["in"])),
                           SubsystemSet(gout, _labels(item["out"])))
        in_sub = gin.sublayout(pair.inp.members)
        out_sub = gout.sublayout(pair.out.members)
        choi = HermitianOperator(out_sub.concat(in_sub), matrix_from_json(item["choi"]))
        entries.append((pair, ChannelSpec(in_sub, out_sub, choi)))
    family = ChannelMarginalFamily(gin, gout, entries)
    target = ChannelPair(SubsystemSet(gin, _labels(data["target"]["in"])),
                         SubsystemSet(gout, _labels(data["target"]["out"])))
    return ChannelRmpInstance(family, target, _free_channel_from_json(data["free"], gout, target))


def _free_channel_from_json(data: dict, gout, target: ChannelPair) -> FreeChannelSetSpec:
    """The free channel set of `data`, on the instance's target pair; an
    `input` or `output` the set names must be that pair's."""
    for key, sub in (("input", target.inp), ("output", target.out)):
        if key in data and _labels(data[key]) != list(sub.members):
            raise SchemaError(f"instance target and free-set {key} disagree")
    kind = data["kind"]
    params = data.get("params", {}) or {}
    if kind == "AllChannels":
        return FreeChannelSetSpec.all_channels(target.inp, target.out)
    if kind == "FreeOutputState":
        state_spec = _free_state_from_json(params["state_spec"], gout, list(target.out.members))
        return FreeChannelSetSpec.free_output_state(target.inp, target.out, state_spec)
    if kind == "SingletonChannel":
        choi = HermitianOperator.from_json(params["choi"])
        return FreeChannelSetSpec.singleton_channel(target.inp, target.out, choi)
    raise SchemaError(f"unknown free-channel kind {kind!r}")


def instance_from_json(data: dict):
    """A state or channel instance.  This is where a fault in the data
    becomes a `SchemaError`; the readers of each kind may raise others."""
    kind = data.get("kind", "state")
    try:
        if kind == "state":
            return state_instance_from_json(data)
        if kind == "channel":
            return channel_instance_from_json(data)
    except SchemaError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise SchemaError(f"bad {kind} instance: {exc}") from exc
    raise SchemaError(f"unknown instance kind {kind!r}")


def load_instance(path: str):
    with open(path) as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise SchemaError(f"malformed JSON at line {exc.lineno}, column {exc.colno}: "
                              f"{exc.msg}") from exc
        except UnicodeDecodeError as exc:
            raise SchemaError(f"instance file is not UTF-8 text: {exc}") from exc
    if not isinstance(data, dict):
        raise SchemaError("instance file must hold a JSON object")
    return instance_from_json(data)


# ---------------------------------------------------------------------------
# Results
# ---------------------------------------------------------------------------


def _clean(value: Any):
    """The one conversion of a result into JSON values: objects with a
    `to_json()` go through it, 1-D arrays become float lists, 2-D arrays
    matrices of [re, im] pairs, numpy scalars Python numbers, and a
    non-finite float its repr."""
    if hasattr(value, "to_json"):
        return _clean(value.to_json())
    if isinstance(value, np.ndarray):
        if value.ndim == 1 and np.iscomplexobj(value):  # `float` would drop the imaginary part
            raise TypeError("a complex vector has no float list")
        return _clean([float(x) for x in value] if value.ndim == 1 else matrix_to_json(value))
    if isinstance(value, (np.floating, np.integer)):
        value = value.item()
    if isinstance(value, float) and not np.isfinite(value):
        return repr(value)
    if isinstance(value, dict):
        return {k: _clean(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_clean(v) for v in value]
    return value


def provenance_block(settings, rng=None, seed=None, relaxation=None) -> dict:
    """The settings of a command's result; `rng` says how it draws from
    `seed`, and is None where it draws nothing."""
    return {
        "solver": {"gap_tol": settings.gap_tol, "feas_tol": settings.feas_tol,
                   "max_iters": settings.max_iters,
                   "algorithm": "primal-dual interior point, Nesterov-Todd scaling, "
                                "homogeneous self-dual embedding"},
        "tolerances": {"hermiticity": DEFAULT_TOLS.hermiticity, "psd": DEFAULT_TOLS.psd,
                       "trace": DEFAULT_TOLS.trace, "compat": DEFAULT_TOLS.compat},
        "rng": rng,
        "seed": seed,
        "relaxation": relaxation,
    }


def dump_result(path: str | None, payload: dict):
    text = json.dumps(_clean(payload), indent=2) + "\n"
    if path is None or path == "-":
        print(text, end="")
    else:
        with open(path, "w") as fh:
            fh.write(text)
