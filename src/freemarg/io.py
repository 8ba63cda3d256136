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
from .freesets import FreeChannelSetSpec, FreeSetSpec
from .herm import (
    DensityMatrix,
    HermitianOperator,
    SubsystemLayout,
    SubsystemSet,
    matrix_from_json,
    matrix_to_json,
)
from .state_rmp import MarginalFamily, RmpInstance, Witness


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


def state_instance_from_json(data: dict) -> RmpInstance:
    try:
        layout = SubsystemLayout.from_json(data["layout"])
        entries = []
        for item in data["marginals"]:
            sub = SubsystemSet(layout, item["subsystems"])
            sigma = DensityMatrix.from_array(layout.sublayout(sub.members),
                                             matrix_from_json(item["matrix"]))
            entries.append((sub, sigma))
        family = MarginalFamily(layout, entries)
        free_data = dict(data["free"])
        free_data.setdefault("target", data.get("target"))
        if data.get("target") is not None and list(free_data["target"]) != list(data["target"]):
            raise SchemaError("instance target and free-set target disagree")
        free = FreeSetSpec.from_json(free_data, layout)
        return RmpInstance(family, free)
    except SchemaError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise SchemaError(f"bad state instance: {exc}") from exc


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
    try:
        gin = SubsystemLayout.from_json(data["input_layout"])
        gout = SubsystemLayout.from_json(data["output_layout"])
        entries = []
        for item in data["pairs"]:
            pair = ChannelPair(SubsystemSet(gin, item["in"]), SubsystemSet(gout, item["out"]))
            in_sub = gin.sublayout(pair.inp.members)
            out_sub = gout.sublayout(pair.out.members)
            choi = HermitianOperator(out_sub.concat(in_sub), matrix_from_json(item["choi"]))
            entries.append((pair, ChannelSpec(in_sub, out_sub, choi)))
        family = ChannelMarginalFamily(gin, gout, entries)
        target = ChannelPair(SubsystemSet(gin, data["target"]["in"]),
                             SubsystemSet(gout, data["target"]["out"]))
        free = _free_channel_from_json(data["free"], gin, gout, target)
        return ChannelRmpInstance(family, target, free)
    except SchemaError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise SchemaError(f"bad channel instance: {exc}") from exc


def _free_channel_from_json(data: dict, gin, gout, target: ChannelPair) -> FreeChannelSetSpec:
    kind = data["kind"]
    params = data.get("params", {}) or {}
    if kind == "AllChannels":
        return FreeChannelSetSpec.all_channels(target.inp, target.out)
    if kind == "FreeOutputState":
        spec_data = dict(params["state_spec"])
        spec_data.setdefault("target", list(target.out.members))
        state_spec = FreeSetSpec.from_json(spec_data, gout)
        return FreeChannelSetSpec.free_output_state(target.inp, target.out, state_spec)
    if kind == "SingletonChannel":
        choi = HermitianOperator.from_json(params["choi"])
        return FreeChannelSetSpec.singleton_channel(target.inp, target.out, choi)
    raise SchemaError(f"unknown free-channel kind {kind!r}")


def instance_from_json(data: dict):
    kind = data.get("kind", "state")
    if kind == "state":
        return state_instance_from_json(data)
    if kind == "channel":
        return channel_instance_from_json(data)
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
    if isinstance(value, (np.floating, np.integer)):
        return value.item()
    if isinstance(value, np.ndarray):
        return matrix_to_json(value)
    if isinstance(value, float) and not np.isfinite(value):
        return repr(value)
    if isinstance(value, dict):
        return {k: _clean(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_clean(v) for v in value]
    return value


def provenance_block(settings, seed=None, relaxation=None, extra=None) -> dict:
    from .config import DEFAULT_TOLS
    from .solver import SolverSettings

    settings = settings or SolverSettings()
    block = {
        "solver": {"gap_tol": settings.gap_tol, "feas_tol": settings.feas_tol,
                   "max_iters": settings.max_iters,
                   "algorithm": "primal-dual interior point, Nesterov-Todd scaling, "
                                "homogeneous self-dual embedding"},
        "tolerances": {"hermiticity": DEFAULT_TOLS.hermiticity, "psd": DEFAULT_TOLS.psd,
                       "trace": DEFAULT_TOLS.trace, "compat": DEFAULT_TOLS.compat},
        "rng": "Philox4x32-10 (counter-based); per-sample key = seed XOR sample index",
        "seed": seed,
        "relaxation": relaxation,
    }
    if extra:
        block.update(extra)
    return block


def witness_to_json(w: Witness) -> dict:
    return {
        "blocks": [{"subsystems": list(sub.members), "matrix": matrix_to_json(op.entries)}
                   for sub, op in w.blocks],
        "free_sup": w.free_sup,
        "value_at_sigma": w.value_at_sigma,
        "gap": w.gap,
        "metadata": _clean(w.metadata),
    }


def dump_result(path: str | None, payload: dict):
    text = json.dumps(_clean(payload), indent=2) + "\n"
    if path is None or path == "-":
        print(text, end="")
    else:
        with open(path, "w") as fh:
            fh.write(text)
