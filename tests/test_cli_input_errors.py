"""Malformed and mistyped instance files: every one exits with code 2 and an
"input error:" line, never a traceback."""

import copy
import json

import pytest

from freemarg import cli, io
from freemarg.discrimination import w_example_instance

from test_channel_rmp import broadcasting_instance

STATE = io.state_instance_to_json(w_example_instance())
CHANNEL = io.channel_instance_to_json(broadcasting_instance())


def edited(base, edit) -> bytes:
    data = copy.deepcopy(base)
    edit(data)
    return json.dumps(data).encode()


CORPUS = {
    "truncated_json": json.dumps(STATE).encode()[:300],
    "not_utf8": b"\xff\xfe" + json.dumps(STATE).encode(),
    "top_level_list": json.dumps([STATE]).encode(),
    "string_dims": edited(STATE, lambda d: d["layout"][0].__setitem__(1, "2")),
    "non_square_matrix": edited(STATE, lambda d: d["marginals"][0]["matrix"].pop()),
    "unknown_label": edited(STATE, lambda d: d["marginals"][0].__setitem__("subsystems",
                                                                            ["A", "Z"])),
    "unknown_free_kind": edited(STATE, lambda d: d["free"].__setitem__("kind", "Bogus")),
    "list_params": edited(STATE, lambda d: d["free"].__setitem__("params", [1])),
    "channel_pair_without_choi": edited(CHANNEL, lambda d: d["pairs"][0].pop("choi")),
    "string_entry": edited(STATE, lambda d: d["marginals"][0]["matrix"][0][0].__setitem__(
        0, str(d["marginals"][0]["matrix"][0][0][0]))),
    "boolean_imaginary_part": edited(STATE, lambda d: d["marginals"][0]["matrix"][0][1].__setitem__(
        1, False)),
    # json reads true as a number, and operator.index(True) is 1
    "boolean_dimension": edited(STATE, lambda d: d["layout"].append(["D", True])),
    # json reads NaN and Infinity; a NaN passes a Hermiticity test `dev > tol`
    "nan_entry": edited(STATE, lambda d: d["marginals"][0]["matrix"][0][0].__setitem__(
        0, float("nan"))),
    "infinite_entry": edited(STATE, lambda d: d["marginals"][0]["matrix"][1][2].__setitem__(
        1, float("inf"))),
    "overflowing_integer_entry": edited(STATE, lambda d: d["marginals"][0]["matrix"][0][0]
                                        .__setitem__(0, 10 ** 400)),
    # a label keys the targets, the maps and the duals, so each appears once
    "repeated_marginal": edited(STATE, lambda d: d["marginals"].append(d["marginals"][0])),
    "repeated_channel_pair": edited(CHANNEL, lambda d: d["pairs"].append(d["pairs"][0])),
    # the free set lives on the instance's target pair, so it cannot name another
    "channel_free_input_disagrees": edited(CHANNEL, lambda d: d["free"].__setitem__("input", [])),
    "channel_free_output_disagrees": edited(CHANNEL, lambda d: d["free"].__setitem__("output",
                                                                                   ["A"])),
    # a string would be split into one-letter labels
    "string_subsystems": edited(STATE, lambda d: d["marginals"][0].__setitem__("subsystems",
                                                                                "AB")),
    "string_target": edited(STATE, lambda d: d.__setitem__("target", "AC")),
    "string_free_target": edited(STATE, lambda d: d["free"].__setitem__("target", "AC")),
    "string_bipartitions": edited(STATE, lambda d: d["free"]["params"].__setitem__(
        "bipartitions", "C")),
    "string_bipartition": edited(STATE, lambda d: d["free"]["params"].__setitem__(
        "bipartitions", ["C"])),
    "string_channel_labels": edited(CHANNEL, lambda d: d["pairs"][0].__setitem__("out", "A")),
    # a cut listed twice would add its PSD block twice, and an empty side,
    # the whole target or a factor transposed twice would admit every state
    "repeated_bipartition": edited(STATE, lambda d: d["free"]["params"].__setitem__(
        "bipartitions", [["C"], ["C"]])),
    "empty_bipartition": edited(STATE, lambda d: d["free"]["params"].__setitem__(
        "bipartitions", [[]])),
    "whole_target_bipartition": edited(STATE, lambda d: d["free"]["params"].__setitem__(
        "bipartitions", [["A", "C"]])),
    "bipartition_naming_a_factor_twice": edited(STATE, lambda d: d["free"]["params"].__setitem__(
        "bipartitions", [["C", "C"]])),
}


@pytest.mark.parametrize("command", ["robustness", "discriminate"])
@pytest.mark.parametrize("name", list(CORPUS))
def test_bad_instance_exits_2(name, command, tmp_path, capsys):
    path = tmp_path / "instance.json"
    path.write_bytes(CORPUS[name])
    out = tmp_path / "out.json"
    rc = cli.main([command, "--input", str(path), "--output", str(out)])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("input error:")
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("name", ["nan_entry", "infinite_entry", "overflowing_integer_entry"])
def test_non_finite_entry_is_named(name, tmp_path, capsys):
    # not a LAPACK convergence failure further down
    path = tmp_path / "instance.json"
    path.write_bytes(CORPUS[name])
    assert cli.main(["robustness", "--input", str(path), "--output", str(tmp_path / "o")]) == 2
    assert "is not a finite number" in capsys.readouterr().err


BAD_ARGUMENTS = {
    "no_command": [],
    "unknown_command": ["bogus"],
    "missing_input": ["robustness"],
    "samples_not_a_number": ["histogram", "--samples", "x"],
    "zero_samples": ["histogram", "--samples", "0"],
    "zero_jobs": ["histogram", "--samples", "1", "--jobs", "0"],
}


@pytest.mark.parametrize("name", list(BAD_ARGUMENTS))
def test_bad_arguments_exit_2(name, tmp_path, monkeypatch, capsys):
    # argparse's own errors return 2 from main too, instead of raising SystemExit;
    # the seed and tolerance checks are the two tests below
    monkeypatch.chdir(tmp_path)
    argv = BAD_ARGUMENTS[name]
    rc = cli.main(argv + ["--output", "out.json"] if argv else argv)
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("input error:")
    assert "Traceback" not in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command", [row[0] for row in cli.COMMANDS])
def test_help_exits_0(command, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main([command, "--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith(f"usage: freemarg {command}")


def test_largest_seed_accepted():
    args = cli.build_parser().parse_args(["verify-w", "--seed", str(2 ** 64 - 1)])
    assert args.seed == 2 ** 64 - 1


@pytest.mark.parametrize("flag", ["--gap-tol", "--feas-tol"])
@pytest.mark.parametrize("value", ["inf", "-1", "nan", "0", "abc"])
def test_bad_tolerance_exits_2(flag, value, tmp_path, capsys):
    # inf would switch the gap test off; nan and 0 would reach the solver
    out = tmp_path / "out.json"
    rc = cli.main(["verify-w", "--samples", "1", f"{flag}={value}", "--output", str(out)])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("input error:")
    assert not out.exists()


@pytest.mark.parametrize("command", ["histogram", "verify-w", "discriminate"])
@pytest.mark.parametrize("seed", ["-1", str(2 ** 64)])
def test_seed_outside_uint64_exits_2(command, seed, tmp_path, capsys):
    # the seed keys a Philox generator, whose key is one uint64
    path = tmp_path / "instance.json"
    path.write_text(json.dumps(STATE))
    extra = {"histogram": ["--samples", "1", "--out", str(tmp_path / "h.csv")],
             "verify-w": ["--samples", "1"],
             "discriminate": ["--input", str(path)]}[command]
    out = tmp_path / "out.json"
    rc = cli.main([command, *extra, "--seed", seed, "--output", str(out)])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("input error:")
    assert not out.exists()
