import dataclasses
import json
import subprocess
import sys

import numpy as np
import pytest

from freemarg import cli, discrimination, io, solver, state_rmp
from freemarg.discrimination import w_example_instance
from freemarg.freesets import FreeSetSpec
from freemarg.herm import SubsystemSet
from freemarg.solver import solve_many
from freemarg.state_rmp import MarginalFamily, RmpInstance
from freemarg.states import ket, marginal_of, maximally_mixed, pure, qubit_layout


def run_cli(*args):
    return subprocess.run([sys.executable, "-m", "freemarg.cli", *args],
                          capture_output=True, text=True)


@pytest.fixture(scope="module")
def w_instance_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("inst") / "w.json"
    path.write_text(json.dumps(io.state_instance_to_json(w_example_instance())))
    return str(path)


@pytest.fixture(scope="module")
def compatible_instance_file(tmp_path_factory):
    layout = qubit_layout("ABC")
    mm = maximally_mixed(layout)
    fam = MarginalFamily(layout, [(("A", "B"), marginal_of(mm, "AB")),
                                  (("B", "C"), marginal_of(mm, "BC"))])
    inst = RmpInstance(fam, FreeSetSpec.separable_ppt(SubsystemSet(layout, ("A", "C"))))
    path = tmp_path_factory.mktemp("inst") / "mm.json"
    path.write_text(json.dumps(io.state_instance_to_json(inst)))
    return str(path)


@pytest.fixture(scope="module")
def broadcasting_file(tmp_path_factory):
    from test_channel_rmp import broadcasting_instance

    path = tmp_path_factory.mktemp("inst") / "bcast.json"
    path.write_text(json.dumps(io.channel_instance_to_json(broadcasting_instance())))
    return str(path)


class TestRobustnessCommand:
    def test_w_instance_positive(self, w_instance_file, tmp_path):
        out = tmp_path / "res.json"
        proc = run_cli("robustness", "--input", w_instance_file, "--output", str(out))
        assert proc.returncode == 0, proc.stderr
        data = json.loads(out.read_text())
        assert data["status"] == "Optimal"
        assert data["robustness_log2"] > 1e-3
        assert data["relaxation"] == "ppt-exact"
        assert data["provenance"]["solver"]["gap_tol"] == 1e-8
        assert "rng" in data["provenance"]

    def test_compatible_instance_zero(self, compatible_instance_file, tmp_path):
        out = tmp_path / "res.json"
        proc = run_cli("robustness", "--input", compatible_instance_file,
                       "--output", str(out))
        assert proc.returncode == 0, proc.stderr
        data = json.loads(out.read_text())
        assert abs(data["robustness_log2"]) < 1e-6

    def test_malformed_json_exit_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"layout": [,]}')
        proc = run_cli("robustness", "--input", str(bad))
        assert proc.returncode == 2
        assert "line" in proc.stderr and "column" in proc.stderr

    def test_missing_file_exit_2(self):
        proc = run_cli("robustness", "--input", "/nonexistent/no.json")
        assert proc.returncode == 2

    def test_solver_failure_exit_3(self, w_instance_file, capsys):
        # residuals of 1e-300 are out of reach, so the solve gives up
        rc = cli.main(["robustness", "--input", w_instance_file,
                       "--gap-tol", "1e-300", "--feas-tol", "1e-300"])
        assert rc == 3
        assert capsys.readouterr().err == \
            "solver error: robustness solve ended with status NumericalFailure\n"

    def test_stdout_without_output(self, w_instance_file, tmp_path, capsys):
        out = tmp_path / "res.json"
        assert cli.main(["robustness", "--input", w_instance_file, "--output", str(out)]) == 0
        assert capsys.readouterr().out == ""
        assert cli.main(["robustness", "--input", w_instance_file]) == 0
        assert capsys.readouterr().out == out.read_text()

    def test_singleton_support_rule(self, tmp_path):
        # a pure Singleton |00> on AC and a maximally mixed AB marginal, whose
        # A marginal has weight 1/2 on |1>: infinite, with no solve and no warning
        layout = qubit_layout("ABC")
        ac = layout.sublayout(("A", "C"))
        free = FreeSetSpec.singleton(SubsystemSet(layout, ("A", "C")), pure(ac, ket(ac, "00")))
        fam = MarginalFamily(layout, [(("A", "B"), maximally_mixed(layout.sublayout(("A", "B"))))])
        path = tmp_path / "pure.json"
        path.write_text(json.dumps(io.state_instance_to_json(RmpInstance(fam, free))))
        proc = run_cli("robustness", "--input", str(path))
        assert (proc.returncode, proc.stderr) == (0, "")
        data = json.loads(proc.stdout)
        assert data["status"] == "Infeasible" and data["robustness_log2"] == "inf"
        cert = data["certificates"]
        assert (cert["kind"], cert["marginal"], cert["subsystems"]) == ("support", "A,B", ["A"])
        (re0, im0), (re1, im1) = (row[0] for row in cert["vector"])  # a column on A
        assert abs(complex(re1, im1)) == pytest.approx(1) and abs(complex(re0, im0)) < 1e-12
        assert cert["weight"] == pytest.approx(0.5)

    def test_channel_instance_accepted(self, broadcasting_file, tmp_path):
        out = tmp_path / "res.json"
        proc = run_cli("channel-robustness", "--input", broadcasting_file,
                       "--output", str(out))
        assert proc.returncode == 0, proc.stderr
        data = json.loads(out.read_text())
        assert data["robustness_log2"] > 1e-3


class TestWitnessCommand:
    def test_w_instance(self, w_instance_file, tmp_path):
        out = tmp_path / "wit.json"
        proc = run_cli("witness", "--input", w_instance_file, "--output", str(out))
        assert proc.returncode == 0, proc.stderr
        data = json.loads(out.read_text())
        assert data["gap"] >= 1e-4
        assert data["free_sup"] <= 1 + 1e-6
        assert len(data["blocks"]) == 2

    def test_compatible_instance_exit_3(self, compatible_instance_file):
        proc = run_cli("witness", "--input", compatible_instance_file)
        assert proc.returncode == 3
        assert "no witness" in proc.stderr

    def test_channel_witness(self, broadcasting_file, tmp_path):
        out = tmp_path / "wit.json"
        proc = run_cli("witness", "--input", broadcasting_file, "--output", str(out))
        assert proc.returncode == 0, proc.stderr
        data = json.loads(out.read_text())
        assert data["gap"] >= 1e-4


class TestCheckCompatCommand:
    def test_compatible(self, compatible_instance_file, tmp_path):
        out = tmp_path / "c.json"
        proc = run_cli("check-compat", "--input", compatible_instance_file,
                       "--output", str(out))
        assert proc.returncode == 0
        assert json.loads(out.read_text())["compatible"] is True

    def test_incompatible(self, w_instance_file, tmp_path):
        out = tmp_path / "c.json"
        proc = run_cli("check-compat", "--input", w_instance_file, "--output", str(out))
        assert proc.returncode == 0
        assert json.loads(out.read_text())["compatible"] is False

    def test_unreachable_tolerance_is_a_solver_error(self, compatible_instance_file, tmp_path,
                                                     capsys):
        # at 1e-300 the rounding of the rows' eigenbasis is no Farkas
        # certificate: the check fails instead of answering incompatible
        out = tmp_path / "c.json"
        rc = cli.main(["check-compat", "--input", compatible_instance_file, "--output", str(out),
                       "--gap-tol", "1e-300", "--feas-tol", "1e-300"])
        assert rc == 3 and not out.exists()
        assert capsys.readouterr().err.startswith("solver error:")

    def test_channel_broadcasting(self, broadcasting_file, tmp_path):
        out = tmp_path / "c.json"
        proc = run_cli("check-compat", "--input", broadcasting_file, "--output", str(out))
        assert proc.returncode == 0
        assert json.loads(out.read_text())["compatible"] is False


class TestHistogramCommand:
    def test_small_run_and_determinism(self, tmp_path):
        csv1 = tmp_path / "h1.csv"
        out1 = tmp_path / "s1.json"
        proc = run_cli("histogram", "--samples", "3", "--seed", "17",
                       "--out", str(csv1), "--output", str(out1))
        assert proc.returncode == 0, proc.stderr
        rows = csv1.read_text().strip().split("\n")
        assert rows[0] == "sample_index,delta_p"
        assert len(rows) == 4
        summary = json.loads(out1.read_text())
        assert summary["n_samples"] == 3
        assert summary["provenance"]["seed"] == 17

        csv2 = tmp_path / "h2.csv"
        out2 = tmp_path / "s2.json"
        proc = run_cli("histogram", "--samples", "3", "--seed", "17",
                       "--out", str(csv2), "--output", str(out2))
        assert proc.returncode == 0
        assert csv1.read_bytes() == csv2.read_bytes()

    def test_single_sample(self, tmp_path):
        csv = tmp_path / "h.csv"
        proc = run_cli("histogram", "--samples", "1", "--seed", "3",
                       "--out", str(csv), "--output", str(tmp_path / "s.json"))
        assert proc.returncode == 0
        assert len(csv.read_text().strip().split("\n")) == 2

    def test_bad_sample_count(self):
        proc = run_cli("histogram", "--samples", "0")
        assert proc.returncode == 2


class TestVerifyWCommand:
    def test_output(self, tmp_path):
        out = tmp_path / "v.json"
        proc = run_cli("verify-w", "--samples", "20", "--output", str(out))
        assert proc.returncode == 0, proc.stderr
        data = json.loads(out.read_text())
        assert data["unique"] is True
        assert abs(data["max_fid"] - 1) < 1e-6
        assert abs(data["min_fid"] - 1) < 1e-6
        assert data["activation_value"] == pytest.approx(2 / 3, abs=1e-9)
        assert data["activated"] is True

    def test_tolerance_flags_reach_the_solves(self, tmp_path, monkeypatch):
        # max and min fidelity are one batch of two members
        seen = []

        def recording_solve_many(program, objectives, settings=None):
            seen.append((len(objectives), settings))
            return solve_many(program, objectives, settings)

        monkeypatch.setattr(state_rmp, "solve_many", recording_solve_many)
        out = tmp_path / "v.json"
        rc = cli.main(["verify-w", "--samples", "5", "--gap-tol", "3e-8", "--feas-tol", "4e-8",
                       "--output", str(out)])
        assert rc == 0
        assert [count for count, _ in seen] == [2]
        assert all(s.gap_tol == 3e-8 and s.feas_tol == 4e-8 for _, s in seen)
        data = json.loads(out.read_text())
        assert data["unique"] is True
        assert data["provenance"]["solver"]["gap_tol"] == 3e-8


class TestProvenanceRng:
    """Each command states in its provenance how it draws from its seed,
    and null where it draws nothing."""

    @pytest.mark.parametrize("command, instance, rng", [
        ("robustness", "w_instance_file", None),
        ("witness", "w_instance_file", None),
        ("check-compat", "w_instance_file", None),
        ("channel-robustness", "broadcasting_file", None),
        ("discriminate", "w_instance_file", cli._ONE_STREAM),
        ("discriminate", "broadcasting_file", None),
        ("histogram", None, cli._PER_SAMPLE),
        ("verify-w", None, cli._ONE_STREAM),
    ])
    def test_rng(self, command, instance, rng, request, tmp_path):
        out = tmp_path / "r.json"
        argv = [command, "--output", str(out)]
        if instance:
            argv += ["--input", request.getfixturevalue(instance)]
        else:
            argv += ["--samples", "2"]
        if command == "histogram":
            argv += ["--out", str(tmp_path / "h.csv")]
        assert cli.main(argv) == 0
        assert json.loads(out.read_text())["provenance"]["rng"] == rng
        assert rng is None or rng.startswith("Philox4x32-10")


class TestSolvesPerRequest:
    """The `solve_many` batches of each request, by member count: the
    witness supremum shares a batch with the epsilon rule's two bounds, and
    max and min W fidelity are one batch; a compatible family ends after
    its robustness solve."""

    @pytest.mark.parametrize("command, instance, batches, rc", [
        ("robustness", "w_instance_file", [1], 0),
        ("check-compat", "w_instance_file", [1], 0),
        ("witness", "w_instance_file", [1, 1], 0),
        ("discriminate", "w_instance_file", [1, 3, 1], 0),
        ("discriminate", "broadcasting_file", [1, 3, 1], 0),
        ("verify-w", None, [2], 0),
        ("witness", "compatible_instance_file", [1], 3),
        ("discriminate", "compatible_instance_file", [1], 3),
    ])
    def test_batches(self, command, instance, batches, rc, request, tmp_path, monkeypatch):
        real, seen = solver.solve_many, []

        def counting(program, objectives, settings=None):
            seen.append(len(objectives))
            return real(program, objectives, settings)

        # every binding site: `solve` calls it in `solver`, `state_rmp` imports it
        for module in [m for name, m in sys.modules.items() if name.startswith("freemarg")]:
            if getattr(module, "solve_many", None) is real:
                monkeypatch.setattr(module, "solve_many", counting)
        argv = [command, "--output", str(tmp_path / "out.json")]
        argv += ["--input", request.getfixturevalue(instance)] if instance else ["--samples", "5"]
        assert cli.main(argv) == rc
        assert seen == batches


class TestWitnessBatchErrors:
    """The witness supremum shares a batch with the epsilon rule's bounds,
    yet the errors come as from the solves one after another: the
    supremum's gap first, then the task's checks, then the bounds."""

    @staticmethod
    def patch_batches(monkeypatch, sup=None, rest=None):
        # every batch over the compatible set: the first member's value
        # becomes `sup`, the status of the others `rest`
        real = state_rmp.solve_many

        def patched(program, objectives, settings=None):
            first, *others = real(program, objectives, settings)
            if sup is not None:
                first = dataclasses.replace(first, primal_value=sup)
            if rest is not None:
                others = [dataclasses.replace(res, status=rest) for res in others]
            return [first, *others]

        monkeypatch.setattr(state_rmp, "solve_many", patched)

    @pytest.mark.parametrize("instance", ["w_instance_file", "broadcasting_file"])
    @pytest.mark.parametrize("sup, rest, err", [
        (1e6, solver.Status.NUMERICAL_FAILURE, "extracted witness has no strict gap; "
                                               "solver accuracy insufficient"),
        (1e6, None, "extracted witness has no strict gap; solver accuracy insufficient"),
        (None, solver.Status.NUMERICAL_FAILURE, "set maximization 0 ended with status "
                                                "NumericalFailure"),
    ])
    def test_discriminate(self, instance, sup, rest, err, request, tmp_path, monkeypatch,
                          capsys):
        self.patch_batches(monkeypatch, sup, rest)
        out = tmp_path / "d.json"
        rc = cli.main(["discriminate", "--input", request.getfixturevalue(instance),
                       "--output", str(out)])
        assert rc == 3 and not out.exists()
        assert capsys.readouterr().err == f"solver error: {err}\n"

    def test_task_checks_come_after_the_gap(self, monkeypatch):
        inst = w_example_instance()
        one_each = {tuple(sub.members): [np.eye(sigma.dim)] for sub, sigma in inst.marginals.entries}
        with pytest.raises(ValueError, match="unitaries for block"):
            discrimination.witness_task(inst, one_each)
        self.patch_batches(monkeypatch, sup=1e6)
        with pytest.raises(solver.SolverFailure, match="no strict gap"):
            discrimination.witness_task(inst, one_each)


class TestInstanceJsonRoundTrip:
    def test_state_round_trip(self):
        inst = w_example_instance()
        data = io.state_instance_to_json(inst)
        back = io.state_instance_from_json(json.loads(json.dumps(data)))
        assert back.layout == inst.layout
        assert back.free == inst.free
        for (s1, m1), (s2, m2) in zip(inst.marginals.entries, back.marginals.entries):
            assert s1.members == s2.members
            assert np.array_equal(m1.entries, m2.entries)

    def test_channel_round_trip(self):
        from test_channel_rmp import broadcasting_instance

        inst = broadcasting_instance()
        data = io.channel_instance_to_json(inst)
        back = io.channel_instance_from_json(json.loads(json.dumps(data)))
        assert back.family.global_in == inst.family.global_in
        for (p1, c1), (p2, c2) in zip(inst.family.entries, back.family.entries):
            assert p1.label() == p2.label()
            assert np.array_equal(c1.choi.entries, c2.choi.entries)

    def test_target_mismatch_rejected(self):
        inst = w_example_instance()
        data = io.state_instance_to_json(inst)
        data["target"] = ["A", "B"]
        with pytest.raises(io.SchemaError):
            io.state_instance_from_json(data)


class TestResultJson:
    def test_one_conversion_for_every_value(self, tmp_path):
        # a non-finite number becomes its repr whatever its type, so the file is strict JSON
        from freemarg.herm import HermitianOperator

        op = HermitianOperator(qubit_layout("T"), np.diag([1.0, 0.5]))
        out = tmp_path / "r.json"
        io.dump_result(str(out), {"np": np.float64("inf"), "py": float("nan"), "n": np.int64(3),
                                  "vector": np.array([1.0, -np.inf]), "matrix": np.eye(1),
                                  "object": op, "tuple": (np.eye(1),)})
        data = json.loads(out.read_text(), parse_constant=pytest.fail)
        assert data == {"np": "inf", "py": "nan", "n": 3, "vector": [1.0, "-inf"],
                        "matrix": [[[1.0, 0.0]]],
                        "object": {"layout": [["T", 2]],
                                   "data": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.5, 0.0]]]},
                        "tuple": [[[[1.0, 0.0]]]]}

    def test_a_complex_vector_or_a_0d_array_is_refused(self):
        # neither has a float list; a complex vector would lose its imaginary part
        for bad in (np.array([1.0, 2j]), np.array(1.0)):
            with pytest.raises(TypeError):
                io._clean({"bad": bad})


class TestJobsValidation:
    def test_bad_jobs(self):
        proc = run_cli("histogram", "--samples", "2", "--jobs", "0")
        assert proc.returncode == 2


class TestChannelFreeSetJson:
    def test_free_output_state_round_trip(self):
        from freemarg.channel_rmp import (ChannelMarginalFamily, ChannelPair,
                                          ChannelRmpInstance, ChannelSpec)
        from freemarg.freesets import FreeChannelSetSpec, FreeSetSpec
        from freemarg.herm import SubsystemLayout

        gin = SubsystemLayout([("T'", 2)])
        gout = qubit_layout("T")
        ident = ChannelSpec.identity(gin, gout)
        pair = ChannelPair(SubsystemSet(gin, ("T'",)), SubsystemSet(gout, ("T",)))
        fam = ChannelMarginalFamily(gin, gout, [(pair, ident)])
        state_spec = FreeSetSpec.incoherent(SubsystemSet(gout, ("T",)))
        free = FreeChannelSetSpec.free_output_state(pair.inp, pair.out, state_spec)
        inst = ChannelRmpInstance(fam, pair, free)
        back = io.channel_instance_from_json(
            json.loads(json.dumps(io.channel_instance_to_json(inst))))
        assert back.free.kind == "FreeOutputState"
        assert back.free.state_spec.kind == "Incoherent"

    def test_singleton_channel_round_trip(self):
        from freemarg.channel_rmp import (ChannelMarginalFamily, ChannelPair,
                                          ChannelRmpInstance, ChannelSpec)
        from freemarg.freesets import FreeChannelSetSpec
        from freemarg.herm import SubsystemLayout

        gin = SubsystemLayout([("T'", 2)])
        gout = qubit_layout("T")
        ident = ChannelSpec.identity(gin, gout)
        pair = ChannelPair(SubsystemSet(gin, ("T'",)), SubsystemSet(gout, ("T",)))
        fam = ChannelMarginalFamily(gin, gout, [(pair, ident)])
        free = FreeChannelSetSpec.singleton_channel(pair.inp, pair.out, ident.choi)
        inst = ChannelRmpInstance(fam, pair, free)
        back = io.channel_instance_from_json(
            json.loads(json.dumps(io.channel_instance_to_json(inst))))
        assert back.free == free
        assert back.free.kind == "SingletonChannel"
        assert np.array_equal(back.free.choi.entries, ident.choi.entries)


class TestDiscriminateCommand:
    def test_state_instance(self, w_instance_file, tmp_path):
        out = tmp_path / "d.json"
        proc = run_cli("discriminate", "--input", w_instance_file, "--seed", "3",
                       "--output", str(out))
        assert proc.returncode == 0, proc.stderr
        data = json.loads(out.read_text())
        assert data["delta_p"] > 0
        assert 0 < data["epsilon"] < 1
        assert data["witness_gap"] >= 1e-4
        assert data["provenance"]["seed"] == 3

    def test_channel_instance(self, broadcasting_file, tmp_path):
        out = tmp_path / "d.json"
        proc = run_cli("discriminate", "--input", broadcasting_file, "--output", str(out))
        assert proc.returncode == 0, proc.stderr
        data = json.loads(out.read_text())
        assert data["delta_p"] > 0

    def test_compatible_instance_exit_3(self, compatible_instance_file):
        proc = run_cli("discriminate", "--input", compatible_instance_file)
        assert proc.returncode == 3

    @pytest.mark.parametrize("name, builds", [("w_instance_file", 1), ("broadcasting_file", 1),
                                              ("compatible_instance_file", 0)])
    def test_one_free_set_model_per_request(self, name, builds, request, tmp_path, monkeypatch):
        # the witness supremum, the epsilon rule and the advantage share one
        # compiled model; a compatible family, with no witness, builds none
        calls = []
        program = state_rmp._program
        monkeypatch.setattr(state_rmp, "_program",
                            lambda inst, pinned, **kw: calls.append(pinned)
                            or program(inst, pinned, **kw))
        rc = cli.main(["discriminate", "--input", request.getfixturevalue(name),
                       "--output", str(tmp_path / "d.json")])
        assert rc == (0 if builds else 3)
        assert calls.count(True) == builds
