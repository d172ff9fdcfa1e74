import os
import subprocess
import sys

import numpy as np
import pytest

import sgsqp
from sgsqp.cli import main

from conftest import indefinite_2x2, indefinite_lincon_2x2


def _gen(tmp_path, name, *args):
    path = tmp_path / name
    rc = main(["gen", "--out", str(path), *args])
    assert rc == 0
    return str(path)


def _indefinite_file(tmp_path):
    from sgsqp.instances import Instance, write_instance
    prob = indefinite_2x2()
    path = str(tmp_path / "indefinite.json")
    write_instance(Instance(dims=prob.partition.dims, b=prob.b.data,
                            Q=dict(prob.Q.stored_items()), prox=prob.prox), path)
    return path


def _indefinite_lincon_file(tmp_path):
    from sgsqp.instances import Instance, write_instance
    lp = indefinite_lincon_2x2()
    path = str(tmp_path / "indefinite_lincon.json")
    P = dict(lp.P.stored_items())
    write_instance(Instance(dims=lp.partition.dims, Q=P, b=lp.g, prox=lp.prox,
                            lincon={"P": P, "A": lp.A, "g": lp.g, "d": lp.d}),
                   path)
    return path


def _run_cli(*argv):
    env = dict(os.environ, PYTHONPATH=os.path.dirname(
        os.path.dirname(sgsqp.__file__)))
    return subprocess.run([sys.executable, "-m", "sgsqp.cli", *argv],
                          capture_output=True, text=True, env=env, timeout=120)


class TestGen:
    def test_stdout_and_file_agree(self, tmp_path, capsys):
        rc = main(["gen", "--dims", "2,3", "--seed", "5"])
        assert rc == 0
        text = capsys.readouterr().out
        path = _gen(tmp_path, "a.json", "--dims", "2,3", "--seed", "5")
        assert open(path).read() == text

    def test_deterministic(self, tmp_path):
        p1 = _gen(tmp_path, "a.json", "--dims", "2,2", "--seed", "3")
        p2 = _gen(tmp_path, "b.json", "--dims", "2,2", "--seed", "3")
        assert open(p1).read() == open(p2).read()


class TestSolve:
    def test_composite_reaches_tolerance(self, tmp_path, capsys):
        path = _gen(tmp_path, "a.json", "--dims", "2,3", "--prox", "l1")
        rc = main(["solve", path, "--kkt-tol", "1e-9"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "tol" in out

    def test_exit_2_on_iteration_cap(self, tmp_path):
        path = _gen(tmp_path, "a.json", "--dims", "2,3")
        assert main(["solve", path, "--kkt-tol", "1e-13",
                     "--max-iter", "2"]) == 2

    def test_exit_3_on_stall(self, tmp_path):
        path = _gen(tmp_path, "a.json", "--dims", "2,3")
        assert main(["solve", path, "--mode", "inexact",
                     "--eps0", "1e-300"]) == 3

    def test_exit_5_on_nonfinite_iterate(self, tmp_path, capsys):
        path = _indefinite_file(tmp_path)
        with np.errstate(over="ignore", invalid="ignore"):
            assert main(["solve", path]) == 5
        assert "termination=nonfinite" in capsys.readouterr().out

    def test_nonfinite_exit_writes_nothing_to_stderr(self, tmp_path):
        run = _run_cli("solve", _indefinite_file(tmp_path))
        assert run.returncode == 5
        assert run.stderr == ""

    def test_constrained_nonfinite_exits_5_silently(self, tmp_path):
        run = _run_cli("solve", _indefinite_lincon_file(tmp_path),
                       "--sigma", "0.1", "--tau", "1")
        assert run.returncode == 5
        assert run.stderr == ""
        assert "termination=nonfinite" in run.stdout

    def test_exit_1_on_missing_file(self, tmp_path):
        assert main(["solve", str(tmp_path / "nope.json")]) == 1

    def test_exit_1_on_garbage_file(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{ not json")
        assert main(["solve", str(path)]) == 1

    def test_exit_1_on_ragged_matrix(self, tmp_path, capsys):
        import json
        path = _gen(tmp_path, "a.json", "--dims", "2,2")
        doc = json.loads((tmp_path / "a.json").read_text())
        doc["Q"]["0,0"][1].pop()
        (tmp_path / "a.json").write_text(json.dumps(doc))
        assert main(["solve", path]) == 1
        assert "Q block 0,0" in capsys.readouterr().err

    def test_trace_written(self, tmp_path):
        path = _gen(tmp_path, "a.json", "--dims", "2,2")
        trace = tmp_path / "trace.csv"
        assert main(["solve", path, "--trace", str(trace)]) == 0
        lines = trace.read_text().strip().splitlines()
        assert lines[0].startswith("k,F,kkt")
        for cell in lines[1].split(",")[1:]:
            float(cell)

    def test_ssor_variant_flag(self, tmp_path):
        path = _gen(tmp_path, "a.json", "--dims", "2,2")
        assert main(["solve", path, "--variant", "ssor:1.5"]) == 0

    def test_restart_schedule_flag(self, tmp_path):
        path = _gen(tmp_path, "a.json", "--dims", "2,2", "--prox", "nonneg")
        assert main(["solve", path, "--schedule", "restart:20"]) == 0

    def test_constrained_instance_uses_multiplier_loop(self, tmp_path,
                                                       capsys):
        path = _gen(tmp_path, "a.json", "--dims", "2,3", "--lincon", "2")
        rc = main(["solve", path, "--sigma", "10", "--tau", "1.6"])
        assert rc == 0
        assert "primal" in capsys.readouterr().out

    def test_qsdp_instance(self, tmp_path):
        path = _gen(tmp_path, "q.json", "--qsdp", "3,2")
        assert main(["solve", path, "--sigma", "1", "--tau", "1.6",
                     "--kkt-tol", "1e-6"]) == 0

    def test_singular_instance_with_constant_schedule(self, tmp_path):
        path = _gen(tmp_path, "s.json", "--dims", "2,2,2", "--singular")
        assert main(["solve", path, "--schedule", "constant",
                     "--kkt-tol", "1e-7"]) == 0


class TestVerify:
    def test_pass_output(self, tmp_path, capsys):
        path = _gen(tmp_path, "a.json", "--dims", "2,3,2")
        assert main(["verify", path]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out and "FAIL" not in out

    def test_corruption_exit_4(self, tmp_path, capsys):
        path = _gen(tmp_path, "a.json", "--dims", "2,3,2")
        assert main(["verify", path, "--corrupt", "1e-6"]) == 4
        assert "FAIL" in capsys.readouterr().out

    def test_constrained_instance_verifies(self, tmp_path):
        path = _gen(tmp_path, "a.json", "--dims", "2,2", "--lincon", "2")
        assert main(["verify", path]) == 0


class TestBench:
    def test_table_with_rate_columns(self, capsys):
        rc = main(["bench", "--seeds", "0,1", "--dims", "2,3",
                   "--omegas", "1,1.5"])
        assert rc == 0
        out = capsys.readouterr().out.strip().splitlines()
        header = out[0].split(",")
        assert header[:3] == ["seed", "method", "omega"]
        assert "observed_rate" in header and "predicted_rate" in header
        assert len(out) > 1
        methods = {line.split(",")[1] for line in out[1:]}
        assert {"classical", "accelerated"} <= methods

    def test_empty_suite(self, capsys):
        assert main(["bench", "--seeds", ""]) == 0
        out = capsys.readouterr().out.strip().splitlines()
        assert len(out) == 1

    def test_observed_not_worse_than_predicted(self, capsys):
        rc = main(["bench", "--seeds", "0", "--dims", "2,2"])
        assert rc == 0
        rows = capsys.readouterr().out.strip().splitlines()[1:]
        for row in rows:
            cells = dict(zip(
                "seed,method,omega,iterations,termination,predicted_rate,"
                "observed_rate,rate_gap".split(","), row.split(",")))
            pred = float(cells["predicted_rate"])
            obs = float(cells["observed_rate"])
            if np.isnan(pred) or np.isnan(obs):
                continue
            assert obs <= pred + 1e-6


class TestTopLevel:
    def test_help_exits_zero(self):
        assert main(["--help"]) == 0

    def test_unknown_command_exits_one(self):
        assert main(["frobnicate"]) == 1
