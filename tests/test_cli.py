import contextlib
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.interpolate import CubicSpline

import issgain.backstepping
import issgain.cli
import issgain.config
import issgain.gains
import issgain.pde_sim
import issgain.sturm_liouville
from issgain import Coefficient, DisturbanceSignal
from issgain.cli import main
from issgain.errors import CompatibilityWarning, SmoothnessWarning

SRC = Path(__file__).resolve().parents[1] / "src"

CONFIG_OK = """\
schema = issgain/1
kind = transport
D = 1.0
v = 1.0
k = 0.0
a = inf
resolution = 128
"""

CONFIG_NEGATIVE_POTENTIAL = """\
schema = issgain/1
kind = constant
p = 1
q = -3
r = 2
a1 = 1
a2 = 1
b1 = 1
b2 = 0
"""

REJECTED_CONFIGS = {
    "negative_p.cfg": CONFIG_NEGATIVE_POTENTIAL.replace("p = 1", "p = -1"),
    "degenerate_exit.cfg": CONFIG_NEGATIVE_POTENTIAL.replace("a1 = 1\na2 = 1",
                                                             "a1 = 0\na2 = 0"),
}

CONFIG_FORM_Y = """\
schema = issgain/1
kind = transport
D = 1.0
v = 2
k = 0.3
a = 1
form = y
resolution = 256
"""

CONFIG_BAD = """\
schema = issgain/1
kind = transport
D = one
"""


def read(path):
    return path.read_text().splitlines()


class TestSpectrumCommand:
    def test_named_case_csv(self, tmp_path, capsys):
        out = tmp_path / "spec.csv"
        code = main(["spectrum", "--case", "dirichlet-laplacian", "--modes", "12",
                     "--output", str(out)])
        assert code == 0
        lines = read(out)
        assert lines[0].startswith("n,lambda,phi_at_0,dphi_dz_at_0")
        first = lines[1].split(",")
        assert float(first[1]) == pytest.approx(math.pi ** 2, rel=1e-6)
        assert "certified = True" in capsys.readouterr().out

    def test_laplacian_honours_D(self, tmp_path):
        out = tmp_path / "spec.csv"
        assert main(["spectrum", "--D", "3", "--modes", "12", "--output", str(out)]) == 0
        assert float(read(out)[1].split(",")[1]) == pytest.approx(3 * math.pi ** 2, rel=1e-6)
        # at the default D = 1 the case is the unit Laplacian, bit for bit
        plain = issgain.build_problem(1, 0, 1, 1, 0, 1, 0, 256)
        default = issgain.transport_problem(1, 0, 0, math.inf, resolution=256)
        for name in ("eigenvalues", "eigenfunctions"):
            assert np.array_equal(getattr(issgain.solve_spectrum(plain, 12), name),
                                  getattr(issgain.solve_spectrum(default, 12), name))

    def test_stiff_robin_exit_lambda1(self, capsys):
        # the exit row grows like a/h; it must not set the eigensolver's tolerance
        assert main(["spectrum", "--case", "transport", "--zeta", "1", "--a", "1e12"]) == 0
        (line,) = [l for l in capsys.readouterr().err.splitlines() if l.startswith("lambda1 = ")]
        exact = issgain.gains.TransportCase.from_zeta(1.0, 1e12).lambda1()
        assert abs(float(line.split(" = ")[1]) - exact) < 1e-8

    def test_negative_potential_exit_one(self, tmp_path):
        out = tmp_path / "spec.csv"
        code = main(["spectrum", "--case", "dirichlet-laplacian", "--q", "-20",
                     "--modes", "12", "--output", str(out)])
        assert code == 1

    def test_form_y_uncertified_without_tail_bound(self, tmp_path, capsys):
        # variable coefficients have no tail bound; none is fitted in its place
        cfg = tmp_path / "formy.cfg"
        cfg.write_text(CONFIG_FORM_Y)
        assert main(["spectrum", "--config", str(cfg), "--modes", "16",
                     "--output", str(tmp_path / "s.csv")]) == 1
        out = capsys.readouterr().out
        assert "tail_bound = inf\n" in out
        assert "certified = False\n" in out
        assert "method = none\n" in out

    def test_malformed_config_exit_three(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(CONFIG_BAD)
        assert main(["spectrum", "--config", str(cfg)]) == 3

    def test_missing_config_exit_three(self):
        assert main(["spectrum", "--config", "/nonexistent/path.cfg"]) == 3


class TestGainCommand:
    def test_backstepping_zero_rate(self, capsys):
        assert main(["gain", "--case", "backstepping", "--c", "0", "--D", "1"]) == 0
        out = capsys.readouterr().out
        for line in out.splitlines():
            if line.startswith(("closed_form,", "series,", "bvp_integral,")):
                assert float(line.split(",")[1]) == pytest.approx(0.5773502692, abs=1e-6)

    def test_laplacian_bvp_route_on_D(self, monkeypatch, capsys):
        problems = []

        def recording(problem):
            problems.append(problem)
            return issgain.gains.bvp_integral(problem)

        monkeypatch.setattr(issgain.cli, "bvp_integral", recording)
        assert main(["gain", "--D", "3"]) == 0
        (problem,) = problems
        assert np.all(problem.p(problem.grid) == 3.0)
        out = capsys.readouterr().out
        assert "iss_decay_rate = 29.6088132033\n" in out
        assert float(out.split("bvp_integral,")[1].split()[0]) == pytest.approx(
            1 / math.sqrt(3), rel=1e-9)

    def test_stiff_robin_exit_routes_agree(self, capsys):
        assert main(["gain", "--case", "transport", "--zeta", "1", "--a", "1e14"]) == 0
        out = capsys.readouterr().out
        assert float(out.split("max_disagreement,")[1].split()[0]) < 1e-8

    def test_transport_zeta_one(self, capsys):
        assert main(["gain", "--case", "transport", "--zeta", "1", "--a", "inf"]) == 0
        out = capsys.readouterr().out
        assert "0.542666391318" in out

    @pytest.mark.parametrize("args", [["--zeta", "1e6", "--a", "1"],
                                      ["--zeta", "128", "--a", "inf"]])
    def test_disagreeing_routes_exit_two(self, capsys, args):
        # the series (N far below zeta/pi) and the 256-point BVP miss the closed form
        assert main(["gain", "--case", "transport", *args]) == 2
        captured = capsys.readouterr()
        assert "max_disagreement," in captured.out
        assert captured.err.startswith("numerical failure: gain routes disagree by ")

    @pytest.mark.parametrize("command", [
        "gain --case transport --zeta 1 --a inf", "gain --case backstepping --c 1 --D 1"])
    def test_readme_gain_examples_exit_zero(self, command):
        assert main(command.split()) == 0

    def test_inadmissible_exit_three(self, capsys):
        # k < -v^2/(4D): zeta is not real, so the named case is rejected as built
        assert main(["gain", "--case", "transport", "--D", "1", "--v", "1",
                     "--k", "-0.3"]) == 3
        assert capsys.readouterr().err == (
            "config error: zeta and q = k + v^2/(4D) must be real and finite "
            "(D=1.0, v=1.0, k=-0.3)\n")

    def test_config_route(self, tmp_path, capsys):
        cfg = tmp_path / "ok.cfg"
        cfg.write_text(CONFIG_OK)
        assert main(["gain", "--config", str(cfg), "--modes", "16"]) == 0
        out = capsys.readouterr().out
        assert "max_disagreement" in out

    def test_negative_potential_config_digits(self, tmp_path, capsys):
        # q/p = -3 enters the constant-coefficient series tail with its sign
        cfg = tmp_path / "negq.cfg"
        cfg.write_text(CONFIG_NEGATIVE_POTENTIAL)
        assert main(["gain", "--config", str(cfg)]) == 0
        out = capsys.readouterr().out
        assert "series_tail_corrected,3.38696575556\n" in out
        assert "bvp_integral,3.38696409784\n" in out

    def test_table_coefficients_uncertified_exit_one(self, tmp_path):
        z = np.linspace(0, 1, 33)
        table = tmp_path / "coeffs.csv"
        rows = "\n".join(f"{zi},{1 + 0.2 * zi},{0.4 * zi},1.0" for zi in z)
        table.write_text("z,p,q,r\n" + rows + "\n")
        cfg = tmp_path / "table.cfg"
        cfg.write_text("schema = issgain/1\nkind = table\n"
                       f"table = {table}\na1 = 1\na2 = 0\nb1 = 1\nb2 = 0\n"
                       "resolution = 128\n")
        assert main(["gain", "--config", str(cfg), "--modes", "16"]) == 1


    def test_nan_exit_parameter_message(self, capsys):
        assert main(["gain", "--case", "transport", "--a", "nan"]) == 3
        err = capsys.readouterr().err
        assert err.startswith("config error: --a must be a nonnegative number or 'inf'")

    def test_q_override_takes_series_and_bvp(self, capsys):
        # the closed form is for the unmodified case; --q 5 gives zeta = sqrt(5)
        assert main(["gain", "--case", "transport", "--zeta", "1", "--a", "1", "--q", "5"]) == 0
        rows = dict(line.split(",") for line in capsys.readouterr().out.split("\n\n")[0]
                    .splitlines()[1:])
        assert set(rows) == {"series_tail_corrected", "bvp_integral", "max_disagreement"}
        assert float(rows["bvp_integral"]) == pytest.approx(
            issgain.gains.transport_gain_closed(math.sqrt(5.0), 1.0), rel=1e-9)

    def test_config_q_override(self, tmp_path, capsys):
        cfg = tmp_path / "ok.cfg"
        cfg.write_text(CONFIG_OK)                     # form = x, q = v^2/4D = 0.25

        def bvp(*extra):
            assert main(["gain", "--config", str(cfg), *extra]) == 0
            out = capsys.readouterr().out
            return float(out.split("bvp_integral,")[1].split()[0])
        assert bvp() == pytest.approx(
            issgain.gains.transport_gain_closed(0.5, math.inf), rel=1e-7)
        assert bvp("--q", "2") == pytest.approx(
            issgain.gains.transport_gain_closed(math.sqrt(2.0), math.inf), rel=1e-7)

    def test_spectrum_report_block(self, capsys):
        assert main(["spectrum", "--case", "dirichlet-laplacian", "--modes", "12",
                     "--output", "-"]) == 0
        lines = capsys.readouterr().err.splitlines()
        assert [line.split(" = ")[0] for line in lines] == [
            "lambda1", "positive", "partial_sum", "tail_bound", "certified", "method"]
        assert lines[1] == "positive = True" and lines[4] == "certified = True"
        assert lines[5] == "method = transport-bound"

    def test_huge_exit_parameter_message(self, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["gain", "--case", "transport", "--a", "1e308"]) == 3
        err = capsys.readouterr().err
        assert err.startswith("config error: a boundary row overflows")
        assert "exit parameter a" in err
        assert "--a inf" in err

    def test_overflowing_interior_rows_message(self, tmp_path):
        # p/h overflows on every interior row; no RuntimeWarning or scipy message leaks
        cfg = tmp_path / "huge_p.cfg"
        cfg.write_text("schema = issgain/1\nkind = constant\np = 1e306\nq = 1\nr = 1\n"
                       "a1 = 1\na2 = 0\nb1 = 1\nb2 = 0\n")
        proc = run_python("import sys; from issgain.cli import main; "
                          "sys.exit(main(sys.argv[1:]))", "gain", "--config", str(cfg))
        assert proc.returncode == 3
        assert proc.stderr.splitlines() == [
            "config error: an operator row overflows at resolution 256 near z = 0.00390625: "
            "p/(r h^2) exceeds the floating-point range; reduce p or the resolution"]


    def test_overflowing_table_names_p(self, tmp_path):
        # the spline through a 1e306 spike overflows: p is named, with no RuntimeWarning
        table = tmp_path / "spike.csv"
        table.write_text("z,p,q,r\n" + "".join(
            f"{z / 10},{1e306 if z == 5 else 1},1,1\n" for z in range(11)))
        cfg = tmp_path / "spike.cfg"
        cfg.write_text(f"schema = issgain/1\nkind = table\ntable = {table}\n"
                       "a1 = 1\na2 = 0\nb1 = 1\nb2 = 0\n")
        proc = run_python("import sys; from issgain.cli import main; "
                          "sys.exit(main(sys.argv[1:]))", "gain", "--config", str(cfg))
        assert proc.returncode == 3
        assert proc.stderr.splitlines() == ["config error: p(z) must be finite on [0,1]"]


class TestSweepCommand:
    def test_default_properties(self, tmp_path, capsys):
        out = tmp_path / "fig1.csv"
        assert main(["sweep-fig1", "--points", "25", "--output", str(out)]) == 0
        lines = read(out)
        assert lines[0] == "zeta,G_a0,G_a1,G_ainf,G_advection"
        assert len(lines) == 26
        rows = np.array([[float(x) for x in ln.split(",")] for ln in lines[1:]])
        assert np.all(rows[:, 1] > rows[:, 2])
        assert np.all(rows[:, 2] > rows[:, 3])
        summary = capsys.readouterr().out
        assert "ordering_decreasing_in_a = True" in summary

    def test_single_point(self, tmp_path):
        out = tmp_path / "one.csv"
        assert main(["sweep-fig1", "--zeta-min", "1", "--zeta-max", "1",
                     "--points", "1", "--output", str(out)]) == 0
        lines = read(out)
        assert len(lines) == 2
        vals = [float(x) for x in lines[1].split(",")]
        assert vals[3] == pytest.approx(0.5426663913, abs=1e-9)
        assert vals[4] == pytest.approx(0.6575198540, abs=1e-9)

    @pytest.mark.parametrize("form", ["derivation", "legacy"])
    def test_reversed_grid_exit_three(self, tmp_path, capsys, form):
        # a grid that runs backwards would report G increasing in zeta
        out = tmp_path / "fig1.csv"
        assert main(["sweep-fig1", "--zeta-min", "4", "--zeta-max", "0.05",
                     "--advection-form", form, "--output", str(out)]) == 3
        captured = capsys.readouterr()
        assert captured.err == "config error: --zeta-min 4.0 exceeds --zeta-max 0.05\n"
        assert captured.out == ""
        assert not out.exists()

    def test_determinism(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        main(["sweep-fig1", "--points", "40", "--output", str(a)])
        main(["sweep-fig1", "--points", "40", "--output", str(b)])
        assert a.read_bytes() == b.read_bytes()


class TestSimulateCommand:
    def test_fd_spectral_and_lifted_agree(self, tmp_path):
        common = ["--case", "transport", "--D", "1", "--v", "1", "--k", "0",
                  "--resolution", "128", "--T", "0.4", "--store", "8",
                  "--disturbance", "sinusoid", "--omega", "2", "--x0", "zero"]
        f1, f2, f3 = tmp_path / "fd.csv", tmp_path / "sp.csv", tmp_path / "lift.csv"
        assert main(["simulate", "--solver", "fd", "--dt", "5e-4",
                     *common, "--output", str(f1)]) == 0
        assert main(["simulate", "--solver", "spectral", "--modes", "20",
                     *common, "--output", str(f2)]) == 0
        assert main(["simulate", "--solver", "lifted", "--modes", "20",
                     *common, "--output", str(f3)]) == 0
        n1 = np.array([float(l.split(",")[1]) for l in read(f1)[1:]])
        n2 = np.array([float(l.split(",")[1]) for l in read(f2)[1:]])
        n3 = np.array([float(l.split(",")[1]) for l in read(f3)[1:]])
        # lifted route reconstructs the full profile: tight agreement
        assert np.max(np.abs(n1 - n3)) < 2e-4
        # direct expansion undercounts the norm by its Parseval tail, O(1/N)
        assert np.all(n2 <= n1 + 2e-4)
        assert np.max(n1 - n2) < 2.0 / (math.pi ** 2 * 20)

    def test_advection_reproduces_characteristics(self, tmp_path):
        out = tmp_path / "adv.csv"
        assert main(["simulate", "--solver", "advection", "--v", "2", "--k", "0.5",
                     "--T", "1.0", "--store", "4", "--disturbance", "constant",
                     "--amplitude", "1", "--resolution", "64", "--wide",
                     "--output", str(out)]) == 0
        lines = read(out)
        last = [float(x) for x in lines[-1].split(",")]
        # t = 1 > 1/v: pure boundary regime y = e^{-kz/v} d
        grid = np.linspace(0, 1, 65)
        expected = np.exp(-0.25 * grid)
        assert np.allclose(last[3:], expected, atol=1e-12)

    def test_closed_loop_with_iss(self, tmp_path):
        traj, iss = tmp_path / "cl.csv", tmp_path / "iss.csv"
        kern = tmp_path / "kernel.csv"
        code = main(["simulate", "--solver", "closed-loop", "--plant-p", "3", "--c", "1",
                     "--D", "1", "--resolution", "128", "--dt", "1e-3", "--T", "1.0",
                     "--disturbance", "sinusoid", "--omega", "2",
                     "--output", str(traj), "--kernel-output", str(kern),
                     "--verify-iss", "--iss-output", str(iss)])
        assert code == 0
        assert read(traj)[0] == "t,norm_r,d,u"
        assert read(kern)[0] == "z,s,k"
        lines = read(iss)
        assert lines[0] == "epsilon,min_margin,argmin_t,pass"
        assert all(ln.endswith(",1") for ln in lines[1:])

    def test_closed_loop_large_rate_accepts_its_initial_state(self, tmp_path, capsys):
        # at lam_bar = 52 the discrete transform pair is inverse only to ~1e-6
        code = main(["simulate", "--solver", "closed-loop", "--plant-p", "50", "--c", "2",
                     "--T", "0.2", "--output", str(tmp_path / "cl.csv")])
        assert "y0(0) =" not in capsys.readouterr().err
        assert code == 0

    def test_closed_loop_kernel_pair_that_does_not_invert_exit_two(self, tmp_path, capsys):
        # at lam_bar = 200 and M = 256, (I+K)(I+L)x0 misses x0 by 6e-2: u would be 0.3 off
        out, kern = tmp_path / "cl.csv", tmp_path / "kernel.csv"
        assert main(["simulate", "--solver", "closed-loop", "--plant-p", "200", "--T", "0.2",
                     "--output", str(out), "--kernel-output", str(kern), "--verify-iss",
                     "--iss-output", str(tmp_path / "iss.csv")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("numerical failure: the kernel pair at lam_bar = 200 does not "
                              "invert at resolution 256: max|(I+K)(I+L)x0 - x0| = 0.06")
        assert err.count("\n") == 1
        assert list(tmp_path.iterdir()) == []

    def test_closed_loop_solves_each_kernel_once(self, tmp_path, monkeypatch):
        calls = {"solve_kernel": 0, "solve_inverse_kernel": 0}
        for name in calls:
            original = getattr(issgain.backstepping, name)

            def counted(*args, _name=name, _original=original, **kwargs):
                calls[_name] += 1
                return _original(*args, **kwargs)
            monkeypatch.setattr(issgain.backstepping, name, counted)
            monkeypatch.setattr(issgain.cli, name, counted)
        code = main(["simulate", "--solver", "closed-loop", "--resolution", "64",
                     "--T", "0.2", "--output", str(tmp_path / "cl.csv"),
                     "--verify-iss", "--iss-output", str(tmp_path / "iss.csv")])
        assert code == 0
        assert calls == {"solve_kernel": 1, "solve_inverse_kernel": 1}

    @pytest.mark.parametrize("solver", ["spectral", "lifted"])
    def test_spectral_verify_solves_spectrum_once(self, tmp_path, monkeypatch, solver):
        calls = []
        original = issgain.cli.solve_spectrum

        def counted(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)
        monkeypatch.setattr(issgain.cli, "solve_spectrum", counted)
        monkeypatch.setattr(issgain.gains, "solve_spectrum", counted)
        code = main(["simulate", "--solver", solver, "--case", "transport",
                     "--resolution", "128", "--T", "0.4", "--modes", "16",
                     "--disturbance", "sinusoid", "--output", str(tmp_path / "t.csv"),
                     "--verify-iss", "--iss-output", str(tmp_path / "iss.csv")])
        assert code == 0
        assert len(calls) == 1

    @pytest.mark.parametrize("argv, solves", [
        (["gain", "--case", "transport", "--zeta", "1", "--a", "1"], 0),
        (["gain", "--case", "backstepping", "--c", "1"], 0),
        (["gain", "--config", "CONFIG"], 1),
        (["spectrum", "--case", "transport", "--modes", "12", "--output", "OUT"], 1),
        (["simulate", "--solver", "spectral", "--case", "transport", "--resolution", "128",
          "--T", "0.4", "--modes", "16", "--output", "OUT"], 1),
        (["simulate", "--solver", "fd", "--case", "transport", "--resolution", "128",
          "--T", "0.2", "--verify-iss", "--output", "OUT", "--iss-output", "ISS"], 0),
        (["simulate", "--solver", "fd", "--config", "CONFIG", "--T", "0.2", "--verify-iss",
          "--output", "OUT", "--iss-output", "ISS"], 1),
    ])
    def test_solves_at_most_one_spectrum(self, tmp_path, monkeypatch, argv, solves):
        calls = []
        original = issgain.sturm_liouville.solve_spectrum

        def counted(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)
        monkeypatch.setattr(issgain.cli, "solve_spectrum", counted)
        monkeypatch.setattr(issgain.gains, "solve_spectrum", counted)
        cfg = tmp_path / "ok.cfg"
        cfg.write_text(CONFIG_OK)
        paths = {"CONFIG": cfg, "OUT": tmp_path / "out.csv", "ISS": tmp_path / "iss.csv"}
        assert main([str(paths.get(a, a)) for a in argv]) == 0
        assert len(calls) == solves

    @pytest.mark.parametrize("argv", [
        ["simulate", "--solver", "spectral", "--case", "transport", "--resolution", "128",
         "--T", "0.4", "--modes", "16", "--verify-iss"],
        ["simulate", "--solver", "lifted", "--case", "transport", "--resolution", "128",
         "--T", "0.4", "--modes", "16", "--disturbance", "sinusoid", "--verify-iss"],
        ["simulate", "--solver", "fd", "--config", "CONFIG", "--T", "0.2", "--verify-iss"],
        ["gain", "--config", "CONFIG"],
    ])
    def test_certifies_once_per_command(self, tmp_path, monkeypatch, argv):
        calls = []
        original = issgain.sturm_liouville.check_hypothesis_H

        def counted(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)
        monkeypatch.setattr(issgain.sturm_liouville, "check_hypothesis_H", counted)
        cfg = tmp_path / "ok.cfg"
        cfg.write_text(CONFIG_OK)
        argv = [str(cfg) if a == "CONFIG" else a for a in argv]
        if argv[0] == "simulate":
            argv += ["--output", str(tmp_path / "t.csv"),
                     "--iss-output", str(tmp_path / "iss.csv")]
        assert main(argv) == 0
        assert len(calls) == 1

    def test_closed_loop_kernel_overflow_exit_two(self, tmp_path, capsys):
        out = tmp_path / "cl.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["simulate", "--solver", "closed-loop", "--plant-p", "1e6",
                         "--output", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("numerical failure: kernel")
        assert "overflow" in err
        assert not out.exists()

    def test_spectral_smoothed_step_at_huge_times(self, tmp_path, capsys):
        # the step's zero coefficients add 0 where their powers of t overflow
        out = tmp_path / "t.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["simulate", "--solver", "spectral", "--disturbance", "smoothed-step",
                         "--T", "1e62", "--output", str(out)]) == 0
        assert capsys.readouterr().err == ""
        rows = np.array([[float(x) for x in ln.split(",")] for ln in read(out)[1:]])
        assert rows[-1, 0] == 1e62
        assert np.all(np.isfinite(rows))

    def test_lifted_defaults_project_like_fd(self, tmp_path):
        # constant d = 1 and x0 = 0 miss the inlet datum: both routes project x0
        norms = {}
        for solver in ("lifted", "fd"):
            out = tmp_path / f"{solver}.csv"
            with pytest.warns(CompatibilityWarning, match="misses the inlet datum"):
                assert main(["simulate", "--solver", solver, "--output", str(out)]) == 0
            norms[solver] = float(read(out)[-1].split(",")[1])
        assert norms["lifted"] == pytest.approx(norms["fd"], rel=1e-5)

    def test_uncertified_verify_iss_writes_nothing(self, tmp_path, capsys):
        # the envelope is settled before the solve, so its certificate fails first
        cfg, out = tmp_path / "y.cfg", tmp_path / "t.csv"
        cfg.write_text(CONFIG_FORM_Y)
        assert main(["simulate", "--solver", "fd", "--config", str(cfg), "--T", "0.2",
                     "--output", str(out), "--verify-iss",
                     "--iss-output", str(tmp_path / "iss.csv")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("uncertified hypothesis: ")
        assert err.count("\n") == 1
        assert sorted(p.name for p in tmp_path.iterdir()) == ["y.cfg"]

    def test_verify_iss_fd(self, tmp_path):
        traj, iss = tmp_path / "t.csv", tmp_path / "i.csv"
        code = main(["simulate", "--solver", "fd", "--case", "transport",
                     "--resolution", "128", "--dt", "1e-3", "--T", "1.0",
                     "--disturbance", "constant", "--x0", "steady",
                     "--output", str(traj), "--verify-iss", "--iss-output", str(iss)])
        assert code == 0
        assert len(read(iss)) == 4


class TestRejectedInputs:
    @pytest.mark.parametrize("argv", [
        ["simulate", "--solver", "fd", "--store", "0"],
        ["simulate", "--solver", "spectral", "--store", "0"],
        ["simulate", "--solver", "lifted", "--store", "-3"],
        ["simulate", "--solver", "advection", "--v", "0"],
        ["simulate", "--solver", "advection", "--D", "0", "--v", "1", "--verify-iss"],
        ["sweep-fig1", "--points", "0"],
        ["sweep-fig1", "--zeta-min", "nan"],
        ["sweep-fig1", "--zeta-max", "inf"],
        ["simulate", "--solver", "closed-loop", "--plant-p", "nan"],
        ["simulate", "--solver", "closed-loop", "--D", "inf"],
        ["simulate", "--solver", "advection", "--v", "inf"],
        *(["simulate", "--config", name] for name in sorted(REJECTED_CONFIGS)),
        ["simulate", "--solver", "advection", "--v", "1e308", "--verify-iss"],
        ["simulate", "--solver", "advection", "--k", "inf"],
    ])
    def test_exit_three_without_traceback(self, tmp_path, monkeypatch, capsys, argv):
        for name, text in REJECTED_CONFIGS.items():
            (tmp_path / name).write_text(text)
        monkeypatch.chdir(tmp_path)
        out = tmp_path / "out.csv"
        assert main([*argv, "--output", str(out)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("config error:")
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("args, message", [
        ("--D 0", "D must be finite and positive, got 0.0"),
        ("--case transport --D -1", "D must be finite and positive, got -1.0"),
        ("--case transport --D nan", "D must be finite and positive, got nan"),
        ("--case transport --v inf", "v must be finite and nonnegative, got inf"),
        ("--case transport --k nan", "k must be finite, got nan"),
        ("--case transport --a -1", "a must be in [0, inf], got -1.0"),
        ("--case transport --zeta -1", "zeta must be finite and nonnegative, got -1.0"),
        ("--case transport --zeta nan", "zeta must be finite and nonnegative, got nan"),
        ("--case transport --k -5",
         "zeta and q = k + v^2/(4D) must be real and finite (D=1.0, v=1.0, k=-5.0)"),
        ("--case transport --v 1e200",
         "zeta and q = k + v^2/(4D) must be real and finite (D=1.0, v=1e+200, k=0.0)"),
        ("--case transport --D 1e-310",
         "zeta and q = k + v^2/(4D) must be real and finite (D=1e-310, v=1.0, k=0.0)"),
        ("--case backstepping --c -1", "c must be finite and nonnegative, got -1.0"),
        ("--case backstepping --c inf", "c must be finite and nonnegative, got inf"),
    ])
    def test_rejected_named_case(self, tmp_path, capsys, args, message):
        # every command reads --case through one mapping, so each rejects an input alike
        out = tmp_path / "out.csv"
        for command in ("spectrum", "gain", "simulate --solver fd"):
            argv = [*command.split(), *args.split()]
            assert main(argv if command == "gain" else [*argv, "--output", str(out)]) == 3
            captured = capsys.readouterr()
            assert captured.err == f"config error: {message}\n"
            assert captured.out == ""
            assert not out.exists()

    @staticmethod
    def assert_unread_flag(tmp_path, monkeypatch, capsys, args, message):
        # each command that reads a named case rejects the flag before any solve or file
        (tmp_path / "x.cfg").write_text(CONFIG_OK)
        monkeypatch.chdir(tmp_path)
        for command in ("spectrum", "gain", "simulate --solver fd",
                        "simulate --solver spectral", "simulate --solver lifted"):
            argv = [*command.split(), *args.split()]
            assert main(argv if command == "gain" else [*argv, "--output", "out.csv"]) == 3
            captured = capsys.readouterr()
            assert captured.err == f"config error: {message}\n"
            assert captured.out == ""
            assert sorted(p.name for p in tmp_path.iterdir()) == ["x.cfg"]

    @pytest.mark.parametrize("args, message", [
        ("--case dirichlet-laplacian --v 5 --a 1", "--case dirichlet-laplacian does not read --v"),
        ("--k 3", "--case dirichlet-laplacian does not read --k"),
        ("--case backstepping --c 1 --zeta 9", "--case backstepping does not read --zeta"),
        ("--case backstepping --a 1", "--case backstepping does not read --a"),
    ])
    def test_transport_flag_without_transport_case(self, tmp_path, monkeypatch, capsys,
                                                   args, message):
        self.assert_unread_flag(tmp_path, monkeypatch, capsys, args, message)

    @pytest.mark.parametrize("args, message", [
        ("--case transport --zeta 1 --c 2", "--case transport does not read --c"),
        ("--c 1", "--case dirichlet-laplacian does not read --c"),
    ])
    def test_target_flag_without_backstepping_case(self, tmp_path, monkeypatch, capsys,
                                                   args, message):
        self.assert_unread_flag(tmp_path, monkeypatch, capsys, args, message)

    @pytest.mark.parametrize("args, message", [
        ("--case transport --zeta 1 --v 7 --k 3",
         "--case transport with --zeta does not read --v"),
        ("--case transport --k 3 --zeta 1", "--case transport with --zeta does not read --k"),
    ])
    def test_velocity_or_rate_with_zeta(self, tmp_path, monkeypatch, capsys, args, message):
        self.assert_unread_flag(tmp_path, monkeypatch, capsys, args, message)

    @pytest.mark.parametrize("args, message", [
        ("--config x.cfg --zeta 3", "--config does not read --zeta"),
        ("--config x.cfg --D 2", "--config does not read --D"),
        ("--config x.cfg --q 2 --c 1", "--config does not read --c"),
        ("--case transport --config x.cfg", "--config does not read --case"),
        ("--config x.cfg --resolution 64", "--config does not read --resolution"),
    ])
    def test_named_case_flag_with_config(self, tmp_path, monkeypatch, capsys, args, message):
        self.assert_unread_flag(tmp_path, monkeypatch, capsys, args, message)

    @pytest.mark.parametrize("args", ["--c -1", "--c inf", "--D 0", "--D nan",
                                      "--c 1e308 --D 1e-300"])
    def test_closed_loop_rejects_its_target_as_gain_does(self, tmp_path, capsys, args):
        # the closed loop's target is the TransportCase that gain --case backstepping reads
        out = tmp_path / "out.csv"
        assert main(["gain", "--case", "backstepping", *args.split()]) == 3
        gain = capsys.readouterr()
        assert main(["simulate", "--solver", "closed-loop", *args.split(),
                     "--output", str(out)]) == 3
        closed_loop = capsys.readouterr()
        assert gain.err.startswith("config error: ")
        assert closed_loop.err == gain.err
        assert gain.out == closed_loop.out == ""
        assert not out.exists()

    @pytest.mark.parametrize("argv, message", [
        (["--solver", "closed-loop", "--amplitude", "inf"], "amplitude must be finite, got inf"),
        (["--solver", "spectral", "--disturbance", "sinusoid", "--omega", "nan"],
         "omega must be finite, got nan"),
        (["--disturbance", "sinusoid", "--phase", "inf"], "phase must be finite, got inf"),
        (["--disturbance", "smoothed-step", "--ramp", "nan"],
         "ramp_time must be finite and positive, got nan"),
        (["--disturbance", "smoothed-step", "--ramp", "inf"],
         "ramp_time must be finite and positive, got inf"),
    ])
    def test_non_finite_signal_parameter(self, tmp_path, capsys, argv, message):
        # rejected by the signal's constructor, before any solve or warning
        out = tmp_path / "out.csv"
        assert main(["simulate", *argv, "--output", str(out)]) == 3
        assert capsys.readouterr().err == f"config error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("amplitude", ["inf", "nan", "1e308"])
    def test_non_finite_steady_datum(self, tmp_path, capsys, amplitude):
        # 1e308 is finite, but the inlet row of the steady solve overflows
        out = tmp_path / "out.csv"
        assert main(["simulate", "--solver", "fd", "--x0", "steady",
                     "--amplitude", amplitude, "--output", str(out)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("config error:")
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("value", ["0", "-1", "nan", "inf"])
    @pytest.mark.parametrize("solver, flag", [
        ("fd", "--T"), ("fd", "--dt"), ("closed-loop", "--T"), ("closed-loop", "--dt"),
        ("spectral", "--T"), ("lifted", "--T"), ("advection", "--T"),
    ])
    def test_time_inputs(self, tmp_path, capsys, solver, flag, value):
        out = tmp_path / "out.csv"
        assert main(["simulate", "--solver", solver, f"{flag}={value}",
                     "--output", str(out)]) == 3
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {flag[2:]} must be finite and positive")
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("flag, value, message", [
        ("--eps", "nan", "epsilon values must be finite and positive"),
        ("--eps", "0.1,inf", "epsilon values must be finite and positive"),
        ("--eps", "abc", "--eps must be comma-separated numbers, got 'abc'"),
        ("--eps", "", "--eps must be comma-separated numbers, got ''"),
        ("--slack", "nan", "slack must be finite and nonnegative"),
        ("--slack", "-1", "slack must be finite and nonnegative"),
    ])
    def test_iss_settings(self, tmp_path, capsys, flag, value, message):
        # rejected before the solve: neither the trajectory nor the ISS CSV is written
        out, iss = tmp_path / "out.csv", tmp_path / "iss.csv"
        assert main(["simulate", "--solver", "fd", "--T", "0.2", f"{flag}={value}",
                     "--output", str(out), "--verify-iss", "--iss-output", str(iss)]) == 3
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {message}")
        assert not out.exists()
        assert not iss.exists()

    @pytest.mark.parametrize("n", ["0", "-3"])
    def test_series_length_below_one(self, capsys, n):
        assert main(["gain", "--case", "transport", "--zeta", "2", "--a", "1", "--N", n]) == 3
        captured = capsys.readouterr()
        assert captured.err == f"config error: --N must be at least 1, got {n}\n"
        assert captured.out == ""

    @pytest.mark.parametrize("argv, flag", [
        (["--solver", "advection", "--config", "missing.cfg"], "--config"),
        (["--solver", "advection", "--case", "transport"], "--case"),
        (["--solver", "closed-loop", "--case", "backstepping"], "--case"),
        (["--solver", "closed-loop", "--q", "2"], "--q"),
        (["--solver", "fd", "--kernel-output", "kernel.csv"], "--kernel-output"),
        (["--solver", "advection", "--kernel-output", "kernel.csv"], "--kernel-output"),
        (["--solver", "closed-loop", "--zeta", "3", "--v", "9", "--T", "0.01"], "--v"),
        (["--solver", "advection", "--c", "5", "--zeta", "2", "--T", "0.01"], "--zeta"),
        *((["--solver", solver, "--dt", "0.01"], "--dt")
          for solver in ("spectral", "lifted", "advection")),
        *((["--solver", solver, "--modes", "8"], "--modes")
          for solver in ("fd", "advection", "closed-loop")),
        *((["--solver", solver, "--x0", "steady"], "--x0")
          for solver in ("advection", "closed-loop")),
        *((["--solver", solver, "--plant-p", "2"], "--plant-p")
          for solver in ("fd", "spectral", "lifted", "advection")),
    ])
    def test_input_the_solver_does_not_read(self, tmp_path, monkeypatch, capsys, argv, flag):
        monkeypatch.chdir(tmp_path)
        assert main(["simulate", *argv, "--output", "out.csv"]) == 3
        solver = argv[1]
        assert capsys.readouterr().err == f"config error: --solver {solver} does not read {flag}\n"
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("argv, message", [
        ("gain --modes 8", "gain with a named case does not read --modes"),
        ("gain --case transport --zeta 1 --modes 8",
         "gain with a named case does not read --modes"),
        ("gain --config x.cfg --N 5", "gain with --config or --q does not read --N"),
        ("gain --q 2 --N 5", "gain with --config or --q does not read --N"),
        ("simulate --eps 1 --output out.csv", "simulate without --verify-iss does not read --eps"),
        ("simulate --solver closed-loop --slack 1 --output out.csv",
         "simulate without --verify-iss does not read --slack"),
        ("simulate --solver spectral --iss-output iss.csv --output out.csv",
         "simulate without --verify-iss does not read --iss-output"),
    ])
    def test_input_the_run_does_not_read(self, tmp_path, monkeypatch, capsys, argv, message):
        # gain's route and simulate's --verify-iss each decide flags of their own
        (tmp_path / "x.cfg").write_text(CONFIG_OK)
        monkeypatch.chdir(tmp_path)
        assert main(argv.split()) == 3
        captured = capsys.readouterr()
        assert captured.err == f"config error: {message}\n"
        assert captured.out == ""
        assert sorted(p.name for p in tmp_path.iterdir()) == ["x.cfg"]

    def test_step_count_overflow(self, tmp_path, capsys):
        assert main(["simulate", "--solver", "fd", "--dt", "1e-320",
                     "--output", str(tmp_path / "out.csv")]) == 3
        assert capsys.readouterr().err.startswith("config error: T/dt overflows")


# --- the flag table, fuzzed: argv drawn from the runs _READS describes ---
NUMBER = st.sampled_from(["0", "-1", "nan", "inf", "1e300", "0.5", "2"])
FLAG_VALUES = {      # flags that size an array take small values only
    "case": st.sampled_from(["dirichlet-laplacian", "transport", "backstepping"]),
    "a": st.sampled_from(["inf", "0", "1", "-1", "nan", "1e300"]),
    "resolution": st.sampled_from(["63", "64", "66"]),
    "modes": st.integers(1, 12).map(str), "N": st.integers(-1, 40).map(str),
    "store": st.integers(0, 4).map(str), "points": st.integers(0, 3).map(str),
    "T": st.sampled_from(["0.01", "0.03"]), "dt": st.sampled_from(["0.001", "0.005"]),
    "eps": st.sampled_from(["0.1,1", "nan", "abc", "", "1,inf"]),
    "disturbance": st.sampled_from(["constant", "sinusoid", "smoothed-step"]),
    "x0": st.sampled_from(["zero", "steady", "lift", "sine"]),
    "advection_form": st.sampled_from(["derivation", "legacy"]),
    "output": st.just("out.csv"), "iss_output": st.just("iss.csv"),
    "kernel_output": st.just("kernel.csv"), "config": st.just("x.cfg"),
    "wide": st.none(), "verify_iss": st.none(),
}
# the layer of a run that its command or solver decides, and the argv that selects it
FIRST_LAYERS = [("spectrum", ["spectrum"]), ("gain with a named case", ["gain"]),
                ("gain with --config or --q", ["gain"]), ("sweep-fig1", ["sweep-fig1"]),
                *((f"--solver {s}", ["simulate", "--solver", s])
                  for s in ("fd", "spectral", "lifted", "advection", "closed-loop"))]


@st.composite
def runs(draw):
    """(argv, layers, given flags): the layers name the run independently of the CLI."""
    first, argv = draw(st.sampled_from(FIRST_LAYERS))
    layers, flags, command = [first], {}, argv[0]
    fixed = {"solver", "verify_iss", "config", "case", "zeta", "q"}
    if first == "gain with --config or --q":
        for flag in draw(st.sampled_from([["config"], ["q"], ["config", "q"]])):
            flags[flag] = draw(FLAG_VALUES.get(flag, NUMBER))
    if "case" in issgain.cli._READS[first]:
        if "config" in flags or (command != "gain" and draw(st.booleans())):
            flags["config"] = "x.cfg"
            layers.append("--config")
            fixed -= {"case", "zeta"}       # neither changes the run; both are unread
        else:
            case = draw(FLAG_VALUES["case"])
            if case != "dirichlet-laplacian" or draw(st.booleans()):
                flags["case"] = case
            layers.append(f"--case {case}")
            if case != "transport":
                fixed.discard("zeta")
            elif draw(st.booleans()):
                flags["zeta"] = draw(NUMBER)
                layers.append("--case transport with --zeta")
        if command != "gain":
            fixed.discard("q")
    elif command == "simulate":
        fixed -= {"config", "case", "zeta", "q"}
    if command == "simulate":
        if draw(st.booleans()):
            flags["verify_iss"] = None
        else:
            layers.append("simulate without --verify-iss")
    _, defaults = issgain.cli._build_parser()
    for flag in draw(st.lists(st.sampled_from(sorted(set(defaults[command]) - fixed)),
                              max_size=5, unique=True)):
        flags[flag] = draw(FLAG_VALUES.get(flag, NUMBER))
    return argv, layers, flags


@settings(max_examples=100, deadline=None)
@given(runs())
def test_every_flag_a_run_does_not_read_exits_three(run):
    argv, layers, flags = run
    reads = frozenset.intersection(*(issgain.cli._READS[who] for who in layers))
    unread = {f"--{flag.replace('_', '-')}" for flag in flags if flag not in reads}
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        (root / "x.cfg").write_text(CONFIG_OK)
        for flag, value in flags.items():
            argv = [*argv, f"--{flag.replace('_', '-')}"]
            if value is not None:
                argv.append(str(root / value) if value.endswith((".csv", ".cfg")) else value)
        out, err = io.StringIO(), io.StringIO()
        with warnings.catch_warnings(record=True) as caught, \
                contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            warnings.simplefilter("always")
            code = main(argv)
        written = sorted(p.name for p in root.iterdir())
    message = err.getvalue()
    assert code in (0, 1, 2, 3), argv
    assert "Traceback" not in message
    rejected = re.fullmatch(r"config error: (.+) does not read (--\S+)\n", message)
    if unread:
        assert code == 3 and rejected, (argv, message)
        assert rejected[1] in layers and rejected[2] in unread, (argv, message)
        assert caught == [], argv
    else:
        assert rejected is None and "does not read --" not in message, (argv, message)
    if code == 3:
        assert written == ["x.cfg"], (argv, message)


class TestConfigValues:
    """Config values that are not numbers, or resolutions that are not finite
    integers, end in exit 3 with a message naming the key."""

    @pytest.mark.parametrize("key, value", [
        ("a", "nan"), ("D", "nan"), ("resolution", "nan"), ("resolution", "inf"),
        ("resolution", "1e400"), ("resolution", "256.5"),
    ])
    def test_exit_three_naming_the_key(self, tmp_path, capsys, key, value):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("".join(f"{key} = {value}\n" if line.split(" = ")[0] == key
                               else line + "\n" for line in CONFIG_OK.splitlines()))
        out = tmp_path / "out.csv"
        assert main(["spectrum", "--config", str(cfg), "--output", str(out)]) == 3
        err = capsys.readouterr().err
        assert err.startswith(f"config error: key {key!r}:")
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("text, kind, key", [
        (CONFIG_OK + "c = 5\n", "transport", "c"),
        (CONFIG_NEGATIVE_POTENTIAL + "D = 2\n", "constant", "D"),
        (CONFIG_NEGATIVE_POTENTIAL + "form = y\n", "constant", "form"),
        (CONFIG_OK + "b2 = 1\n", "transport", "b2"),
    ])
    def test_key_the_kind_does_not_read(self, tmp_path, capsys, text, kind, key):
        cfg = tmp_path / "extra.cfg"
        cfg.write_text(text)
        assert main(["gain", "--config", str(cfg)]) == 3
        captured = capsys.readouterr()
        assert captured.err == f"config error: kind {kind} does not read key {key!r}\n"
        assert captured.out == ""

    def test_infinite_exit_parameter_spellings(self, tmp_path):
        for spelling in ("inf", "+inf", "infinity", "Infinity"):
            cfg = tmp_path / "inf.cfg"
            cfg.write_text(CONFIG_OK.replace("a = inf", f"a = {spelling}"))
            assert issgain.config.problem_from_config(
                issgain.config.load_config(str(cfg))).a2 == 0.0
            assert issgain.cli._parse_a(spelling) == math.inf


def test_closed_loop_needs_resolution_64(tmp_path, capsys):
    out = tmp_path / "cl.csv"
    assert main(["simulate", "--solver", "closed-loop", "--resolution", "32",
                 "--output", str(out)]) == 3
    assert capsys.readouterr().err == "config error: resolution must be >= 64\n"
    assert not out.exists()


def test_help_exits_zero():
    assert main(["--help"]) == 0


def test_unknown_command_exit_three():
    assert main(["frobnicate"]) == 3


def test_parser_is_built_once_and_keeps_defaults(tmp_path):
    first, second = tmp_path / "first.csv", tmp_path / "second.csv"
    assert main(["spectrum", "--modes", "10", "--D", "3", "--output", str(first)]) == 0
    assert main(["spectrum", "--output", str(second)]) == 0
    assert issgain.cli._build_parser() is issgain.cli._build_parser()
    assert len(read(first)) == 11 and len(read(second)) == 13     # --modes 12 by default
    assert float(read(first)[1].split(",")[1]) == pytest.approx(3 * math.pi ** 2, rel=1e-6)
    assert float(read(second)[1].split(",")[1]) == pytest.approx(math.pi ** 2, rel=1e-6)


def test_eigensolver_failure_exits_two(monkeypatch, capsys):
    dstein = issgain.sturm_liouville.dstein
    monkeypatch.setattr(issgain.sturm_liouville, "dstein",
                        lambda *args: (dstein(*args)[0], 1))
    assert main(["spectrum", "--modes", "12"]) == 2
    assert capsys.readouterr().err.startswith("numerical failure: ")


def run_python(code: str, *args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-c", code, *args], env=env,
                          capture_output=True, text=True, timeout=120)


def test_warnings_print_as_package_messages(tmp_path):
    proc = run_python("import sys; from issgain.cli import main; sys.exit(main(sys.argv[1:]))",
                      "simulate", "--solver", "spectral", "--output", str(tmp_path / "t.csv"))
    assert proc.returncode == 0
    lines = proc.stderr.splitlines()
    assert lines and all(line.startswith("warning: ") for line in lines)
    assert "warning: CompatibilityWarning: initial state misses the inlet datum" in proc.stderr
    assert ".py:" not in proc.stderr


@pytest.mark.parametrize("bound", ["--zeta-max=inf", "--zeta-min=-inf"])
def test_infinite_zeta_end_prints_only_the_config_error(tmp_path, bound):
    # in a subprocess: in-process, pytest would capture a numpy warning before main prints it
    proc = run_python("import sys; from issgain.cli import main; sys.exit(main(sys.argv[1:]))",
                      "sweep-fig1", bound, "--output", str(tmp_path / "f.csv"))
    assert proc.returncode == 3
    assert proc.stderr == "config error: zeta grid must be finite and positive\n"
    assert not (tmp_path / "f.csv").exists()


def test_overflowing_lam_bar_prints_only_the_numerical_failure(tmp_path):
    # lam_bar = 1e300/1e-300 = inf; no numpy warning may precede the error line
    out = tmp_path / "cl.csv"
    proc = run_python("import sys; from issgain.cli import main; sys.exit(main(sys.argv[1:]))",
                      "simulate", "--solver", "closed-loop", "--plant-p", "1e300",
                      "--D", "1e-300", "--output", str(out))
    assert proc.returncode == 2
    assert proc.stderr == "numerical failure: kernel at lam_bar = inf overflows double precision\n"
    assert not out.exists()


def test_too_many_steps_print_only_the_config_error(tmp_path):
    # 1e303 step times exceed numpy's array size; the error comes before the
    # initial state's projection warning
    out = tmp_path / "t.csv"
    proc = run_python("import sys; from issgain.cli import main; sys.exit(main(sys.argv[1:]))",
                      "simulate", "--solver", "fd", "--case", "transport", "--T", "1e300",
                      "--dt", "1e-3", "--output", str(out))
    assert proc.returncode == 3
    assert proc.stderr == ("config error: T = 1e+300 at dt = 0.001 takes 1e+303 steps, too "
                           "many to allocate; raise dt or lower T\n")
    assert not out.exists()


@pytest.mark.parametrize("solver", ["fd", "closed-loop"])
def test_unallocatable_step_times_are_a_config_error(monkeypatch, tmp_path, capsys, solver):
    # T/dt = 1e12 step times would take 8 TB; the allocation fails without being tried
    arange = np.arange

    def out_of_memory(*args, **kwargs):
        if args and args[0] == 10 ** 12 + 1:
            raise MemoryError("Unable to allocate 7.28 TiB")
        return arange(*args, **kwargs)
    monkeypatch.setattr(issgain.pde_sim.np, "arange", out_of_memory)
    out = tmp_path / "t.csv"
    assert main(["simulate", "--solver", solver, "--T", "1e9", "--dt", "1e-3",
                 "--output", str(out)]) == 3
    assert capsys.readouterr().err == ("config error: T = 1000000000.0 at dt = 0.001 takes "
                                       "1e+12 steps, too many to allocate; raise dt or "
                                       "lower T\n")
    assert not out.exists()


@pytest.mark.parametrize("solver", ["fd", "closed-loop"])
def test_unallocatable_eigenbasis_is_a_config_error(monkeypatch, tmp_path, capsys, solver):
    # the Crank-Nicolson eigenvectors fill an n x n array; an allocation failure there
    # names the resolution, and is raised here without allocating anything
    def out_of_memory(*args, **kwargs):
        raise MemoryError("Unable to allocate 2.00 GiB")
    monkeypatch.setattr(issgain.pde_sim, "dstevd", out_of_memory)
    out = tmp_path / "t.csv"
    assert main(["simulate", "--solver", solver, "--T", "0.01", "--output", str(out)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("config error: resolution 256 is too fine for the Crank-Nicolson "
                          "eigenbasis: its ")
    assert err.endswith(" arrays cannot be allocated; lower the resolution\n")
    assert err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("solver", ["spectral", "lifted"])
def test_unallocatable_store_times_print_one_line(tmp_path, solver):
    # --store 1e9 fails in _store_times; it is patched to raise, so nothing is allocated.
    # The times come before the projection of the incompatible x0, so no warning precedes
    # the error; a subprocess, because pytest would capture the warning
    out = tmp_path / "t.csv"
    proc = run_python("import sys, issgain.pde_sim\n"
                      "def out_of_memory(*args, **kwargs):\n"
                      "    raise MemoryError\n"
                      "issgain.pde_sim._store_times = out_of_memory\n"
                      "from issgain.cli import main\n"
                      "sys.exit(main(sys.argv[1:]))",
                      "simulate", "--solver", solver, "--output", str(out))
    assert proc.returncode == 3
    assert proc.stderr == "config error: out of memory\n"
    assert not out.exists()


@pytest.mark.parametrize("argv, target", [
    (["spectrum"], "solve_spectrum"),
    (["simulate", "--solver", "spectral"], "solve_spectrum"),
    (["simulate", "--solver", "closed-loop"], "solve_kernel"),
    (["simulate", "--solver", "advection"], "advection_exact"),
    (["sweep-fig1", "--points", "5"], "sweep_figure1"),
    (["simulate", "--solver", "spectral", "--store", "5"], "simulate_spectral"),
])
def test_out_of_memory_is_a_config_error(monkeypatch, tmp_path, capsys, argv, target):
    # a resolution, --points or --store too large for memory fails in these calls; here
    # each call raises as numpy would, at a small input, so nothing large is allocated
    def out_of_memory(*args, **kwargs):
        raise MemoryError("Unable to allocate 2.98 GiB for an array with shape (20001, 20001) "
                          "and data type float64")
    monkeypatch.setattr(issgain.cli, target, out_of_memory)
    out = tmp_path / "out.csv"
    assert main([*argv, "--output", str(out)]) == 3
    assert capsys.readouterr().err == (
        "config error: out of memory: Unable to allocate 2.98 GiB for an array with shape "
        "(20001, 20001) and data type float64\n")
    assert not out.exists()


def test_bare_memory_error_prints_one_line(monkeypatch, capsys):
    def out_of_memory(*args, **kwargs):
        raise MemoryError
    monkeypatch.setattr(issgain.cli, "sweep_figure1", out_of_memory)
    assert main(["sweep-fig1"]) == 3
    assert capsys.readouterr().err == "config error: out of memory\n"


def test_main_keeps_warnings_recordable_and_restores_format(tmp_path):
    before = warnings.formatwarning
    with pytest.warns(CompatibilityWarning):
        assert main(["simulate", "--solver", "spectral",
                     "--output", str(tmp_path / "t.csv")]) == 0
    assert warnings.formatwarning is before


HEAVY_SCIPY = ("scipy.interpolate", "scipy.optimize", "scipy.sparse", "scipy.spatial",
               "scipy.fft")

IMPORT_PROBE = """\
import contextlib, io, json, sys
heavy = sys.argv[1].split(",")
loaded = {}
def note(stage):
    loaded[stage] = [name for name in heavy if name in sys.modules]
import issgain, issgain.cli
note("import")
with contextlib.redirect_stdout(io.StringIO()):
    codes = [issgain.cli.main(["gain", "--case", "transport"]),
             issgain.cli.main(["simulate", "--solver", "fd", "--T", "0.05",
                               "--output", sys.argv[2]])]
note("commands")
issgain.Coefficient.table([i / 8 for i in range(9)], [1.0 + i for i in range(9)])
note("table")
print(json.dumps({"codes": codes, "loaded": loaded}))
"""


def test_import_budget(tmp_path):
    proc = run_python(IMPORT_PROBE, ",".join(HEAVY_SCIPY), str(tmp_path / "t.csv"))
    assert proc.returncode == 0, proc.stderr
    probe = json.loads(proc.stdout.splitlines()[-1])
    assert probe["codes"] == [0, 0]
    assert probe["loaded"]["import"] == []
    assert probe["loaded"]["commands"] == []
    assert "scipy.interpolate" in probe["loaded"]["table"]


def test_benchmark_tracer_installs():
    # perfbench/spans.py wraps named functions of the package; a missing name fails here
    proc = run_python("import sys; sys.path.insert(0, sys.argv[1]); "
                      "import issgain, issgain.cli; from spans import Tracer; Tracer().install()",
                      str(SRC.parent / "perfbench"))
    assert proc.returncode == 0, proc.stderr


def test_splines_match_cubic_spline():
    grid = np.linspace(0.0, 1.0, 17)
    values = np.cos(3.0 * grid) + grid ** 2
    z = np.linspace(0.0, 1.0, 101)
    spline = CubicSpline(grid, values)
    coefficient = Coefficient.table(grid, values)
    assert np.array_equal(coefficient(z), spline(z))
    assert np.array_equal(coefficient.derivative(z), spline(z, 1))

    with pytest.warns(SmoothnessWarning):
        signal = DisturbanceSignal.tabulated(grid, values)
    assert np.array_equal(signal.value(z), spline(z))
    assert np.array_equal(signal.derivative(z), spline(z, 1))
