import math

import numpy as np
import pytest

from hypothesis import given, settings, strategies as st

from issgain import (
    ClosedLoopConfig,
    ConfigError,
    DisturbanceSignal,
    GridFunction,
    IssEnvelope,
    gain_bvp,
    parse_config_text,
    problem_from_config,
    simulate_closed_loop,
    simulate_fd,
    solve_kernel,
    sweep_figure1,
    verify_iss,
)
from issgain.csvio import (
    fmt,
    iss_table,
    kernel_table,
    spectrum_table,
    sweep_table,
    trajectory_table,
    write_csv,
)


class TestConfigParsing:
    def test_roundtrip_constant(self):
        cfg = parse_config_text(
            "schema = issgain/1\nkind = constant\np = 2.0\nq = 0.5\nr = 1.0\n"
            "a1 = 1\na2 = 0\nb1 = 1\nb2 = 0\nresolution = 128\n")
        problem = problem_from_config(cfg)
        assert problem.resolution == 128
        assert float(problem.p(np.zeros(1))[0]) == 2.0

    def test_comments_and_blank_lines(self):
        cfg = parse_config_text(
            "# a comment\nschema = issgain/1\n\nkind = transport\n"
            "D = 1 # inline\nv = 1\nk = 0\na = inf\n")
        assert cfg["kind"] == "transport"
        assert problem_from_config(cfg).a2 == 0.0

    @pytest.mark.parametrize("text", [
        "kind = constant\n",                       # missing schema
        "schema = issgain/2\nkind = constant\n",   # wrong version
        "schema = issgain/1\nbogus = 1\n",         # unknown key
        "schema = issgain/1\nkind = constant\np = 1\np = 2\n",  # duplicate
        "schema = issgain/1\nkind = nope\n",       # unknown kind
        "schema = issgain/1\nkind = constant\np = x\n",         # not a number
    ])
    def test_rejects_malformed(self, text):
        with pytest.raises(ConfigError):
            problem_from_config(parse_config_text(text))


class TestCsv:
    def test_fmt_significant_digits(self):
        assert fmt(math.pi) == "3.14159265359"
        assert fmt(1.0) == "1"
        assert fmt(True) == "1"
        assert fmt(12) == "12"

    def test_spectrum_export(self, tmp_path, laplacian_spectrum):
        path = tmp_path / "spec.csv"
        write_csv(*spectrum_table(laplacian_spectrum), path)
        lines = path.read_text().splitlines()
        header = lines[0].split(",")
        assert header[:4] == ["n", "lambda", "phi_at_0", "dphi_dz_at_0"]
        assert len(header) == 4 + laplacian_spectrum.grid.size
        row1 = lines[1].split(",")
        assert float(row1[1]) == pytest.approx(math.pi ** 2, rel=1e-6)
        assert float(row1[3]) == pytest.approx(math.sqrt(2) * math.pi, rel=1e-6)


@given(st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True))
@settings(max_examples=300, deadline=None)
def test_float_template_keeps_every_byte(x):
    assert "%.12g" % x == format(float(x), ".12g") == fmt(x)


@given(st.one_of(st.booleans(), st.integers()))
@settings(max_examples=100, deadline=None)
def test_integer_template_keeps_every_byte(x):
    assert "%d" % x == fmt(x)


def per_value_csv(header: str, rows) -> str:
    """The oracle: every value through ``fmt``, one row at a time."""
    return header + "\n" + "".join(",".join(fmt(x) for x in row) + "\n" for row in rows)


def golden_tables(transport_case_problem, transport_case_spectrum):
    """(table, per-value oracle rows) for each of the five CSV kinds."""
    problem, spectrum = transport_case_problem, transport_case_spectrum
    d = DisturbanceSignal.sinusoid(1.0, 2.0)
    fd = simulate_fd(problem, d, GridFunction(problem.grid, np.sin(math.pi * problem.grid)),
                     1e-3, 0.5, n_store=40)
    report = verify_iss(fd, IssEnvelope.from_gain_report(gain_bvp(problem, spectrum=spectrum)))
    cfg = ClosedLoopConfig(D=1.0, p=3.0, c=1.0, d=d)
    kernel = solve_kernel(cfg, 64)
    y0 = np.sin(math.pi * kernel.grid)
    y0[0] = -kernel.weighted[0, 1:] @ y0[1:] / (1.0 + kernel.weighted[0, 0])   # u(0) = d(0) = 0
    loop = simulate_closed_loop(cfg, GridFunction(kernel.grid, y0), 1e-3, 0.2, kernel=kernel,
                                n_store=20).y
    sweep = sweep_figure1(np.linspace(0.05, 4.0, 80))
    m = kernel.resolution

    def trajectory_rows(traj):
        control = traj.extras.get("control")
        for i in range(traj.times.size):
            u = () if control is None else (control[i],)
            yield (traj.times[i], traj.norms[i], traj.d_values[i], *u, *traj.values[i])

    return {
        "spectrum": (spectrum_table(spectrum),
                     ((i + 1, spectrum.eigenvalues[i], spectrum.values_at_0[i],
                       spectrum.derivatives_at_0[i], *spectrum.eigenfunctions[i])
                      for i in range(spectrum.n_modes))),
        "trajectory": (trajectory_table(fd, wide=True), trajectory_rows(fd)),
        "closed_loop": (trajectory_table(loop, wide=True), trajectory_rows(loop)),
        "iss": (iss_table(report), zip(report.epsilons, report.min_margins,
                                       report.argmin_times, report.per_epsilon_pass)),
        "kernel": (kernel_table(kernel),
                   ((kernel.grid[i], kernel.grid[j], kernel.values[i, j])
                    for i in range(m + 1) for j in range(i, m + 1))),
        "sweep": (sweep_table(sweep),
                  ((z, *(sweep.g_columns[a][i] for a in sweep.a_values), sweep.advection[i])
                   for i, z in enumerate(sweep.zetas))),
    }


def test_every_table_matches_the_per_value_oracle(tmp_path, transport_case_problem,
                                                   transport_case_spectrum):
    tables = golden_tables(transport_case_problem, transport_case_spectrum)
    for name, ((header, columns), rows) in tables.items():
        path = tmp_path / f"{name}.csv"
        write_csv(header, columns, path)
        expected = per_value_csv(header, rows)
        assert expected.count("\n") > 2, name
        assert path.read_bytes() == expected.encode(), name


def test_extreme_values_and_stdout(capsys):
    floats = [math.inf, -math.inf, math.nan, -0.0, 5e-324, 1e300, 2.0 ** 53]
    columns = [np.arange(len(floats)), np.array(floats), np.array(floats) < 1.0]
    write_csv("i,x,small", columns)
    assert capsys.readouterr().out == per_value_csv(
        "i,x,small", zip(range(len(floats)), floats, [x < 1.0 for x in floats]))


def test_unequal_columns_rejected_before_the_file_opens(tmp_path):
    path = tmp_path / "t.csv"
    with pytest.raises(ValueError):
        write_csv("a,b", [np.zeros(3), np.zeros(2)], path)
    assert not path.exists()

class TestKvBlock:
    def test_fields_in_order_skipping_none(self):
        import dataclasses

        from issgain.csvio import kv_block

        @dataclasses.dataclass(frozen=True)
        class Record:
            value: float
            flag: bool
            count: int
            name: str
            missing: float | None = None
            tail: float = math.inf

        assert kv_block(Record(1.0 / 3.0, True, 16, "series")) == (
            "value = 0.333333333333\nflag = True\ncount = 16\nname = series\ntail = inf")

    def test_gain_report_block(self):
        from issgain.csvio import kv_block
        from issgain.gains import backstepping_gain
        block = kv_block(backstepping_gain(1.0, 1.0))
        assert [line.split(" = ")[0] for line in block.splitlines()] == [
            "gain_C", "route", "truncation_N", "tail_estimate", "epsilon", "iss_overshoot",
            "iss_decay_rate", "iss_gain", "boundary_norm", "series_value", "closed_value",
            "discrepancy"]
        assert "\nroute = closed_form\ntruncation_N = 10000\ntail_estimate = 0\n" in block
