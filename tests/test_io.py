import math

import numpy as np
import pytest

from issgain import ConfigError, parse_config_text, problem_from_config
from issgain.csvio import fmt, spectrum_header, spectrum_rows, write_csv


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
        write_csv(spectrum_header(laplacian_spectrum),
                  spectrum_rows(laplacian_spectrum), path)
        lines = path.read_text().splitlines()
        header = lines[0].split(",")
        assert header[:4] == ["n", "lambda", "phi_at_0", "dphi_dz_at_0"]
        assert len(header) == 4 + laplacian_spectrum.grid.size
        row1 = lines[1].split(",")
        assert float(row1[1]) == pytest.approx(math.pi ** 2, rel=1e-6)
        assert float(row1[3]) == pytest.approx(math.sqrt(2) * math.pi, rel=1e-6)


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
