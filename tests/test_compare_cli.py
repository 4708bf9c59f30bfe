"""scripts/compare_cli.py: the output comparison, on synthetic directories."""
import importlib.util
import math
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "compare_cli.py"
_spec = importlib.util.spec_from_file_location("compare_cli", SCRIPT)
compare_cli = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(compare_cli)


def write_tree(root: Path, files: dict):
    for name, text in files.items():
        path = root / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)


def test_identical_trees_report_nothing(tmp_path):
    files = {"00-gain/exit": "0\n", "00-gain/stdout": "route,gain\nseries,0.5\n",
             "00-gain/stderr": ""}
    write_tree(tmp_path / "parent", files)
    write_tree(tmp_path / "change", files)
    assert compare_cli.compare_trees(tmp_path / "parent", tmp_path / "change") == []


def test_one_line_per_differing_file(tmp_path):
    write_tree(tmp_path / "parent", {
        "00-gain/exit": "0\n", "00-gain/stdout": "bvp_integral,0.5\nN,16\n",
        "00-gain/stderr": "", "01-simulate/exit": "0\n", "01-simulate/cl.csv": "t\n0\n"})
    write_tree(tmp_path / "change", {
        "00-gain/exit": "0\n", "00-gain/stdout": "bvp_integral,0.4\nN,16\n",
        "00-gain/stderr": "", "01-simulate/exit": "3\n",
        "01-simulate/stderr": "config error: resolution must be >= 64\n"})
    lines = compare_cli.compare_trees(tmp_path / "parent", tmp_path / "change")
    assert lines == [
        "00-gain/stdout: 1 numeric tokens differ, largest relative difference 0.2",
        "01-simulate/cl.csv: only in parent",
        "01-simulate/exit: 1 numeric tokens differ, largest relative difference 1",
        "01-simulate/stderr: only in change",
    ]


def test_numeric_diff():
    assert compare_cli.numeric_diff("a = 1, b = 2e-3", "a = 1, b = 2e-3") == (0, 0.0)
    assert compare_cli.numeric_diff("x,1.0,-2\n", "x,1.0,-2.5\n") == (1, 0.2)
    assert compare_cli.numeric_diff("0\n", "0.0\n") == (1, 0.0)
    assert compare_cli.numeric_diff("tail = inf", "tail = 1") == (1, math.inf)
    assert compare_cli.numeric_diff("1,2,3", "1,2") == (1, math.inf)
    # words that differ are not numeric tokens
    assert compare_cli.numeric_diff("certified = True", "certified = False") == (0, 0.0)


def test_command_list():
    assert len(set(compare_cli.COMMANDS)) == len(compare_cli.COMMANDS)
    assert compare_cli.COMMANDS[0].startswith("spectrum --case dirichlet-laplacian")
    for command in compare_cli.COMMANDS:
        for word in command.split():
            if word.startswith("../"):
                assert word[3:] in compare_cli.CONFIGS
