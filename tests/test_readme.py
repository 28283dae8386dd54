import contextlib
import io
import math
import re
import shlex
from pathlib import Path

import pytest

from giantatoms import cli_main
from giantatoms.experiments import _SEARCH_T_POINTS
from giantatoms.io_cli import _COMMANDS, _help

README = Path(__file__).resolve().parents[1] / "README.md"
# the README's output contract of each command's CSV
_CONTRACTS = {"coeffs": "coeffs", "evolve": "trajectory", "sweep": "sweep", "find-max": "find-max",
              "special-phases": "special", "chirality-scan": "chi-scan", "compare-initial": "compare",
              "calibrate": "calibrate"}


def _quick_start():
    """The first python block of the README's library quick start."""
    section = README.read_text().split("## Library quick start", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def _command_lines():
    """The argument lists of the README's `giantatoms ...` lines, with their
    backslash continuations joined."""
    text = README.read_text().replace("\\\n", " ")
    return [shlex.split(line)[1:] for line in text.splitlines() if line.startswith("giantatoms ")]


def _contracts():
    """The README's CSV header of each output contract, by name."""
    section = README.read_text().split("### Output contracts", 1)[1]
    block = next(chunk for chunk in section.split("\n\n") if chunk.startswith("    "))
    return dict(line.split() for line in block.splitlines())


def test_readme_quick_start_prints_its_stated_values():
    # the block prints the fully braided trajectory's peak, 1 to the time
    # step, and the separated cascade's find_max, "0.7357... = 2/e"
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(_quick_start(), str(README), "exec"), {})
    peak, c_max = (float(line) for line in out.getvalue().split())
    # C = |sin(2 g t)| with g = pi / (4 * 2.2672492) peaks at 1; the grid's
    # 0.01 step leaves a sample within 0.005 of the peak, so at most
    # (2 g 0.005)^2 / 2 = 6e-6 below it
    assert 1.0 - 1e-5 < peak <= 1.0
    # the refinement stops at a 1e-6 bracket, and C is flat to second order
    # at its maximum
    assert abs(c_max - 2.0 / math.e) < 1e-9


def test_readme_runs_every_command_once():
    assert [argv[0] for argv in _command_lines()] == list(_COMMANDS)


@pytest.mark.parametrize("argv", _command_lines(), ids=lambda argv: argv[0])
def test_readme_command_line_runs(argv, tmp_path, capsysbinary):
    # each command line runs as written, its --out moved into tmp_path; a
    # CSV starts with the README's header, and a second run gives the same bytes
    outputs = []
    for run in range(2):
        args = list(argv)
        if "--out" in args:
            at = args.index("--out") + 1
            args[at] = str(tmp_path / f"{run}-{args[at]}")
        assert cli_main(args) == 0, argv
        captured = capsysbinary.readouterr()
        outputs.append(Path(args[at]).read_bytes() if "--out" in args else captured.out)
    assert outputs[0] == outputs[1]
    fmt = args[args.index("--format") + 1] if "--format" in args else "csv"
    if fmt == "csv":
        header = outputs[0].split(b"\n", 1)[0].decode()
        assert header == _contracts()[_CONTRACTS[argv[0]]]
    else:
        assert outputs[0]


def test_readme_and_help_state_the_search_grid_size():
    # find-max and calibrate scan one time grid; the README and --help give
    # its size, as the README gives the scan block in rows of it
    readme = README.read_text().replace("\n", " ")
    stated = re.findall(r"(\d+)-point time grid", readme) + re.findall(r"phase rows of (\d+) time points", readme)
    assert stated == [str(_SEARCH_T_POINTS)] * 2
    assert re.findall(r"grid of (\d+) times", _help()) == [str(_SEARCH_T_POINTS)]
