import contextlib
import io
import math
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def _quick_start():
    """The first python block of the README's library quick start."""
    section = README.read_text().split("## Library quick start", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


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
