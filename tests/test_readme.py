"""The README's library quick start runs against the package namespace, so
the names it imports from photofpt and the names photofpt exports cannot
drift apart."""
import math
import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_quick_start_runs():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.DOTALL)
    assert blocks
    namespace = {}
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)
    # the values its comments quote
    assert namespace["mean_fpt_1d"](namespace["p"]) == pytest.approx(math.tanh(2.0) / 2.0)
    assert namespace["est"].sigma == pytest.approx(2.6213e-3, rel=1e-4)
