"""The README's library quick start runs against the package namespace, so
the names it imports from photofpt and the names photofpt exports cannot
drift apart; its command lines parse with the package's parser."""
import math
import re
import shlex
from pathlib import Path

import pytest

from photofpt.cli import build_parser

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


def test_readme_command_lines_parse():
    """Every photofpt command in the README's shell blocks parses, so a
    removed flag cannot linger in the examples."""
    blocks = re.findall(r"```sh\n(.*?)```", README.read_text(), re.DOTALL)
    commands = [shlex.split(line, comments=True) for block in blocks
                for line in block.splitlines() if line.startswith("photofpt ")]
    assert len(commands) >= 5
    for argv in commands:
        build_parser().parse_args(argv[1:])
