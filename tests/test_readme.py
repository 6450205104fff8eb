"""The README's library example runs against the package as it is."""

import re
from fractions import Fraction
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_python_blocks_run_and_state_true_outcomes():
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.M | re.S)
    assert blocks
    namespace: dict = {}
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)
    # The outcomes the example's comments state, through the names it imports.
    assert namespace["verify_subdivision"]("product", 5, 2).passed
    assert namespace["partial_sum"]("TG3", 1, Fraction(3, 4), 60).limit == Fraction(4, 3)
