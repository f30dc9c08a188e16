"""The README's Library block runs, and each value its comments print holds.

Every expression statement of the block whose comment starts with a
value (a number, a list, ``True``, a quoted string, optionally after
``~``) is evaluated in order with the block's other statements, and the
value is compared at the digits the comment prints: ``4.622605899`` is
the value rounded to 10 significant digits.
"""

import ast
import math
import re
from decimal import Decimal
from pathlib import Path

import numpy as np

README = Path(__file__).resolve().parents[1] / "README.md"
# the printed value at the head of a comment: a list or one token
HEAD = re.compile(r"~?(\[[^\]]*\]|[^\s,]+)")


def library_block() -> str:
    text = README.read_text(encoding="utf-8")
    start = text.index("```python\n", text.index("## Library")) + len("```python\n")
    return text[start : text.index("\n```", start)]


def matches(printed: str, value) -> bool:
    """Whether ``value`` prints as ``printed`` at that text's digits."""
    try:
        number = float(printed)
    except ValueError:
        return ast.literal_eval(printed) == value
    if isinstance(value, bool) or not math.isfinite(number) or number == 0.0:
        return value == number
    digits = len(Decimal(printed).as_tuple().digits)
    return float(f"{float(value):.{digits}g}") == number


def printed_values():
    """(source line, printed head, value) for each commented expression."""
    source = library_block()
    lines = source.splitlines()
    namespace: dict = {}
    for node in ast.parse(source).body:
        segment = ast.get_source_segment(source, node)
        if not isinstance(node, ast.Expr):
            exec(compile(ast.Module([node], []), "README", "exec"), namespace)
            continue
        value = eval(compile(ast.Expression(node.value), "README", "eval"), namespace)
        line = lines[node.end_lineno - 1]
        head = HEAD.match(line.partition("#")[2].strip())
        if head is not None:
            yield segment, head.group(1), value


def test_each_printed_value_holds_at_its_digits():
    checked = []
    for segment, printed, value in printed_values():
        if printed.startswith("["):
            items = [item.strip() for item in printed[1:-1].split(",")]
            values = np.asarray(value).tolist()
            assert len(items) == len(values), segment
            assert all(map(matches, items, values)), (segment, printed, value)
        else:
            assert matches(printed, value), (segment, printed, value)
        checked.append(segment)
    # the eigenvalue, the inverse, the report fields, both tables, the
    # Gaussian's interval and the two Lenard checks
    assert len(checked) == 13
    assert 'rep["lp_interval"]' in checked
