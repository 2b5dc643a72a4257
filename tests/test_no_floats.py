"""The engine is exact: no float literal, no use of the name float, and no
math function outside the integer ones anywhere in the package source."""

import ast
from pathlib import Path

import toricchi

SOURCE = Path(toricchi.__file__).resolve().parent
INTEGER_MATH = {"prod", "gcd", "lcm", "factorial", "comb", "isqrt"}


def _float_uses(tree: ast.AST) -> list[str]:
    found = []
    for node in ast.walk(tree):
        where = f"line {getattr(node, 'lineno', '?')}"
        if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
            found.append(f"{where}: literal {node.value!r}")
        elif isinstance(node, ast.Name) and node.id == "float":
            found.append(f"{where}: name float")
        elif (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "math"
            and node.attr not in INTEGER_MATH
        ):
            found.append(f"{where}: math.{node.attr}")
        elif isinstance(node, ast.ImportFrom) and node.module == "math":
            found += [f"{where}: from math import {a.name}" for a in node.names
                      if a.name not in INTEGER_MATH]
    return found


def test_package_source_has_no_floats():
    files = sorted(SOURCE.rglob("*.py"))
    assert files
    found = [
        f"{path.name} {hit}"
        for path in files
        for hit in _float_uses(ast.parse(path.read_text(encoding="utf-8")))
    ]
    assert found == []


def test_scan_catches_each_kind_of_float_use():
    code = "import math\nx = 0.5\ny = float(2)\nz = math.sqrt(4)\nfrom math import log\n"
    kinds = [hit.split(": ", 1)[1] for hit in _float_uses(ast.parse(code))]
    assert sorted(kinds) == ["from math import log", "literal 0.5", "math.sqrt", "name float"]
    assert _float_uses(ast.parse("import math\nn = math.prod([2, 3]) // math.gcd(4, 6)\n")) == []
