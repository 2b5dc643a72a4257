"""One normal form for a divisor class: no module of the package outside
intlinalg.py names the Hermite or Smith code or the solve_* functions.
They stay in intlinalg as the tests' reference implementations; the
package itself reads classes through divisor.zero_on and solves on σ₀
with inv_rational."""

import ast
from pathlib import Path

import toricchi

SOURCE = Path(toricchi.__file__).resolve().parent
REFERENCE_ONLY = {
    "hermite_normal_form", "lattice_basis_hnf", "reduce_mod_lattice", "_diagonalize",
    "smith_diagonal", "solve_integer", "solve_rational", "solve_unimodular", "inv_unimodular",
}


def _reference_uses(tree: ast.AST) -> list[str]:
    found = []
    for node in ast.walk(tree):
        where = f"line {getattr(node, 'lineno', '?')}"
        if isinstance(node, ast.Name) and node.id in REFERENCE_ONLY:
            found.append(f"{where}: name {node.id}")
        elif isinstance(node, ast.Attribute) and node.attr in REFERENCE_ONLY:
            found.append(f"{where}: attribute {node.attr}")
        elif isinstance(node, (ast.ImportFrom, ast.Import)):
            found += [f"{where}: import {a.name}" for a in node.names
                      if a.name in REFERENCE_ONLY]
    return found


def test_only_intlinalg_names_the_reference_algebra():
    files = sorted(p for p in SOURCE.rglob("*.py") if p.name != "intlinalg.py")
    assert files
    found = [
        f"{path.name} {hit}"
        for path in files
        for hit in _reference_uses(ast.parse(path.read_text(encoding="utf-8")))
    ]
    assert found == []


def test_scan_catches_each_kind_of_reference_use():
    code = (
        "from .intlinalg import solve_integer\n"
        "from . import intlinalg\n"
        "x = intlinalg.reduce_mod_lattice(v, b)\n"
        "y = smith_diagonal\n"
    )
    kinds = [hit.split(": ", 1)[1] for hit in _reference_uses(ast.parse(code))]
    assert sorted(kinds) == [
        "attribute reduce_mod_lattice", "import solve_integer", "name smith_diagonal",
    ]
    assert _reference_uses(ast.parse("from .intlinalg import dot, inv_rational\n")) == []
