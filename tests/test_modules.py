"""The package's module boundaries, read from its source."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "nonlocalrd"

# (importing module, private name) of every private name that crosses a module
PRIVATE_IMPORTS = {
    ("kernel", "_max_asymmetry"),
    ("evolve", "_blas_dot"),
    ("equilibria", "_comparison_bound"),
    ("equilibria", "_nsteps"),
    ("verify", "_comparison_bound"),
    ("verify", "_propagate"),
}


def test_private_names_cross_modules_only_where_listed():
    found = set()
    for path in SRC.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and (node.level or node.module.startswith("nonlocalrd")):
                found |= {(path.stem, a.name) for a in node.names if a.name.startswith("_")}
    assert found == PRIVATE_IMPORTS
