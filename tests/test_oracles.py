"""The oracles share no code with the deciders they check."""

from __future__ import annotations

import ast
from pathlib import Path

ORACLES = Path(__file__).with_name("oracles.py")


def foreign_imports(source: str) -> list[str]:
    """Every package import in ``source`` other than ``factorcrit.graphs``
    and the ``Matching`` record type of ``factorcrit.matching``."""
    bad = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            bad += [alias.name for alias in node.names if alias.name.split(".")[0] == "factorcrit"]
        elif isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").split(".")[0] == "factorcrit"):
            names = {alias.name for alias in node.names}
            if node.level == 0 and (node.module == "factorcrit.graphs"
                                    or (node.module == "factorcrit.matching" and names == {"Matching"})):
                continue
            bad.append(f"{'.' * node.level}{node.module or ''}: {', '.join(sorted(names))}")
    return bad


def test_oracles_import_only_graphs_and_matching_record():
    assert foreign_imports(ORACLES.read_text()) == []


def test_a_decider_import_is_caught():
    source = ORACLES.read_text()
    line = "from factorcrit.matching import Matching\n"
    assert line in source
    assert foreign_imports(source.replace(line, "from factorcrit.matching import Matching, _has_pm\n")) == [
        "factorcrit.matching: Matching, _has_pm"
    ]
    assert foreign_imports("def f():\n    from factorcrit import criticality\n") == ["factorcrit: criticality"]
    assert foreign_imports("import factorcrit.decomp\n") == ["factorcrit.decomp"]
