"""The mutation checks in mutants.py still point at real code and real tests."""

import ast

import pytest

from mutants import MUTANTS, ROOT


@pytest.mark.parametrize("mutant", MUTANTS, ids=[m.name for m in MUTANTS])
def test_each_mutant_names_code_and_tests_that_exist(mutant):
    source = (ROOT / "src" / "limitgap" / mutant.path).read_text(encoding="utf-8")
    assert source.count(mutant.old) == 1
    for test_id in mutant.tests:
        path, name = test_id.split("::")
        tree = ast.parse((ROOT / path).read_text(encoding="utf-8"))
        defined = {node.name for node in tree.body if isinstance(node, ast.FunctionDef)}
        assert name.split("[")[0] in defined, test_id
