"""The three routes stay independent: what each module imports from the package.

The oracle shares no Betti logic with the closed forms or the recursions,
the closed forms stand alone, and the recursion reads from the closed forms
only its t = 0 leaf and the entry lookup, so checking one route against
another never checks a route against itself.
"""
import ast
import inspect

import pytest

from cyclebetti import formulas, oracle, recursion


def package_imports(source: str) -> dict[str, set[str]]:
    """{sibling module: names imported from it} over every import of the
    package in a module's source; a whole-module import maps to {"*"}."""
    found: dict[str, set[str]] = {}
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            origin = node.module or ""
            if node.level == 0 and not origin.startswith("cyclebetti"):
                continue
            sibling = origin.removeprefix("cyclebetti").lstrip(".")
            for alias in node.names:
                if sibling:
                    found.setdefault(sibling, set()).add(alias.name)
                else:  # from . import module
                    found.setdefault(alias.name, set()).add("*")
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "cyclebetti":
                    found.setdefault(alias.name.removeprefix("cyclebetti."), set()).add("*")
    return found


def test_oracle_imports_only_monomials():
    assert set(package_imports(inspect.getsource(oracle))) == {"monomials"}


def test_formulas_imports_nothing_from_the_package():
    assert package_imports(inspect.getsource(formulas)) == {}


def test_recursion_reads_only_the_leaf_and_the_chain_maps():
    assert package_imports(inspect.getsource(recursion)) == {
        "formulas": {"long_power_seq", "seq_entry"},
        "families": {"chain_runs", "mixed_chain_pairs", "corner_chain_pairs"},
    }


@pytest.mark.parametrize("source, expected", [
    ("from .formulas import short_path_betti", {"formulas": {"short_path_betti"}}),
    ("from . import formulas", {"formulas": {"*"}}),
    ("from cyclebetti.formulas import binomial", {"formulas": {"binomial"}}),
    ("import cyclebetti.formulas", {"formulas": {"*"}}),
    ("def f():\n    from .verify import route_totals", {"verify": {"route_totals"}}),
    ("import math\nfrom functools import cache", {}),
])
def test_package_imports_sees_every_form(source, expected):
    assert package_imports(source) == expected
