"""Every entry of the mutation harness's table applies to the tree as it is.

``tools/mutants.py`` replaces one snippet of a package file and expects the
tests it names to fail; a snippet that moved or a test that is gone would
only show when the harness runs.  The table is read here, never run.
"""

import ast
import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def mutant_table():
    spec = importlib.util.spec_from_file_location("tools_mutants", ROOT / "tools" / "mutants.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.MUTANTS


def defined_tests(path: Path) -> set[str]:
    """The node names a test file defines: ``test_x`` and ``TestY::test_x``."""
    names = set()
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, ast.FunctionDef):
            names.add(node.name)
        elif isinstance(node, ast.ClassDef):
            names |= {f"{node.name}::{f.name}" for f in node.body if isinstance(f, ast.FunctionDef)}
    return names


def test_every_entry_applies_and_names_existing_tests():
    mutants = mutant_table()
    problems = [] if len({m.name for m in mutants}) == len(mutants) else ["a repeated name"]
    for m in mutants:
        count = (ROOT / "src" / "tinyfdss" / m.file).read_text().count(m.snippet)
        if count != 1:
            problems.append(f"{m.name}: the snippet occurs {count} times in {m.file}")
        if m.replacement == m.snippet or not m.tests:
            problems.append(f"{m.name}: no change, or no test named")
        for node in m.tests:
            file, _, name = node.partition("::")
            if name.split("[")[0] not in defined_tests(ROOT / "tests" / file):
                problems.append(f"{m.name}: no test {node}")
    assert problems == []
