"""No module imports a name it never uses, importing the package root loads
and binds nothing but its version, no top-level name of ``src/tinyfdss`` goes
unread, and no function of ``tests/reference.py`` outlives the tests that call
it."""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
FILES = sorted(path for folder in ("src", "tests", "demos")
               for path in (ROOT / folder).rglob("*.py"))
# the tinyfdss modules that importing the package root loads, and the names it binds
# beyond the dunders the import system sets on every package
ROOT_PROBE = """
import sys
import tinyfdss
print(sorted(name for name in sys.modules if name.startswith("tinyfdss.")))
print(sorted(set(vars(tinyfdss)) - {"__builtins__", "__cached__", "__doc__", "__file__",
                                    "__loader__", "__name__", "__package__", "__path__",
                                    "__spec__"}))
"""


def unused_imports(source: str) -> list[str]:
    """The names ``source`` imports and never reads, in import order."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [alias.asname or alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [alias.asname or alias.name for alias in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in used]


def unread(module: str, readers: list[str], readme: str) -> list[str]:
    """The module-level functions, classes and assigned names of ``module``
    that no ``Name``, ``Attribute`` or import alias in ``readers`` reads and
    ``readme`` does not mention, in definition order."""
    defined = []
    for node in ast.parse(module).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defined.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            defined += [name.id for target in targets for name in ast.walk(target)
                        if isinstance(name, ast.Name)]
    read = set()
    for source in readers:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.alias):
                read.add(node.name)
    return [name for name in defined
            if name not in read and not re.search(rf"\b{re.escape(name)}\b", readme)]


def uncalled(reference: str, tests: list[str]) -> list[str]:
    """The functions ``reference`` defines that no test reaches, in definition
    order: a test imports them from ``reference`` (and reads them, by the rule
    above), or a reached reference function names them."""
    defs = {node.name: node for node in ast.parse(reference).body
            if isinstance(node, ast.FunctionDef)}
    reached = [alias.name for source in tests for node in ast.walk(ast.parse(source))
               if isinstance(node, ast.ImportFrom) and node.module == "reference"
               for alias in node.names]
    seen = set()
    while reached:
        name = reached.pop()
        if name in defs and name not in seen:
            seen.add(name)
            reached += [node.id for node in ast.walk(defs[name]) if isinstance(node, ast.Name)]
    return [name for name in defs if name not in seen]


@pytest.mark.parametrize("path", FILES, ids=[str(p.relative_to(ROOT)) for p in FILES])
def test_every_import_is_used(path):
    assert unused_imports(path.read_text()) == []


def test_the_scan_sees_an_unused_name():
    source = "import os\nimport numpy as np\nfrom a.b import c, d as e\nprint(np, e)\n"
    assert unused_imports(source) == ["os", "c"]
    assert FILES  # the folders were found


def test_the_package_root_binds_only_its_version():
    # every name is imported from its module: the root re-exports nothing
    paths = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p))
    result = subprocess.run([sys.executable, "-c", ROOT_PROBE], env=env, capture_output=True,
                            text=True, timeout=60)
    assert result.returncode == 0, result.stderr
    assert result.stdout.split("\n")[:2] == ["[]", "['__version__']"]


def test_every_top_level_name_in_src_is_read():
    readers = [path.read_text() for folder in ("src", "tests", "demos", "perfbench")
               for path in sorted((ROOT / folder).rglob("*.py"))]
    readme = (ROOT / "README.md").read_text()
    modules = sorted(path for path in (ROOT / "src" / "tinyfdss").glob("*.py")
                     if path.name != "__init__.py")
    assert modules
    assert {path.name: unread(path.read_text(), readers, readme) for path in modules} == {
        path.name: [] for path in modules}


def test_the_scan_sees_an_unread_top_level_name():
    module = ("import os\nA = 1\nB: int = 2\nC, (D, E) = 3, (4, 5)\n\n\n"
              "def f():\n    return os.sep\n\n\nclass G:\n    pass\n")
    readers = [module, "from m import f\nprint(m.B, D)\n"]
    assert unread(module, readers, "README names `E`, not EE.") == ["A", "C", "G"]


def test_every_reference_function_is_called_by_a_test():
    tests = [path.read_text() for path in sorted((ROOT / "tests").glob("test_*.py"))]
    assert uncalled((ROOT / "tests" / "reference.py").read_text(), tests) == []


def test_the_scan_sees_an_uncalled_reference_function():
    reference = "def a():\n    return b()\n\n\ndef b():\n    pass\n\n\ndef c():\n    pass\n"
    assert uncalled(reference, ["from reference import a\n"]) == ["c"]
    assert uncalled(reference, ["import reference\n"]) == ["a", "b", "c"]
