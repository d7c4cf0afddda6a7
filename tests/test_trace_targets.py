"""Every callable the benchmark's traced run wraps must exist in the package.

``perfbench/tracing.py`` installs a wrapper on each ``(module, attribute)`` of
its ``TARGETS`` by looking the attribute up in its owner's ``__dict__``; a
renamed or deleted target breaks ``--trace 1``.  The list is read, never
changed, here.
"""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def trace_targets():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


def test_every_trace_target_resolves():
    missing = []
    for module_name, attr in trace_targets():
        owner = importlib.import_module(f"tinyfdss.{module_name}")
        *path, leaf = attr.split(".")
        for part in path:
            owner = getattr(owner, part, None)
        if owner is None or not callable(vars(owner).get(leaf)):
            missing.append(f"{module_name}.{attr}")
    assert missing == []
