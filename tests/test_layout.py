"""No module of the package reaches into a sibling module's private names.

A private name (leading underscore) is an implementation detail of its own
module.  Two forms of reaching in are rejected: ``from .x import _name`` and
``x._name`` where ``x`` is a sibling module imported with ``from . import x``.
The private module ``_search`` is itself importable; only its public names
are used.

Importing the command line loads no process-pool machinery: the pool of
``montecarlo.parallel_map`` imports it on first use, so start-up stays as
cheap for commands that never use it.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "dualsig"


def private_reaches(source: str) -> list[str]:
    """Every sibling-private name that ``source`` imports or reads."""
    tree = ast.parse(source)
    siblings = set()
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level >= 1:
            for alias in node.names:
                if node.module is None:
                    siblings.add(alias.asname or alias.name)
                elif alias.name.startswith("_"):
                    found.append(f"from .{node.module} import {alias.name}")
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in siblings and node.attr.startswith("_")
                and not node.attr.startswith("__")):
            found.append(f"{node.value.id}.{node.attr}")
    return found


def test_checker_flags_both_forms():
    source = ("from . import montecarlo\n"
              "from .regimes import _cell_profile, classify\n"
              "from ._search import minimize_grid_refine\n"
              "est = montecarlo._estimate_from_sums([], [], 1)\n"
              "ok = montecarlo.CHUNK\n")
    assert private_reaches(source) == ["from .regimes import _cell_profile",
                                       "montecarlo._estimate_from_sums"]


def test_no_module_uses_a_sibling_private_name():
    modules = sorted(PACKAGE.glob("*.py"))
    assert len(modules) > 5
    found = {path.name: private_reaches(path.read_text(encoding="utf-8"))
             for path in modules}
    assert {name: hits for name, hits in found.items() if hits} == {}


def test_importing_the_cli_loads_no_pool_machinery():
    path = os.pathsep.join(filter(None, [str(PACKAGE.parent), os.environ.get("PYTHONPATH")]))
    probe = ("import sys, dualsig.cli; "
             "print(sorted(m for m in ('multiprocessing', 'concurrent.futures') "
             "if m in sys.modules))")
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path}, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
