"""No module of the package reaches into a sibling module's private names.

A private name (leading underscore) is an implementation detail of its own
module.  Two forms of reaching in are rejected: ``from .x import _name`` and
``x._name`` where ``x`` is a sibling module imported with ``from . import x``.
The private module ``_search`` is itself importable; only its public names
are used.

Importing the command line loads no process-pool machinery: the pool of
``montecarlo.parallel_map`` imports it on first use, so start-up stays as
cheap for commands that never use it.

The benchmark's tracer (``bench/spans.py``) patches program functions by
module and name.  Every name it patches must still exist where it looks, so
that a refactor that moves one fails here and not only in a traced run.

``bregman`` takes every inner product through ``np.vecdot``, so a single
vector and a stack of them round through one kernel: ``np.dot``,
``einsum`` and ``@`` are rejected there.  It reads no ``.probs`` joint
table either: it conditions only through ``DiscreteProblem.conditionals``.

Every function and method of the package is entered by at least one small
run of a CLI command, so no code is kept alive by tests alone.  The check
is per function: a branch that no command takes is not flagged.
"""

import ast
import os
import subprocess
import sys
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "dualsig"


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


def other_inner_products(source: str) -> list[str]:
    """Every ``dot``/``einsum`` reference and ``@`` operator in ``source``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and node.attr in ("dot", "einsum"):
            found.append(f"{node.attr} at line {node.lineno}")
        elif isinstance(node, ast.Name) and node.id in ("dot", "einsum"):
            found.append(f"{node.id} at line {node.lineno}")
        elif isinstance(node, ast.alias) and node.name in ("dot", "einsum"):
            found.append(f"import {node.name}")
        elif isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
            found.append(f"@ at line {node.lineno}")
    return found


def test_inner_product_checker_flags_every_form():
    source = ("import numpy as np\n"
              "from numpy import einsum\n"
              "a = np.dot(x, y)\n"
              "b = x @ y\n"
              "c @= y\n"
              "d = np.vecdot(x, y)\n")
    assert sorted(other_inner_products(source)) == ["@ at line 4", "@ at line 5",
                                                    "dot at line 3", "import einsum"]


def test_bregman_takes_inner_products_only_through_vecdot():
    source = (PACKAGE / "bregman.py").read_text(encoding="utf-8")
    assert other_inner_products(source) == []
    assert "np.vecdot" in source


def test_bregman_reads_no_joint_table():
    # the conditionals come from DiscreteProblem.conditionals, the one owner
    # of the joint table
    tree = ast.parse((PACKAGE / "bregman.py").read_text(encoding="utf-8"))
    assert [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and node.attr == "probs"] == []


def test_every_traced_name_resolves():
    # executed from its source text, so nothing is imported or cached from bench/
    path = ROOT / "bench" / "spans.py"
    spans = types.ModuleType("bench_spans")
    exec(compile(path.read_text(encoding="utf-8"), str(path), "exec"), spans.__dict__)
    missing = []
    for module, attr, _ in spans.Tracer().patches():
        owner, name = spans.target(module, attr)
        if name not in vars(owner):
            missing.append(f"{module}.{attr}")
    assert missing == []


REACH_ARGVS = (
    ["verify", "--suite", "closed_forms", "--n", "2000"],
    ["verify", "--suite", "gap", "--n", "2000", "--seed", "1"],
    ["verify", "--suite", "voi", "--n", "2000"],
    ["verify", "--suite", "lemma", "--n", "2000"],
    ["simulate", "--n", "2000", "--reps", "3", "--mode", "homogeneous"],
    ["simulate", "--n", "2000", "--reps", "3", "--mode", "heterogeneous"],
    ["phase", "--tauA-steps", "5", "--lambda-steps", "4"],
    ["thresholds"],
    ["losses", "--tauA", "0.9", "--lambda", "0.5"],
)


def defined_functions(package: Path) -> dict[tuple[str, int], str]:
    """Every function and method under ``package``, keyed by ``(file, first
    line)`` as its code object reports them: the first decorator's line if
    decorated.  Lambdas, comprehensions and class bodies are not included."""
    found = {}
    for path in package.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([node.lineno] + [d.lineno for d in node.decorator_list])
                found[(str(path), first)] = f"{path.name}:{node.lineno} {node.name}"
    return found


def test_every_function_is_reached_by_a_command(monkeypatch, capsys):
    # one CPU: parallel_map runs its tasks in this process, where the profiler sees them
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    from dualsig import cli

    entered = set()

    def profile(frame, event, arg):
        if event == "call":
            entered.add((frame.f_code.co_filename, frame.f_code.co_firstlineno))

    sys.setprofile(profile)
    try:
        codes = [cli.main(list(argv)) for argv in REACH_ARGVS]
    finally:
        sys.setprofile(None)
    capsys.readouterr()
    assert codes == [0] * len(REACH_ARGVS)
    # the package as imported, so that file names match the code objects'
    defined = defined_functions(Path(cli.__file__).parent)
    assert sorted(name for key, name in defined.items() if key not in entered) == []
