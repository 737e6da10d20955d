"""No module of the package reaches into a sibling module's private names.

A private name (leading underscore) is an implementation detail of its own
module.  Two forms of reaching in are rejected: ``from .x import _name`` and
``x._name`` where ``x`` is a sibling module imported with ``from . import x``.
The private module ``_search`` is itself importable; only its public names
are used.

The command line loads no process-pool machinery, ``multiprocessing`` or
``concurrent.futures``, on import or when ``verify`` spreads its tasks over
workers: ``montecarlo.parallel_map`` forks them with ``os.fork``, so
start-up stays cheap for every command.

The benchmark's tracer (``bench/spans.py``) patches program functions by
module and name.  Every name it patches must still exist where it looks, so
that a refactor that moves one fails here and not only in a traced run.

``bregman`` takes every inner product through ``np.vecdot``, so a single
vector and a stack of them round through one kernel: ``np.dot``,
``einsum`` and ``@`` are rejected there.  It reads no ``.probs`` joint
table either: it conditions only through ``DiscreteProblem.conditionals``.

No module calls the builtin ``sum``: from Python 3.12 on it adds floats
with compensation, so the same program would print other bytes there.  A
Python-level float sum is the left fold ``functools.reduce(operator.add,
..., 0.0)``, the same on every interpreter.

A square is a product: no module refers to ``float_power``, ``np.power``,
``math.pow`` or the builtin ``pow``, or writes ``**`` on a base that is not
a constant.  IEEE 754 rounds ``x * x`` correctly everywhere, while the C
library's ``pow`` need not, so the closed forms' bytes do not hang on it.
``**`` on a constant base, as in ``2.0 ** -53``, stays legal: it squares nothing.

Each public name has one import path, its own module: the package's
``__init__`` imports nothing, so ``import dualsig`` loads no submodule.  The
command line loads only what a command runs: importing it, ``--help`` and a
parser error load no numpy and no other module of the package; ``losses``,
``thresholds`` and ``phase`` read the closed forms of ``core`` and
``regimes`` alone, ``simulate`` reads ``cueworld`` with ``core`` and
``rng``, and ``verify`` every module but ``regimes``.  ``pyproject.toml`` and
``dualsig.__version__``, the package's two version strings, agree.  The
package defines one exception class, ``core.ValidationError``, which
``cli.main`` maps to exit 2.

Only ``core`` turns an argument into floats or integers with
``np.asarray``/``np.array`` and a float or integer dtype, or with
``.astype`` and an integer dtype: its readers ``real`` and ``real_scalar``
reject text and check finiteness, ``indices`` rejects floats, bools and
repeats, and a hand conversion elsewhere would parse text or truncate.

Only ``voi`` runs the 1-D search of ``_search``: no other module refers to
``minimize_grid_refine``, so a finite problem has one brute-force oracle,
and the benchmark's tracer, which patches that name in ``_search`` and
``voi`` alone, sees every search.

Each loss class of ``voi`` owns its algebra: its state encoding, Bregman
generator and gradient, and its two risks.  ``bregman`` names neither
``QuadraticLoss`` nor ``LogLoss``, and ``voi`` branches on a loss class only
in ``DiscreteProblem``, whose log-loss states are 0 and 1.

Only ``rng``, ``cueworld`` and ``verify`` construct an ``RngHandle``: they
choose the seeds and streams, and every other module draws from the handle
its caller passes, as ``montecarlo`` and ``bregman`` do.

Every function in a module's ``__all__`` has a caller outside its module:
another module of the package, the benchmark's tracer or the README.  A
helper that only its own module calls is private, and takes its arguments
as its caller has read them.  ``cli.main`` and ``cli.build_parser``, the
command line's entry points, are exempt.  A module-level function of a
public module whose name has no leading underscore is in its ``__all__``,
so that it cannot look public without an outside caller.

Every statement of every function and method of the package runs in at
least one small run of a CLI command, so no code is kept alive by tests
alone.  A line trace over those runs, on one CPU, marks a statement reached
when a line event fires on one of its lines, or on its header for a compound
statement.  Docstrings, ``raise`` statements and blocks that end in
``raise`` are the error paths and are not counted.  The few statements no
command can run are listed by module, function and statement text, each
with its reason.
"""

import ast
import importlib
import inspect
import os
import re
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest

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
    # after the import, and after a gap run whose tasks go to two workers
    probe = ("import os, sys, dualsig.cli\n"
             "def loaded():\n"
             "    return sorted(m for m in ('multiprocessing', 'concurrent.futures')\n"
             "                  if m in sys.modules)\n"
             "print(loaded(), file=sys.stderr)\n"
             "os.sched_getaffinity = lambda pid: {0, 1}\n"
             "code = dualsig.cli.main(['verify', '--suite', 'gap', '--n', '2000'])\n"
             "print(code, loaded(), file=sys.stderr)\n")
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path}, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr.splitlines() == ["[]", "0 []"]


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


def builtin_sum_calls(source: str) -> list[int]:
    """The line of every call of the builtin ``sum`` in ``source``."""
    return [node.lineno for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == "sum"]


def test_sum_checker_flags_only_builtin_calls():
    source = ('"""sum(x) in a docstring."""\n'
              "import numpy as np\n"
              "a = sum(x)\n"
              "b = np.sum(x) + x.sum()\n"
              "c = [sum(r) for r in rows]\n")
    assert builtin_sum_calls(source) == [3, 5]


def test_no_module_calls_the_builtin_sum():
    found = {path.name: builtin_sum_calls(path.read_text(encoding="utf-8"))
             for path in sorted(PACKAGE.glob("*.py"))}
    assert {name: lines for name, lines in found.items() if lines} == {}


POWER_NAMES = ("float_power", "power", "pow")


def power_sites(source: str) -> list[str]:
    """Every reference to ``float_power``, ``power`` or ``pow`` in
    ``source``, and every ``**`` or ``**=`` whose base is not a constant."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and node.attr in POWER_NAMES:
            found.append(f"{node.attr} at line {node.lineno}")
        elif isinstance(node, ast.Name) and node.id in POWER_NAMES:
            found.append(f"{node.id} at line {node.lineno}")
        elif isinstance(node, ast.alias) and node.name in POWER_NAMES:
            found.append(f"import {node.name}")
        elif isinstance(node, ast.AugAssign) and isinstance(node.op, ast.Pow) or (
                isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow)
                and not isinstance(node.left, ast.Constant)):
            found.append(f"** at line {node.lineno}")
    return found


def test_power_checker_flags_every_form():
    source = ('"""x ** 2 in a docstring."""\n'
              "import math\n"
              "from numpy import power\n"
              "a = np.float_power(x, 2.0) + np.power(x, 2) + math.pow(x, 2) + pow(x, 2)\n"
              "b = x ** 2 + (x - y) ** 2 + 2.0 ** -53 + 2 ** n\n"
              "c **= 2\n"
              "d = x * x\n")
    assert sorted(power_sites(source)) == [
        "** at line 5", "** at line 5", "** at line 6", "float_power at line 4",
        "import power", "pow at line 4", "pow at line 4", "power at line 4"]


def test_squares_are_products():
    # x*x is the correctly rounded square everywhere; libm's pow(x, 2) is
    # not always, and numpy's x**2 multiplies only for an array
    found = {path.name: power_sites(path.read_text(encoding="utf-8"))
             for path in sorted(PACKAGE.glob("*.py"))}
    assert {name: hits for name, hits in found.items() if hits} == {}


def fresh_imports(statement: str) -> list[str]:
    """The modules that ``statement`` adds to ``sys.modules`` in a fresh
    interpreter, sorted."""
    path = os.pathsep.join(filter(None, [str(PACKAGE.parent), os.environ.get("PYTHONPATH")]))
    probe = ("import sys\n"
             "before = set(sys.modules)\n"
             f"{statement}\n"
             "print(sorted(set(sys.modules) - before), file=sys.stderr)\n")
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path}, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return ast.literal_eval(proc.stderr.splitlines()[-1])


def test_the_package_root_imports_nothing():
    assert fresh_imports("import dualsig") == ["dualsig"]


def test_importing_the_cli_loads_only_the_standard_library():
    loaded = fresh_imports("import dualsig.cli")
    assert [m for m in loaded if m.split(".")[0] in ("dualsig", "numpy")] == [
        "dualsig", "dualsig.cli"]


@pytest.mark.parametrize("argv", [["--help"], ["verify"]], ids=["help", "parser-error"])
def test_the_parser_alone_loads_no_numpy(argv):
    # verify without --suite: argparse exits 2 before any command runs
    loaded = fresh_imports("import dualsig.cli\n"
                           f"try:\n    dualsig.cli.main({argv!r})\n"
                           "except SystemExit:\n    pass")
    assert [m for m in loaded if m.split(".")[0] in ("dualsig", "numpy")] == [
        "dualsig", "dualsig.cli"]


CLOSED_FORM_MODULES = ["dualsig", "dualsig.cli", "dualsig.core", "dualsig.regimes"]
VERIFY_MODULES = ["dualsig", "dualsig._search", "dualsig.bregman", "dualsig.cli",
                  "dualsig.core", "dualsig.cueworld", "dualsig.montecarlo", "dualsig.regimes",
                  "dualsig.rng", "dualsig.verify", "dualsig.voi"]

# command line, its exit code and the dualsig modules it leaves loaded
COMMAND_MODULES = (
    (["losses", "--tauA", "1", "--lambda", "0.5"], 0, CLOSED_FORM_MODULES),
    (["thresholds", "--lambda-steps", "3"], 0, CLOSED_FORM_MODULES),
    (["phase", "--tauA-steps", "3", "--lambda-steps", "3"], 0, CLOSED_FORM_MODULES),
    (["simulate", "--n", "2000", "--reps", "2"], 0,
     ["dualsig", "dualsig.cli", "dualsig.core", "dualsig.cueworld", "dualsig.rng"]),
    (["verify", "--suite", "voi"], 0, VERIFY_MODULES),
    # two draws per cell fail some checks; the modules are what is tested
    (["verify", "--suite", "closed_forms", "--n", "2"], 1, VERIFY_MODULES),
)


@pytest.mark.parametrize("argv, code, expected", COMMAND_MODULES,
                         ids=[argv[0] + (f"-{argv[2]}" if argv[0] == "verify" else "")
                              for argv, _, _ in COMMAND_MODULES])
def test_a_command_loads_only_the_modules_it_runs(argv, code, expected):
    loaded = fresh_imports(f"import dualsig.cli\nassert dualsig.cli.main({argv!r}) == {code}")
    assert [m for m in loaded if m.split(".")[0] == "dualsig"] == expected


def test_the_package_defines_one_exception_class():
    import importlib
    import pkgutil

    import dualsig
    found = []
    for info in pkgutil.iter_modules(dualsig.__path__):
        module = importlib.import_module(f"dualsig.{info.name}")
        found += [f"{info.name}.{name}" for name, obj in vars(module).items()
                  if isinstance(obj, type) and issubclass(obj, BaseException)
                  and obj.__module__ == module.__name__]
    assert found == ["core.ValidationError"]


def test_pyproject_version_is_the_package_version():
    tomllib = pytest.importorskip("tomllib")
    import dualsig
    with open(ROOT / "pyproject.toml", "rb") as fh:
        assert tomllib.load(fh)["project"]["version"] == dualsig.__version__


def number_conversions(source: str) -> list[str]:
    """The enclosing function of every ``np.asarray``/``np.array``/
    ``np.asanyarray`` call in ``source`` whose dtype, by keyword or as the
    second argument, is a float or integer type, and of every ``.astype``
    call whose dtype, by keyword or as the first argument, is an integer
    type."""
    def kind(node) -> str:
        """The kind of the dtype that ``node`` names, such as "f" for
        ``float`` or ``np.double``; "" if it names none."""
        name = node.value if isinstance(node, ast.Constant) else (
            node.id if isinstance(node, ast.Name) else getattr(node, "attr", None))
        try:
            return np.dtype(name).kind if isinstance(name, str) else ""
        except TypeError:
            return ""

    def dtypes(call, first):
        return call.args[first:first + 1] + [k.value for k in call.keywords if k.arg == "dtype"]

    found = []

    def visit(node, function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call) and isinstance(child.func, ast.Attribute) and (
                    child.func.attr in ("asarray", "array", "asanyarray")
                    and any(kind(d) in ("f", "i", "u") for d in dtypes(child, 1))
                    or child.func.attr == "astype"
                    and any(kind(d) in ("i", "u") for d in dtypes(child, 0))):
                found.append(function)
            visit(child, child.name if isinstance(child, ast.FunctionDef) else function)

    visit(ast.parse(source), "<module>")
    return found


def test_conversion_checker_flags_every_float_and_integer_dtype():
    source = ("import numpy as np\n"
              "def f(x):\n"
              "    a = np.asarray(x, dtype=float)\n"
              "    b = np.array(x, np.float64)\n"
              "    c = np.asarray(x, dtype='f8')\n"
              "    return np.asanyarray(x, dtype=np.double)\n"
              "def g(x):\n"
              "    a = np.asarray(x, dtype=int)\n"
              "    b = np.array(x, np.int64)\n"
              "    c = np.asarray(x, dtype='u4')\n"
              "    d = x.astype(np.intp, copy=False)\n"
              "    return x.astype(dtype='i8')\n"
              "def h(x):\n"
              "    return np.asarray(x), x.astype(float), np.array(x, dtype=object), x.copy()\n"
              "k = np.array([1.0], dtype='float32')\n")
    assert number_conversions(source) == ["f"] * 4 + ["g"] * 5 + ["<module>"]


def test_only_core_converts_arguments_to_numbers():
    found = {path.stem: number_conversions(path.read_text(encoding="utf-8"))
             for path in sorted(PACKAGE.glob("*.py")) if path.stem != "core"}
    assert {stem: hits for stem, hits in found.items() if hits} == {}


# the modules that pick a (seed, stream): the generator's own, the cue world's
# samplers and the verification suites; every other one draws from its caller's handle
HANDLE_MAKERS = {"rng", "cueworld", "verify"}


def handle_constructions(source: str) -> list[str]:
    """The enclosing function of every ``RngHandle(...)`` or
    ``rng.RngHandle(...)`` call in ``source``."""
    found = []

    def visit(node, function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call) and "RngHandle" in (
                    getattr(child.func, "id", None), getattr(child.func, "attr", None)):
                found.append(function)
            visit(child, child.name if isinstance(child, ast.FunctionDef) else function)

    visit(ast.parse(source), "<module>")
    return found


def test_handle_checker_flags_calls_only():
    source = ("from . import rng\n"
              "from .rng import RngHandle\n"
              "def f(n, handle: RngHandle) -> RngHandle:\n"
              "    return RngHandle(n, stream=3)\n"
              "def g(seed):\n"
              "    return rng.RngHandle(seed).split(1), isinstance(seed, RngHandle)\n"
              "h = RngHandle(0)\n")
    assert handle_constructions(source) == ["f", "g", "<module>"]


def test_only_the_seed_owners_construct_a_handle():
    found = {path.stem: handle_constructions(path.read_text(encoding="utf-8"))
             for path in sorted(PACKAGE.glob("*.py")) if path.stem not in HANDLE_MAKERS}
    assert {stem: hits for stem, hits in found.items() if hits} == {}


# the module that defines the 1-D search and the one that runs it
SEARCH_MODULES = {"_search", "voi"}


def search_references(source: str) -> list[str]:
    """Every import of and reference to ``minimize_grid_refine`` in ``source``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.alias) and node.name == "minimize_grid_refine":
            found.append("import minimize_grid_refine")
        elif ((isinstance(node, ast.Attribute) and node.attr == "minimize_grid_refine")
              or (isinstance(node, ast.Name) and node.id == "minimize_grid_refine")):
            found.append(f"minimize_grid_refine at line {node.lineno}")
    return found


def test_search_checker_flags_imports_and_references():
    source = ('"""minimize_grid_refine in a docstring."""\n'
              "from . import _search\n"
              "from ._search import bisect, minimize_grid_refine as search\n"
              "a = _search.minimize_grid_refine(f, 0.0, 1.0)\n"
              "b = search(f, 0.0, 1.0) + bisect(f, 0.0, 1.0)\n"
              "c = minimize_grid_refine\n")
    assert sorted(search_references(source)) == [
        "import minimize_grid_refine", "minimize_grid_refine at line 4",
        "minimize_grid_refine at line 6"]


def test_only_voi_runs_the_search():
    found = {path.stem: search_references(path.read_text(encoding="utf-8"))
             for path in sorted(PACKAGE.glob("*.py")) if path.stem not in SEARCH_MODULES}
    assert {stem: hits for stem, hits in found.items() if hits} == {}


LOSS_CLASSES = ("QuadraticLoss", "LogLoss")


def loss_references(source: str) -> list[str]:
    """Every import of and reference to a loss class in ``source``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.alias) and node.name in LOSS_CLASSES:
            found.append(f"import {node.name}")
        elif isinstance(node, ast.Name) and node.id in LOSS_CLASSES:
            found.append(f"{node.id} at line {node.lineno}")
        elif isinstance(node, ast.Attribute) and node.attr in LOSS_CLASSES:
            found.append(f"{node.attr} at line {node.lineno}")
    return found


def loss_dispatches(source: str) -> list[str]:
    """The dotted scope of every ``isinstance`` call on a loss class in
    ``source``, outside the class ``DiscreteProblem``."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if (isinstance(child, ast.Call) and getattr(child.func, "id", None) == "isinstance"
                    and loss_references(ast.unparse(child.args[-1]))
                    and scope[:1] != ("DiscreteProblem",)):
                found.append(".".join(scope))
            visit(child, scope + (child.name,) if isinstance(
                child, (ast.FunctionDef, ast.ClassDef)) else scope)

    visit(ast.parse(source), ())
    return found


def test_loss_checkers_flag_names_and_dispatches():
    source = ('"""QuadraticLoss in a docstring."""\n'
              "from . import voi\n"
              "from .voi import LogLoss, Loss\n"
              "class DiscreteProblem:\n"
              "    def __post_init__(self):\n"
              "        assert isinstance(self.loss, LogLoss)\n"
              "def f(problem):\n"
              "    if isinstance(problem.loss, voi.QuadraticLoss):\n"
              "        return isinstance(problem.loss, Loss)\n"
              "    return isinstance(problem, DiscreteProblem) or isinstance(\n"
              "        problem.loss, (LogLoss, int))\n")
    assert sorted(loss_references(source)) == ["LogLoss at line 11", "LogLoss at line 6",
                                               "QuadraticLoss at line 8", "import LogLoss"]
    assert loss_dispatches(source) == ["f", "f"]


def test_each_loss_class_owns_its_algebra():
    # bregman calls the problem's loss, and voi's risks read the loss's own
    assert loss_references((PACKAGE / "bregman.py").read_text(encoding="utf-8")) == []
    assert loss_dispatches((PACKAGE / "voi.py").read_text(encoding="utf-8")) == []


def bench_spans() -> types.ModuleType:
    """``bench/spans.py`` executed from its source text, so nothing is
    imported or cached from bench/."""
    path = ROOT / "bench" / "spans.py"
    spans = types.ModuleType("bench_spans")
    exec(compile(path.read_text(encoding="utf-8"), str(path), "exec"), spans.__dict__)
    return spans


def test_every_traced_name_resolves():
    spans = bench_spans()
    missing = []
    for module, attr, _ in spans.Tracer().patches():
        owner, name = spans.target(module, attr)
        if name not in vars(owner):
            missing.append(f"{module}.{attr}")
    assert missing == []


def sibling_references(source: str) -> set[tuple[str, str]]:
    """``(module, name)`` of every ``from .module import name`` in
    ``source`` and every ``module.name`` read through ``from . import
    module``."""
    tree = ast.parse(source)
    siblings, found = {}, set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level >= 1:
            for alias in node.names:
                if node.module is None:
                    siblings[alias.asname or alias.name] = alias.name
                else:
                    found.add((node.module, alias.name))
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in siblings):
            found.add((siblings[node.value.id], node.attr))
    return found


def test_reference_checker_reads_both_forms():
    source = ("from . import montecarlo as mc\n"
              "from .core import count, require\n"
              "def f(x):\n"
              "    from . import regimes\n"
              "    return mc.accumulate(regimes.classify(x)), x.run\n")
    assert sibling_references(source) == {("core", "count"), ("core", "require"),
                                           ("montecarlo", "accumulate"),
                                           ("regimes", "classify")}


# called from outside the package, not by it
COMMAND_LINE_ENTRIES = {"cli.main", "cli.build_parser"}


def test_every_public_function_has_a_caller_outside_its_module():
    # a caller is another module of the package, the benchmark's tracer, or
    # the README, which documents the names a user calls
    called = {(module, attr) for module, attr, _ in bench_spans().Tracer().patches()}
    for path in PACKAGE.glob("*.py"):
        called |= {(module, name) for module, name in
                   sibling_references(path.read_text(encoding="utf-8")) if module != path.stem}
    documented = set(re.findall(r"\w+", " ".join(
        re.findall(r"`+([^`]+)`+", (ROOT / "README.md").read_text(encoding="utf-8")))))
    uncalled = []
    for path in sorted(PACKAGE.glob("*.py")):
        module = importlib.import_module(f"dualsig.{path.stem}")
        for name in getattr(module, "__all__", ()):
            if (inspect.isfunction(getattr(module, name))
                    and (path.stem, name) not in called and name not in documented):
                uncalled.append(f"{path.stem}.{name}")
    assert [name for name in uncalled if name not in COMMAND_LINE_ENTRIES] == []


def test_every_public_looking_function_is_in_all():
    # otherwise a helper could look public and escape the test above
    unlisted = []
    for path in sorted(PACKAGE.glob("[!_]*.py")):
        listed = importlib.import_module(f"dualsig.{path.stem}").__all__
        unlisted += [f"{path.stem}.{node.name}"
                     for node in ast.parse(path.read_text(encoding="utf-8")).body
                     if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")
                     and node.name not in listed]
    assert unlisted == []


# (expected exit code, argv); "{tmp}" is a per-test directory
REACH_RUNS = (
    (0, ["verify", "--suite", "closed_forms", "--n", "2000"]),
    (0, ["verify", "--suite", "gap", "--n", "131073", "--seed", "3"]),
    (0, ["verify", "--suite", "voi", "--n", "2000"]),
    (0, ["verify", "--suite", "lemma", "--n", "2000"]),
    (0, ["simulate", "--n", "2000", "--reps", "3", "--mode", "homogeneous"]),
    (0, ["simulate", "--n", "2000", "--reps", "3", "--mode", "heterogeneous"]),
    (0, ["simulate", "--n", "2000", "--reps", "3", "--k", "0.25", "--h-total", "0.25"]),
    (0, ["simulate", "--reps", "1"]),
    (0, ["phase", "--tauA-steps", "5", "--lambda-steps", "4"]),
    (0, ["phase", "--tauA-steps", "1", "--lambda-steps", "1", "--out", "{tmp}/phase.csv"]),
    (0, ["thresholds"]),
    (2, ["losses", "--tauA", "0.9", "--lambda", "0.5", "--out", "{tmp}/missing/x.csv"]),
    (0, ["losses", "--tauA", "0.9", "--lambda", "0.5"]),
    (2, ["losses", "--tauA", "1", "--lambda", "2"]),
)

# Statements no command above runs, keyed by (module, function, first line of
# the first statement of the block that is never entered), one reason each.
UNREACHED_BY_DESIGN = {
    "the pool needs two or more usable CPUs; the trace runs on one": [
        ("montecarlo", "parallel_map", "outputs = {}"),
    ],
    "exact roots come from library inputs; tests/test_search.py pins them": [
        ("_search", "bisect", "return hi"),
        ("_search", "bisect", "return mid"),
    ],
    "only an unsorted library input needs the sort": [
        ("core", "indices", "idx = np.sort(idx)"),
    ],
    "two equal uniforms at the k-th place occur with probability ~2**-53 per pair": [
        ("rng", "_smallest_k", "chosen[np.flatnonzero(u == kth)[-extra:]] = False"),
    ],
    "log2(0) is undefined; no command asks for the entropy of a sure event": [
        ("voi", "_binary_entropy", "return 0.0"),
    ],
}


def header_lines(node: ast.stmt) -> range:
    """The lines on which a line event means ``node`` ran: all of a simple
    statement, the header of a compound one."""
    first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", ())])
    if isinstance(node, (ast.If, ast.While)):
        last = node.test.end_lineno
    elif isinstance(node, ast.For):
        last = node.iter.end_lineno
    elif isinstance(node, ast.With):
        last = node.items[-1].context_expr.end_lineno
    elif hasattr(node, "body"):
        last = node.lineno
    else:
        last = node.end_lineno
    return range(first, last + 1)


def blocks(tree: ast.Module):
    """Every statement block inside a function body, as ``(function, block)``
    with ``function`` the dotted name of the innermost enclosing function.
    Docstrings and blocks that end in ``raise``, the package's error paths,
    are left out."""
    def visit(node, scope, in_function):
        for name in ("body", "orelse", "finalbody", "handlers"):
            block = getattr(node, name, None)
            if not isinstance(block, list) or not block:
                continue
            if name == "handlers":
                for handler in block:
                    yield from visit(handler, scope, in_function)
                continue
            if isinstance(block[-1], ast.Raise):
                continue
            stmts = [s for s in block
                     if not (isinstance(s, ast.Expr) and isinstance(s.value, ast.Constant))]
            if in_function and stmts:
                yield scope, stmts
            for stmt in stmts:
                if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                    yield from visit(stmt, scope + (stmt.name,),
                                     in_function or isinstance(stmt, ast.FunctionDef))
                else:
                    yield from visit(stmt, scope, in_function)
    yield from visit(tree, (), False)


def unreached(package: Path, fired: set[tuple[str, int]]) -> list[tuple[str, str, str]]:
    """``(module, function, statement)`` of the first statement of each block
    suffix that no line event reached.  A block runs from its first
    statement on, so what follows an unreached statement is unreached too,
    and a block nested in it is not reported separately."""
    found = []
    for path in sorted(package.glob("*.py")):
        source = path.read_text(encoding="utf-8")
        lines = source.splitlines()
        covered = set()
        for scope, stmts in blocks(ast.parse(source)):
            for i, stmt in enumerate(stmts):
                if stmt in covered:
                    break
                if not any((str(path), line) in fired for line in header_lines(stmt)):
                    found.append((path.stem, ".".join(scope), lines[stmt.lineno - 1].strip()))
                    covered.update(inner for later in stmts[i:]
                                   for inner in ast.walk(later) if isinstance(inner, ast.stmt))
                    break
    return found


def test_reach_checker_flags_unentered_blocks(tmp_path):
    (tmp_path / "m.py").write_text(
        "def f(x):\n"
        "    \"\"\"Docstring.\"\"\"\n"
        "    if x:\n"
        "        y = 1\n"
        "        if y:\n"
        "            return 2\n"
        "    if x < 0:\n"
        "        raise ValueError(x)\n"
        "    return 3\n"
        "\n"
        "\n"
        "def g():\n"
        "    return 4\n", encoding="utf-8")
    m = str(tmp_path / "m.py")
    assert unreached(tmp_path, {(m, 3), (m, 7), (m, 9)}) == [
        ("m", "f", "y = 1"), ("m", "g", "return 4")]
    assert unreached(tmp_path, {(m, 3), (m, 4), (m, 5), (m, 6), (m, 7), (m, 13)}) == [
        ("m", "f", "return 3")]


def test_every_statement_is_reached_by_a_command(monkeypatch, capsys, tmp_path):
    # one CPU: parallel_map runs its tasks in this process, where the tracer sees them
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    from dualsig import cli

    package = Path(cli.__file__).parent  # as imported, so file names match the frames'
    fired = set()

    def line(frame, event, arg):
        if event == "line":
            fired.add((frame.f_code.co_filename, frame.f_lineno))
        return line

    def call(frame, event, arg):
        return line if frame.f_code.co_filename.startswith(str(package)) else None

    sys.settrace(call)
    try:
        codes = [cli.main([arg.format(tmp=tmp_path) for arg in argv])
                 for _, argv in REACH_RUNS]
    finally:
        sys.settrace(None)
    capsys.readouterr()
    assert codes == [code for code, _ in REACH_RUNS]
    allowed = {key for keys in UNREACHED_BY_DESIGN.values() for key in keys}
    found = unreached(package, fired)
    assert [key for key in found if key not in allowed] == []
    assert sorted(allowed - set(found)) == []
