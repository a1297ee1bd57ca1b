"""Every name a module imports is used in it, every private name is read,
and every public name is read by the package or listed as library API.

No linter is a dependency, so these are the unused-import and dead-name
checks, on the standard library's `ast`. A nested function that calls
itself is flagged too: it refers to itself through its closure cell, so
each call leaves a reference cycle that only the garbage collector frees.
So is immutability made by hand: a class that defines `__setattr__` or
`__reduce__`, or a call of `object.__setattr__`, where a namedtuple record
does the job. Every module-level function's annotations must evaluate
with `typing.get_type_hints`. The last tests check that importing the CLI
loads no standard-library module that only some runs need, that a run at
two workers never loads `multiprocessing`, and that a run that forks no
child loads neither `pickle` nor `select`.
"""
import ast
import importlib
import subprocess
import sys
import types
import typing
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "treeopt"


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}"
            for name, line in sorted(imported.items(), key=lambda kv: kv[1])
            if name not in used]


def test_checker_flags_an_unused_name():
    source = "import os\nfrom typing import Iterator, Sequence\nx: Sequence = os.sep\n"
    assert unused_imports(source) == ["line 2: Iterator"]


def test_no_unused_imports():
    modules = sorted(PACKAGE.glob("*.py"))
    assert modules
    found = {p.name: unused_imports(p.read_text()) for p in modules}
    assert {name: lines for name, lines in found.items() if lines} == {}


def read_names(trees) -> set[str]:
    """Names loaded or taken as an attribute anywhere in `trees`."""
    read = set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    return read


def unused_private_names(sources: dict[str, str]) -> list[str]:
    """Private module-level names (`_x`, not dunder) that no module reads.

    A name counts as read where it is loaded or taken as an attribute in any
    of `sources`, its own module included.
    """
    trees = {module: ast.parse(source) for module, source in sources.items()}
    read = read_names(trees.values())
    found = []
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined = [n.id for t in targets for n in ast.walk(t)
                           if isinstance(n, ast.Name)]
            else:
                continue
            found += [f"{module} line {node.lineno}: {name}" for name in defined
                      if name.startswith("_") and not name.endswith("__")
                      and name not in read]
    return found


def test_checker_flags_an_unused_private_name():
    sources = {
        "a.py": "_LIMIT = 3\n_CAP, __all__ = 4, []\n\n\ndef _helper():\n    return _CAP\n",
        "b.py": "import a\n\n\ndef _unused():\n    return a._helper()\n",
    }
    assert unused_private_names(sources) == ["a.py line 1: _LIMIT", "b.py line 4: _unused"]


def test_no_unused_private_names():
    sources = {p.name: p.read_text() for p in sorted(PACKAGE.glob("*.py"))}
    assert unused_private_names(sources) == []


# Public names the package does not read itself: helpers that the acceptance
# criteria and the tests call.
LIBRARY_API = {
    "ladder_level", "nu_min_set", "tau_min", "base_bound", "family_tree_count",
    "abrego_feasibility", "tree_count_via_complement", "mixed_trace_identity_check",
    "cycle_graph", "path_graph", "complete_bipartite", "is_connected", "trace_powers",
}


def unread_public_names(sources: dict[str, str], allowed: set[str]) -> list[str]:
    """Public module-level functions, classes and assigned names (constants,
    namedtuple types), and public methods of public classes, that no module
    in `sources` reads and `allowed` does not list.

    Reads are counted as in `unused_private_names`. A method is reported and
    allowed as `Class.method`.
    """
    trees = {module: ast.parse(source) for module, source in sources.items()}
    read = read_names(trees.values())
    found = []
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined = [(node.name, node.name, node.lineno)]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined = [(n.id, n.id, node.lineno) for t in targets for n in ast.walk(t)
                           if isinstance(n, ast.Name)]
            else:
                continue
            if isinstance(node, ast.ClassDef):
                defined += [(f"{node.name}.{m.name}", m.name, m.lineno) for m in node.body
                            if isinstance(m, (ast.FunctionDef, ast.AsyncFunctionDef))
                            and not m.name.startswith("_")]
            found += [f"{module} line {line}: {label}" for label, name, line in defined
                      if not name.startswith("_") and name not in read
                      and label not in allowed]
    return found


def test_checker_flags_an_unread_public_name():
    sources = {
        "a.py": ("class Box:\n    def __eq__(self, other):\n        return True\n\n"
                 "    def open(self):\n        return 1\n\n"
                 "    def spare(self):\n        return 2\n\n\n"
                 "def make():\n    return Box()\n\n\ndef helper():\n    return 3\n"),
        "b.py": "from a import make\n\n\ndef _use():\n    return make().open()\n\n\n"
                "def orphan():\n    return 0\n",
    }
    assert unread_public_names(sources, set()) == [
        "a.py line 8: Box.spare", "a.py line 16: helper", "b.py line 8: orphan"]
    assert unread_public_names(sources, {"Box.spare", "helper", "orphan"}) == []


def test_checker_flags_an_unread_public_assignment():
    sources = {
        "a.py": ("from collections import namedtuple\n\n"
                 "LIMIT = 3\nSPARE, _HIDDEN, __all__ = 4, 5, []\n"
                 "Pair = namedtuple('Pair', 'x y')\nIdle = namedtuple('Idle', 'z')\n"
                 "WIDTH: int = 2\n"),
        "b.py": "import a\n\n\ndef _use():\n    return a.Pair(a.LIMIT, a.WIDTH)\n",
    }
    assert unread_public_names(sources, set()) == [
        "a.py line 4: SPARE", "a.py line 6: Idle"]
    assert unread_public_names(sources, {"SPARE", "Idle"}) == []


def test_no_unread_public_names():
    sources = {p.name: p.read_text() for p in sorted(PACKAGE.glob("*.py"))}
    assert sources
    assert unread_public_names(sources, LIBRARY_API) == []


FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def recursive_closures(source: str) -> list[str]:
    """Functions nested in another function whose body loads their own
    name, as `outer.inner` with `outer` the nearest enclosing function."""
    enclosing = {}
    # ast.walk goes breadth first, so the nearest enclosing function is the
    # last one to claim a nested function
    for outer in ast.walk(ast.parse(source)):
        if isinstance(outer, FUNCTIONS):
            for node in ast.walk(outer):
                if node is not outer and isinstance(node, FUNCTIONS):
                    enclosing[node] = outer
    return [f"line {inner.lineno}: {outer.name}.{inner.name}"
            for inner, outer in sorted(enclosing.items(), key=lambda kv: kv[0].lineno)
            if any(isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load) and n.id == inner.name
                   for stmt in inner.body for n in ast.walk(stmt))]


def test_checker_flags_a_recursive_closure():
    source = ("def search(n):\n"
              "    def dfs(k):\n        return k and dfs(k - 1)\n\n"
              "    def receive(k):\n        return k\n\n"
              "    return dfs(n) + receive(n)\n\n\n"
              "def fact(n):\n    return n * fact(n - 1) if n else 1\n\n\n"
              "def outer():\n    def middle():\n        def inner(k):\n"
              "            return k and inner(k - 1)\n        return inner\n    return middle\n")
    assert recursive_closures(source) == ["line 2: search.dfs", "line 17: middle.inner"]


def test_no_recursive_closures():
    modules = sorted(PACKAGE.glob("*.py"))
    assert modules
    found = {p.name: recursive_closures(p.read_text()) for p in modules}
    assert {name: lines for name, lines in found.items() if lines} == {}


def hand_rolled_immutability(source: str) -> list[str]:
    """Classes that define `__setattr__` or `__reduce__`, and calls of
    `object.__setattr__`: a record is a namedtuple, which is immutable and
    rebuilt through its `__new__` by pickle and copy without them."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ClassDef):
            found += [(m.lineno, f"{node.name}.{m.name}") for m in node.body
                      if isinstance(m, FUNCTIONS) and m.name in ("__setattr__", "__reduce__")]
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
              and node.func.attr == "__setattr__" and isinstance(node.func.value, ast.Name)
              and node.func.value.id == "object"):
            found.append((node.lineno, "object.__setattr__"))
    return [f"line {line}: {name}" for line, name in sorted(found)]


def test_checker_flags_hand_rolled_immutability():
    source = ("class Frozen:\n    __slots__ = ('x',)\n\n"
              "    def __init__(self, x):\n        object.__setattr__(self, 'x', x)\n\n"
              "    def __setattr__(self, name, value):\n        raise AttributeError(name)\n\n"
              "    def __reduce__(self):\n        return Frozen, (self.x,)\n\n\n"
              "class Plain:\n    def __init__(self, x):\n        setattr(self, 'x', x)\n\n"
              "    def __getattr__(self, name):\n        return None\n")
    assert hand_rolled_immutability(source) == [
        "line 5: object.__setattr__", "line 7: Frozen.__setattr__", "line 10: Frozen.__reduce__"]


def test_no_hand_rolled_immutability():
    modules = sorted(PACKAGE.glob("*.py"))
    assert modules
    found = {p.name: hand_rolled_immutability(p.read_text()) for p in modules}
    assert {name: lines for name, lines in found.items() if lines} == {}


def unresolved_annotations(modules) -> list[str]:
    """Module-level functions whose annotations `typing.get_type_hints`
    cannot evaluate. Under `from __future__ import annotations` they are
    strings, so a name imported only inside a function body goes unseen
    until something evaluates them."""
    found = []
    for module in modules:
        for name, value in vars(module).items():
            if isinstance(value, types.FunctionType) and value.__module__ == module.__name__:
                try:
                    typing.get_type_hints(value)
                except NameError as e:
                    found.append(f"{module.__name__}.{name}: {e}")
    return found


def test_checker_flags_an_unresolved_annotation():
    module = types.ModuleType("sample")
    exec("from __future__ import annotations\n"
         "def ok(x: int) -> list[int]: ...\n"
         "def bad(x: int) -> Fraction: ...\n", module.__dict__)
    assert unresolved_annotations([module]) == ["sample.bad: name 'Fraction' is not defined"]


def test_every_function_annotation_resolves():
    names = sorted("treeopt" if p.stem == "__init__" else f"treeopt.{p.stem}"
                   for p in PACKAGE.glob("*.py"))
    modules = [importlib.import_module(name) for name in names]
    assert len(modules) > 1 and any(vars(m).get("abrego_feasibility") for m in modules)
    assert unresolved_annotations(modules) == []


# Standard-library modules that `import treeopt.cli` must not load: record
# types are namedtuples, and the rest is imported where it is used.
UNUSED_BY_IMPORT = {"dataclasses", "inspect", "fractions", "traceback", "multiprocessing",
                    "pickle", "select", "signal"}


def test_cli_import_loads_no_unused_stdlib_module():
    # -S: no site hooks, whose .pth files may load some of these themselves
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import treeopt.cli; "
            "print(' '.join(sorted(set(sys.argv[2:]) & set(sys.modules))))")
    run = subprocess.run([sys.executable, "-S", "-E", "-c", code, str(PACKAGE.parent),
                          *sorted(UNUSED_BY_IMPORT)], capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    assert run.stdout.split() == []


def test_two_worker_run_loads_no_multiprocessing():
    code = ("import sys; sys.path.insert(0, sys.argv[1]); from treeopt.cli import main; "
            "code = main(['duality', '--n', '8', '--d', '3', '--workers', '2']); "
            "print(code, 'multiprocessing' in sys.modules, 'select' in sys.modules)")
    run = subprocess.run([sys.executable, "-S", "-E", "-c", code, str(PACKAGE.parent)],
                         capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    # the duality verdict, then: no multiprocessing, and the fork runner did run
    assert run.stdout.splitlines()[-1] == "0 False True"


def test_runs_that_fork_no_child_load_no_fork_runner_module():
    # one worker, and an empty class (odd parity) at two: no child is forked
    code = ("import sys; sys.path.insert(0, sys.argv[1]); from treeopt.cli import main; "
            "code = main(sys.argv[2:]); "
            "print(code, 'pickle' in sys.modules, 'select' in sys.modules)")
    for argv in (["duality", "--n", "8", "--d", "3", "--workers", "1"],
                 ["duality", "--n", "7", "--d", "3", "--workers", "2"]):
        run = subprocess.run([sys.executable, "-S", "-E", "-c", code, str(PACKAGE.parent), *argv],
                             capture_output=True, text=True)
        assert run.returncode == 0, run.stderr
        assert run.stdout.splitlines()[-1] == "0 False False", argv
