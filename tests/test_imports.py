"""Every name a module imports is used in it, every private name is read,
and every public name is read by the package or listed as library API.

No linter is a dependency, so these are the unused-import and dead-name
checks, on the standard library's `ast`. The import and public-name checks
skip `__init__.py`: its imports are the package's exports, not uses.
"""
import ast
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
    modules = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
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
    "cycle_graph", "path_graph", "complete_bipartite",
}


def unread_public_names(sources: dict[str, str], allowed: set[str]) -> list[str]:
    """Public module-level functions and classes, and public methods of public
    classes, that no module in `sources` reads and `allowed` does not list.

    Reads are counted as in `unused_private_names`. A method is reported and
    allowed as `Class.method`.
    """
    trees = {module: ast.parse(source) for module, source in sources.items()}
    read = read_names(trees.values())
    found = []
    for module, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) \
                    or node.name.startswith("_"):
                continue
            defined = [(node.name, node.name, node.lineno)]
            if isinstance(node, ast.ClassDef):
                defined += [(f"{node.name}.{m.name}", m.name, m.lineno) for m in node.body
                            if isinstance(m, (ast.FunctionDef, ast.AsyncFunctionDef))
                            and not m.name.startswith("_")]
            found += [f"{module} line {line}: {label}" for label, name, line in defined
                      if name not in read and label not in allowed]
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


def test_no_unread_public_names():
    sources = {p.name: p.read_text() for p in sorted(PACKAGE.glob("*.py"))
               if p.name != "__init__.py"}
    assert sources
    assert unread_public_names(sources, LIBRARY_API) == []
