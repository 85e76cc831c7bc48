"""Every module in ``src/repro`` is reached from the code that runs the paper,
and every function, method and class in it is named by that code.

The roots are every file of the repository benchmark (``perfbench/``) and
of the paper benchmarks (``benchmarks/``), every module of
``repro.experiments`` and ``repro/__init__.py``.  Tests and examples are
not roots: they demonstrate and check code, they do not keep it alive.

Imports are read from the AST, never executed.  ``from repro.pkg import
Name`` is followed through the package ``__init__`` to the module that
defines ``Name``, so a package re-export alone reaches nothing.  A
package ``__init__`` reaches a module only through a name its own code
uses; it is itself reached whenever one of its modules is, because
Python runs it before importing them.

Inside a module the check is by name only, from the same roots: a
definition is kept alive when a file under ``src/``, ``perfbench/`` or
``benchmarks/`` names it (as a variable, an attribute or an import)
outside the definition itself.  A name used only by tests or examples
does not count, and neither does a package ``__init__`` importing or
re-exporting it.  Same-named methods keep each other alive, so this
over-approximates use; it still catches code that only tests, examples
or re-exports name.
"""

from __future__ import annotations

import ast
from collections import Counter
from functools import lru_cache
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]
SRC = REPO / "src"

#: Modules kept in ``src/`` on purpose although no root reaches them.
ENTRY_POINTS: tuple[str, ...] = ()

#: Definitions no root names, kept on purpose, each with its reason.
DYNAMIC_NAMES: dict[str, str] = {
    **{
        f"repro.runtime.campaign.CampaignRuntime._stage_{stage}": (
            "stage body; CampaignRuntime calls it as getattr(self, f'_stage_{name}')"
        )
        for stage in ("library", "streamed_screen", "cost_function", "assays")
    },
    "repro.models.train.TrainingHistory.best_epoch": (
        "the validation-best epoch rule; ROADMAP item T restores each model to it"
    ),
}

#: Directories whose files can name a ``src/`` definition: the module roots.
NAMING_DIRS: tuple[str, ...] = ("src", "perfbench", "benchmarks")


def _module_name(path: Path) -> str:
    parts = path.relative_to(SRC).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


MODULES = {_module_name(path): path for path in sorted((SRC / "repro").rglob("*.py"))}


@lru_cache(maxsize=None)
def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def _is_package(module: str) -> bool:
    return MODULES[module].name == "__init__.py"


def _defines(module: str, name: str) -> bool:
    """Whether ``module`` binds ``name`` at top level by its own code (not an import)."""
    for node in _tree(MODULES[module]).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            bound = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            bound = [target.id for target in targets if isinstance(target, ast.Name)]
        else:
            continue
        if name in bound:
            return True
    return False


def _resolve(source: str, name: str) -> set[str]:
    """The modules ``from source import name`` depends on."""
    if f"{source}.{name}" in MODULES:
        return {f"{source}.{name}"}
    if not _is_package(source) or _defines(source, name):
        return {source}
    package = _tree(MODULES[source])
    for node in package.body:
        if isinstance(node, ast.ImportFrom) and node.module in MODULES:
            for alias in node.names:
                if (alias.asname or alias.name) == name:
                    return _resolve(node.module, alias.name)
    # a lazy (PEP 562 ``__getattr__``) export: the imported module defining it
    for node in ast.walk(package):
        if isinstance(node, ast.ImportFrom) and node.module in MODULES:
            for alias in node.names:
                for module in _resolve(node.module, alias.name):
                    if _defines(module, name):
                        return {module}
    return {source}


def _edges(node: ast.Import | ast.ImportFrom, aliases: list[ast.alias]) -> set[str]:
    """The ``src/`` modules that importing ``aliases`` by ``node`` depends on."""
    if isinstance(node, ast.Import):
        return {alias.name for alias in aliases if alias.name in MODULES}
    if node.level == 0 and node.module in MODULES:
        return set().union(*(_resolve(node.module, alias.name) for alias in aliases))
    return set()


def _imports(path: Path, root: bool) -> set[str]:
    """What a file depends on; a non-root package ``__init__`` only through names it uses."""
    tree = _tree(path)
    if root or path.name != "__init__.py":
        statements = [node for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))]
        return set().union(*(_edges(node, node.names) for node in statements))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    reached: set[str] = set()
    for node in tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            reached |= _edges(node, [a for a in node.names if (a.asname or a.name.partition(".")[0]) in used])
    return reached


def _parent_packages(module: str) -> set[str]:
    parts = module.split(".")
    return {".".join(parts[:end]) for end in range(1, len(parts))}


def _root_files() -> list[Path]:
    files = [*sorted((REPO / "perfbench").rglob("*.py")), *sorted((REPO / "benchmarks").rglob("*.py"))]
    files += sorted((SRC / "repro" / "experiments").rglob("*.py"))
    return [*files, SRC / "repro" / "__init__.py"]


def unreached_modules() -> list[str]:
    """Non-package ``src/`` modules no root reaches, outside ``ENTRY_POINTS``."""
    reached: set[str] = set()
    frontier: set[str] = set()
    for path in _root_files():
        if path.is_relative_to(SRC):
            reached.add(_module_name(path))
        frontier |= _imports(path, root=True)
    while frontier:
        module = frontier.pop()
        if module not in reached:
            reached.add(module)
            frontier |= _imports(MODULES[module], root=False)
            frontier |= _parent_packages(module) & MODULES.keys()
    return sorted(m for m in MODULES if not _is_package(m) and m not in reached and m not in ENTRY_POINTS)


def test_every_src_module_is_reached_from_a_root():
    unreached = unreached_modules()
    lines = {m: len(MODULES[m].read_text().splitlines()) for m in unreached}
    assert not unreached, (
        f"{len(unreached)} src/ module(s), {sum(lines.values())} lines, are reached only from tests or "
        "examples; delete them or list them in ENTRY_POINTS:\n"
        + "\n".join(f"  {m} ({lines[m]} lines)" for m in unreached)
    )


def _names(node: ast.AST, imports: bool = True) -> Counter[str]:
    """How often ``node`` names each identifier: variables, attributes and,
    with ``imports``, imported names."""
    names: Counter[str] = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            names[sub.attr] += 1
        elif imports and isinstance(sub, ast.alias):
            names[sub.asname or sub.name.rpartition(".")[2]] += 1
    return names


def _definitions(node: ast.AST, prefix: str):
    """``(qualified name, node)`` of every function, method and class under ``node``."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            qualname = f"{prefix}.{child.name}"
            yield qualname, child
            yield from _definitions(child, qualname)
        else:
            yield from _definitions(child, prefix)


def _naming_files() -> list[Path]:
    return [path for name in NAMING_DIRS for path in sorted((REPO / name).rglob("*.py"))]


def unnamed_symbols() -> list[str]:
    """Non-dunder ``src/`` definitions no root file names outside their own
    body, outside ``DYNAMIC_NAMES``; a package ``__init__``'s imports and
    re-exports name nothing."""
    named: Counter[str] = Counter()
    for path in _naming_files():
        named += _names(_tree(path), imports=path.name != "__init__.py")
    unnamed = []
    for module, path in MODULES.items():
        for qualname, node in _definitions(_tree(path), module):
            dunder = node.name.startswith("__") and node.name.endswith("__")
            if dunder or qualname in DYNAMIC_NAMES:
                continue
            if named[node.name] <= _names(node)[node.name]:
                unnamed.append(f"{qualname} (line {node.lineno})")
    return unnamed


def test_every_src_symbol_is_named_outside_its_definition():
    unnamed = unnamed_symbols()
    assert not unnamed, (
        f"{len(unnamed)} src/ definition(s) are named only by tests, examples or re-exports; "
        "delete them, move a test's reference into tests/, or list one kept on purpose in "
        "DYNAMIC_NAMES with its reason:\n" + "\n".join(f"  {s}" for s in unnamed)
    )


def test_dynamic_names_name_existing_definitions():
    defined = {q for module, path in MODULES.items() for q, _ in _definitions(_tree(path), module)}
    assert set(DYNAMIC_NAMES) <= defined, sorted(set(DYNAMIC_NAMES) - defined)


def test_every_allowed_name_has_a_reason_other_than_a_test():
    for name, reason in DYNAMIC_NAMES.items():
        assert reason.strip() and "test" not in reason.lower(), (name, reason)


def test_entry_points_name_existing_modules():
    assert set(ENTRY_POINTS) <= set(MODULES), sorted(set(ENTRY_POINTS) - set(MODULES))


def test_package_exports_resolve_to_the_defining_module():
    assert _resolve("repro.nn", "Adam") == {"repro.nn.optim"}
    assert _resolve("repro.nn", "functional") == {"repro.nn.functional"}
    # lazy PEP 562 export
    assert _resolve("repro.screening", "StreamingScreen") == {"repro.screening.stream"}
    # defined by the package's own code
    assert _resolve("repro.telemetry", "Telemetry") == {"repro.telemetry"}


# --------------------------------------------------------------------- #
# The rules above, on a small package written to a temporary directory
# --------------------------------------------------------------------- #
FAKE_TREE = {
    "fakepkg/__init__.py": (
        "from repro.fakepkg.used import used_fn\n"
        "from repro.fakepkg.reexported import reexported_fn\n"
        "from repro.fakepkg.internal import helper\n"
        "DEFAULT = helper()\n"
        "def __getattr__(name):\n"
        "    if name == 'Lazy':\n"
        "        from repro.fakepkg.lazy import Lazy\n"
        "        return Lazy\n"
        "    raise AttributeError(name)\n"
    ),
    "fakepkg/used.py": "from repro.fakepkg.deep import deep_fn\n\n\ndef used_fn():\n    return deep_fn()\n",
    "fakepkg/deep.py": "def deep_fn():\n    return 1\n",
    "fakepkg/reexported.py": "def reexported_fn():\n    return 2\n",
    "fakepkg/internal.py": "def helper():\n    return 0\n",
    "fakepkg/lazy.py": "class Lazy:\n    pass\n",
    "fakepkg/orphan.py": "X = 1\n",
}


@pytest.fixture
def fake_tree(tmp_path, monkeypatch):
    """Point the graph at ``repro.fakepkg`` and one root using ``used_fn`` and ``Lazy``."""
    modules = {}
    for relative, text in FAKE_TREE.items():
        path = tmp_path / relative
        path.parent.mkdir(exist_ok=True)
        path.write_text(text)
        name = "repro." + relative.removesuffix(".py").replace("/", ".")
        modules[name.removesuffix(".__init__")] = path
    root = tmp_path / "root.py"
    root.write_text("from repro.fakepkg import Lazy, used_fn\n")
    monkeypatch.setitem(globals(), "MODULES", modules)
    monkeypatch.setitem(globals(), "_root_files", lambda: [root])
    return modules


@pytest.mark.parametrize(
    "module, reached",
    [
        ("repro.fakepkg.used", True),  # imported by the root
        ("repro.fakepkg.deep", True),  # imported by a reached module
        ("repro.fakepkg.internal", True),  # used by the package's own code
        ("repro.fakepkg.lazy", True),  # a lazy PEP 562 export the root imports
        ("repro.fakepkg.reexported", False),  # only re-exported by the package
        ("repro.fakepkg.orphan", False),  # imported by nothing
    ],
)
def test_reachability_rules(fake_tree, module, reached):
    assert (module not in unreached_modules()) is reached


def test_entry_points_exempt_an_unreached_module(fake_tree, monkeypatch):
    monkeypatch.setitem(globals(), "ENTRY_POINTS", ("repro.fakepkg.orphan",))
    assert unreached_modules() == ["repro.fakepkg.reexported"]


def test_failure_names_every_unreached_module_with_its_line_count(fake_tree):
    with pytest.raises(AssertionError) as info:
        test_every_src_module_is_reached_from_a_root()
    message = str(info.value)
    assert "2 src/ module(s), 3 lines, are reached only from tests or examples" in message
    assert "  repro.fakepkg.orphan (1 lines)" in message
    assert "  repro.fakepkg.reexported (2 lines)" in message


SYMBOL_TREE = {
    "fakepkg/__init__.py": "",
    "fakepkg/shapes.py": (
        "class Shape:\n"
        "    def __init__(self):\n"  # dunder: exempt
        "        self.size = 1\n"
        "    def area(self):\n"  # named by the root as an attribute
        "        return self._scale() * 2\n"
        "    def _scale(self):\n"  # named by another method
        "        return 1\n"
        "    def perimeter(self):\n"  # named only inside its own body
        "        return self.perimeter()\n"
        "    def _stage_dynamic(self):\n"  # listed in DYNAMIC_NAMES
        "        return 0\n"
        "def make():\n"  # imported by the root
        "    return Shape()\n"
        "def orphan():\n"  # named nowhere
        "    return 0\n"
    ),
}


@pytest.fixture
def symbol_tree(tmp_path, monkeypatch):
    """Point the name scan at ``repro.fakepkg.shapes`` and one file using ``make().area()``."""
    modules = {}
    for relative, text in SYMBOL_TREE.items():
        path = tmp_path / relative
        path.parent.mkdir(exist_ok=True)
        path.write_text(text)
        modules["repro." + relative.removesuffix(".py").replace("/", ".").removesuffix(".__init__")] = path
    user = tmp_path / "user.py"
    user.write_text("from repro.fakepkg.shapes import make\nprint(make().area())\n")
    monkeypatch.setitem(globals(), "MODULES", modules)
    monkeypatch.setitem(globals(), "_naming_files", lambda: [*modules.values(), user])
    monkeypatch.setitem(
        globals(), "DYNAMIC_NAMES", {"repro.fakepkg.shapes.Shape._stage_dynamic": "called by name"}
    )
    return modules


def test_symbol_naming_rules(symbol_tree):
    assert unnamed_symbols() == [
        "repro.fakepkg.shapes.Shape.perimeter (line 8)",
        "repro.fakepkg.shapes.orphan (line 14)",
    ]


def test_symbol_failure_names_every_unnamed_definition(symbol_tree):
    with pytest.raises(AssertionError) as info:
        test_every_src_symbol_is_named_outside_its_definition()
    message = str(info.value)
    assert "2 src/ definition(s) are named only by tests, examples or re-exports" in message
    assert "  repro.fakepkg.shapes.Shape.perimeter (line 8)" in message
    assert "  repro.fakepkg.shapes.orphan (line 14)" in message


def test_dynamic_names_exempt_only_what_they_list(symbol_tree, monkeypatch):
    monkeypatch.setitem(globals(), "DYNAMIC_NAMES", {})
    assert "repro.fakepkg.shapes.Shape._stage_dynamic (line 10)" in unnamed_symbols()


GUARD_TREE = {
    "src/repro/fakepkg/__init__.py": (
        "from repro.fakepkg.shapes import reexported, run\n"
        "__all__ = ['reexported', 'run']\n"
    ),
    "src/repro/fakepkg/shapes.py": (
        "def run():\n"  # called by the repository benchmark
        "    return helper()\n"
        "def helper():\n"  # called by run
        "    return 0\n"
        "def tested():\n"  # named only by a test
        "    return 1\n"
        "def demonstrated():\n"  # named only by an example
        "    return 2\n"
        "def reexported():\n"  # named only by the package's re-export
        "    return 3\n"
    ),
    "perfbench/bench.py": "from repro.fakepkg import run\nrun()\n",
    "tests/test_shapes.py": "from repro.fakepkg.shapes import tested\nassert tested() == 1\n",
    "examples/demo.py": "from repro.fakepkg import shapes\nprint(shapes.demonstrated())\n",
}


@pytest.fixture
def guard_tree(tmp_path, monkeypatch):
    """A repository of one fake package, the real ``_naming_files`` scanning it."""
    modules = {}
    for relative, text in GUARD_TREE.items():
        path = tmp_path / relative
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
        if relative.startswith("src/"):
            name = relative.removeprefix("src/").removesuffix(".py").replace("/", ".")
            modules[name.removesuffix(".__init__")] = path
    monkeypatch.setitem(globals(), "REPO", tmp_path)
    monkeypatch.setitem(globals(), "MODULES", modules)
    return modules


@pytest.mark.parametrize(
    "definition, kept",
    [
        ("run", True),  # a root names it
        ("helper", True),  # src/ names it
        ("tested", False),  # only a test names it
        ("demonstrated", False),  # only an example names it
        ("reexported", False),  # only the package __init__ re-exports it
    ],
)
def test_guard_counts_only_the_module_roots(guard_tree, definition, kept):
    flagged = {entry.split(" ")[0].rpartition(".")[2] for entry in unnamed_symbols()}
    assert (definition not in flagged) is kept


def test_guard_failure_names_what_only_tests_examples_or_reexports_name(guard_tree):
    with pytest.raises(AssertionError) as info:
        test_every_src_symbol_is_named_outside_its_definition()
    message = str(info.value)
    assert "3 src/ definition(s) are named only by tests, examples or re-exports" in message
    for name, line in (("tested", 5), ("demonstrated", 7), ("reexported", 9)):
        assert f"  repro.fakepkg.shapes.{name} (line {line})" in message


@pytest.mark.parametrize(
    "statement, expected",
    [
        ("import repro.nn.optim", {"repro.nn.optim"}),
        ("import numpy", set()),
        ("from repro.nn import Adam, functional", {"repro.nn.optim", "repro.nn.functional"}),
        ("from repro.nn.optim import Adam", {"repro.nn.optim"}),
    ],
)
def test_import_statement_edges(statement, expected):
    node = ast.parse(statement).body[0]
    assert _edges(node, node.names) == expected


def test_module_names_follow_the_src_layout():
    assert _module_name(SRC / "repro" / "nn" / "__init__.py") == "repro.nn"
    assert _module_name(SRC / "repro" / "nn" / "optim.py") == "repro.nn.optim"
    assert _parent_packages("repro.nn.optim") == {"repro", "repro.nn"}
