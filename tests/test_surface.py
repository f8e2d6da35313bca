"""The package's surface is what its tasks run.

Every public top-level function or class in src/fracfield must be referenced
in code, not in a docstring, somewhere in the package outside its own
definition, or be a layer that perfbench/spans.py traces;
EXCEPTIONS names the ones that wait for a caller. Every public method or
property of a class there must be read as an attribute of that name in the
package outside its own definition, or in perfbench/spans.py. Code that only
tests call belongs in tests/. Every name a module imports must be used by
that module, and every module-level constant must be read somewhere in the
package. Outside spectral, only model calls the basis's matvec and rmatvec.
Importing the CLI loads none of the scipy subpackages that only some tasks
call (LAZY_SCIPY): the functions that call them import them.
"""

from __future__ import annotations

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "fracfield"

# mass_clusters waits for its caller: the census's cluster counts in the
# results JSON (ROADMAP item 1(a))
EXCEPTIONS = {"topology.mass_clusters"}

# scipy.integrate (extension.solve_profile) pulls in scipy.optimize and
# scipy.special; scipy.ndimage serves domain.mask_betti and
# topology.mass_clusters
LAZY_SCIPY = ("scipy.integrate", "scipy.optimize", "scipy.special", "scipy.ndimage")


def _modules() -> dict[str, ast.Module]:
    return {p.stem: ast.parse(p.read_text(), filename=str(p)) for p in sorted(SRC.glob("*.py"))}


def _imports(tree: ast.Module) -> list[str]:
    """What each import binds: a name, or the dotted path of `import a.b`."""
    return [
        a.asname or a.name
        for node in ast.walk(tree)
        if isinstance(node, ast.Import)
        or isinstance(node, ast.ImportFrom) and node.module != "__future__"
        for a in node.names
    ]


def _dotted(node: ast.AST) -> str | None:
    """'a.b.c' for a chain of attributes on a name, else None."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    return ".".join([node.id, *reversed(parts)])


def _uses(tree: ast.Module, skip: ast.AST | None = None) -> set[str]:
    """Names and dotted attribute chains read in the module, outside skip."""
    inside = set() if skip is None else {id(n) for n in ast.walk(skip)}
    out = set()
    for node in ast.walk(tree):
        if id(node) in inside:
            continue
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            dotted = _dotted(node)
            if dotted is not None:
                out.add(dotted)
    return out


def _layers() -> set[str]:
    tree = ast.parse((ROOT / "perfbench" / "spans.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "LAYERS" for t in node.targets
        ):
            return {ast.literal_eval(k) for k in node.value.keys}
    raise AssertionError("perfbench/spans.py defines no LAYERS")


def _public_defs() -> list[tuple[str, str, ast.AST]]:
    return [
        (mod, node.name, node)
        for mod, tree in _modules().items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")
    ]


def _public_members() -> list[tuple[str, str, ast.FunctionDef]]:
    """(module, Class.member, definition) for each public method or property."""
    return [
        (mod, f"{cls.name}.{node.name}", node)
        for mod, tree in _modules().items()
        for cls in tree.body
        if isinstance(cls, ast.ClassDef)
        for node in cls.body
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")
    ]


def _attribute_names(tree: ast.AST, skip: ast.AST | None = None) -> set[str]:
    """Every name read as an attribute, x.name for any x, in tree outside skip."""
    inside = set() if skip is None else {id(n) for n in ast.walk(skip)}
    return {
        node.attr for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and id(node) not in inside
    }


def _constants() -> list[tuple[str, str, ast.AST]]:
    """(module, name, assignment) for each top-level NAME or _NAME assignment."""
    return [
        (mod, target.id, node)
        for mod, tree in _modules().items()
        for node in tree.body
        if isinstance(node, (ast.Assign, ast.AnnAssign))
        for target in (node.targets if isinstance(node, ast.Assign) else [node.target])
        if isinstance(target, ast.Name) and re.fullmatch(r"_?[A-Z][A-Z0-9_]*", target.id)
    ]


def _sources(tree: ast.Module) -> dict[str, tuple[str, str]]:
    """Bound name -> (module, name) for each name imported from a sibling module."""
    out = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module:
            for a in node.names:
                out[a.asname or a.name] = (node.module, a.name)
    return out


def _referenced(mod: str, name: str, node: ast.AST, modules: dict[str, ast.Module]) -> bool:
    if name in _uses(modules[mod], skip=node):
        return True
    for tree in modules.values():
        uses = _uses(tree)
        if any(b in uses for b, src in _sources(tree).items() if src == (mod, name)):
            return True
    return False


def _unreferenced() -> list[str]:
    modules, layers = _modules(), _layers()
    return [
        f"{mod}.{name}" for mod, name, node in _public_defs()
        if f"{mod}.{name}" not in layers and not _referenced(mod, name, node, modules)
    ]


def test_every_public_definition_has_a_caller_in_src():
    # an exception that gains a caller leaves the list
    assert _unreferenced() == sorted(EXCEPTIONS)


def test_every_public_member_has_a_caller_in_src():
    # by name only: a member counts as called when any object's attribute of
    # that name is read
    spans = _attribute_names(ast.parse((ROOT / "perfbench" / "spans.py").read_text()))
    modules = _modules()
    uncalled = [
        f"{mod}.{name}" for mod, name, node in _public_members()
        if node.name not in spans
        and not any(node.name in _attribute_names(tree, node) for tree in modules.values())
    ]
    assert uncalled == []


def test_every_module_constant_is_read():
    modules = _modules()
    unread = [
        f"{mod}.{name}" for mod, name, node in _constants()
        if not _referenced(mod, name, node, modules)
    ]
    assert unread == []


def test_only_model_applies_the_basis():
    # the state lives in coefficient space behind model.Energy: outside
    # spectral, which defines the products with phi, only model applies them
    callers = sorted(
        f"{mod}:{node.lineno}" for mod, tree in _modules().items()
        if mod not in {"spectral", "model"}
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
        and node.func.attr in {"matvec", "rmatvec"}
    )
    assert callers == []


def test_every_traced_layer_is_defined():
    defined = {f"{mod}.{name}" for mod, name, _ in _public_defs()}
    assert _layers() <= defined


@pytest.mark.parametrize("mod", sorted(p.stem for p in SRC.glob("*.py")))
def test_every_import_is_used(mod):
    tree = _modules()[mod]
    uses = _uses(tree)
    unused = [
        path for path in _imports(tree)
        if not any(u == path or u.startswith(path + ".") for u in uses)
    ]
    assert unused == []


def test_importing_the_cli_loads_no_lazy_scipy_subpackage():
    # a fresh interpreter: this one has loaded them for other tests
    code = ("import sys, fracfield.cli; "
            f"print(' '.join(m for m in {LAZY_SCIPY!r} if m in sys.modules))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(ROOT / "src")}, check=True)
    assert proc.stdout.split() == []
