"""The package's surface is what its tasks run.

Every public top-level function or class in src/fracfield must be referenced
in code, not in a docstring, somewhere in the package outside its own
definition, or be a layer that perfbench/spans.py traces;
EXCEPTIONS names the ones that wait for a caller. Every public method or
property of a class there must be read as an attribute of that name in the
package outside its own definition, or in perfbench/spans.py. Code that only
tests call belongs in tests/. Every name a module imports must be used by
that module, and every module-level constant must be read somewhere in the
package. Outside spectral, only model calls the basis's operator and green,
and no module reads its blocks or frame. A Field is its domain and nodal
values. Outside domain, the mask's symmetries (GridDomain.symmetries) are
read only by spectral._parity_frames, topology.symmetry_group and
topology.moving_mirrors.
Importing the CLI loads none of the scipy subpackages that only some tasks
call (LAZY_SCIPY): the functions that call them import them. verify-extension
loads neither scipy.integrate nor scipy.optimize. README's
library example runs as written.
"""

from __future__ import annotations

import ast
import dataclasses
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from fracfield.spectral import Field

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "fracfield"

# mass_clusters waits for its caller: the census's cluster counts in the
# results JSON (ROADMAP item 3(a))
EXCEPTIONS = {"topology.mass_clusters"}

# verify-extension loads scipy.special (extension.BesselProfile) and neither
# scipy.integrate nor scipy.optimize; no task needs scipy.ndimage, which loads
# scipy.special too
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
    # the state lives behind model.Energy: outside spectral, which defines
    # the operator L = A^alpha + I and the Green operator G = L^-1, only model
    # applies them (restricted to a mirror's fixed-point subspace too, by a
    # pair average on nodal values), and no module reads the blocks or the
    # frame they are kept in, so a basis that applies L and G another way
    # changes spectral alone
    products = {"operator", "green"}
    callers = sorted(
        f"{mod}:{node.lineno}" for mod, tree in _modules().items()
        if mod not in {"spectral", "model"}
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
        and node.func.attr in products
    )
    assert callers == []
    layout = {"operator_blocks", "green_blocks", "frame", "_frame_t", "_bounds"}
    assert set().union(*(_attribute_readers(attr) for attr in layout)) <= {"spectral"}


def _attribute_readers(attr: str) -> set[str]:
    return {
        mod for mod, tree in _modules().items()
        if any(isinstance(node, ast.Attribute) and node.attr == attr for node in ast.walk(tree))
    }


def test_a_field_is_its_nodal_values():
    # no coefficient representation is kept beside the nodal one
    assert [f.name for f in dataclasses.fields(Field)] == ["dom", "values"]
    assert _attribute_readers("coeffs") == set()


def test_only_parity_frames_symmetry_group_and_moving_mirrors_read_the_symmetries():
    # outside domain, which finds them once per domain, the mask's symmetries
    # are read in three named places, once each: spectral._parity_frames,
    # which splits the basis by them, topology.symmetry_group, the whole group
    # for the orbit descents and clustering, and topology.moving_mirrors, the
    # axis mirrors with their node permutations for the band saddle's
    # restriction. A read at module level names the module
    readers = sorted(
        f"{mod}.{getattr(top, 'name', '<module>')}" for mod, tree in _modules().items()
        if mod != "domain"
        for top in tree.body
        for node in ast.walk(top)
        if isinstance(node, ast.Attribute) and node.attr == "symmetries"
    )
    assert readers == ["spectral._parity_frames", "topology.moving_mirrors",
                       "topology.symmetry_group"]


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


def test_verify_extension_loads_neither_integrate_nor_optimize(tmp_path):
    # a fresh interpreter, as above; the profile is a closed form in scipy.special
    code = ("import sys; from fracfield.cli import main; "
            f"code = main(['verify-extension', '--out', {str(tmp_path)!r}, '--quiet']); "
            "print(' '.join(m for m in ('scipy.integrate', 'scipy.optimize') if m in sys.modules)); "
            "sys.exit(code)")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(ROOT / "src")}, check=True)
    assert proc.stdout.split() == []


def test_readme_library_use_block_runs(capsys):
    # the README's one code example, run as written: a ground state on a
    # disk is a manifold minimum, so its printed Morse index is 1
    readme = (ROOT / "README.md").read_text()
    block = re.search(r"^## Library use\n\n```python\n(.*?)^```", readme, re.M | re.S)
    assert block is not None
    exec(compile(block.group(1), "README.md", "exec"), {})
    assert capsys.readouterr().out.split()[-1] == "1"
