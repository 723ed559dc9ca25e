"""Every module-level public name of the package has a reader in the program,
and every annotation in the package resolves.

The program is `src/g2soliton` and `perfbench`; the tests do not count, so a
name that only tests read is dead code unless it is listed in TEST_REFERENCES
with the reason it is kept.
"""

import ast
import importlib
import importlib.util
import inspect
import typing
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "g2soliton"
PROGRAM = [*sorted(PACKAGE.glob("*.py")), *sorted((ROOT / "perfbench").glob("*.py"))]

# names kept for the tests alone, each a route the tests check the program against
TEST_REFERENCES = {
    ("akns", "gmkdv_jet_residual"): "the real-convention flow residual that v -> i v maps onto the signed one",
    ("elliptic", "sn_second_derivative_residual"): "the second-order sn ODE, beside the first-order one",
    ("elliptic", "weierstrass_p"): "P(u) against its Laurent term, a trigonometric closed form and P'",
    ("elliptic", "weierstrass_p_prime"): "P'(u) against a finite difference of P",
}


def _module_names(tree) -> set:
    """Public names a module defines or assigns at its top level."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            for target in node.targets if isinstance(node, ast.Assign) else [node.target]:
                names.update(n.id for n in ast.walk(target) if isinstance(n, ast.Name))
    return {name for name in names if not name.startswith("_")}


def _locals(fn) -> set:
    args = fn.args
    names = {a.arg for a in [*args.posonlyargs, *args.args, *args.kwonlyargs, args.vararg, args.kwarg] if a}
    for n in ast.walk(fn):
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store):
            names.add(n.id)
    return names


def _reads(path: Path, tree) -> set:
    """(module, name) pairs this file reads, outside each name's own definition."""
    own = path.stem if path.parent == PACKAGE else None
    defined = _module_names(tree) if own else set()
    imported, modules = {}, set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").startswith("g2soliton")):
            source = (node.module or "").removeprefix("g2soliton").lstrip(".")
            for alias in node.names:
                if source:
                    imported[alias.asname or alias.name] = (source, alias.name)
                else:  # `from g2soliton import identities` or `from . import x`
                    modules.add(alias.asname or alias.name)
    reads = set()

    def visit(node, scopes, inside):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not scopes and not inside:
            inside = node.name
        if isinstance(node, ast.FunctionDef):
            scopes = scopes + [_locals(node)]
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            if node.id in imported:
                reads.add(imported[node.id])
            elif node.id in defined and node.id != inside and not any(node.id in s for s in scopes):
                reads.add((own, node.id))
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in modules:
            reads.add((node.value.id, node.attr))
        elif isinstance(node, ast.Tuple) and len(node.elts) > 1:
            # patch tables name an attribute as (module, "name", ...)
            head, name = node.elts[:2]
            if isinstance(head, ast.Name) and head.id in modules and isinstance(name, ast.Constant):
                reads.add((head.id, name.value))
        for child in ast.iter_child_nodes(node):
            visit(child, scopes, inside)

    visit(tree, [], None)
    return reads


def test_every_public_name_has_a_program_reader():
    trees = {path: ast.parse(path.read_text(encoding="utf-8")) for path in PROGRAM}
    reads = set().union(*(_reads(path, tree) for path, tree in trees.items()))
    public = {(path.stem, name) for path, tree in trees.items() if path.parent == PACKAGE
              for name in _module_names(tree)}
    dead = sorted(public - reads - set(TEST_REFERENCES))
    assert dead == [], f"public names no program path reads: {dead}"
    assert set(TEST_REFERENCES) <= public, "a listed test reference no longer exists"


def test_benchmark_patch_points_resolve_to_program_functions():
    # the traced benchmark wraps each (owner, attribute); a method the program
    # lost would resolve to one inherited from object, and its layer would read 0
    spec = importlib.util.spec_from_file_location("perfbench_tracing", ROOT / "perfbench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    checked = 0
    for owner, attr, _ in tracing.PATCH_POINTS:
        if not getattr(owner, "__module__", getattr(owner, "__name__", "")).startswith("g2soliton"):
            continue  # numpy's FFT
        fn = getattr(owner, attr)
        assert inspect.isfunction(fn) and fn.__module__.startswith("g2soliton"), (owner, attr)
        checked += 1
    assert checked == len(tracing.PATCH_POINTS) - 2


def _functions_and_methods(module):
    """The functions a module defines and the methods of its classes."""
    for obj in vars(module).values():
        if getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj):
            yield obj
        elif inspect.isclass(obj):
            for member in vars(obj).values():
                member = getattr(member, "__func__", member)  # staticmethod, classmethod
                member = getattr(member, "fget", member)  # property
                if inspect.isfunction(member):
                    yield member


def test_every_annotation_resolves():
    # under `from __future__ import annotations` an annotation is text until
    # read, so a name the module never imports fails only its readers
    unresolved = []
    for path in sorted(PACKAGE.glob("*.py")):
        module = importlib.import_module(f"g2soliton.{path.stem}")
        for fn in _functions_and_methods(module):
            try:
                typing.get_type_hints(fn)
            except NameError as exc:
                unresolved.append(f"{fn.__module__}.{fn.__qualname__}: {exc}")
    assert unresolved == []
