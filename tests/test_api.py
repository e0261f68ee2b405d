"""The public API holds only what the package itself uses, and no module imports from above its layer."""

import ast
import pathlib

import bottlab

PACKAGE = pathlib.Path(bottlab.__file__).parent


def _referenced_names() -> set:
    """Every Name and Attribute name in the package modules other than ``__init__``.

    Comments and strings are not AST nodes, and a ``def`` or ``class``
    statement binds its name without referencing it, so a name counts only
    where some code uses it.
    """
    names = set()
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
    return names


def test_every_public_name_is_used_by_the_package():
    unused = sorted(set(bottlab.__all__) - _referenced_names())
    assert not unused, f"public names that no package module uses: {unused}"



# the package's modules, lowest layer first; ``__init__`` and ``__main__`` sit above them all
LAYERS = ("clifford", "graded", "funcalc", "oscillator", "verify", "cli")


def _package_imports(path: pathlib.Path) -> set:
    """The package modules that a module imports anywhere in its code, function bodies included,
    whether as ``from .m import x``, ``from . import m``, ``import bottlab.m`` or ``from bottlab.m``."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").startswith("bottlab")):
            module = (node.module or "").removeprefix("bottlab").lstrip(".")
            names = [module] if module else [a.name for a in node.names]
        else:
            continue
        found.update(n.removeprefix("bottlab.") for n in names if n.removeprefix("bottlab.") in LAYERS)
    return found


def test_no_module_imports_from_a_layer_above_it():
    assert sorted(p.stem for p in PACKAGE.glob("*.py") if not p.stem.startswith("__")) == sorted(LAYERS)
    upward = {m: sorted(i for i in _package_imports(PACKAGE / f"{m}.py") if LAYERS.index(i) > LAYERS.index(m))
              for m in LAYERS}
    assert not any(upward.values()), f"imports from a higher layer: {upward}"
