"""The public API holds only what the package itself uses."""

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

