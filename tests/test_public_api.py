"""Every public function and method in the package source has a caller there."""

import ast
from pathlib import Path

SOURCE = Path(__file__).resolve().parent.parent / "src" / "gaitpass"

# Public names kept without a caller in the package, each for a reason.
ALLOWED = {
    "local_code_from_text": "reads a persisted code book back; the reader "
                            "for code books enrolled from another recording",
    "SyntheticWalk.marker_onsets": "ground truth of a synthetic walk, read "
                                   "by tests",
    "SyntheticWalk.cycle_starts": "ground truth of a synthetic walk, read "
                                  "by tests",
}


def public_definitions(tree):
    """``(qualified name, name)`` of each public module function and method."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
            yield node.name, node.name
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    yield f"{node.name}.{item.name}", item.name


def names_used(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr


def test_every_public_definition_is_named_in_the_package():
    modules = sorted(p for p in SOURCE.glob("*.py") if p.name != "__init__.py")
    assert modules
    trees = {path.name: ast.parse(path.read_text()) for path in modules}
    used = {name for tree in trees.values() for name in names_used(tree)}
    uncalled = [
        f"{module}: {qualified}"
        for module, tree in trees.items()
        for qualified, name in public_definitions(tree)
        if name not in used and qualified not in ALLOWED
    ]
    assert uncalled == []

