"""Every public function, method and defaulted parameter in the package
source has a caller there."""

import ast
from collections import defaultdict
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

# Defaulted parameters no call in the package passes, each for a reason.
ALLOWED_PARAMETERS = {
    "main(argv)": "tests and perfbench/run.py drive the CLI in process "
                  "through it",
    "cluster_columns(standardize)": "perfbench/spans.py keys its count of "
                                    "linkages per matrix on this argument; "
                                    "it goes when that count comes from an "
                                    "in-program trace",
}


def source_trees():
    modules = sorted(p for p in SOURCE.glob("*.py") if p.name != "__init__.py")
    assert modules
    return {path.name: ast.parse(path.read_text()) for path in modules}


def public_functions(tree):
    """``(qualified name, node, is method)`` of each public function and method."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
            yield node.name, node, False
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    yield f"{node.name}.{item.name}", item, True


def names_used(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr


def defaulted_parameters(node, is_method):
    """``(position or None, name)`` of each parameter with a default."""
    positional = node.args.posonlyargs + node.args.args
    if is_method:
        positional = positional[1:]
    first = len(positional) - len(node.args.defaults)
    for position, arg in enumerate(positional[first:], start=first):
        yield position, arg.arg
    for arg, default in zip(node.args.kwonlyargs, node.args.kw_defaults):
        if default is not None:
            yield None, arg.arg


def passed_arguments(trees):
    """Callee name -> the positions and keywords some call passes it.

    A call unpacking ``*args`` or ``**kwargs`` passes everything ("*").
    """
    passed = defaultdict(set)
    for tree in trees:
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            if isinstance(node.func, ast.Name):
                name = node.func.id
            elif isinstance(node.func, ast.Attribute):
                name = node.func.attr
            else:
                continue
            keywords = {kw.arg for kw in node.keywords}
            if None in keywords or any(
                isinstance(arg, ast.Starred) for arg in node.args
            ):
                keywords = {"*"}
            passed[name].update(keywords, range(len(node.args)))
    return passed


def test_every_public_definition_is_named_in_the_package():
    trees = source_trees()
    used = {name for tree in trees.values() for name in names_used(tree)}
    uncalled = [
        f"{module}: {qualified}"
        for module, tree in trees.items()
        for qualified, node, _ in public_functions(tree)
        if node.name not in used and qualified not in ALLOWED
    ]
    assert uncalled == []


def test_every_defaulted_parameter_is_passed_in_the_package():
    trees = source_trees()
    passed = passed_arguments(trees.values())
    unpassed = [
        f"{module}: {qualified}({param})"
        for module, tree in trees.items()
        for qualified, node, is_method in public_functions(tree)
        if qualified not in ALLOWED
        for position, param in defaulted_parameters(node, is_method)
        if not {"*", param, position} & passed[node.name]
        and f"{qualified}({param})" not in ALLOWED_PARAMETERS
    ]
    assert unpassed == []
