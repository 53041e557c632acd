"""Every function, class and method in the package is used by the package,
every error class is raised, the CLI reaches its data and its graph through
one call site each, and one loop applies the layer rule."""

import ast
from pathlib import Path

import angcn


def definitions(tree):
    """(name, first line, last line) of each module-level function or class
    and each non-dunder method of a module-level class."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node.lineno, node.end_lineno
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if (isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and not (item.name.startswith("__") and item.name.endswith("__"))):
                    yield f"{node.name}.{item.name}", item.lineno, item.end_lineno


def references(tree):
    """(name, line) of each name read or attribute taken in a module."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno


def test_every_definition_is_referenced_outside_itself():
    # a helper that only tests call is code no command runs: the tests should
    # check the property through what the package uses instead
    trees = {path.name: ast.parse(path.read_text(), filename=str(path))
             for path in sorted(Path(angcn.__file__).parent.glob("*.py"))}
    refs = [(module, name, line) for module, tree in trees.items()
            for name, line in references(tree)]
    unused = [f"{module}:{first}: {qualified}"
              for module, tree in trees.items()
              for qualified, first, last in definitions(tree)
              if not any(name == qualified.rpartition(".")[2]
                         and not (where == module and first <= line <= last)
                         for where, name, line in refs)]
    assert unused == []


def test_every_error_class_is_raised():
    # a refusal that no input can reach is deleted, and an error class that
    # nothing raises any more goes with it
    package = Path(angcn.__file__).parent
    classes = [node.name for node in ast.parse((package / "errors.py").read_text()).body
               if isinstance(node, ast.ClassDef)]
    raised = set()
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                raised.add(getattr(exc, "attr", None) or getattr(exc, "id", None))
    assert [name for name in classes if name not in raised] == []


def called(tree):
    """The name of each function called in a module, once per call site."""
    return [node.func.attr if isinstance(node.func, ast.Attribute) else node.func.id
            for node in ast.walk(tree) if isinstance(node, ast.Call)
            and isinstance(node.func, (ast.Attribute, ast.Name))]


def test_cli_reads_data_and_makes_graphs_at_one_site_each():
    # every command, eval included, goes from --data to its graph through one
    # function: a second call site would be a second recipe for the graph
    calls = called(ast.parse((Path(angcn.__file__).parent / "cli.py").read_text()))
    names = ("load_bundle", "load_adjacency", "build_adjacency", "rfe_ridge")
    assert {name: calls.count(name) for name in names} == dict.fromkeys(names, 1)


def test_the_layer_rule_is_applied_at_one_site():
    # one weight set and many go through the same layer loop: a second call
    # site would be a second loop body to keep in step with the first
    calls = [name for path in sorted(Path(angcn.__file__).parent.glob("*.py"))
             for name in called(ast.parse(path.read_text()))]
    assert calls.count("layer_forward") == 1
