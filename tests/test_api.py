"""The package's public names, and no API or parameter that nothing reads.

The pipeline keeps no surface that only the tests use: every public name is
read by a module of the package or of the benchmark, and every function of
the package reads each of its parameters.  The exceptions are listed here,
each with its reason.
"""

import ast
from pathlib import Path

import paretoscape

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "paretoscape"

# public names that no module of the package or the benchmark reads
UNREAD_NAMES = {
    "origin_in_hull": "the documented exact hull predicate: the exhaustive "
                      "oracle checks it, and interior_criticality is tested "
                      "against it",
}

# (module, function, parameter) that the function's body does not read
UNREAD_PARAMETERS = {
    ("gradients", "build_fieldset", "workers"): "perfbench/chain.py passes it",
    ("grid", "evaluate_grid", "workers"): "perfbench/chain.py passes it",
}


def _trees(paths):
    return [ast.parse(p.read_text(), filename=str(p)) for p in paths]


def test_every_public_name_resolves():
    names = paretoscape.__all__
    assert len(names) == len(set(names))
    assert [n for n in names if not hasattr(paretoscape, n)] == []


def test_every_public_name_is_read_outside_the_tests():
    readers = ([p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"]
               + [p for p in (ROOT / "perfbench").glob("*.py")
                  if not p.name.startswith("test_")])
    read = set()
    for tree in _trees(readers):
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx,
                                                                ast.Load):
                read.add(node.attr)
    assert {n for n in paretoscape.__all__ if n not in read} == set(UNREAD_NAMES)


def _unread_parameters(module: str, tree: ast.Module):
    # a method's receiver is bound by the call, so it is left out
    receivers = {id(f.args.args[0]) for c in ast.walk(tree)
                 if isinstance(c, ast.ClassDef) for f in c.body
                 if isinstance(f, ast.FunctionDef) and f.args.args}
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.Lambda)):
            continue
        a = fn.args
        body = fn.body if isinstance(fn.body, list) else [fn.body]
        read = {n.id for stmt in body for n in ast.walk(stmt)
                if isinstance(n, ast.Name)}
        for arg in a.posonlyargs + a.args + a.kwonlyargs + [
                v for v in (a.vararg, a.kwarg) if v]:
            if id(arg) not in receivers and arg.arg not in read:
                yield module, getattr(fn, "name", "<lambda>"), arg.arg


def test_every_parameter_is_read_in_its_body():
    paths = sorted(PACKAGE.glob("*.py"))
    unread = {u for p, tree in zip(paths, _trees(paths))
              for u in _unread_parameters(p.stem, tree)}
    assert unread == set(UNREAD_PARAMETERS)
