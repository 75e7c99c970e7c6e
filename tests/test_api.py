"""The package's public names, and no API, parameter or import that nothing
reads.

The pipeline keeps no surface that only the tests use: every public name and
every class attribute is read by a module of the package or of the
benchmark, every function of the package reads each of its parameters, and
no module imports a name it does not read.  The stages keep no module state:
no function of the package rebinds a module global.  The exceptions are
listed here, each with its reason.
"""

import ast
from pathlib import Path

import paretoscape

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "paretoscape"
MODULES = [p for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"]
# the modules whose reads count: the package's, and the benchmark's own
READERS = MODULES + [p for p in sorted((ROOT / "perfbench").glob("*.py"))
                     if not p.name.startswith("test_")]

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
    ("landscape", "export_decomposition_json", "f1"):
        "perfbench/chain.py passes them",
    ("landscape", "export_decomposition_json", "f2"):
        "perfbench/chain.py passes them",
}

# (class, attribute) that no module of the package or the benchmark loads
UNREAD_ATTRIBUTES = {
    ("BasinMap", "n_basins"): "equals n_components by construction until "
                              "per-component basins give it a meaning, or "
                              "it goes (ROADMAP, basins of attraction)",
    ("BasinMap", "stop_counts"): "the planned run report will read it "
                                 "(ROADMAP, library spans and --report)",
}

# (module, function) that rebinds a module global (a ``global`` statement)
GLOBAL_WRITERS = {
    ("grid", "_adopt"): "runs only in forked CSV workers",
}


def _trees(paths):
    return [ast.parse(p.read_text(), filename=str(p)) for p in paths]


def test_every_public_name_resolves():
    names = paretoscape.__all__
    assert len(names) == len(set(names))
    assert [n for n in names if not hasattr(paretoscape, n)] == []


def test_every_public_name_is_read_outside_the_tests():
    read = set()
    for tree in _trees(READERS):
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


def _class_attributes(tree: ast.Module):
    # dunder methods are called by the language, not loaded by name
    for cls in ast.walk(tree):
        if not isinstance(cls, ast.ClassDef):
            continue
        for node in cls.body:
            if isinstance(node, ast.AnnAssign) and isinstance(node.target,
                                                              ast.Name):
                yield cls.name, node.target.id
            elif (isinstance(node, ast.FunctionDef)
                  and not node.name.startswith("__")):
                yield cls.name, node.name


def test_every_class_attribute_is_loaded_outside_the_tests():
    """Every dataclass field, method and property of a package class is
    loaded as an attribute by a reader module.

    The match is by name alone, whatever the object: ``CriticalityMap.counts``
    passes only because ``perfbench/chain.py`` loads the unrelated
    ``Tracer.counts``, and ``CriticalityMap.div_tol`` only because
    ``paretoscape/cli.py`` loads ``RunConfig.div_tol``.
    """
    loaded = {n.attr for tree in _trees(READERS) for n in ast.walk(tree)
              if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)}
    paths = sorted(PACKAGE.glob("*.py"))
    unread = {a for tree in _trees(paths) for a in _class_attributes(tree)
              if a[1] not in loaded}
    assert unread == set(UNREAD_ATTRIBUTES)


def _unread_imports(tree: ast.Module):
    read = {n.id for n in ast.walk(tree)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                if name not in read:
                    yield name


def test_no_module_imports_a_name_it_does_not_read():
    paths = (MODULES + sorted((ROOT / "tests").glob("*.py"))
             + sorted((ROOT / "perfbench").glob("*.py")))
    unread = {(p.relative_to(ROOT).as_posix(), name)
              for p, tree in zip(paths, _trees(paths))
              for name in _unread_imports(tree)}
    assert unread == set()


def test_no_function_rebinds_a_module_global():
    paths = sorted(PACKAGE.glob("*.py"))
    writers = {(p.stem, fn.name) for p, tree in zip(paths, _trees(paths))
               for fn in ast.walk(tree) if isinstance(fn, ast.FunctionDef)
               and any(isinstance(n, ast.Global) for n in ast.walk(fn))}
    assert writers == set(GLOBAL_WRITERS)
