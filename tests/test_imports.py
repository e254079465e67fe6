import ast
import os

import dynframe

SRC = os.path.dirname(dynframe.__file__)


def _unused_imports(source):
    """Names that source imports and never reads, sorted.

    A name counts as used when it appears as a name anywhere in the
    module (an attribute chain starts with one) or, in a package
    __init__, when __all__ lists it for export.
    """
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                getattr(target, "id", None) == "__all__" for target in node.targets):
            used.update(ast.literal_eval(node.value))
    return sorted(imported - used)


def test_every_imported_name_is_used():
    # no linter is assumed to be installed, so tier-1 checks this itself;
    # the first line shows the check sees an unused import at all
    assert _unused_imports("import os, sys\nfrom a import b as c, d\nsys.exit(d)\n") == ["c", "os"]
    unused = {}
    for name in sorted(os.listdir(SRC)):
        if name.endswith(".py"):
            with open(os.path.join(SRC, name)) as fh:
                names = _unused_imports(fh.read())
            if names:
                unused[name] = names
    assert unused == {}


def _statements(source):
    """(private names defined, names read) for each top-level statement.

    A private name is a module-level function, class or constant whose
    name starts with one underscore.  A name is read as a name or as an
    attribute (dynamics._orbits reads _orbits).
    """
    out = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        else:
            targets = getattr(node, "targets", [getattr(node, "target", None)])
            names = [t.id for t in targets if isinstance(t, ast.Name)]
        read = set()
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
                read.add(sub.id)
            elif isinstance(sub, ast.Attribute):
                read.add(sub.attr)
        out.append(([n for n in names if n.startswith("_") and not n.startswith("__")], read))
    return out


def _unreferenced(sources):
    """Private names of sources (file name -> text) that no other statement
    of any of them reads, as sorted 'file:name' strings."""
    stmts = {name: _statements(text) for name, text in sources.items()}
    reads = [(name, i, read) for name, rows in stmts.items()
             for i, (_, read) in enumerate(rows)]
    return sorted(f"{name}:{private}" for name, rows in stmts.items()
                  for i, (defined, _) in enumerate(rows) for private in defined
                  if not any(private in read for other, j, read in reads
                             if (other, j) != (name, i)))


def test_every_private_name_is_referenced():
    # a private helper that only its own body reads, or that nothing
    # reads, is dead; the first line shows the check sees one at all
    assert _unreferenced({
        "a.py": "def _loop(): return _loop()\n_K = 1\n_M = 2\ndef f(): return _K\n",
        "b.py": "from . import a\nprint(a._M)\n"}) == ["a.py:_loop"]
    sources = {}
    for name in sorted(os.listdir(SRC)):
        if name.endswith(".py"):
            with open(os.path.join(SRC, name)) as fh:
                sources[name] = fh.read()
    assert _unreferenced(sources) == []
