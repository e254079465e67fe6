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
