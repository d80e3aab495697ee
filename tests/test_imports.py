"""Source hygiene: every top-level import of the package is used, every
top-level constant is read, every private function, class and method is
referenced, and no module keeps state on other objects' __dict__ or in weak
references."""

import ast
import re
from pathlib import Path

import nilconv

SOURCES = sorted(Path(nilconv.__file__).parent.glob("*.py"))


def _unused_imports(path: Path) -> list:
    """Names bound by top-level imports of one module that nothing in it reads.

    A name counts as read when it occurs as a name anywhere in the module or
    is listed in its __all__.  An import line marked `# noqa: F401` is a
    deliberate re-export and is exempt; `from __future__` imports are too.
    """
    text = path.read_text()
    lines = text.splitlines()
    tree = ast.parse(text)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used |= set(ast.literal_eval(node.value))
    out = []
    for node in tree.body:
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        for alias in node.names:
            name = (alias.asname or alias.name).split(".")[0]
            if name not in used and "noqa: F401" not in lines[alias.lineno - 1]:
                out.append(f"{path.name}:{alias.lineno}: {name}")
    return out


def test_no_unused_top_level_imports():
    assert len(SOURCES) > 5
    unused = [u for path in SOURCES for u in _unused_imports(path)]
    assert not unused, unused


def _reads(trees) -> set:
    """Loaded names and attribute names anywhere in the parsed modules."""
    read = set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    return read


def _unread_constants(paths) -> list:
    """Top-level ALL_CAPS names assigned in the modules that no module reads.

    A read is a loaded name or an attribute of that name anywhere in the
    package, so `DENSE_SITES` in its own module and `inversion.DENSE_SITES`
    elsewhere both count; tests do not.
    """
    trees = {path: ast.parse(path.read_text()) for path in paths}
    read = _reads(trees.values())
    out = []
    for path, tree in trees.items():
        for node in tree.body:
            targets = node.targets if isinstance(node, ast.Assign) else [
                getattr(node, "target", None)]
            for t in targets:
                if (isinstance(t, ast.Name) and re.fullmatch(r"[A-Z][A-Z0-9_]*", t.id)
                        and t.id not in read):
                    out.append(f"{path.name}:{node.lineno}: {t.id}")
    return out


def test_no_unread_top_level_constants(tmp_path):
    unread = _unread_constants(SOURCES)
    assert not unread, unread
    # the scan sees a constant that only its own assignment mentions
    mod = tmp_path / "mod.py"
    mod.write_text("USED = 1\nSTALE: int = 2\nprint(USED)\n")
    assert _unread_constants([mod]) == ["mod.py:2: STALE"]


def _unreferenced_private(paths) -> list:
    """Private top-level functions and classes, and private methods, of the
    modules that no module references.

    Private means one leading underscore (not a dunder).  A reference is a
    read as in _unread_constants: `_orth` loaded anywhere, or `self._rows`
    and `block._reversed` as attributes; a definition does not read itself,
    and tests do not count.
    """
    trees = {path: ast.parse(path.read_text()) for path in paths}
    read = _reads(trees.values())
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    out = []
    for path, tree in trees.items():
        for node in tree.body:
            methods = node.body if isinstance(node, ast.ClassDef) else []
            for d in [node, *methods]:
                if (isinstance(d, defs) and re.fullmatch(r"_(?!_)\w*", d.name)
                        and d.name not in read):
                    out.append(f"{path.name}:{d.lineno}: {d.name}")
    return out


def test_no_unreferenced_private_definitions(tmp_path):
    unreferenced = _unreferenced_private(SOURCES)
    assert not unreferenced, unreferenced
    # the scan sees a private function and a private method nothing calls,
    # and leaves dunders and referenced names alone
    mod = tmp_path / "mod.py"
    mod.write_text("def _used():\n    pass\n\n\ndef _stale():\n    pass\n\n\n"
                   "class _Kept:\n    def __init__(self):\n        pass\n\n"
                   "    def _call(self):\n        return _used()\n\n"
                   "    def _gone(self):\n        pass\n\n\nprint(_Kept()._call())\n")
    assert _unreferenced_private([mod]) == ["mod.py:5: _stale", "mod.py:16: _gone"]


def _side_caches(paths) -> list:
    """Lines of the modules that mention __dict__ or weakref.

    A prepared op owns its blocks and what they cache; a cache kept on
    another object's __dict__ (a GridSpec's, say) or found again through
    weak references would outlive or bypass that owner.  cached_property
    stays allowed: it caches on the object it belongs to.
    """
    out = []
    for path in paths:
        for i, line in enumerate(path.read_text().splitlines(), 1):
            if re.search(r"__dict__|weakref", line):
                out.append(f"{path.name}:{i}")
    return out


def test_no_side_caches(tmp_path):
    found = _side_caches(SOURCES)
    assert not found, found
    # the scan sees both words, in code and in text
    mod = tmp_path / "mod.py"
    mod.write_text("import weakref\n\n\ndef f(spec):\n    return spec.__dict__\n\n\n"
                   "def g():\n    pass  # __dict__\n")
    assert _side_caches([mod]) == ["mod.py:1", "mod.py:5", "mod.py:9"]
