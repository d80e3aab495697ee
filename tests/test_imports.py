"""Source hygiene: every top-level import of the package is used, and every
top-level constant is read."""

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


def _unread_constants(paths) -> list:
    """Top-level ALL_CAPS names assigned in the modules that no module reads.

    A read is a loaded name or an attribute of that name anywhere in the
    package, so `DENSE_SITES` in its own module and `inversion.DENSE_SITES`
    elsewhere both count; tests do not.
    """
    trees = {path: ast.parse(path.read_text()) for path in paths}
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
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
