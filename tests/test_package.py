"""The library keeps no helper that only the tests use, and importing it
loads no heavy standard module."""

import ast
import subprocess
import sys
from pathlib import Path

import gtrel

SRC = Path(__file__).resolve().parent.parent / "src" / "gtrel"

# named by the benchmark's layer tracer, not called in src/
ALLOWED = {"shift_add"}


def test_every_top_level_function_is_used_in_src_or_exported():
    trees = {path.stem: ast.parse(path.read_text()) for path in SRC.glob("*.py")}
    used = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    unused = [
        "%s.%s" % (module, node.name)
        for module, tree in trees.items()
        for node in tree.body
        if isinstance(node, ast.FunctionDef)
        and node.name not in used
        and node.name not in gtrel.__all__
        and node.name not in ALLOWED
    ]
    assert unused == []


def test_import_loads_no_dataclasses_inspect_or_typing():
    # -S: no site-packages, so nothing but gtrel and what it imports loads
    code = (
        "import sys; sys.path.insert(0, %r); import gtrel, gtrel.cli; "
        "print(' '.join(sorted(sys.modules)))" % str(SRC.parent)
    )
    out = subprocess.run(
        [sys.executable, "-S", "-c", code], capture_output=True, text=True, check=True
    ).stdout.split()
    assert "gtrel.cli" in out
    assert [m for m in ("dataclasses", "inspect", "typing") if m in out] == []
