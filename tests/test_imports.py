"""Every module-level import in `sigfd` is used by the module that makes it.

No linter runs on this package, so a name left behind by a refactor would
otherwise go unnoticed.  The only exemptions are the names `bench/spans.py`
patches on a module (`SITES`): the tracer needs them there even when the
module no longer calls them.

The same holds for `PipelineConfig.meta`, which returns the config itself
and is kept only for `bench/workloads.py`: no `sigfd` module reads a
`.meta` attribute.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted((ROOT / "src" / "sigfd").glob("*.py"))


@pytest.fixture
def traced_names(bench_module):
    spans = bench_module("spans")
    return {(module.__name__, attr) for module, attr, _, _ in spans.SITES}


def _unused_imports(tree: ast.Module) -> set[str]:
    bound = set()
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound |= {(a.asname or a.name).split(".", 1)[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound |= {a.asname or a.name for a in node.names}
    loaded = {node.id for node in ast.walk(tree)
              if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return bound - loaded


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_level_imports_are_used(path, traced_names):
    module = f"sigfd.{path.stem}"
    unused = _unused_imports(ast.parse(path.read_text(encoding="utf-8")))
    assert {name for name in unused if (module, name) not in traced_names} == set()


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_module_reads_a_meta_attribute(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    reads = [node.lineno for node in ast.walk(tree)
             if isinstance(node, ast.Attribute) and node.attr == "meta"]
    assert reads == []
