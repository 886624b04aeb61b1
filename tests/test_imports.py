"""Every module-level import in `sigfd` is used by the module that makes it.

No linter runs on this package, so a name left behind by a refactor would
otherwise go unnoticed.  The only exemptions are the names `bench/spans.py`
patches on a module (`SITES`): the tracer needs them there even when the
module no longer calls them.

The same holds for `PipelineConfig.meta`, which returns the config itself
and is kept only for `bench/workloads.py`: no `sigfd` module reads a
`.meta` attribute.

No `sigfd` module reads a private (`_`-prefixed) attribute of a module it
imports whole, such as `argparse._SubParsersAction`: those change between
Python and numpy releases without notice.

Importing the command line leaves `numpy.random` unloaded, so a fresh
`sigfd` process pays for it only when it generates or evaluates.
"""

import ast
import os
import subprocess
import sys
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


def _private_module_reads(tree: ast.Module) -> list[str]:
    """`module._name` reads, for every module bound by `import X` or `import X as Y`."""
    modules = {a.asname or a.name.split(".", 1)[0] for node in ast.walk(tree)
               if isinstance(node, ast.Import) for a in node.names}
    reads = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Attribute) or not node.attr.startswith("_") \
                or node.attr.endswith("__"):
            continue
        root = node.value
        while isinstance(root, ast.Attribute):
            root = root.value
        if isinstance(root, ast.Name) and root.id in modules:
            reads.append(f"{ast.unparse(node)} (line {node.lineno})")
    return reads


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_module_reads_a_private_attribute_of_an_imported_module(path):
    assert _private_module_reads(ast.parse(path.read_text(encoding="utf-8"))) == []


def test_importing_the_cli_does_not_load_numpy_random():
    """numpy.random loads only when the synthetic generator or `evaluate` runs.

    `secrets` (with `hmac`) does not load at all: the gallery's temporary
    manifest is named from `os.urandom`.
    """
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}
    loaded = subprocess.run([sys.executable, "-c",
                             "import sys, sigfd.cli; "
                             "print([m for m in ('numpy.random', 'secrets') if m in sys.modules])"],
                            env=env, capture_output=True, text=True, timeout=60, check=True)
    assert loaded.stdout == "[]\n"
