import importlib
from pathlib import Path

import pytest


@pytest.fixture
def bench_module(monkeypatch):
    """`importlib.import_module` with the benchmark's own `bench/` on the path."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "bench"))
    return importlib.import_module
