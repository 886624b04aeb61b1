import importlib
from pathlib import Path

import pytest

from sigfd.descriptor import save_descriptor


def _write_v1_gallery(gallery, root) -> Path:
    """Write `gallery` in the read-only v1 layout: a one-line manifest plus
    <root>/<identity>/<sample_id>.sigfd per template."""
    root = Path(root)
    root.mkdir(parents=True, exist_ok=True)
    meta = gallery.meta
    (root / "MANIFEST.siggal").write_text(
        f"SIGGAL v1 {meta.family.value} {meta.levels} {meta.k}\n", encoding="ascii")
    for t in gallery.templates:
        (root / t.identity).mkdir(exist_ok=True)
        save_descriptor(t.descriptor, root / t.identity / f"{t.sample_id}.sigfd")
    return root


@pytest.fixture(scope="session")
def write_v1_gallery():
    return _write_v1_gallery


def _write_v2_gallery(gallery, root) -> Path:
    """Write `gallery` in the read-only v2 layout: a `SIGGAL v2 <family> <levels>
    <k> <count>` header, one `<identity> <sample_id>` index line per template in
    enrollment order, then the count x k magnitudes as `<f8`."""
    root = Path(root)
    root.mkdir(parents=True, exist_ok=True)
    meta = gallery.meta
    lines = [f"SIGGAL v2 {meta.family.value} {meta.levels} {meta.k} {len(gallery.identities)}"]
    lines += [f"{i} {s}" for i, s in zip(gallery.identities, gallery.sample_ids)]
    (root / "MANIFEST.siggal").write_bytes(("\n".join(lines) + "\n").encode("ascii")
                                           + gallery.magnitudes.astype("<f8").tobytes())
    return root


@pytest.fixture(scope="session")
def write_v2_gallery():
    return _write_v2_gallery


@pytest.fixture
def bench_module(monkeypatch):
    """`importlib.import_module` with the benchmark's own `bench/` on the path."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "bench"))
    return importlib.import_module
