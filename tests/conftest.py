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
