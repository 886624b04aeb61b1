"""The benchmark tracer patches module globals by name; keep them there.

`bench/spans.py` replaces each `(module, attr)` in `SITES` with a timing
wrapper.  A name that moves or disappears would make the traced
benchmark fail with `AttributeError`, and a global the program stops
looking up would make its span read 0, so both are checked here.
"""

import importlib
import sys
from pathlib import Path

import numpy as np
import pytest

from sigfd import cli
from sigfd.descriptor import extract_features
from sigfd.imaging import GrayImage, save_image
from sigfd.recognition import Gallery, Template, save_gallery

BENCH = Path(__file__).resolve().parents[1] / "bench"


@pytest.fixture
def spans(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    return importlib.import_module("spans")


def test_every_trace_site_resolves_on_the_live_modules(spans):
    for module, attr, name, _ in spans.SITES:
        assert module is sys.modules[module.__name__]
        assert callable(getattr(module, attr, None)), f"{module.__name__}.{attr} ({name})"


def _triangle() -> GrayImage:
    """An ink triangle on paper: its dominant axis is tilted, so the deslant step rotates it."""
    px = np.full((64, 64), 255, dtype=np.uint8)
    px[20:44, 10:54] = np.where(np.tril(np.ones((24, 44), dtype=bool)), 40, 255)
    return GrayImage(px)


def test_extraction_passes_through_its_trace_sites(spans):
    tracer = spans.Tracer()
    tracer.install()
    try:
        with tracer.span("probe"):
            extract_features(_triangle())
    finally:
        tracer.remove()
    seen = {name for _, _, name, *_ in tracer.spans}
    for name in ("imaging.preprocess", "imaging.median_filter", "imaging.binarize",
                 "imaging.estimate_orientation", "imaging.rotate", "imaging.scale_normalize",
                 "descriptor.dft", "descriptor.normalize_descriptor"):
        assert name in seen


def test_cli_identify_reads_the_packed_gallery_without_descriptor_files(spans, tmp_path):
    fd = extract_features(_triangle())
    save_gallery(Gallery(fd.meta, (Template("a", "s0", fd),)), tmp_path / "gal")
    save_image(_triangle(), tmp_path / "probe.pgm")
    tracer = spans.Tracer()
    tracer.install()
    try:
        with tracer.span("cli-identify"):
            code = cli.run(["identify", str(tmp_path / "gal"), str(tmp_path / "probe.pgm")])
    finally:
        tracer.remove()
    assert code == 0
    stats = tracer.stats()
    assert stats["recognition.load_gallery"][0] == 1
    assert stats["recognition.identify"][0] == 1
    assert "descriptor.load_descriptor" not in stats
