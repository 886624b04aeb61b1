"""The benchmark tracer patches module globals by name; keep them there.

`bench/spans.py` replaces each `(module, attr)` in `SITES` with a timing
wrapper.  A name that moves or disappears would make the traced
benchmark fail with `AttributeError`, and a global the program stops
looking up would make its span read 0, so both are checked here.
"""

import sys

import numpy as np
import pytest

from sigfd import cli, recognition
from sigfd.descriptor import extract_features
from sigfd.imaging import GrayImage, save_image
from sigfd.metrics import DistanceMeasure
from sigfd.recognition import Gallery, SynthSpec, Template, generate_synthetic, save_gallery
from sigfd.wavelet import WaveletFamily


@pytest.fixture
def spans(bench_module):
    return bench_module("spans")


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


def test_evaluate_preprocesses_each_image_once_and_describes_it_per_family(spans):
    dataset = generate_synthetic(SynthSpec(n_identities=3, samples_per_identity=3, seed=4))
    families = (WaveletFamily.HAAR, WaveletFamily.DB8, WaveletFamily.SYM8)
    tracer = spans.Tracer()
    tracer.install()
    try:
        with tracer.span("evaluate-grid"):
            recognition.evaluate(dataset, [DistanceMeasure("manhattan")], families, train_k=1)
    finally:
        tracer.remove()
    stats = tracer.stats()
    assert stats["recognition.evaluate"][0] == 1
    assert stats["imaging.preprocess"][0] == 9
    assert stats["descriptor.dft"][0] == 9 * len(families)
    assert stats["descriptor.normalize_descriptor"][0] == 9 * len(families)


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
