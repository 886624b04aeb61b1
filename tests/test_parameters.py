"""Every public config takes any value: a finite answer, a typed error, or a refusal.

Each property draws a config's fields from their whole accepted range,
extremes and subnormals included, with at most one field drawn instead
from values of the wrong type (bool, float, str, None) or out of range.
A value the config refuses must raise `ValueError` or a `SigfdError` when
the config is built; a config it accepts must give a finite result or a
`SigfdError`, never a raw Python or numpy error.  Images stay small:
huge target sizes and median windows are checked at construction only,
since running one would allocate gigabytes.
"""

import math
import sys

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sigfd.descriptor import PipelineConfig, extract_features
from sigfd.errors import SigfdError
from sigfd.imaging import GrayImage, PreprocessConfig, preprocess
from sigfd.metrics import MEASURE_NAMES, DistanceMeasure, distance
from sigfd.recognition import SynthSpec, evaluate, generate_synthetic
from sigfd.wavelet import WaveletFamily

TOP = sys.float_info.max
WRONG = st.booleans() | st.floats() | st.text(max_size=3) | st.none()
HUGE_INTS = st.sampled_from([2**31 - 1, 2**62 + 1, 2**63, 10**400 + 1])
NUMBERS = (st.floats(allow_subnormal=True) | st.integers(-3, 3) | HUGE_INTS
           | st.sampled_from([5e-324, TOP, TOP / 2]))
# the largest extent or median window that a property runs, not only builds
SMALL = 64


@st.composite
def _fields(draw, valid: dict, wrong: dict) -> dict:
    """One value per field from `valid`, except at most one field drawn from `wrong`."""
    broken = draw(st.none() | st.sampled_from(sorted(valid)))
    return {name: draw(wrong[name] if name == broken else valid[name]) for name in valid}


def _built(make):
    """`make()`, or None when it refuses with a `ValueError` or a `SigfdError`."""
    try:
        return make()
    except (ValueError, SigfdError):
        return None


def _image(seed: int) -> GrayImage:
    """A 24x20 scan with a few random strokes of ink."""
    px = np.full((20, 24), 255, dtype=np.uint8)
    rng = np.random.default_rng(seed)
    for _ in range(3):
        r, c = rng.integers(2, 18), rng.integers(2, 20)
        px[r, c - 2:c + 3] = rng.integers(0, 120)
        px[r - 2:r + 3, c] = rng.integers(0, 120)
    return GrayImage(px)


_POWERS = st.sampled_from([1, 2, 8, 32, 64, 2**40, 2**62])
_PREPROCESS = (
    {"median_window": st.integers(0, 4).map(lambda n: 2 * n + 1) | st.just(2**61 + 1),
     "target_size": st.tuples(_POWERS, _POWERS),
     "slant_enabled": st.booleans(),
     "binarize_threshold": st.none() | st.integers(0, 255)},
    {"median_window": st.integers(-3, 4) | HUGE_INTS | WRONG,
     "target_size": st.tuples(st.integers(-1, 3) | WRONG, _POWERS) | st.tuples(_POWERS)
     | st.lists(_POWERS, min_size=2, max_size=2) | WRONG,
     "slant_enabled": st.integers(0, 1) | WRONG,
     "binarize_threshold": st.integers(-2, -1) | st.integers(256, 257) | HUGE_INTS | WRONG})


@settings(deadline=None, max_examples=150)
@given(fields=_fields(*_PREPROCESS), seed=st.integers(0, 2**32 - 1))
@example(fields={"median_window": True, "target_size": (8, 8), "slant_enabled": True,
                 "binarize_threshold": None}, seed=0)
@example(fields={"median_window": 3, "target_size": (8, 8), "slant_enabled": True,
                 "binarize_threshold": True}, seed=0)
def test_preprocess_config_refuses_or_preprocesses(fields, seed):
    pre = _built(lambda: PreprocessConfig(**fields))
    if pre is None or max(*pre.target_size, pre.median_window) > SMALL:
        return
    try:
        out = preprocess(_image(seed), pre)
    except SigfdError:
        return
    assert (out.width, out.height) == pre.target_size


_PIPELINE = (
    {"family": st.sampled_from(list(WaveletFamily)),
     "levels": st.integers(1, 6),
     "k": st.integers(2, 300),
     "size": st.tuples(st.sampled_from([4, 16, 32, 64]), st.sampled_from([8, 32, 2**40]))},
    {"family": st.sampled_from(["sym8", "db3"]) | WRONG,
     "levels": st.integers(-1, 0) | st.integers(7, 70) | HUGE_INTS | WRONG,
     "k": st.integers(-1, 1) | HUGE_INTS | WRONG,
     "size": st.tuples(st.integers(-1, 3), st.sampled_from([8, 32]))})


@settings(deadline=None, max_examples=150)
@given(fields=_fields(*_PIPELINE), seed=st.integers(0, 2**32 - 1))
@example(fields={"family": WaveletFamily.SYM8, "levels": True, "k": 8, "size": (64, 64)}, seed=0)
def test_pipeline_config_refuses_or_extracts_finite_magnitudes(fields, seed):
    size = fields.pop("size")
    config = _built(lambda: PipelineConfig(**fields,
                                           preprocess=PreprocessConfig(target_size=size)))
    if config is None or max(size) > SMALL:
        return
    try:
        mags = extract_features(_image(seed), config).magnitudes
    except SigfdError:
        return
    assert mags.shape == (config.k,) and np.isfinite(mags).all()


_MEASURE = (
    {"name": st.sampled_from(MEASURE_NAMES),
     # the smallest order with a finite 1/p is a subnormal
     "p": st.floats(float(np.nextafter(1 / TOP, 1.0)), TOP, allow_subnormal=True)
     | st.integers(1, 10**308)},
    {"name": st.sampled_from(["cosine", "Manhattan"]) | WRONG,
     "p": NUMBERS | WRONG})


@settings(deadline=None, max_examples=200)
@given(fields=_fields(*_MEASURE),
       rows=st.lists(st.floats(0.0, 1e300) | st.sampled_from([0.0, 5e-324]),
                     min_size=6, max_size=6))
@example(fields={"name": "minkowski", "p": "3"}, rows=[1.0] * 6)
@example(fields={"name": "minkowski", "p": None}, rows=[1.0] * 6)
@example(fields={"name": "minkowski", "p": 10**400}, rows=[0.0, 1.0, 2.0, 3.0, 4.0, 5.0])
def test_distance_measure_refuses_or_measures_a_finite_distance(fields, rows):
    measure = _built(lambda: DistanceMeasure(**fields))
    if measure is None:
        return
    try:
        d = distance(measure, rows[:3], rows[3:])
    except SigfdError:
        return
    assert math.isfinite(d)


_RANGE = st.floats(0.0, TOP / 2, allow_subnormal=True) | st.integers(0, 10)
_SCALE = st.floats(0.0, TOP, exclude_min=True, allow_subnormal=True) | st.integers(1, 3)
_SYNTH = (
    {"n_identities": st.integers(1, 2),
     "samples_per_identity": st.integers(1, 2),
     "rotation_deg": _RANGE,
     "translation_px": _RANGE,
     "scale_range": st.tuples(_SCALE, _SCALE).map(lambda pair: tuple(sorted(pair))),
     "noise_fraction": st.floats(0.0, 0.2, allow_subnormal=True) | st.just(0),
     "seed": st.integers(0, 2**70)},
    {"n_identities": st.integers(-1, 0) | WRONG,
     "samples_per_identity": st.integers(-1, 0) | WRONG,
     "rotation_deg": NUMBERS | WRONG,
     "translation_px": NUMBERS | WRONG,
     "scale_range": st.tuples(NUMBERS, NUMBERS) | st.tuples(NUMBERS) | WRONG,
     "noise_fraction": NUMBERS | WRONG,
     "seed": st.integers(-3, -1) | WRONG})
_ONE_SAMPLE = {"n_identities": 1, "samples_per_identity": 1, "rotation_deg": 0.0,
               "translation_px": 0.0, "scale_range": (1.0, 1.0), "noise_fraction": 0.0,
               "seed": 0}


@settings(deadline=None, max_examples=60)
@given(fields=_fields(*_SYNTH))
@example(fields={**_ONE_SAMPLE, "noise_fraction": None})
@example(fields={**_ONE_SAMPLE, "rotation_deg": "1"})
@example(fields={**_ONE_SAMPLE, "n_identities": 1.5})
@example(fields={**_ONE_SAMPLE, "seed": 1.5})
def test_synth_spec_refuses_or_generates(fields):
    spec = _built(lambda: SynthSpec(**fields))
    if spec is None:
        return
    data = generate_synthetic(spec)
    assert [len(images) for images in data.values()] == \
        [spec.samples_per_identity] * spec.n_identities


_DATASET = generate_synthetic(SynthSpec(n_identities=2, samples_per_identity=3, seed=4))
_SMALL_CONFIG = PipelineConfig(levels=2, k=8, preprocess=PreprocessConfig(target_size=(32, 32)))
_SPLIT = ({"train_k": st.integers(1, 2), "seed": st.integers(0, 2**70)},
          {"train_k": st.integers(-1, 0) | st.integers(3, 4) | HUGE_INTS | WRONG,
           "seed": st.integers(-3, -1) | WRONG})


@settings(deadline=None, max_examples=60)
@given(fields=_fields(*_SPLIT))
@example(fields={"train_k": 2.5, "seed": 0})
@example(fields={"train_k": 2, "seed": -1})
@example(fields={"train_k": 2, "seed": 1.5})
def test_evaluate_refuses_or_rates(fields):
    try:
        report = evaluate(_DATASET, [DistanceMeasure("manhattan")], [WaveletFamily.HAAR],
                          config=_SMALL_CONFIG, **fields)
    except SigfdError:
        return
    except ValueError as exc:
        # refused before any work, naming the parameter: not numpy's own message
        assert "train_k" in str(exc) or "seed" in str(exc)
        return
    assert report.rates.shape == (1, 1) and 0 <= report.rates[0, 0] <= 100
