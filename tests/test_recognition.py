import collections
import contextlib
import copy
import dataclasses
import math
import os
import pickle
import re
import stat
import sys
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sigfd import metrics, recognition
from sigfd.descriptor import FourierDescriptor, PipelineConfig, extract_features
from sigfd.errors import (DegenerateDescriptor, DuplicateSample, EmptyGallery,
                          FormatError, InsufficientSamples, IoError, MetaMismatch,
                          SigfdError, UnknownIdentity)
from sigfd.imaging import GrayImage, PreprocessConfig
from sigfd.metrics import MEASURE_NAMES, DistanceMeasure, distance, pairwise_distances
from sigfd.recognition import (SYNTH_CANVAS, EvalReport, Gallery, SynthSpec, Template,
                               VerifyResult, enroll, evaluate, generate_synthetic, identify,
                               load_dataset, load_gallery, report_to_csv,
                               save_dataset, save_gallery, verify)
from sigfd.wavelet import WaveletFamily

MANHATTAN = DistanceMeasure("manhattan")
CFG = PipelineConfig()


@pytest.fixture(scope="module")
def tiny_dataset():
    return generate_synthetic(SynthSpec(n_identities=3, samples_per_identity=4, seed=42))


@pytest.fixture(scope="module")
def tiny_gallery(tiny_dataset):
    gallery = Gallery(CFG)
    for label, images in tiny_dataset.items():
        gallery = enroll(gallery, label, [(f"s{i}", img) for i, img in enumerate(images[:2])])
    return gallery


# --- gallery and matching ------------------------------------------------------

def test_enroll_is_copy_on_write(tiny_dataset):
    g0 = Gallery(CFG)
    g1 = enroll(g0, "a", [("s0", tiny_dataset["id000"][0])])
    assert len(g0.templates) == 0
    assert len(g1.templates) == 1
    assert g1.templates[0].identity == "a"
    assert g0.magnitudes.shape == (0, CFG.k)


def test_enroll_takes_a_batch_in_order(tiny_dataset, tiny_gallery):
    images = tiny_dataset["id001"]
    g = enroll(tiny_gallery, "new", [("b", images[2]), ("a", images[3])])
    assert g.identities == tiny_gallery.identities + ("new", "new")
    assert g.sample_ids == tiny_gallery.sample_ids + ("b", "a")
    assert g.names == ("id000", "id001", "id002", "new")
    assert g.columns.tolist() == [0, 0, 1, 1, 2, 2, 3, 3]
    want = np.vstack([tiny_gallery.magnitudes] +
                     [extract_features(img, CFG).magnitudes for img in images[2:4]])
    assert g.magnitudes.tobytes() == want.tobytes()
    assert enroll(g, "new", []).magnitudes.tobytes() == want.tobytes()


def test_enroll_rejects_duplicates(tiny_dataset):
    img = tiny_dataset["id000"][0]
    g = enroll(Gallery(CFG), "a", [("s0", img)])
    with pytest.raises(DuplicateSample):
        enroll(g, "a", [("s0", img)])
    # twice within one batch
    with pytest.raises(DuplicateSample):
        enroll(Gallery(CFG), "a", [("s0", img), ("s0", img)])
    # same sample id under another identity is fine
    g2 = enroll(g, "b", [("s0", img)])
    assert g2.names == ("a", "b")


def test_enroll_checks_keys_before_extracting_any_image(tiny_dataset, tiny_gallery):
    img = tiny_dataset["id000"][0]
    batches = (("id000", [("s0", img)], DuplicateSample),           # already in the gallery
               ("new", [("s9", img), ("s9", img)], DuplicateSample),  # twice within the batch
               ("new", [("s9", img), ("s 1", img)], ValueError))      # a bad name after a good one
    with mock.patch.object(recognition, "extract_features",
                           wraps=recognition.extract_features) as extract:
        for identity, samples, error in batches:
            with pytest.raises(error):
                enroll(tiny_gallery, identity, samples)
        assert extract.call_count == 0
        enroll(tiny_gallery, "new", [("s9", img)])
        assert extract.call_count == 1


def test_enroll_takes_no_config(tiny_dataset, tiny_gallery):
    # the gallery's own config is the only one enroll extracts with, so a
    # config passed either way is a TypeError before any image is extracted
    img = tiny_dataset["id000"][0]
    with mock.patch.object(recognition, "extract_features",
                           wraps=recognition.extract_features) as extract:
        with pytest.raises(TypeError):
            enroll(tiny_gallery, "new", [("s9", img)], CFG)
        with pytest.raises(TypeError):
            enroll(tiny_gallery, "new", [("s9", img)], config=CFG)
        assert extract.call_count == 0


def test_enroll_rejects_unsafe_names(tiny_dataset):
    img = tiny_dataset["id000"][0]
    for bad in ("", "a/b", ".hidden", "x y"):
        with pytest.raises(ValueError, match="identity"):
            enroll(Gallery(CFG), bad, [("s0", img)])
        with pytest.raises(ValueError, match="sample_id"):
            enroll(Gallery(CFG), "a", [("s0", img), (bad, img)])


_OUT_OF_RANGE = (np.nan, -1.0, np.inf)


def test_gallery_constructor_enforces_invariants(tiny_gallery):
    t = tiny_gallery.templates[0]
    with pytest.raises(DuplicateSample):
        Gallery(CFG, (t, t))
    with pytest.raises(MetaMismatch):
        Gallery(PipelineConfig(WaveletFamily.HAAR, 1, 64), (t,))
    # a row of another length comes with another k, which is a MetaMismatch
    short = FourierDescriptor(np.ones(CFG.k - 1), dataclasses.replace(CFG, k=CFG.k - 1))
    with pytest.raises(MetaMismatch):
        Gallery(CFG, (t, Template("id000", "short", short)))
    # same family, levels and k: only the preprocessing tells the two apart
    no_slant = PipelineConfig(preprocess=PreprocessConfig(slant_enabled=False))
    other = Template("id000", "other", FourierDescriptor(t.descriptor.magnitudes, no_slant))
    message = re.escape(f"template ('id000', 'other') has config {no_slant}, gallery has {CFG}")
    with pytest.raises(MetaMismatch, match=message):
        Gallery(CFG, (t, other))
    # the gallery checks the matrix it holds, not only each descriptor when it was made
    for value in _OUT_OF_RANGE:
        mags = t.descriptor.magnitudes.copy()
        fd = FourierDescriptor(mags, CFG)
        mags[3] = value
        with pytest.raises(ValueError, match="finite and nonnegative"):
            Gallery(CFG, (t, Template("id000", "late", fd)))


def test_column_constructor_enforces_invariants(tiny_gallery, fuzz_v3):
    g = tiny_gallery
    keys = (g.config, g.identities, g.sample_ids, g.magnitudes)
    assert Gallery._from_keys(*keys).names == g.names
    columns = (g.config, g.names, g.columns, g.sample_names, g.sample_columns, g.magnitudes)
    _assert_same_gallery(Gallery._from_columns(*columns), g)
    with pytest.raises(DuplicateSample):
        Gallery._from_keys(g.config, g.identities[:2] + ("id000",),
                           g.sample_ids[:2] + ("s0",), g.magnitudes[:3])
    with pytest.raises(DuplicateSample, match="'id001', 's0'"):
        Gallery._from_columns(g.config, g.names, [0, 1, 2, 0, 1, 2], g.sample_names,
                              [0, 0, 0, 1, 0, 1], g.magnitudes)
    for value in _OUT_OF_RANGE:
        mags = g.magnitudes.copy()
        mags[-1, 0] = value
        with pytest.raises(ValueError, match="finite and nonnegative"):
            Gallery._from_keys(g.config, g.identities, g.sample_ids, mags)
    wide = np.hstack([g.magnitudes, g.magnitudes[:, :1]])
    for bad in ((g.config, g.identities, g.sample_ids, wide),
                (g.config, g.identities, g.sample_ids[:-1], g.magnitudes),
                (g.config, g.identities, g.sample_ids, g.magnitudes[:-1])):
        with pytest.raises(ValueError, match="need"):
            Gallery._from_keys(*bad)
    # tables are used, and codes name table entries
    codes = g.columns.tolist()
    for bad, match in (((g.names + ("zz",), codes), "no template has"),
                       ((g.names, codes[:-1] + [3]), r"codes must lie in \[0, 3\)"),
                       ((g.names, codes[:-1] + [-1]), r"codes must lie in \[0, 3\)")):
        with pytest.raises(ValueError, match=match):
            Gallery._from_columns(g.config, *bad, g.sample_names, g.sample_columns, g.magnitudes)
    # tables are sorted: a table read from a file is checked as it is read
    for names, columns in ((b"bo\nann\n", (0, 0, 1)), (b"ann\nann\nbo\n", (1, 1, 2))):
        with pytest.raises(FormatError, match="strictly increasing"):
            _load_manifest(fuzz_v3[0], _v3(names=names, columns=columns))


def test_gallery_is_immutable(tiny_gallery):
    for field in ("config", "names", "columns", "sample_names", "sample_columns",
                  "magnitudes", "identities", "sample_ids", "templates", "extra"):
        with pytest.raises(AttributeError):
            setattr(tiny_gallery, field, None)
    assert tiny_gallery.magnitudes.flags.c_contiguous
    assert tiny_gallery.magnitudes.dtype == np.float64
    with pytest.raises(ValueError):
        tiny_gallery.magnitudes[0, 0] = 1.0
    for codes in (tiny_gallery.columns, tiny_gallery.sample_columns):
        with pytest.raises(ValueError):
            codes[0] = 1
    # copies and pickles keep the columns and their read-only matrix
    for copied in (copy.copy(tiny_gallery), copy.deepcopy(tiny_gallery),
                   pickle.loads(pickle.dumps(tiny_gallery))):
        _assert_same_gallery(copied, tiny_gallery)
        assert copied.names == tiny_gallery.names
        assert copied.columns.tolist() == tiny_gallery.columns.tolist()
        assert copied.sample_names == tiny_gallery.sample_names
        assert copied.sample_columns.tolist() == tiny_gallery.sample_columns.tolist()
        assert not copied.magnitudes.flags.writeable


def test_identify_finds_owner(tiny_dataset, tiny_gallery):
    for label, images in tiny_dataset.items():
        result = identify(tiny_gallery, images[3], MANHATTAN, CFG)
        assert result.identity == label
        assert result.ranking[0] == (result.identity, result.distance)
        assert len(result.ranking) == 3
        distances = [d for _, d in result.ranking]
        assert distances == sorted(distances)


def test_identify_tie_breaks_lexicographically(tiny_dataset):
    img = tiny_dataset["id000"][0]
    gallery = Gallery(CFG)
    for ident in ("zeta", "beta"):
        gallery = enroll(gallery, ident, [("s0", img)])
    result = identify(gallery, img, MANHATTAN, CFG)
    assert result.identity == "beta"
    assert result.ranking[0][1] == result.ranking[1][1]


def test_identify_is_enrollment_order_invariant(tiny_dataset):
    samples = [(label, i, img) for label, imgs in tiny_dataset.items()
               for i, img in enumerate(imgs[:2])]
    forward = Gallery(CFG)
    for label, i, img in samples:
        forward = enroll(forward, label, [(f"s{i}", img)])
    backward = Gallery(CFG)
    for label, i, img in reversed(samples):
        backward = enroll(backward, label, [(f"s{i}", img)])
    probe = tiny_dataset["id001"][3]
    assert identify(forward, probe, MANHATTAN, CFG).ranking == \
        identify(backward, probe, MANHATTAN, CFG).ranking


def test_identify_empty_gallery(tiny_dataset):
    with pytest.raises(EmptyGallery):
        identify(Gallery(CFG), tiny_dataset["id000"][0], MANHATTAN, CFG)


def test_identify_meta_mismatch(tiny_dataset, tiny_gallery):
    with pytest.raises(MetaMismatch):
        identify(tiny_gallery, tiny_dataset["id000"][0], MANHATTAN,
                 PipelineConfig(levels=2))


def test_probes_and_enrollments_must_share_the_gallery_preprocessing(tiny_dataset):
    no_slant = PipelineConfig(preprocess=PreprocessConfig(slant_enabled=False))
    img = tiny_dataset["id000"][0]
    gallery = enroll(Gallery(no_slant), "a", [("s0", img)])
    assert gallery.config == no_slant
    assert gallery.magnitudes.tobytes() == extract_features(img, no_slant).magnitudes.tobytes()
    assert identify(gallery, img, MANHATTAN, no_slant).distance == 0.0
    for config in (CFG, PipelineConfig(preprocess=PreprocessConfig(slant_enabled=False,
                                                                   median_window=5))):
        # one message that shows both whole configs
        message = re.escape(f"config {config} != gallery config {no_slant}")
        with pytest.raises(MetaMismatch, match=message):
            identify(gallery, img, MANHATTAN, config)
        with pytest.raises(MetaMismatch, match=message):
            verify(gallery, "a", img, MANHATTAN, 1.0, config)
    # a later enrollment is extracted with the gallery's config, not the default
    other = tiny_dataset["id001"][0]
    want = extract_features(other, no_slant).magnitudes
    assert want.tobytes() != extract_features(other, CFG).magnitudes.tobytes()
    assert enroll(gallery, "b", [("s0", other)]).magnitudes[1].tobytes() == want.tobytes()
    # a gallery holds the very config it was built with
    assert Gallery(no_slant).config is no_slant


def test_verify_accepts_and_rejects(tiny_dataset, tiny_gallery):
    probe = tiny_dataset["id002"][2]
    own = verify(tiny_gallery, "id002", probe, MANHATTAN, 5.0, CFG)
    assert own.genuine
    other = verify(tiny_gallery, "id000", probe, MANHATTAN, 0.25, CFG)
    assert not other.genuine
    assert other.distance > own.distance


def test_verify_threshold_must_be_a_number(tiny_dataset, tiny_gallery):
    probe = tiny_dataset["id002"][2]
    with pytest.raises(ValueError, match="threshold"):
        verify(tiny_gallery, "id002", probe, MANHATTAN, math.nan, CFG)
    assert verify(tiny_gallery, "id000", probe, MANHATTAN, math.inf, CFG).genuine
    assert not verify(tiny_gallery, "id000", probe, MANHATTAN, -math.inf, CFG).genuine


@pytest.mark.parametrize("name", MEASURE_NAMES)
def test_verify_distance_is_the_claimed_identitys_identify_distance(tiny_dataset, tiny_gallery,
                                                                   name):
    # verify reduces one identity's rows with pairwise_distances and identify
    # reduces every identity's at once; the minima agree to the bit
    measure = DistanceMeasure(name)
    probe = tiny_dataset["id002"][2]
    for claimed, d in identify(tiny_gallery, probe, measure, CFG).ranking:
        assert verify(tiny_gallery, claimed, probe, measure, d, CFG) == VerifyResult(True, d)


def test_verify_unknown_identity(tiny_dataset, tiny_gallery):
    # names that sort before, between and after the enrolled ones
    for claimed in ("ghost", "", "a", "id00", "id0000", "id001a", "zzz"):
        with pytest.raises(UnknownIdentity, match=f"^{claimed!r} has no enrolled templates$"):
            verify(tiny_gallery, claimed, tiny_dataset["id000"][0], MANHATTAN, 1.0, CFG)


# A small frame keeps probe extraction cheap in the ranking properties below.
SMALL = PipelineConfig(levels=2, k=8, preprocess=PreprocessConfig(target_size=(32, 32)))
_PROBE = generate_synthetic(SynthSpec(n_identities=1, samples_per_identity=1, seed=3))["id000"][0]
_PROBE_MAGS = extract_features(_PROBE, SMALL).magnitudes


def _gallery(rows, owners) -> Gallery:
    return Gallery(SMALL, tuple(Template(owner, f"s{i}", FourierDescriptor(row, SMALL))
                                for i, (row, owner) in enumerate(zip(rows, owners))))


def _brute_force_ranking(gallery, measure):
    best = {}
    for t in gallery.templates:
        d = distance(measure, _PROBE_MAGS, t.descriptor.magnitudes)
        best[t.identity] = min(best.get(t.identity, np.inf), d)
    return tuple(sorted(best.items(), key=lambda kv: (kv[1], kv[0])))


@st.composite
def _galleries(draw):
    """Rows drawn from a small pool, so distances tie across identities."""
    pool = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).random((5, SMALL.k)) + 0.1
    n = draw(st.integers(1, 30))
    picks = draw(st.lists(st.integers(0, len(pool) - 1), min_size=n, max_size=n))
    owners = draw(st.lists(st.sampled_from(["ann", "bo", "cy", "dee", "ed"]),
                           min_size=n, max_size=n))
    return [pool[i] for i in picks], owners, draw(st.permutations(range(n)))


@settings(deadline=None, max_examples=30)
@given(parts=_galleries(), name=st.sampled_from(MEASURE_NAMES), chunk=st.integers(1, 8))
def test_identify_ranking_ignores_template_order_and_chunking(parts, name, chunk):
    rows, owners, perm = parts
    measure = DistanceMeasure(name)
    forward = _gallery(rows, owners)
    shuffled = Gallery(SMALL, tuple(forward.templates[i] for i in perm))
    expected = _brute_force_ranking(forward, measure)
    with mock.patch.object(metrics, "_BLOCK_ROWS", chunk):
        assert identify(shuffled, _PROBE, measure, SMALL).ranking == expected
    assert identify(forward, _PROBE, measure, SMALL).ranking == expected


def test_interleaved_and_grouped_enrollment_give_equal_results():
    # the same templates enrolled identity by identity and sample by sample;
    # a second identify and a deep copy answer as the first identify did
    per_id = 4
    rows = np.random.default_rng(51).random((7 * per_id, SMALL.k)) + 0.1
    grouped = [(f"i{t // per_id}", f"s{t % per_id}", row) for t, row in enumerate(rows)]
    interleaved = sorted(grouped, key=lambda key: (key[1], key[0]))
    galleries = [Gallery(SMALL, tuple(Template(i, s, FourierDescriptor(row, SMALL))
                                      for i, s, row in keys))
                 for keys in (grouped, interleaved)]
    assert galleries[0].columns.tolist() == sorted(galleries[0].columns.tolist())
    assert galleries[1].columns.tolist()[:7] == list(range(7))
    for name in MEASURE_NAMES:
        measure = DistanceMeasure(name)
        expected = identify(galleries[0], _PROBE, measure, SMALL)
        assert expected.ranking == _brute_force_ranking(galleries[0], measure)
        for gallery in (*galleries, galleries[1], copy.deepcopy(galleries[1])):
            assert identify(gallery, _PROBE, measure, SMALL) == expected


def test_identity_minima_are_the_same_bits_for_any_chunk_size():
    rng = np.random.default_rng(52)
    probes = rng.random((3, SMALL.k)) + 0.1
    rows = rng.random((40, SMALL.k)) + 0.1
    n = 9
    codes = rng.permutation(np.arange(len(rows)) % n)
    assert set(codes.tolist()) == set(range(n))
    for name in MEASURE_NAMES:
        measure = DistanceMeasure(name)
        dmat = pairwise_distances(measure, probes, rows)
        reference = np.stack([dmat[:, codes == c].min(axis=1) for c in range(n)], axis=1)
        whole = recognition._identity_minima(measure, probes, rows, codes, n)
        assert whole.tobytes() == reference.tobytes(), name
        for chunk in (1, 2, 3, 7, 13, 39, 40):
            with mock.patch.object(metrics, "_BLOCK_ROWS", chunk):
                got = recognition._identity_minima(measure, probes, rows, codes, n)
            assert got.tobytes() == whole.tobytes(), (name, chunk)


def test_matching_leaves_the_gallery_with_its_six_fields(tiny_dataset, tiny_gallery):
    fields = {"config", "names", "columns", "sample_names", "sample_columns", "magnitudes"}
    probe = tiny_dataset["id001"][3]
    gallery = copy.deepcopy(tiny_gallery)
    assert set(vars(gallery)) == fields
    identify(gallery, probe, MANHATTAN, CFG)
    verify(gallery, "id001", probe, MANHATTAN, 1.0, CFG)
    assert set(vars(gallery)) == fields
    assert set(vars(copy.deepcopy(gallery))) == fields


def test_identify_matches_brute_force_across_a_chunk_boundary():
    # three templates per identity, so one identity's rows straddle the
    # first block boundary of the distance scan; its exact copy of the probe
    # comes before the boundary, and its rows after it must not displace
    # that minimum
    per_id = 3
    n_ids = metrics._BLOCK_ROWS // per_id + 20
    rng = np.random.default_rng(50)
    rows = list(rng.random((n_ids * per_id, SMALL.k)) + 0.1)
    owners = [f"i{t // per_id:04d}" for t in range(len(rows))]
    straddler = metrics._BLOCK_ROWS // per_id
    assert straddler * per_id < metrics._BLOCK_ROWS < (straddler + 1) * per_id - 1
    rows[straddler * per_id] = _PROBE_MAGS
    gallery = _gallery(rows, owners)
    for name in ("manhattan", "correlation"):
        result = identify(gallery, _PROBE, DistanceMeasure(name), SMALL)
        assert result.ranking == _brute_force_ranking(gallery, DistanceMeasure(name))
        assert result.identity == f"i{straddler:04d}"
    assert verify(gallery, f"i{straddler:04d}", _PROBE, MANHATTAN, 0.0, SMALL).distance == 0.0


@pytest.mark.parametrize("tied", [False, True])
def test_identify_ranks_thousands_of_identities_by_distance_then_name(tied):
    # 2,500 identities of one or two templates; with `tied`, a third of them
    # share one of 40 pooled rows, so many distances tie exactly and the
    # ranking needs the stable re-sort, while without it every distance
    # differs and the default sort alone decides
    rng = np.random.default_rng(53)
    n_ids = 2500
    rows = rng.random((n_ids, SMALL.k)) + 0.1
    if tied:
        pool = rng.random((40, SMALL.k)) + 0.1
        shared = rng.choice(n_ids, n_ids // 3, replace=False)
        rows[shared] = pool[rng.integers(0, len(pool), len(shared))]
    owners = [f"id{i:04d}" for i in rng.permutation(n_ids)]
    extra = rng.choice(n_ids, 500, replace=False)
    rows = np.vstack([rows, rows[extra] + 0.5])
    owners += [owners[i] for i in extra]
    gallery = _gallery(rows, owners)
    expected = _brute_force_ranking(gallery, MANHATTAN)
    assert (len({d for _, d in expected}) < n_ids) == tied
    result = identify(gallery, _PROBE, MANHATTAN, SMALL)
    assert result.ranking == expected
    assert (result.identity, result.distance) == expected[0]


# --- synthetic generation --------------------------------------------------------

def test_synthetic_is_deterministic():
    spec = SynthSpec(n_identities=2, samples_per_identity=3, seed=9)
    a = generate_synthetic(spec)
    b = generate_synthetic(spec)
    assert sorted(a) == ["id000", "id001"]
    for label in a:
        for x, y in zip(a[label], b[label]):
            assert np.array_equal(x.pixels, y.pixels)


def test_synthetic_seed_changes_content():
    a = generate_synthetic(SynthSpec(n_identities=1, samples_per_identity=1, seed=1))
    b = generate_synthetic(SynthSpec(n_identities=1, samples_per_identity=1, seed=2))
    assert not np.array_equal(a["id000"][0].pixels, b["id000"][0].pixels)


def test_synthetic_degenerate_ranges_reproduce_base():
    spec = SynthSpec(n_identities=1, samples_per_identity=3, rotation_deg=0.0,
                     scale_range=(1.0, 1.0), translation_px=0.0,
                     noise_fraction=0.0, seed=5)
    images = generate_synthetic(spec)["id000"]
    assert np.array_equal(images[0].pixels, images[1].pixels)
    assert np.array_equal(images[0].pixels, images[2].pixels)


def test_synthetic_images_have_ink():
    data = generate_synthetic(SynthSpec(n_identities=2, samples_per_identity=1, seed=3))
    for images in data.values():
        img = images[0]
        assert img.pixels.shape == (256, 256)
        assert (img.pixels < 128).mean() > 0.005


def test_synth_spec_validation():
    with pytest.raises(ValueError):
        SynthSpec(n_identities=0)
    with pytest.raises(ValueError):
        SynthSpec(scale_range=(0.0, 1.0))
    with pytest.raises(ValueError):
        SynthSpec(scale_range=(1.2, 0.9))
    with pytest.raises(ValueError):
        SynthSpec(noise_fraction=0.5)
    with pytest.raises(ValueError):
        SynthSpec(rotation_deg=-1.0)
    # non-finite ranges used to overflow inside numpy's uniform draw, and so
    # did a finite x whose range [-x, x] is wider than the largest float
    for bad in ({"rotation_deg": math.nan}, {"rotation_deg": math.inf},
                {"translation_px": math.nan}, {"translation_px": math.inf},
                {"rotation_deg": 1e308}, {"translation_px": 1e308},
                {"rotation_deg": math.nextafter(sys.float_info.max / 2, math.inf)},
                {"scale_range": (0.9, math.inf)}, {"scale_range": (math.nan, 1.1)},
                {"scale_range": (0.9, math.nan)}, {"scale_range": (math.inf, math.inf)},
                {"noise_fraction": math.nan}):
        with pytest.raises(ValueError):
            SynthSpec(**bad)


# --- evaluation -------------------------------------------------------------------

def test_evaluate_report_shape(tiny_dataset):
    measures = [MANHATTAN, DistanceMeasure("euclidean")]
    families = [WaveletFamily.HAAR, WaveletFamily.SYM8]
    report = evaluate(tiny_dataset, measures, families, train_k=2, seed=0)
    assert report.rates.shape == (2, 2)
    assert report.protocol.train_k == 2
    assert report.protocol.test_k == 2
    assert not report.degenerate_protocol
    assert report.rates.min() >= 0 and report.rates.max() <= 100


def test_evaluate_ragged_dataset_reports_no_test_k(tiny_dataset):
    ragged = {label: list(imgs) for label, imgs in tiny_dataset.items()}
    ragged["id000"] = ragged["id000"][:3]
    report = evaluate(ragged, [MANHATTAN], [WaveletFamily.HAAR], train_k=2, seed=0)
    assert report.protocol.test_k is None


def test_evaluate_single_identity_is_degenerate(tiny_dataset):
    only = {"id000": tiny_dataset["id000"]}
    report = evaluate(only, [MANHATTAN], [WaveletFamily.HAAR], train_k=2, seed=0)
    assert report.degenerate_protocol
    assert report.rates[0, 0] == 100.0


def test_evaluate_insufficient_samples(tiny_dataset):
    with pytest.raises(InsufficientSamples):
        evaluate(tiny_dataset, [MANHATTAN], [WaveletFamily.HAAR], train_k=4, seed=0)
    with pytest.raises(InsufficientSamples):
        evaluate(tiny_dataset, [MANHATTAN], [WaveletFamily.HAAR], train_k=0, seed=0)
    with pytest.raises(InsufficientSamples):
        evaluate({}, [MANHATTAN], [WaveletFamily.HAAR], train_k=1, seed=0)


def test_evaluate_needs_a_measure_and_a_family(tiny_dataset):
    for measures, families in (([], [WaveletFamily.HAAR]), ([MANHATTAN], [])):
        with pytest.raises(ValueError, match="at least one measure and one family"):
            evaluate(tiny_dataset, measures, families, train_k=2)


def test_evaluate_same_seed_same_rates(tiny_dataset):
    args = (tiny_dataset, [MANHATTAN], [WaveletFamily.HAAR])
    a = evaluate(*args, train_k=2, seed=7)
    b = evaluate(*args, train_k=2, seed=7)
    assert np.array_equal(a.rates, b.rates)
    assert report_to_csv(a) == report_to_csv(b)


def test_evaluate_peak_memory_does_not_grow_with_the_dataset():
    args = ([MANHATTAN], [WaveletFamily.HAAR, WaveletFamily.SYM8])
    small, large = (generate_synthetic(SynthSpec(n_identities=3, samples_per_identity=n, seed=2))
                    for n in (4, 12))
    evaluate(small, *args, train_k=2)  # builds the cached lowpass operators
    peaks = []
    for dataset in (small, large):
        tracemalloc.start()
        try:
            evaluate(dataset, *args, train_k=2)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    # holding every preprocessed 256x256 image would add a whole one per sample
    added = 3 * (12 - 4)
    assert peaks[1] - peaks[0] < added * SYNTH_CANVAS ** 2 / 2


def test_evaluate_stops_at_a_blank_sample(tiny_dataset):
    dataset = {label: list(images) for label, images in tiny_dataset.items()}
    dataset["id001"][2] = GrayImage(np.full((SYNTH_CANVAS, SYNTH_CANVAS), 255, dtype=np.uint8))
    with pytest.raises(DegenerateDescriptor, match=r"^identity 'id001' sample 2: \|a\[1\]\|"):
        evaluate(dataset, [MANHATTAN], [WaveletFamily.HAAR, WaveletFamily.SYM8], train_k=2)


# `report_to_csv` of a perturbed 6 x 4 synthetic set over every measure and
# family, at the default pipeline and at a non-square 64x32 frame with two
# levels, captured before the 3x3 median became the sorted-triple network:
# a faster pipeline must write the same CSVs.
_PINNED_GRID_CSV = (
    "measure,haar,db2,db8,db15,sym8\n"
    "minkowski,83.3,91.7,91.7,91.7,83.3\n"
    "manhattan,66.7,75.0,75.0,75.0,75.0\n"
    "euclidean,83.3,83.3,83.3,83.3,75.0\n"
    "angle,75.0,75.0,75.0,75.0,66.7\n"
    "correlation,75.0,75.0,75.0,75.0,66.7\n"
    "mod-manhattan,66.7,66.7,66.7,66.7,66.7\n"
    "mod-sse,66.7,66.7,75.0,75.0,66.7\n",
    "measure,haar,db2,db8,db15,sym8\n"
    "minkowski,58.3,58.3,66.7,50.0,66.7\n"
    "manhattan,58.3,58.3,66.7,58.3,66.7\n"
    "euclidean,58.3,58.3,66.7,50.0,58.3\n"
    "angle,66.7,66.7,75.0,75.0,66.7\n"
    "correlation,75.0,66.7,75.0,75.0,66.7\n"
    "mod-manhattan,50.0,50.0,66.7,66.7,58.3\n"
    "mod-sse,58.3,58.3,83.3,75.0,58.3\n",
)


def test_evaluate_grid_csv_is_pinned():
    dataset = generate_synthetic(SynthSpec(
        n_identities=6, samples_per_identity=4, rotation_deg=30.0, scale_range=(0.7, 1.3),
        translation_px=20.0, noise_fraction=0.06, seed=13))
    measures = [DistanceMeasure(name) for name in MEASURE_NAMES]
    configs = (CFG, PipelineConfig(levels=2, k=32,
                                   preprocess=PreprocessConfig(target_size=(64, 32))))
    for config, pinned in zip(configs, _PINNED_GRID_CSV):
        report = evaluate(dataset, measures, list(WaveletFamily), train_k=2, seed=5,
                          config=config)
        assert report_to_csv(report) == pinned


def test_report_csv_layout():
    report = EvalReport((MANHATTAN,), (WaveletFamily.HAAR, WaveletFamily.DB2),
                        np.array([[97.25, 100.0]]),
                        protocol=None, degenerate_protocol=False)
    assert report_to_csv(report) == "measure,haar,db2\nmanhattan,97.2,100.0\n"


def test_report_validates_shape_and_range():
    with pytest.raises(ValueError):
        EvalReport((MANHATTAN,), (WaveletFamily.HAAR,), np.zeros((2, 2)), None)
    with pytest.raises(ValueError):
        EvalReport((MANHATTAN,), (WaveletFamily.HAAR,), np.array([[101.0]]), None)


# --- persistence ------------------------------------------------------------------

def _assert_same_gallery(got, want):
    """Same config, same keys in the same order, bit-identical magnitudes."""
    assert got.config == want.config
    assert [(t.identity, t.sample_id) for t in got.templates] == \
        [(t.identity, t.sample_id) for t in want.templates]
    assert [t.descriptor.magnitudes.tobytes() for t in got.templates] == \
        [t.descriptor.magnitudes.tobytes() for t in want.templates]


def test_gallery_round_trip(tmp_path, tiny_gallery):
    root = tmp_path / "gal"
    save_gallery(tiny_gallery, root)
    assert [p.name for p in root.iterdir()] == ["MANIFEST.siggal"]
    # 45 bytes of header, 18 + 6 of tables, 3 zero bytes to the 8-byte boundary at 72
    head = ("SIGGAL v3 sym8 3 64 3 256 256 1 - 6 3 18 2 6\n"
            "id000\nid001\nid002\ns0\ns1\n").encode() + bytes(3)
    codes = np.array([0, 0, 1, 1, 2, 2, 0, 1, 0, 1, 0, 1], dtype="<i4").tobytes()
    data = (root / "MANIFEST.siggal").read_bytes()
    assert len(head) == 72
    assert data == head + codes + np.array(
        [t.descriptor.magnitudes for t in tiny_gallery.templates], dtype="<f8").tobytes()
    back = load_gallery(root)
    _assert_same_gallery(back, tiny_gallery)
    assert not back.templates[0].descriptor.magnitudes.flags.writeable
    save_gallery(Gallery(CFG), tmp_path / "empty")
    _assert_same_gallery(load_gallery(tmp_path / "empty"), Gallery(CFG))


_KEYS = st.lists(st.tuples(st.sampled_from(["ann", "bo", "cy.2"]),
                           st.sampled_from(["s0", "s1", "s_2"])), unique=True, max_size=9)
_MAGNITUDE = st.floats(0.0, 1e300, allow_nan=False, allow_infinity=False)


@settings(deadline=None, max_examples=40)
@given(keys=_KEYS, data=st.data())
def test_record_and_saved_galleries_hold_the_same_columns(tmp_path_factory, keys, data):
    rows = [data.draw(st.lists(_MAGNITUDE, min_size=4, max_size=4)) for _ in keys]
    records = tuple(Template(i, s, FourierDescriptor(np.array(row), _FUZZ_CONFIG))
                    for (i, s), row in zip(keys, rows))
    built = Gallery(_FUZZ_CONFIG, records)
    root = tmp_path_factory.mktemp("prop")
    save_gallery(built, root)
    want = np.array(rows, dtype=np.float64).reshape(len(keys), 4)
    for g in (built, load_gallery(root)):
        assert g.identities == tuple(i for i, _ in keys)
        assert g.sample_ids == tuple(s for _, s in keys)
        assert g.magnitudes.tobytes() == want.tobytes()
        assert g.magnitudes.flags.c_contiguous and not g.magnitudes.flags.writeable
        assert g.names == tuple(sorted({i for i, _ in keys}))
        assert [g.names[c] for c in g.columns] == list(g.identities)
        # the records view rebuilds the same gallery
        _assert_same_gallery(Gallery(_FUZZ_CONFIG, g.templates), built)
        assert [(t.identity, t.sample_id) for t in g.templates] == keys


def test_load_and_identify_build_no_per_template_objects(tmp_path, tiny_dataset, tiny_gallery):
    save_gallery(tiny_gallery, tmp_path / "gal")
    probe = tiny_dataset["id001"][3]
    built = collections.Counter()

    def counted(cls):
        init = cls.__init__

        def counting_init(self, *args, **kwargs):
            built[cls.__name__] += 1
            init(self, *args, **kwargs)
        return mock.patch.object(cls, "__init__", counting_init)

    def spied(name):
        view = getattr(Gallery, name)
        return mock.patch.object(Gallery, name,
                                 property(lambda self: built.update([name]) or view.fget(self)))

    with contextlib.ExitStack() as stack:
        for patch in (counted(FourierDescriptor), counted(Template), spied("identities"),
                      spied("sample_ids"), spied("templates")):
            stack.enter_context(patch)
        extract_features(probe, CFG)
        per_probe = dict(built)
        built.clear()
        result = identify(load_gallery(tmp_path / "gal"), probe, MANHATTAN, CFG)
        # the probe's own descriptor, nothing per template and no per-template view
        assert dict(built) == per_probe
        assert result.identity == "id001"
        built.clear()
        assert len(tiny_gallery.templates) == 6  # the counters do see the records view
        assert built == {"FourierDescriptor": 6, "Template": 6, "templates": 1,
                         "identities": 1, "sample_ids": 1}
    assert per_probe == {"FourierDescriptor": 1}


def test_gallery_load_errors(tmp_path, tiny_gallery):
    with pytest.raises(IoError):
        load_gallery(tmp_path / "missing")
    root = tmp_path / "bad"
    root.mkdir()
    (root / "MANIFEST.siggal").write_text("BOGUS v2 sym8 3 64 0\n")
    with pytest.raises(FormatError):
        load_gallery(root)
    root2 = tmp_path / "corrupt"
    save_gallery(tiny_gallery, root2)
    manifest = root2 / "MANIFEST.siggal"
    good = manifest.read_bytes()
    for bad in (good[:-8] + np.array(np.nan, dtype="<f8").tobytes(), good[:-1]):
        manifest.write_bytes(bad)
        with pytest.raises(FormatError, match="MANIFEST.siggal"):
            load_gallery(root2)


def test_a_header_its_target_cannot_carry_is_a_format_error_at_load(tmp_path, tiny_gallery):
    save_gallery(tiny_gallery, tmp_path)
    # each edit keeps the header's length, so the tables and payload stay in place:
    # 256 halves 8 times, an 8x8 plane cannot hold k = 64, and 4 does not halve 3 times
    edits = [(b" sym8 3 64 ", b" sym8 9 64 ", "bad configuration: BadLevels: "),
             (b" sym8 3 64 ", b" sym8 5 64 ", "bad configuration: BadLength: "),
             (b" 256 256 ", b" 256 004 ", "bad configuration: BadLevels: "),
             (b" 256 256 1 ", b" 256 256 2 ", "slant_enabled must be a bool, got '2'")]
    manifest = tmp_path / "MANIFEST.siggal"
    good = manifest.read_bytes()
    _assert_same_gallery(load_gallery(tmp_path), tiny_gallery)
    for old, new, error in edits:
        manifest.write_bytes(good.replace(old, new, 1))
        with pytest.raises(FormatError, match=f"MANIFEST.siggal: {error}"):
            load_gallery(tmp_path)


def test_gallery_load_errors_v1(tmp_path, tiny_gallery):
    # v1 and v2 galleries are not read, whether or not their header is well formed
    root = tmp_path / "gal"
    root.mkdir()
    for version, header in (("v1", "SIGGAL v1 sym8 3 64\n"), ("v1", "SIGGAL v1 sym8 3\n"),
                            ("v2", "SIGGAL v2 sym8 3 64 1\nid000 s0\n" + "\0" * 512),
                            ("v2", "SIGGAL v2 sym8 3\n")):
        (root / "MANIFEST.siggal").write_text(header)
        with pytest.raises(FormatError, match=f"MANIFEST.siggal: SIGGAL {version} .*re-enroll"):
            load_gallery(root)
    # a save over it takes over, and leftover descriptor files are ignored
    (root / "id000").mkdir()
    (root / "id000" / "s0.sigfd").write_text("not a descriptor\n")
    save_gallery(tiny_gallery, root)
    _assert_same_gallery(load_gallery(root), tiny_gallery)


_BAD_NAMES = ("s 1", "", "-s1", ".s1", "a\nb", "s\u00e9")


def test_save_gallery_rejects_bad_names_before_writing(tmp_path, tiny_gallery):
    fd = tiny_gallery.templates[0].descriptor
    for bad in _BAD_NAMES:
        for what, template in (("sample_id", Template("id000", bad, fd)),
                               ("identity", Template(bad, "s0", fd))):
            with pytest.raises(ValueError, match=what):
                save_gallery(Gallery(CFG, (template,)), tmp_path / "never")
    assert not (tmp_path / "never").exists()


def test_gallery_owns_its_names(tiny_gallery, fuzz_v3):
    fd = tiny_gallery.templates[0].descriptor
    for bad in _BAD_NAMES + (7, None):
        for what, template in (("sample_id", Template("id000", bad, fd)),
                               ("identity", Template(bad, "s0", fd))):
            with pytest.raises(ValueError, match=what):
                Gallery(CFG, (tiny_gallery.templates[0], template))
    # a non-string next to strings is a ValueError, not a failed sort
    with pytest.raises(ValueError, match="identity"):
        Gallery._from_keys(_FUZZ_CONFIG, ("ann", 5), ("s0", "s0"), np.ones((2, 4)))
    # the first bad name in enrollment order is the one reported
    with pytest.raises(ValueError, match="'-b'"):
        Gallery._from_keys(_FUZZ_CONFIG, ("a", "-b", "a", ".c"), ("s0", "s1", "s2", "s3"),
                           np.ones((4, 4)))
    # names are checked before duplicates
    with pytest.raises(ValueError, match="sample_id"):
        Gallery._from_keys(_FUZZ_CONFIG, ("a", "a", "a"), ("s0", "s0", "s 1"), np.ones((3, 4)))
    # a table read from a file has its names checked too
    with pytest.raises(FormatError, match="sample_id"):
        _load_manifest(fuzz_v3[0], _v3(samples=b"s0\ns 1\n"))
    # of two bad names in a stored table, the first is the one reported
    for names, first in ((b"b c\n-a\n", "b c"), (b"-a\nb c\n", "-a")):
        with pytest.raises(FormatError, match=f"identity must be .*, got '{first}'$"):
            _load_manifest(fuzz_v3[0], _v3(names=names))
    with pytest.raises(ValueError, match=r"sample_id must be .*, got 's 0'$"):
        Gallery._from_tables(_FUZZ_CONFIG, ("ann",), np.zeros(2), ("s 0", ".s"), np.arange(2),
                             np.ones((2, 4)))


def test_load_and_save_check_each_distinct_name_once(tmp_path, tiny_dataset):
    # a name is checked by one match of the name pattern, whether a whole
    # table is matched at once or `_check_name` checks one name
    identities = tuple(f"id{i % 100:03d}" for i in range(1000))
    sample_ids = tuple(f"s{i // 100}" for i in range(1000))
    gallery = Gallery._from_keys(_FUZZ_CONFIG, identities, sample_ids, np.ones((1000, 4)))
    with mock.patch.object(recognition, "_NAME_RE", wraps=recognition._NAME_RE) as pattern:
        save_gallery(gallery, tmp_path / "gal")
        assert pattern.match.call_count == 0  # the gallery was checked when it was built
        back = load_gallery(tmp_path / "gal")
    assert pattern.match.call_count == 100 + 10
    assert [c.args for c in pattern.match.call_args_list[:2]] == [("id000",), ("id001",)]
    assert back.identities == identities and back.sample_ids == sample_ids
    # every other way of building one checks each distinct name once, and
    # enroll checks only the names it adds
    templates = gallery.templates
    for build in (lambda: Gallery(_FUZZ_CONFIG, templates), lambda: copy.deepcopy(gallery),
                  lambda: pickle.loads(pickle.dumps(gallery))):
        with mock.patch.object(recognition, "_NAME_RE", wraps=recognition._NAME_RE) as pattern:
            _assert_same_gallery(build(), gallery)
        assert pattern.match.call_count == 100 + 10
    with mock.patch.object(recognition, "_check_name", wraps=recognition._check_name) as check:
        bigger = enroll(gallery, "new", [("s0", tiny_dataset["id000"][0])])
    assert [c.args for c in check.call_args_list] == [("new", "identity"), ("s0", "sample_id")]
    assert bigger.names == gallery.names + ("new",)


def test_saved_manifest_gets_the_mode_of_a_plain_write(tmp_path, tiny_gallery):
    save_gallery(tiny_gallery, tmp_path / "gal")
    (tmp_path / "plain").write_bytes(b"")
    assert stat.S_IMODE((tmp_path / "gal" / "MANIFEST.siggal").stat().st_mode) == \
        stat.S_IMODE((tmp_path / "plain").stat().st_mode)


def test_failed_save_keeps_the_previous_manifest(tmp_path, tiny_dataset, tiny_gallery,
                                                 monkeypatch):
    root = tmp_path / "gal"
    save_gallery(tiny_gallery, root)
    before = (root / "MANIFEST.siggal").read_bytes()
    bigger = enroll(tiny_gallery, "id000", [("s2", tiny_dataset["id000"][2])])
    write_bytes = Path.write_bytes

    def write_half(self, data):
        write_bytes(self, data[:len(data) // 2])
        raise OSError(28, "No space left on device")

    def refuse(src, dst):
        raise OSError(13, "Permission denied")

    for target, name, fault in ((Path, "write_bytes", write_half), (os, "replace", refuse)):
        with monkeypatch.context() as patch:
            patch.setattr(target, name, fault)
            with pytest.raises(IoError):
                save_gallery(bigger, root)
        assert [p.name for p in root.iterdir()] == ["MANIFEST.siggal"]
        assert (root / "MANIFEST.siggal").read_bytes() == before
        _assert_same_gallery(load_gallery(root), tiny_gallery)


# A three-template gallery with k = 4 keeps every truncation point cheap.
_FUZZ_CONFIG = PipelineConfig(WaveletFamily.HAAR, 2, 4)


def _fuzz_gallery() -> Gallery:
    rng = np.random.default_rng(5)
    # a fixed threshold lengthens the v3 header, so its tables end off the 8-byte grid
    config = dataclasses.replace(_FUZZ_CONFIG, preprocess=PreprocessConfig(binarize_threshold=100))
    templates = tuple(Template(identity, sample, FourierDescriptor(rng.random(4), config))
                      for identity, sample in (("ann", "s0"), ("ann", "s1"), ("bo", "s0")))
    return Gallery(config, templates)


def _load_manifest(root, data):
    """Load `data` as the manifest; a `FormatError` must name the manifest file."""
    (root / "MANIFEST.siggal").write_bytes(data)
    try:
        return load_gallery(root)
    except FormatError as exc:
        assert "MANIFEST.siggal" in str(exc)
        raise


# The fuzz gallery in the v3 layout, built section by section so that one
# section can be replaced while the others stay as `save_gallery` writes them.
_FUZZ_V3_HEAD = "SIGGAL v3 haar 2 4 3 256 256 1 100"


def _v3(names=b"ann\nbo\n", samples=b"s0\ns1\n", columns=(0, 0, 1), sample_columns=(0, 1, 0),
        payload=None, sizes=None, pad=None, head=_FUZZ_V3_HEAD) -> bytes:
    """A v3 manifest; `sizes` default to the sections' own, `pad` to zeros up to 8 bytes."""
    if sizes is None:
        sizes = (len(columns), names.count(b"\n"), len(names), samples.count(b"\n"), len(samples))
    if payload is None:
        payload = _fuzz_gallery().magnitudes.astype("<f8").tobytes()
    text = f"{head} {' '.join(map(str, sizes))}\n".encode() + names + samples
    pad = bytes(-len(text) % 8) if pad is None else pad
    return (text + pad + np.array(columns, dtype="<i4").tobytes()
            + np.array(sample_columns, dtype="<i4").tobytes() + payload)


@pytest.fixture(scope="module")
def fuzz_v3(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz3")
    save_gallery(_fuzz_gallery(), root)
    return root, (root / "MANIFEST.siggal").read_bytes()


def test_v3_manifest_sections(fuzz_v3):
    root, good = fuzz_v3
    assert good == _v3()
    _assert_same_gallery(_load_manifest(root, good), _fuzz_gallery())
    assert good[57:64] == b"\n" + bytes(6)  # the tables end at 58, six zero bytes follow


def test_truncated_v3_manifest_is_a_format_error(fuzz_v3):
    root, good = fuzz_v3
    for end in range(len(good)):
        with pytest.raises(FormatError):
            _load_manifest(root, good[:end])


@pytest.mark.parametrize("parts", [
    dict(columns=(0, -1, 1)), dict(columns=(0, 0, 2)), dict(sample_columns=(0, 1, -7)),
    dict(sample_columns=(0, 2, 0)), dict(columns=(0, 0, 2**31 - 1)),
    dict(names=b"bo\nann\n"), dict(names=b"ann\nann\n"), dict(samples=b"s1\ns0\n"),
    dict(names=b"ann\nbo\ncy\n"), dict(samples=b"s0\ns1\ns2\n"),
    dict(names=b"ann\nb o\n"), dict(names=b"ann\n-bo\n"), dict(names=b"ann\nb\xf6\n"),
    dict(names="ann\nb\u00f6\n".encode()), dict(names=b"\nann\nbo\n"),
    dict(names=b"ann\nbo"), dict(samples=b"s0\ns1\r\n"),
    dict(sizes=(4, 2, 7, 2, 6)), dict(sizes=(99, 2, 7, 2, 6)), dict(sizes=(10**30, 2, 7, 2, 6)),
    dict(sizes=(2, 2, 7, 2, 6)), dict(sizes=(0, 2, 7, 2, 6)), dict(sizes=(-1, 2, 7, 2, 6)),
    dict(sizes=(3, 3, 7, 2, 6)), dict(sizes=(3, 2, 6, 2, 6)), dict(sizes=(3, 2, 7, 2, 7)),
    dict(sizes=(3, 2, 7, 2, -6)), dict(sizes=(3, 2, 7, 2)), dict(sizes=(3, 2, 7, 2, 6, 0)),
    dict(pad=bytes(5) + b"\1"), dict(pad=bytes(6 + 8)), dict(pad=b""),
    dict(head="SIGGAL v3 haar 2 4 4 256 256 1 100"), dict(head="SIGGAL v3 haar 2 4 3 100 256 1 100"),
    dict(head="SIGGAL v3 haar 2 4 3 256 256 2 100"), dict(head="SIGGAL v3 haar 2 4 3 256 256 1 256"),
    dict(head="SIGGAL v3 haar 2 4 3 256 256 1 x"), dict(head="SIGGAL v3 haar 0 4 3 256 256 1 100"),
    dict(head="SIGGAL v4 haar 2 4 3 256 256 1 100"),
    dict(head="SIGG\u00c4L v3 haar 2 4 3 256 256 1 100"),
    dict(head="SIGGAL v3 haar 2 0 3 256 256 1 100", names=b"", samples=b"", columns=(),
         sample_columns=(), payload=b""),
], ids=["code<0", "code=len", "sample code<0", "sample code=len", "code huge",
        "unsorted", "repeated", "unsorted samples", "unused name", "unused sample",
        "space in name", "leading dash", "latin-1 name", "utf-8 name", "empty name",
        "unterminated table", "CR in table", "count+1", "count>file", "count huge",
        "count-1", "count=0", "count<0",
        "name count+1", "table bytes-1", "sample bytes+1", "negative size", "missing size",
        "extra size", "nonzero pad", "pad too long", "no pad", "even window", "bad target",
        "slant=2", "threshold=256", "threshold=x", "levels=0", "version 4", "non-ascii magic",
        "k=0"])
def test_malformed_v3_manifest_is_a_format_error(fuzz_v3, parts):
    root, _ = fuzz_v3
    with pytest.raises(FormatError):
        _load_manifest(root, _v3(**parts))


@pytest.mark.parametrize("mangle", [lambda b: b + b"\0", lambda b: b[:-1],
                                    lambda b: b + bytes(8), lambda b: b[:-8],
                                    lambda b: b + b"\n"],
                         ids=["byte over", "byte short", "row over", "row short", "newline over"])
def test_v3_payload_one_off_is_a_format_error(fuzz_v3, mangle):
    root, good = fuzz_v3
    with pytest.raises(FormatError):
        _load_manifest(root, mangle(good))


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, -1.0, -5e-324])
def test_v3_payload_outside_the_magnitude_range_is_a_format_error(fuzz_v3, value):
    root, good = fuzz_v3
    bad = np.array(value, dtype="<f8").tobytes()
    for at in (len(good) - 3 * 4 * 8, len(good) - 8):
        with pytest.raises(FormatError):
            _load_manifest(root, good[:at] + bad + good[at + 8:])


def test_v3_repeated_key_is_a_duplicate(fuzz_v3):
    root, _ = fuzz_v3
    with pytest.raises(DuplicateSample, match="'ann', 's0'"):
        _load_manifest(root, _v3(samples=b"s0\n", sample_columns=(0, 0, 0)))


@settings(deadline=None, max_examples=300)
@given(st.data())
def test_flipped_v3_header_table_or_code_bytes_load_or_raise_a_data_error(fuzz_v3, data):
    root, good = fuzz_v3
    codes_end = len(good) - 3 * 4 * 8
    flips = data.draw(st.lists(st.tuples(st.integers(0, codes_end - 1), st.integers(0, 255)),
                               min_size=1, max_size=3))
    mangled = bytearray(good)
    for at, value in flips:
        mangled[at] = value
    try:
        _load_manifest(root, bytes(mangled))
    except (FormatError, DuplicateSample):
        pass


_PREPROCESS = st.builds(PreprocessConfig,
                        median_window=st.sampled_from([1, 3, 5, 7]),
                        target_size=st.tuples(st.sampled_from([16, 64, 256]),
                                              st.sampled_from([32, 128])),
                        slant_enabled=st.booleans(),
                        binarize_threshold=st.none() | st.integers(0, 255))


@settings(deadline=None, max_examples=60)
@given(keys=_KEYS, pre=_PREPROCESS, data=st.data())
def test_v3_round_trip_keeps_columns_names_magnitudes_and_preprocessing(tmp_path_factory,
                                                                         keys, pre, data):
    rows = data.draw(st.lists(st.lists(_MAGNITUDE, min_size=4, max_size=4),
                              min_size=len(keys), max_size=len(keys)))
    config = dataclasses.replace(_FUZZ_CONFIG, preprocess=pre)
    built = Gallery._from_keys(config, tuple(i for i, _ in keys), tuple(s for _, s in keys),
                               np.array(rows, dtype=np.float64).reshape(len(keys), 4))
    root = tmp_path_factory.mktemp("v3")
    save_gallery(built, root)
    back = load_gallery(root)
    assert back.config == config
    assert (back.names, back.sample_names) == (built.names, built.sample_names)
    assert back.columns.tobytes() == built.columns.tobytes()
    assert back.sample_columns.tobytes() == built.sample_columns.tobytes()
    assert back.magnitudes.tobytes() == built.magnitudes.tobytes()
    assert (back.identities, back.sample_ids) == (built.identities, built.sample_ids)
    assert [(back.names[c], back.sample_names[d])
            for c, d in zip(back.columns, back.sample_columns)] == keys


_SMALL_INT = st.integers(-1, 9) | st.booleans()


@settings(deadline=None, max_examples=60)
@given(family=st.sampled_from(list(WaveletFamily)), levels=_SMALL_INT,
       k=st.integers(-1, 40) | st.booleans(), median_window=_SMALL_INT,
       target_size=st.tuples(*[st.sampled_from([1, 2, 8, 32, 64]) | st.booleans()] * 2),
       slant=st.booleans(), threshold=st.none() | st.integers(-1, 256) | st.booleans(),
       count=st.integers(0, 3), seed=st.integers(0, 2**32 - 1))
# bools pass `isinstance(_, int)`, and a header holding `True` would not load
@example(family=WaveletFamily.SYM8, levels=True, k=8, median_window=3, target_size=(64, 64),
         slant=True, threshold=None, count=1, seed=0)
@example(family=WaveletFamily.SYM8, levels=3, k=8, median_window=3, target_size=(64, 64),
         slant=True, threshold=True, count=1, seed=0)
@example(family=WaveletFamily.SYM8, levels=3, k=8, median_window=True, target_size=(64, 64),
         slant=True, threshold=None, count=1, seed=0)
def test_every_accepted_config_saves_and_loads_as_itself(tmp_path_factory, family, levels, k,
                                                          median_window, target_size, slant,
                                                          threshold, count, seed):
    try:
        config = PipelineConfig(family, levels, k, PreprocessConfig(median_window, target_size,
                                                                    slant, threshold))
    except (SigfdError, ValueError):
        return
    built = Gallery._from_columns(config, tuple(f"id{i}" for i in range(count)), np.arange(count),
                                  ("s0",) if count else (), np.zeros(count),
                                  np.random.default_rng(seed).random((count, config.k)))
    root = tmp_path_factory.mktemp("config")
    save_gallery(built, root)
    back = load_gallery(root)
    assert back.config == config
    assert (back.names, back.sample_names) == (built.names, built.sample_names)
    for field in ("columns", "sample_columns", "magnitudes"):
        assert getattr(back, field).tobytes() == getattr(built, field).tobytes()


def test_dataset_round_trip(tmp_path, tiny_dataset):
    root = tmp_path / "data"
    count = save_dataset(tiny_dataset, root)
    assert count == 12
    back = load_dataset(root)
    assert sorted(back) == sorted(tiny_dataset)
    for label in back:
        assert len(back[label]) == len(tiny_dataset[label])
        for x, y in zip(back[label], tiny_dataset[label]):
            assert np.array_equal(x.pixels, y.pixels)


def test_dataset_load_errors(tmp_path):
    with pytest.raises(IoError):
        load_dataset(tmp_path / "missing")
    empty = tmp_path / "empty"
    empty.mkdir()
    with pytest.raises(InsufficientSamples):
        load_dataset(empty)
