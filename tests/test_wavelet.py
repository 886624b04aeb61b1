import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sigfd import wavelet
from sigfd.errors import BadLevels, MalformedDecomposition, OddDimension
from sigfd.imaging import BACKGROUND, GrayImage
from sigfd.wavelet import (DetailSet, WaveletDecomposition, WaveletFamily,
                           _analyze, _ink_box, _ink_plane, analysis_filters,
                           dwt2_level, dwt2_multi, idwt2, subband_images)

TAP_COUNTS = {
    WaveletFamily.HAAR: 2,
    WaveletFamily.DB2: 4,
    WaveletFamily.DB8: 16,
    WaveletFamily.DB15: 30,
    WaveletFamily.SYM8: 16,
}


def test_family_parsing():
    assert WaveletFamily.parse(" Sym8 ") is WaveletFamily.SYM8
    with pytest.raises(ValueError):
        WaveletFamily.parse("db3")


def test_haar_taps_are_exact():
    f = analysis_filters(WaveletFamily.HAAR)
    s = 1.0 / math.sqrt(2.0)
    assert np.allclose(f.lowpass, [s, s], atol=0)
    assert np.allclose(f.highpass, [s, -s], atol=0)


def test_db2_taps_match_closed_form():
    f = analysis_filters(WaveletFamily.DB2)
    s3 = math.sqrt(3.0)
    expect = np.array([1 + s3, 3 + s3, 3 - s3, 1 - s3]) / (4 * math.sqrt(2.0))
    assert np.abs(f.lowpass - expect).max() < 1e-15


def test_filter_bank_identities():
    # orthonormal bank: unit energy, sqrt(2) DC gain, vanishing highpass sum,
    # and orthogonality under even shifts
    for family in WaveletFamily:
        f = analysis_filters(family)
        h, g = f.lowpass, f.highpass
        assert h.size == TAP_COUNTS[family]
        assert abs(h.sum() - math.sqrt(2.0)) < 1e-12
        assert abs((h * h).sum() - 1.0) < 1e-12
        assert abs(g.sum()) < 1e-12
        assert np.abs(g - (-1.0) ** np.arange(h.size) * h[::-1]).max() == 0.0
        for shift in range(2, h.size, 2):
            assert abs((h[shift:] * h[:-shift]).sum()) < 1e-12


def test_haar_two_by_two_plane():
    a, b, c, d = 9.0, 7.0, 4.0, 2.0
    ll, lh, hl, hh = dwt2_level(np.array([[a, b], [c, d]]),
                                analysis_filters(WaveletFamily.HAAR))
    assert abs(ll[0, 0] - (a + b + c + d) / 2) < 1e-12
    assert abs(lh[0, 0] - ((a + b) - (c + d)) / 2) < 1e-12
    assert abs(hl[0, 0] - ((a - b) + (c - d)) / 2) < 1e-12
    assert abs(hh[0, 0] - ((a - b) - (c - d)) / 2) < 1e-12


def test_detail_orientations():
    # stripes that vary down the rows only: energy lands in h
    rows = np.tile(np.arange(32.0)[:, None] % 8, (1, 32))
    filters = analysis_filters(WaveletFamily.HAAR)
    _, lh, hl, hh = dwt2_level(rows, filters)
    assert np.abs(lh).max() > 1.0
    assert np.abs(hl).max() < 1e-12
    assert np.abs(hh).max() < 1e-12
    # transposed stripes land in v
    _, lh, hl, hh = dwt2_level(rows.T, filters)
    assert np.abs(hl).max() > 1.0
    assert np.abs(lh).max() < 1e-12


def test_multi_level_shapes_finest_first():
    img = GrayImage(np.zeros((64, 32), dtype=np.uint8))
    dec = dwt2_multi(img, WaveletFamily.DB2, 3)
    assert dec.approx.shape == (8, 4)
    assert [d.h.shape for d in dec.details] == [(32, 16), (16, 8), (8, 4)]


def test_perfect_reconstruction_all_families():
    rng = np.random.default_rng(10)
    img = GrayImage(rng.integers(0, 256, size=(32, 32), dtype=np.uint8))
    for family in WaveletFamily:
        dec = dwt2_multi(img, family, 2)
        err = np.abs(idwt2(dec) - img.pixels).max()
        assert err < 1e-9, f"{family.value}: {err}"


def test_reconstruction_when_plane_is_shorter_than_filter():
    # periodization keeps the bank orthonormal even on an 8x8 plane
    # against db15's 30 taps
    rng = np.random.default_rng(11)
    img = GrayImage(rng.integers(0, 256, size=(8, 8), dtype=np.uint8))
    err = np.abs(idwt2(dwt2_multi(img, WaveletFamily.DB15, 1)) - img.pixels).max()
    assert err < 1e-9


def test_energy_is_preserved():
    rng = np.random.default_rng(12)
    plane = rng.normal(size=(16, 16))
    ll, lh, hl, hh = dwt2_level(plane, analysis_filters(WaveletFamily.SYM8))
    total = sum(float((p * p).sum()) for p in (ll, lh, hl, hh))
    assert abs(total - float((plane * plane).sum())) < 1e-9


def test_odd_dimension_rejected():
    filters = analysis_filters(WaveletFamily.HAAR)
    with pytest.raises(OddDimension):
        dwt2_level(np.zeros((5, 4)), filters)
    with pytest.raises(OddDimension):
        dwt2_level(np.zeros((4, 6, 2)), filters)


def _ink_approximation(img, family, levels):
    """The descriptor's path to the coarsest plane of `BACKGROUND - pixels`."""
    return _ink_plane(_ink_box(img), family, levels)


def test_bad_levels_rejected():
    img = GrayImage(np.zeros((8, 8), dtype=np.uint8))
    for fn in (dwt2_multi, _ink_approximation):
        with pytest.raises(BadLevels):
            fn(img, WaveletFamily.HAAR, 0)
        with pytest.raises(BadLevels):
            fn(img, WaveletFamily.HAAR, 4)  # 8 does not divide by 16
        with pytest.raises(BadLevels):
            fn(GrayImage(np.zeros((8, 24), dtype=np.uint8)), WaveletFamily.HAAR, 4)
        for not_an_int in (1.0, "2"):
            with pytest.raises(BadLevels):
                fn(img, WaveletFamily.HAAR, not_an_int)
        for huge in (2 ** 63, 10 ** 20):  # tested without building 2**levels
            with pytest.raises(BadLevels):
                fn(img, WaveletFamily.HAAR, huge)


@settings(max_examples=60, deadline=None)
@given(family=st.sampled_from(list(WaveletFamily)), levels=st.integers(1, 3),
       h_units=st.integers(1, 32), w_units=st.integers(1, 32),
       seed=st.integers(0, 2**32 - 1))
@example(family=WaveletFamily.DB15, levels=3, h_units=2, w_units=8, seed=0)   # 16x64
@example(family=WaveletFamily.SYM8, levels=3, h_units=32, w_units=1, seed=1)  # 256x8
@example(family=WaveletFamily.HAAR, levels=1, h_units=1, w_units=1, seed=2)   # 2x2
def test_approximation_operator_matches_dwt2_multi(family, levels, h_units, w_units, seed):
    h, w = h_units << levels, w_units << levels
    px = np.random.default_rng(seed).integers(0, 256, size=(h, w), dtype=np.uint8)
    approx = dwt2_multi(GrayImage(BACKGROUND - px), family, levels).approx
    got = _ink_approximation(GrayImage(px), family, levels)
    assert got.shape == approx.shape == (h >> levels, w >> levels)
    assert np.abs(got - approx).max() <= 1e-12 * np.abs(approx).max()


@settings(max_examples=60, deadline=None)
@given(family=st.sampled_from(list(WaveletFamily)), levels=st.integers(1, 3),
       h_units=st.integers(1, 8), w_units=st.integers(1, 8),
       rows=st.tuples(st.integers(0, 64), st.integers(0, 64)),
       cols=st.tuples(st.integers(0, 64), st.integers(0, 64)),
       seed=st.integers(0, 2**32 - 1))
@example(family=WaveletFamily.DB15, levels=3, h_units=2, w_units=2, rows=(0, 0), cols=(0, 0),
         seed=0)  # blank
@example(family=WaveletFamily.SYM8, levels=2, h_units=4, w_units=4, rows=(15, 16), cols=(0, 16),
         seed=1)  # one row of ink along the bottom edge
def test_approximation_of_ink_on_paper_matches_dwt2_multi(family, levels, h_units, w_units,
                                                         rows, cols, seed):
    # the ink plane takes only the operators' columns over the ink's box
    h, w = h_units << levels, w_units << levels
    px = np.full((h, w), BACKGROUND, dtype=np.uint8)
    box = px[slice(*sorted(rows)), slice(*sorted(cols))]
    box[...] = np.random.default_rng(seed).integers(0, 256, size=box.shape)
    approx = dwt2_multi(GrayImage(BACKGROUND - px), family, levels).approx
    got = _ink_approximation(GrayImage(px), family, levels)
    assert got.shape == approx.shape
    assert np.abs(got - approx).max() <= 1e-12 * np.abs(approx).max()


def _unblocked_operator(family, levels, n):
    """`_lowpass_operator` with the whole identity passed through at once."""
    op = np.eye(n)
    for _ in range(levels):
        op = _analyze(op, analysis_filters(family).lowpass, axis=0)
    return op


@pytest.mark.parametrize("budget", [1, 12288, wavelet._OP_GATHER_BYTES],
                         ids=["two-column-blocks", "few-column-blocks", "default-blocks"])
@pytest.mark.parametrize("family", list(WaveletFamily))
def test_blocked_operator_has_the_bits_and_layout_of_the_unblocked_one(monkeypatch, family,
                                                                       budget):
    monkeypatch.setattr(wavelet, "_OP_GATHER_BYTES", budget)
    # extents below the filter length (db15 at 8 and 16), and blocks that do not divide n
    for n in (8, 16, 24, 64, 256):
        for levels in (1, 2, 3):
            want = _unblocked_operator(family, levels, n)
            got = wavelet._lowpass_operator.__wrapped__(family, levels, n)
            assert got.tobytes() == want.tobytes() and got.strides == want.strides
            assert not got.flags.writeable


def test_building_the_db15_operator_stays_under_two_megabytes():
    # the unblocked build gathers a 256 x 128 x 30 float64 array, 7.9 MB
    tracemalloc.start()
    try:
        wavelet._lowpass_operator.__wrapped__(WaveletFamily.DB15, 3, 256)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20


def test_idwt_rejects_malformed_decomposition():
    img = GrayImage(np.zeros((16, 16), dtype=np.uint8))
    dec = dwt2_multi(img, WaveletFamily.HAAR, 2)
    wrong_count = WaveletDecomposition(dec.family, 1, dec.approx, dec.details)
    with pytest.raises(MalformedDecomposition):
        idwt2(wrong_count)
    bad = DetailSet(np.zeros((3, 3)), dec.details[1].v, dec.details[1].d)
    wrong_shape = WaveletDecomposition(dec.family, 2, dec.approx,
                                       (dec.details[0], bad))
    with pytest.raises(MalformedDecomposition):
        idwt2(wrong_shape)


def test_subband_images_names_and_range():
    rng = np.random.default_rng(13)
    img = GrayImage(rng.integers(0, 256, size=(16, 16), dtype=np.uint8))
    dec = dwt2_multi(img, WaveletFamily.HAAR, 2)
    named = subband_images(dec)
    assert [n for n, _ in named] == ["approx", "h1", "v1", "d1", "h2", "v2", "d2"]
    for _, plane in named:
        assert plane.pixels.min() == 0
        assert plane.pixels.max() == 255


def test_subband_images_constant_plane_maps_to_midgray():
    dec = WaveletDecomposition(WaveletFamily.HAAR, 1, np.full((4, 4), 3.7),
                               (DetailSet(np.zeros((4, 4)), np.zeros((4, 4)),
                                          np.zeros((4, 4))),))
    for _, plane in subband_images(dec):
        assert (plane.pixels == 128).all()
