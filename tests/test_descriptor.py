import numpy as np
import pytest

from sigfd.descriptor import (DescriptorMeta, FourierDescriptor,
                              PipelineConfig, dft, extract_features,
                              load_descriptor, normalize_descriptor,
                              save_descriptor, serialize_coefficients)
from sigfd.errors import (BadLength, BadLevels, DegenerateDescriptor,
                          FormatError, IoError)
from sigfd.imaging import GrayImage, PreprocessConfig
from sigfd.wavelet import WaveletFamily, dwt2_multi


def _naive_spectrum(u):
    n = len(u)
    t = np.arange(n)
    return np.array([np.sum(u * np.exp(-2j * np.pi * k * t / n)) for k in range(n)]) / n


# --- dft -----------------------------------------------------------------------

def test_dft_known_values():
    a = dft([0.0, 1.0, 0.0, -1.0])
    assert np.abs(a - np.array([0.0, -0.5j, 0.0, 0.5j])).max() < 1e-12
    assert np.abs(dft([1.0, 1.0, 1.0, 1.0]) - np.array([1, 0, 0, 0])).max() < 1e-12


def test_dft_matches_naive_oracle():
    rng = np.random.default_rng(20)
    for exp in range(2, 9):
        u = rng.normal(size=2 ** exp) * 100
        assert np.abs(dft(u) - _naive_spectrum(u)).max() < 1e-9


def test_dft_rejects_bad_lengths():
    with pytest.raises(BadLength):
        dft([1.0, 2.0, 3.0])
    with pytest.raises(BadLength):
        dft([1.0, 2.0, 3.0, 4.0, 5.0, 6.0])
    with pytest.raises(BadLength):
        dft(np.zeros((4, 4)))


# --- normalization ----------------------------------------------------------------

def test_normalize_worked_example():
    fd = normalize_descriptor(np.array([5.0, 2.0, 4.0, 6.0]), 2)
    assert np.abs(fd.magnitudes - [2.0, 3.0]).max() < 1e-12
    assert fd.meta == DescriptorMeta(None, None, 2)


def test_normalize_k_bounds():
    a = np.ones(8, dtype=complex)
    with pytest.raises(BadLength):
        normalize_descriptor(a, 1)
    with pytest.raises(BadLength):
        normalize_descriptor(a, 7)


def test_normalize_degenerate_fundamental():
    # constant sequence: a[1] vanishes
    with pytest.raises(DegenerateDescriptor):
        normalize_descriptor(dft(np.full(16, 9.0)), 4)


def test_sequence_level_invariances():
    rng = np.random.default_rng(21)
    u = rng.normal(size=256) * 40 + 10
    base = normalize_descriptor(dft(u), 32).magnitudes
    shifted = normalize_descriptor(dft(np.roll(u, 57)), 32).magnitudes
    scaled = normalize_descriptor(dft(3.5 * u), 32).magnitudes
    offset = normalize_descriptor(dft(u + 250.0), 32).magnitudes
    assert np.abs(shifted - base).max() < 1e-9
    assert np.abs(scaled - base).max() < 1e-9
    assert np.abs(offset - base).max() < 1e-9


def test_descriptor_validates_magnitudes():
    meta = DescriptorMeta(WaveletFamily.HAAR, 1, 3)
    with pytest.raises(ValueError):
        FourierDescriptor(np.array([1.0, -0.5, 2.0]), meta)
    with pytest.raises(ValueError):
        FourierDescriptor(np.array([1.0, 2.0]), meta)


# --- serialization of planes --------------------------------------------------------

def test_serialize_is_row_major():
    img = GrayImage(np.arange(16, dtype=np.uint8).reshape(4, 4))
    dec = dwt2_multi(img, WaveletFamily.HAAR, 1)
    seq = serialize_coefficients(dec)
    assert seq.shape == (4,)
    assert np.array_equal(seq, dec.approx.ravel())
    assert abs(seq[1] - dec.approx[0, 1]) == 0.0


# --- full extraction ----------------------------------------------------------------

def _default_config(**kw):
    return PipelineConfig(preprocess=PreprocessConfig(**kw))


def test_extract_features_shape_and_meta():
    rng = np.random.default_rng(22)
    img = GrayImage(rng.integers(0, 256, size=(256, 256), dtype=np.uint8))
    fd = extract_features(img)
    assert fd.magnitudes.shape == (64,)
    assert fd.meta == DescriptorMeta(WaveletFamily.SYM8, 3, 64)


def test_extract_features_blank_page_is_degenerate():
    img = GrayImage(np.full((256, 256), 255, dtype=np.uint8))
    with pytest.raises(DegenerateDescriptor):
        extract_features(img)


def test_extract_features_contrast_invariance():
    # gain and offset on a deslant-free pipeline survive the whole chain
    rng = np.random.default_rng(23)
    px = (rng.integers(0, 100, size=(256, 256)) * 2).astype(np.uint8)
    cfg = PipelineConfig(levels=2, k=32,
                         preprocess=PreprocessConfig(slant_enabled=False))
    base = extract_features(GrayImage(px), cfg).magnitudes
    gained = extract_features(GrayImage(px // 2), cfg).magnitudes
    lifted = extract_features(GrayImage(px + 50), cfg).magnitudes
    assert np.abs(gained - base).max() < 1e-9
    assert np.abs(lifted - base).max() < 1e-9


def test_extract_features_scan_start_invariance():
    # rolling the coarsest plane by whole rows is a circular shift of the scan
    rng = np.random.default_rng(24)
    img = GrayImage(rng.integers(0, 256, size=(64, 64), dtype=np.uint8))
    cfg = PipelineConfig(levels=2, k=16,
                         preprocess=PreprocessConfig(slant_enabled=False,
                                                     target_size=(64, 64)))
    dec = dwt2_multi(GrayImage(img.pixels), cfg.family, cfg.levels)
    seq = serialize_coefficients(dec)
    a = normalize_descriptor(dft(seq), cfg.k).magnitudes
    b = normalize_descriptor(dft(np.roll(seq, 3 * dec.approx.shape[1])), cfg.k).magnitudes
    assert np.abs(a - b).max() < 1e-9


# --- descriptor files ------------------------------------------------------------------

def test_descriptor_file_round_trip_is_bit_exact(tmp_path):
    rng = np.random.default_rng(25)
    fd = FourierDescriptor(rng.random(16) * 7,
                           DescriptorMeta(WaveletFamily.DB8, 2, 16))
    path = tmp_path / "d.sigfd"
    save_descriptor(fd, path)
    back = load_descriptor(path)
    assert back.meta == fd.meta
    assert np.array_equal(back.magnitudes, fd.magnitudes)


def test_descriptor_file_header_format(tmp_path):
    fd = FourierDescriptor(np.array([1.0, 2.5]),
                           DescriptorMeta(WaveletFamily.SYM8, 3, 2))
    path = tmp_path / "d.sigfd"
    save_descriptor(fd, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "SIGFD v1 sym8 3 2"
    assert lines[1:] == ["1.0", "2.5"]


def test_descriptor_without_meta_cannot_be_saved(tmp_path):
    fd = FourierDescriptor(np.array([1.0, 2.0]), DescriptorMeta(None, None, 2))
    with pytest.raises(ValueError):
        save_descriptor(fd, tmp_path / "d.sigfd")


def test_descriptor_file_rejects_corruption(tmp_path):
    path = tmp_path / "d.sigfd"
    path.write_text("SIGFD v1 sym8 3 3\n1.0\n2.0\n")
    with pytest.raises(FormatError):  # count mismatch
        load_descriptor(path)
    path.write_text("SIGFD v2 sym8 3 1\n1.0\n")
    with pytest.raises(FormatError):  # unknown version
        load_descriptor(path)
    path.write_text("SIGFD v1 sym8 3 1\n-1.0\n")
    with pytest.raises(FormatError):  # negative magnitude
        load_descriptor(path)
    path.write_text("SIGFD v1 db3 3 1\n1.0\n")
    with pytest.raises(FormatError):  # unknown family
        load_descriptor(path)
    with pytest.raises(IoError):
        load_descriptor(tmp_path / "missing.sigfd")


def test_pipeline_config_meta():
    cfg = PipelineConfig(WaveletFamily.DB15, 2, 10)
    assert cfg.meta == DescriptorMeta(WaveletFamily.DB15, 2, 10)


def test_pipeline_config_rejects_levels_the_target_cannot_halve():
    with pytest.raises(BadLevels):
        PipelineConfig(levels=5, k=2, preprocess=PreprocessConfig(target_size=(16, 16)))
    with pytest.raises(BadLevels):
        PipelineConfig(levels=3, k=2, preprocess=PreprocessConfig(target_size=(256, 4)))
    with pytest.raises(BadLevels):
        PipelineConfig(levels=0)


def test_pipeline_config_rejects_k_beyond_the_coarsest_plane():
    small = PreprocessConfig(target_size=(16, 16))
    with pytest.raises(BadLength):
        PipelineConfig(levels=3, k=64, preprocess=small)  # N = 2 * 2
    with pytest.raises(BadLength):
        PipelineConfig(levels=2, k=15, preprocess=small)  # N = 4 * 4
    with pytest.raises(BadLength):
        PipelineConfig(k=1)
    assert PipelineConfig(levels=2, k=14, preprocess=small).k == 14
