import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sigfd.descriptor import (FourierDescriptor, PipelineConfig,
                              describe_each, dft,
                              extract_features, load_descriptor,
                              normalize_descriptor, save_descriptor)
from sigfd.errors import (BadLength, BadLevels, DegenerateDescriptor,
                          FormatError, IoError)
from sigfd.imaging import GrayImage, PreprocessConfig, preprocess
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
    mags = normalize_descriptor(np.array([5.0, 2.0, 4.0, 6.0]), 2)
    assert type(mags) is np.ndarray and mags.dtype == np.float64
    assert np.abs(mags - [2.0, 3.0]).max() < 1e-12


def test_normalize_k_bounds():
    a = np.ones(8, dtype=complex)
    with pytest.raises(BadLength):
        normalize_descriptor(a, 1)
    with pytest.raises(BadLength):
        normalize_descriptor(a, 7)
    for k in (4.0, 4.5):  # slicing needs an integer count
        with pytest.raises(BadLength):
            normalize_descriptor(a, k)


def test_normalize_degenerate_fundamental():
    # constant sequence: a[1] vanishes
    with pytest.raises(DegenerateDescriptor):
        normalize_descriptor(dft(np.full(16, 9.0)), 4)


def test_sequence_level_invariances():
    rng = np.random.default_rng(21)
    u = rng.normal(size=256) * 40 + 10
    base = normalize_descriptor(dft(u), 32)
    shifted = normalize_descriptor(dft(np.roll(u, 57)), 32)
    scaled = normalize_descriptor(dft(3.5 * u), 32)
    offset = normalize_descriptor(dft(u + 250.0), 32)
    assert np.abs(shifted - base).max() < 1e-9
    assert np.abs(scaled - base).max() < 1e-9
    assert np.abs(offset - base).max() < 1e-9


def test_descriptor_validates_magnitudes():
    config = PipelineConfig(WaveletFamily.HAAR, 1, 3)
    with pytest.raises(ValueError):
        FourierDescriptor(np.array([1.0, -0.5, 2.0]), config)
    with pytest.raises(ValueError):
        FourierDescriptor(np.array([1.0, 2.0]), config)


# --- full extraction ----------------------------------------------------------------

def _default_config(**kw):
    return PipelineConfig(preprocess=PreprocessConfig(**kw))


def test_extract_features_shape_and_meta():
    rng = np.random.default_rng(22)
    img = GrayImage(rng.integers(0, 256, size=(256, 256), dtype=np.uint8))
    fd = extract_features(img)
    assert fd.magnitudes.shape == (64,)
    assert fd.config == PipelineConfig()
    # the descriptor records the very config it was made with, preprocessing too
    no_slant = _default_config(slant_enabled=False)
    assert extract_features(img, no_slant).config is no_slant


def test_describe_each_rows_are_extract_features_magnitudes():
    rng = np.random.default_rng(25)
    img = GrayImage(rng.integers(0, 256, size=(96, 80), dtype=np.uint8))
    pre = PreprocessConfig(target_size=(64, 64))
    configs = [PipelineConfig(family, 2, 16, pre) for family in WaveletFamily]
    rows = describe_each(preprocess(img, pre), configs)
    assert len(rows) == len(configs) == 5
    for row, config in zip(rows, configs):
        assert row.dtype == np.float64
        assert row.tobytes() == extract_features(img, config).magnitudes.tobytes()


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
    seq = dec.approx.ravel()
    a = normalize_descriptor(dft(seq), cfg.k)
    b = normalize_descriptor(dft(np.roll(seq, 3 * dec.approx.shape[1])), cfg.k)
    assert np.abs(a - b).max() < 1e-9


# --- descriptor files ------------------------------------------------------------------

def test_descriptor_file_round_trip_is_bit_exact(tmp_path):
    rng = np.random.default_rng(25)
    fd = FourierDescriptor(rng.random(16) * 7, PipelineConfig(WaveletFamily.DB8, 2, 16))
    path = tmp_path / "d.sigfd"
    save_descriptor(fd, path)
    back = load_descriptor(path)
    assert back.config == fd.config
    assert np.array_equal(back.magnitudes, fd.magnitudes)


def test_descriptor_file_header_format(tmp_path):
    fd = FourierDescriptor(np.array([1.0, 2.5]), PipelineConfig(WaveletFamily.SYM8, 3, 2))
    path = tmp_path / "d.sigfd"
    save_descriptor(fd, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "SIGFD v1 sym8 3 2"
    assert lines[1:] == ["1.0", "2.5"]


def test_save_descriptor_refuses_preprocessing_its_header_cannot_record(tmp_path):
    # a loaded file claims the default preprocessing, so any other is not written
    path = tmp_path / "d.sigfd"
    for pre in (PreprocessConfig(slant_enabled=False), PreprocessConfig(median_window=5),
                PreprocessConfig(target_size=(64, 64)), PreprocessConfig(binarize_threshold=90)):
        fd = FourierDescriptor(np.array([1.0, 2.5]), PipelineConfig(WaveletFamily.HAAR, 2, 2, pre))
        with pytest.raises(ValueError, match="default preprocessing"):
            save_descriptor(fd, path)
        assert not path.exists()


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
    for value in ("nan", "inf", "-inf"):
        path.write_text(f"SIGFD v1 sym8 3 2\n1.0\n{value}\n")
        with pytest.raises(FormatError):  # non-finite magnitude
            load_descriptor(path)
    for header in ("SIGFD v1 sym8 3 0\n", "SIGFD v1 sym8 0 1\n1.0\n"):
        path.write_text(header)
        with pytest.raises(FormatError):  # k = 0, levels = 0
            load_descriptor(path)
    with pytest.raises(IoError):
        load_descriptor(tmp_path / "missing.sigfd")


def test_pipeline_config_meta():
    # the benchmark's gallery set-up calls `CONFIG.meta`; it is the config itself
    cfg = PipelineConfig()
    assert cfg.meta is cfg


def test_pipeline_config_family_must_be_a_wavelet_family():
    for family in ("sym8", None):
        with pytest.raises(ValueError, match="WaveletFamily"):
            PipelineConfig(family=family)
    # levels and k are checked first, so their own errors still come out
    with pytest.raises(BadLevels):
        PipelineConfig(family="sym8", levels=0)
    with pytest.raises(BadLength):
        PipelineConfig(family="sym8", k=0)


def test_pipeline_config_rejects_levels_the_target_cannot_halve():
    with pytest.raises(BadLevels):
        PipelineConfig(levels=5, k=2, preprocess=PreprocessConfig(target_size=(16, 16)))
    with pytest.raises(BadLevels):
        PipelineConfig(levels=3, k=2, preprocess=PreprocessConfig(target_size=(256, 4)))
    for levels in (0, -1, None, "3"):
        with pytest.raises(BadLevels):
            PipelineConfig(levels=levels)
    for huge in (2 ** 63, 10 ** 20):  # tested without building 2**levels
        with pytest.raises(BadLevels):
            PipelineConfig(levels=huge)


def test_pipeline_config_rejects_k_beyond_the_coarsest_plane():
    small = PreprocessConfig(target_size=(16, 16))
    with pytest.raises(BadLength):
        PipelineConfig(levels=3, k=64, preprocess=small)  # N = 2 * 2
    with pytest.raises(BadLength):
        PipelineConfig(levels=2, k=15, preprocess=small)  # N = 4 * 4
    for k in (1, 0, -3, None):
        with pytest.raises(BadLength):
            PipelineConfig(k=k)
    for k in (64.0, 64.5):  # in range, but not an integer count
        with pytest.raises(BadLength):
            PipelineConfig(k=k)
    assert PipelineConfig(levels=2, k=14, preprocess=small).k == 14


# --- v1 descriptor file fuzzing ------------------------------------------------------

_SMALL_FD = b"SIGFD v1 haar 2 4\n0.5\n1.25\n3.0\n0.0078125\n"


@pytest.fixture(scope="module")
def fd_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fd") / "fuzz.sigfd"


def _load_fd(path, data):
    """Load `data` as a descriptor; only a descriptor, a FormatError or an IoError may come back."""
    path.write_bytes(data)
    try:
        return load_descriptor(path)
    except (FormatError, IoError):
        return None


def test_truncated_descriptor_file_loads_or_is_a_format_error(fd_path):
    assert _load_fd(fd_path, _SMALL_FD).magnitudes.tolist() == [0.5, 1.25, 3.0, 0.0078125]
    for end in range(len(_SMALL_FD)):
        # a cut inside the last value still leaves four numbers
        loads = end >= _SMALL_FD.rindex(b"\n", 0, -1) + 2
        assert (_load_fd(fd_path, _SMALL_FD[:end]) is not None) == loads, end


@settings(deadline=None, max_examples=300)
@given(st.data())
def test_flipped_descriptor_bytes_load_or_raise_a_data_error(fd_path, data):
    flips = data.draw(st.lists(st.tuples(st.integers(0, len(_SMALL_FD) - 1),
                                         st.integers(0, 255)), min_size=1, max_size=3))
    mangled = bytearray(_SMALL_FD)
    for at, value in flips:
        mangled[at] = value
    fd = _load_fd(fd_path, bytes(mangled))
    if fd is not None:
        assert fd.magnitudes.shape == (fd.config.k,) and np.isfinite(fd.magnitudes).all()


@pytest.mark.parametrize("text", [
    "SIGFD v1 haar 2 4\n0.5\nnan\n3.0\n1.0\n",
    "SIGFD v1 haar 2 4\n0.5\ninf\n3.0\n1.0\n",
    "SIGFD v1 haar 2 4\n0.5\n-inf\n3.0\n1.0\n",
    "SIGFD v1 haar 2 4\n0.5\n1e999\n3.0\n1.0\n",
    "SIGFD v1 haar 0 4\n0.5\n1.25\n3.0\n1.0\n",
    "SIGFD v1 haar -1 4\n0.5\n1.25\n3.0\n1.0\n",
    "SIGFD v1 haar 2 0\n",
    f"SIGFD v1 haar 2 {2 ** 63}\n0.5\n1.25\n3.0\n1.0\n",
    "SIGFD v1 haar 2 99999999999999999999\n0.5\n",
    "SIGFD v1 haar 2 " + "9" * 5000 + "\n0.5\n",
], ids=["nan", "inf", "-inf", "overflow", "levels=0", "levels<0", "k=0", "k=2**63", "k huge",
        "k 5000 digits"])
def test_descriptor_file_values_out_of_range_are_format_errors(fd_path, text):
    fd_path.write_text(text)
    with pytest.raises(FormatError):
        load_descriptor(fd_path)


def test_descriptor_file_levels_or_k_the_default_target_cannot_hold_are_format_errors(fd_path):
    # a file names no preprocessing, so it loads with the default 256 x 256 target
    fd_path.write_text("SIGFD v1 haar 6 2\n0.5\n1.0\n")
    assert load_descriptor(fd_path).config == PipelineConfig(WaveletFamily.HAAR, 6, 2)
    # levels 8 leaves N = 1 coefficient, and levels 3 leaves N = 32 * 32
    for levels, k in ((2 ** 63, 2), (10 ** 20, 2), (8, 2), (3, 1023)):
        fd_path.write_text(f"SIGFD v1 haar {levels} {k}\n0.5\n1.0\n")
        with pytest.raises(FormatError, match="bad configuration"):
            load_descriptor(fd_path)
