"""Similarity-invariant Fourier features over wavelet approximation planes.

The coarsest approximation plane is scanned row-major into a 1-D
sequence, transformed with numpy's FFT, and normalized so that the
retained magnitudes ignore where the scan started, any global intensity
gain, and any constant offset: a circular shift only rotates phases, a
gain cancels in the a[n]/a[1] ratio, and an offset lives entirely in
a[0], which is dropped.  The pixels' plane is a constant paper plane
less the plane of the ink, `BACKGROUND - pixels`, so those last two give
both planes the same magnitudes.  `describe_each` reads the ink plane,
which only the ink's bounding box feeds: it finds the box once per image
and shares it across the families.
"""

import dataclasses
from pathlib import Path

import numpy as np

from .errors import BadLength, DegenerateDescriptor, FormatError, IoError, SigfdError, _is_int
from .imaging import GrayImage, PreprocessConfig, preprocess
# `dwt2_multi` is not called here, but bench/spans.py traces calls by
# patching this module's globals, so every name it looks up on this module
# has to stay importable.
from .wavelet import WaveletFamily, _check_levels, _ink_box, _ink_plane, dwt2_multi

NORMALIZER_EPS = 1e-12


def _check_magnitudes(mags: np.ndarray) -> None:
    # min() and max() propagate nan, which fails both comparisons
    if mags.size and not (mags.min() >= 0 and mags.max() < np.inf):
        raise ValueError("magnitudes must be finite and nonnegative")


def _check_k(k, n: int) -> None:
    if not _is_int(k) or not 2 <= k <= n - 2:
        raise BadLength(f"need an integer 2 <= k <= N-2, got k={k!r} with N={n}")


@dataclasses.dataclass(frozen=True)
class PipelineConfig:
    """End-to-end extraction parameters, checked against each other when built.

    The preprocessed frame must support `levels` halvings, and its coarsest
    plane of N = (W / 2^levels) * (H / 2^levels) coefficients must leave
    2 <= k <= N - 2 magnitudes to retain.
    """

    family: WaveletFamily = WaveletFamily.SYM8
    levels: int = 3
    k: int = 64
    preprocess: PreprocessConfig = PreprocessConfig()

    def __post_init__(self):
        w, h = self.preprocess.target_size
        _check_levels(self.levels, w, h)
        _check_k(self.k, (w >> self.levels) * (h >> self.levels))
        if not isinstance(self.family, WaveletFamily):
            raise ValueError(f"family must be a WaveletFamily, got {self.family!r}")

    @property
    def meta(self) -> "PipelineConfig":
        """The config itself, under the name `bench/workloads.py` calls (`CONFIG.meta`)."""
        return self


def _header_config(family: str, levels: str, k: str, *pre: str) -> PipelineConfig:
    """The config a file header names, checked; without preprocessing fields, the default one."""
    try:
        preprocess = PreprocessConfig()
        if pre:
            median, width, height, slant, threshold = pre
            preprocess = PreprocessConfig(int(median), (int(width), int(height)),
                                          {"0": False, "1": True}.get(slant, slant),
                                          None if threshold == "-" else int(threshold))
        return PipelineConfig(WaveletFamily.parse(family), int(levels), int(k), preprocess)
    except SigfdError as exc:
        raise ValueError(f"bad configuration: {type(exc).__name__}: {exc}") from exc


@dataclasses.dataclass(frozen=True, eq=False)
class FourierDescriptor:
    """`k` nonnegative magnitudes plus the config that produced them."""

    magnitudes: np.ndarray
    config: PipelineConfig

    def __post_init__(self):
        mags = np.asarray(self.magnitudes, dtype=np.float64)
        if mags.ndim != 1 or mags.size != self.config.k:
            raise ValueError(f"need {self.config.k} magnitudes in a 1-D array, got {mags.shape}")
        _check_magnitudes(mags)
        object.__setattr__(self, "magnitudes", mags)


def dft(sequence: np.ndarray) -> np.ndarray:
    """Normalized spectrum a[n] = (1/N) sum_t u(t) exp(-2j pi n t / N).

    N must be a power of two, at least 4.  The FFT applies the 1/N itself,
    which for a power of two is exact: the values are those of dividing its
    output by N.
    """
    u = np.asarray(sequence, dtype=np.float64)
    n = u.size
    if u.ndim != 1 or n < 4 or n & (n - 1):
        raise BadLength(f"need a 1-D power-of-two sequence of length >= 4, got shape {u.shape}")
    return np.fft.fft(u, norm="forward")


def normalize_descriptor(spectrum: np.ndarray, k: int) -> np.ndarray:
    """Retain |a[n] / a[1]| for n = 2 .. k+1.

    Dividing by a[1] rather than a[0] removes gain (and the phases that a
    start shift introduces) while staying well-defined for zero-mean
    sequences; dropping a[0] removes any constant offset.  |a[1]| below
    NORMALIZER_EPS means there is no carrier to normalize against.
    """
    a = np.asarray(spectrum, dtype=np.complex128)
    if a.ndim != 1:
        raise BadLength(f"need a 1-D spectrum, got shape {a.shape}")
    _check_k(k, a.size)
    if abs(a[1]) <= NORMALIZER_EPS:
        raise DegenerateDescriptor(
            f"|a[1]| = {abs(a[1]):.3e} is below {NORMALIZER_EPS:.0e}; "
            "sequence has no usable fundamental")
    return np.abs(a[2:k + 2] / a[1])


def describe_each(pre: GrayImage, configs) -> list[np.ndarray]:
    """The magnitudes of a preprocessed image under each config, one row per config."""
    box = _ink_box(pre)
    return [normalize_descriptor(dft(_ink_plane(box, c.family, c.levels).ravel()), c.k)
            for c in configs]


def extract_features(img: GrayImage, config: PipelineConfig = PipelineConfig()) -> FourierDescriptor:
    """Full chain: preprocess, then `describe_each` under the one config."""
    (mags,) = describe_each(preprocess(img, config.preprocess), (config,))
    return FourierDescriptor(mags, config)


# --- descriptor files --------------------------------------------------------

_MAGIC = "SIGFD"
_VERSION = "v1"


def save_descriptor(fd: FourierDescriptor, path) -> None:
    """Write one descriptor as text: a header line, then one float per line.

    Floats are written with shortest round-trip repr, so a load returns
    bit-identical values.  The header has no room for preprocessing, so a
    descriptor made with any but the default one is a `ValueError`.
    """
    config = fd.config
    if config.preprocess != PreprocessConfig():
        raise ValueError(f"a {_MAGIC} {_VERSION} file holds only the default preprocessing, "
                         f"got {config.preprocess}")
    lines = [f"{_MAGIC} {_VERSION} {config.family.value} {config.levels} {config.k}"]
    lines += [repr(float(v)) for v in fd.magnitudes]
    try:
        Path(path).write_text("\n".join(lines) + "\n", encoding="ascii")
    except OSError as exc:
        raise IoError(f"cannot write {path}: {exc}") from exc


def load_descriptor(path) -> FourierDescriptor:
    """Read a `save_descriptor` file, under the default preprocessing its header implies."""
    try:
        text = Path(path).read_text(encoding="ascii")
    except (OSError, UnicodeDecodeError) as exc:
        raise IoError(f"cannot read {path}: {exc}") from exc
    lines = text.splitlines()
    if not lines:
        raise FormatError(f"{path}: empty descriptor file")
    fields = lines[0].split()
    if len(fields) != 5 or fields[0] != _MAGIC or fields[1] != _VERSION:
        raise FormatError(f"{path}: bad descriptor header {lines[0]!r}")
    try:
        config = _header_config(*fields[2:5])
        return FourierDescriptor(np.array([float(s) for s in lines[1:]]), config)
    except ValueError as exc:
        raise FormatError(f"{path}: {exc}") from exc
