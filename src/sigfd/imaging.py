"""Grayscale rasters and the signature preprocessing chain.

Covers binary PGM (P5) reading and writing, median denoising, Otsu
binarization, second-moment slant estimation, rotation and rescaling by
inverse-mapped bilinear resampling, and `preprocess`, which chains them
into the canonical form consumed by feature extraction.

Convention used throughout: 0 is ink, 255 is paper, and image arrays are
indexed (row, column) while geometric math uses (x, y) = (column, row).
"""

import dataclasses
import math
from pathlib import Path

import numpy as np

from .errors import BadTarget, BadWindow, FormatError, IoError, TooFewPixels

BACKGROUND = 255

_WHITESPACE = (9, 10, 11, 12, 13, 32)


@dataclasses.dataclass(frozen=True, eq=False)
class GrayImage:
    """8-bit grayscale raster; `pixels` is a (height, width) uint8 array.

    A uint8 array is taken as it is.  Other integer or bool input is
    converted when every value lies in [0, 255]; anything else raises
    ValueError rather than wrapping or truncating.
    """

    pixels: np.ndarray

    def __post_init__(self):
        px = np.asarray(self.pixels)
        if px.dtype != np.uint8:
            if px.dtype.kind not in "biu" or (px.size and not 0 <= px.min() <= px.max() <= 255):
                raise ValueError(f"pixels must be integers in [0, 255], got a {px.dtype} array")
            px = px.astype(np.uint8)
        if px.ndim != 2 or px.shape[0] < 1 or px.shape[1] < 1:
            raise ValueError("pixels must be 2-D with positive dimensions")
        object.__setattr__(self, "pixels", px)

    @property
    def height(self) -> int:
        return self.pixels.shape[0]

    @property
    def width(self) -> int:
        return self.pixels.shape[1]


@dataclasses.dataclass(frozen=True, eq=False)
class ForegroundMask:
    """Boolean ink map; True marks foreground.

    `degenerate` is set when the source image was constant, in which case
    the mask is all background and downstream steps that need ink should
    be skipped rather than fed an arbitrary threshold.
    """

    bits: np.ndarray
    degenerate: bool = False

    def __post_init__(self):
        bits = np.asarray(self.bits, dtype=bool)
        if bits.ndim != 2:
            raise ValueError("mask must be 2-D")
        object.__setattr__(self, "bits", bits)

    @property
    def count(self) -> int:
        return int(self.bits.sum())


def _power_of_two(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


def _check_window(window) -> None:
    if not isinstance(window, int) or window < 1 or window % 2 == 0:
        raise BadWindow(f"median window must be an odd integer >= 1, got {window!r}")


def _check_threshold(threshold) -> None:
    if threshold is not None and not (isinstance(threshold, int) and 0 <= threshold <= 255):
        raise ValueError(f"binarize threshold must be an int in [0, 255], got {threshold!r}")


@dataclasses.dataclass(frozen=True)
class PreprocessConfig:
    """Knobs for the preprocessing chain.

    target_size is (width, height) and both extents must be powers of two
    so the wavelet stage can halve them cleanly.  binarize_threshold
    overrides Otsu when set; slant_enabled switches the rotation step.
    """

    median_window: int = 3
    target_size: tuple[int, int] = (256, 256)
    slant_enabled: bool = True
    binarize_threshold: int | None = None

    def __post_init__(self):
        _check_window(self.median_window)
        tw, th = self.target_size
        if not (_power_of_two(tw) and _power_of_two(th)):
            raise BadTarget(f"target size must be powers of two, got {self.target_size!r}")
        _check_threshold(self.binarize_threshold)


# --- PGM I/O ----------------------------------------------------------------

def _next_token(data: bytes, pos: int) -> tuple[bytes, int]:
    n = len(data)
    while pos < n:
        c = data[pos]
        if c in _WHITESPACE:
            pos += 1
        elif c == 0x23:  # '#' comment runs to end of line
            while pos < n and data[pos] not in (10, 13):
                pos += 1
        else:
            break
    start = pos
    while pos < n and data[pos] not in _WHITESPACE:
        pos += 1
    if start == pos:
        raise FormatError("truncated PGM header")
    return data[start:pos], pos


def _header_int(token: bytes, what: str) -> int:
    # 19 digits already ask for a raster of 10**18 bytes, and int() refuses
    # more than 4300
    if not token.isdigit() or len(token) > 18:
        raise FormatError(f"bad PGM {what}: {token[:20]!r}")
    return int(token)


def load_image(path) -> GrayImage:
    """Read a binary (P5) PGM file with maxval 255."""
    try:
        data = Path(path).read_bytes()
    except OSError as exc:
        raise IoError(f"cannot read {path}: {exc}") from exc
    magic, pos = _next_token(data, 0)
    if magic != b"P5":
        raise FormatError(f"unsupported magic {magic!r}, expected P5")
    width, pos = _next_token(data, pos)
    height, pos = _next_token(data, pos)
    maxval, pos = _next_token(data, pos)
    w = _header_int(width, "width")
    h = _header_int(height, "height")
    if w < 1 or h < 1:
        raise FormatError(f"bad PGM dimensions {w}x{h}")
    if _header_int(maxval, "maxval") != 255:
        raise FormatError(f"unsupported maxval {maxval.decode()}, expected 255")
    pos += 1  # single whitespace byte separates header from raster
    if len(data) - pos < w * h:
        raise FormatError(f"truncated PGM raster, need {w * h} bytes")
    px = np.frombuffer(data, dtype=np.uint8, count=w * h, offset=pos)
    return GrayImage(px.reshape(h, w).copy())


def save_image(img: GrayImage, path) -> None:
    """Write a binary (P5) PGM file with maxval 255."""
    header = f"P5\n{img.width} {img.height}\n255\n".encode("ascii")
    try:
        Path(path).write_bytes(header + img.pixels.tobytes())
    except OSError as exc:
        raise IoError(f"cannot write {path}: {exc}") from exc


# --- denoising and binarization ---------------------------------------------

# Paeth's median-of-nine exchange network (Graphics Gems, 1990): after
# these 19 min/max exchanges, slot 4 holds the median of the nine slots.
_MEDIAN9_EXCHANGES = (
    (1, 2), (4, 5), (7, 8), (0, 1), (3, 4), (6, 7), (1, 2), (4, 5), (7, 8),
    (0, 3), (5, 8), (4, 7), (3, 6), (1, 4), (2, 5), (4, 7), (4, 2), (6, 4),
    (4, 2),
)


def median_filter(img: GrayImage, window: int = 3) -> GrayImage:
    """Median over a window x window neighborhood, edges replicated.

    The default 3x3 window runs an exchange network over the nine shifted
    views; other windows take `np.median` over a sliding-window view.
    """
    _check_window(window)
    pad = window // 2
    padded = np.pad(img.pixels, pad, mode="edge")
    if window == 3:
        h, w = img.pixels.shape
        v = [padded[dy:dy + h, dx:dx + w] for dy in range(3) for dx in range(3)]
        for a, b in _MEDIAN9_EXCHANGES:
            v[a], v[b] = np.minimum(v[a], v[b]), np.maximum(v[a], v[b])
        return GrayImage(v[4])
    view = np.lib.stride_tricks.sliding_window_view(padded, (window, window))
    med = np.median(view.reshape(img.height, img.width, -1), axis=2)
    return GrayImage(med.astype(np.uint8))


def otsu_threshold(pixels: np.ndarray) -> int:
    """Between-class-variance-maximizing threshold in [1, 255].

    Pixels strictly below the returned value are foreground.  Ties go to
    the smallest threshold.  Caller must ensure the histogram has two
    nonempty classes for some threshold (i.e. the image is not constant).
    """
    hist = np.bincount(np.asarray(pixels, dtype=np.uint8).ravel(), minlength=256)
    hist = hist.astype(np.float64)
    csum = np.cumsum(hist)
    msum = np.cumsum(hist * np.arange(256))
    w0 = csum[:-1]
    w1 = csum[-1] - w0
    s0 = msum[:-1]
    s1 = msum[-1] - s0
    valid = (w0 > 0) & (w1 > 0)
    var = np.zeros(255)
    var[valid] = w0[valid] * w1[valid] * (s0[valid] / w0[valid] - s1[valid] / w1[valid]) ** 2
    return int(np.argmax(var)) + 1


def binarize(img: GrayImage, threshold: int | None = None) -> ForegroundMask:
    """Ink mask: pixel < threshold.  threshold=None selects Otsu's.

    A constant image has no ink/paper separation under any threshold, so
    it yields an all-background mask flagged degenerate instead of an
    arbitrary split.
    """
    _check_threshold(threshold)
    px = img.pixels
    if px.min() == px.max():
        return ForegroundMask(np.zeros(px.shape, dtype=bool), degenerate=True)
    if threshold is None:
        threshold = otsu_threshold(px)
    return ForegroundMask(px < threshold)


# --- geometry ---------------------------------------------------------------

def estimate_orientation(mask: ForegroundMask) -> float:
    """Dominant axis angle of the foreground, radians in (-pi/2, pi/2].

    Positive angles lean toward increasing row for increasing column.
    Isotropic foregrounds report 0.
    """
    ys, xs = np.nonzero(mask.bits)
    if xs.size < 2:
        raise TooFewPixels(f"orientation needs >= 2 foreground pixels, got {xs.size}")
    x = xs - xs.mean()
    y = ys - ys.mean()
    mu20 = float((x * x).sum())
    mu02 = float((y * y).sum())
    mu11 = float((x * y).sum())
    # + 0.0 folds a signed zero so the isotropic case lands on atan2(0, .) = 0 or pi
    return 0.5 * math.atan2(2.0 * mu11 + 0.0, mu20 - mu02)


def _sample_bilinear(px: np.ndarray, xs: np.ndarray, ys: np.ndarray, fill: int) -> np.ndarray:
    """Bilinear samples of `px` at (xs, ys); taps outside the image read `fill`.

    The image is padded by one `fill` pixel on every side, and each tap's
    index is clipped to [-1, n] and shifted by one, so every tap is one
    plain gather from the padded image.  Coordinates are first clipped to
    [-2, n+1], which keeps every tap that reads the image and keeps the
    integer cast in range however far a tiny scale maps them.
    """
    h, w = px.shape
    padded = np.pad(px.astype(np.float64), 1, constant_values=float(fill))
    xs = np.clip(xs, -2.0, w + 1.0)
    ys = np.clip(ys, -2.0, h + 1.0)
    x0 = np.floor(xs).astype(np.int64)
    y0 = np.floor(ys).astype(np.int64)
    fx = xs - x0
    fy = ys - y0
    xtaps = ((1.0 - fx, np.clip(x0, -1, w) + 1), (fx, np.clip(x0 + 1, -1, w) + 1))
    out = np.zeros(xs.shape)
    for wy, yi in ((1.0 - fy, np.clip(y0, -1, h) + 1), (fy, np.clip(y0 + 1, -1, h) + 1)):
        for wx, xi in xtaps:
            out += wy * wx * padded[yi, xi]
    return np.clip(np.rint(out), 0, 255).astype(np.uint8)


def _reach(lo: float, hi: float, n: int) -> tuple[int, int]:
    """Half-open range of the indices 0..n-1 within one pixel of [lo, hi].

    The bounds are clipped to [0, n] before `floor`, which rejects infinity.
    """
    return math.floor(min(max(lo - 1.0, 0.0), n)), math.floor(min(max(hi + 2.0, 0.0), n))


def warp_similarity(img: GrayImage, rotation: float = 0.0, scale: float = 1.0,
                    translation: tuple[float, float] = (0.0, 0.0)) -> GrayImage:
    """Rotate/scale about the image center, then translate by (dx, dy) pixels.

    Output keeps the input geometry; uncovered pixels read BACKGROUND.
    Resampling is bilinear over the inverse map.  rotation is radians,
    positive toward increasing row for increasing column.

    Only the output window that non-BACKGROUND source pixels can reach is
    sampled, and the rest of the frame is BACKGROUND.  That is exact: the
    taps floor(x) and floor(x)+1 touch columns [a, b] only when x lies in
    [a-1, b+1), and an output pixel whose four taps all read BACKGROUND
    comes out as exactly BACKGROUND (the weights sum to 1 within rounding,
    which rint absorbs).  The window is the forward image of that dilated
    box plus one pixel against rounding in the two maps, and inside it every
    sample is computed as a full-frame pass would compute it.  When the
    paper is not exactly BACKGROUND, the box is the whole image and so,
    usually, is the window.
    """
    dx, dy = float(translation[0]), float(translation[1])
    for name, value in (("rotation", rotation), ("scale", scale),
                        ("translation[0]", dx), ("translation[1]", dy)):
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value!r}")
    if scale <= 0:
        raise ValueError(f"scale must be positive, got {scale!r}")
    px = img.pixels
    h, w = px.shape
    out = np.full((h, w), BACKGROUND, dtype=np.uint8)
    ink = px != BACKGROUND
    rows = np.flatnonzero(ink.any(axis=1))
    if rows.size == 0:
        return GrayImage(out)
    cols = np.flatnonzero(ink.any(axis=0))
    cx, cy = (w - 1) / 2.0, (h - 1) / 2.0
    ca, sa = math.cos(rotation), math.sin(rotation)
    # forward images of the dilated box's corners, as Python floats, which
    # overflow to inf without a warning
    corners = [(x - cx, y - cy) for x in (int(cols[0]) - 1, int(cols[-1]) + 1)
               for y in (int(rows[0]) - 1, int(rows[-1]) + 1)]
    fx = [scale * (ca * u - sa * v) + cx + dx for u, v in corners]
    fy = [scale * (sa * u + ca * v) + cy + dy for u, v in corners]
    r0, r1 = _reach(min(fy), max(fy), h)
    c0, c1 = _reach(min(fx), max(fx), w)
    yy, xx = np.meshgrid(np.arange(h)[r0:r1] - cy - dy, np.arange(w)[c0:c1] - cx - dx,
                         indexing="ij")
    xs = (ca * xx + sa * yy) / scale + cx
    ys = (-sa * xx + ca * yy) / scale + cy
    out[r0:r1, c0:c1] = _sample_bilinear(px, xs, ys, BACKGROUND)
    return GrayImage(out)


def rotate(img: GrayImage, angle: float) -> GrayImage:
    """Rotate about the image center; see `warp_similarity`."""
    return warp_similarity(img, rotation=angle)


def scale_normalize(img: GrayImage, target_size: tuple[int, int]) -> GrayImage:
    """Resample to (width, height) with pixel-center alignment, edges clamped."""
    tw, th = target_size
    if tw < 1 or th < 1:
        raise BadTarget(f"target size must be positive, got {target_size!r}")
    h, w = img.pixels.shape
    if (tw, th) == (w, h):
        return GrayImage(img.pixels.copy())
    xs = np.clip((np.arange(tw) + 0.5) * (w / tw) - 0.5, 0.0, w - 1.0)
    ys = np.clip((np.arange(th) + 0.5) * (h / th) - 0.5, 0.0, h - 1.0)
    gx, gy = np.meshgrid(xs, ys)
    return GrayImage(_sample_bilinear(img.pixels, gx, gy, BACKGROUND))


# --- full chain ---------------------------------------------------------------

def preprocess(img: GrayImage, config: PreprocessConfig = PreprocessConfig()) -> GrayImage:
    """Denoise, deslant, and rescale a scanned signature.

    Median filter, then (when slant correction is enabled and the image
    carries enough ink to define an axis) rotate by the negated dominant
    angle, then resample to the configured target.  Binarization feeds the
    orientation estimate only; the output stays grayscale.
    """
    out = median_filter(img, config.median_window)
    if config.slant_enabled:
        mask = binarize(out, config.binarize_threshold)
        if not mask.degenerate and mask.count >= 2:
            theta = estimate_orientation(mask)
            if theta != 0.0:
                out = rotate(out, -theta)
    return scale_normalize(out, config.target_size)
