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

from .errors import BadTarget, BadWindow, FormatError, IoError, TooFewPixels, _is_int

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


def _power_of_two(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


def _check_window(window) -> None:
    if not _is_int(window) or window < 1 or window % 2 == 0:
        raise BadWindow(f"median window must be an odd integer >= 1, got {window!r}")


def _check_threshold(threshold) -> None:
    if threshold is not None and not (_is_int(threshold) and 0 <= threshold <= 255):
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
        size = self.target_size
        if not (isinstance(size, (tuple, list)) and len(size) == 2
                and all(map(_is_int, size))):
            raise ValueError(f"target size must be two ints (width, height), got {size!r}")
        if not (_power_of_two(size[0]) and _power_of_two(size[1])):
            raise BadTarget(f"target size must be powers of two, got {size!r}")
        # a list would make the config unhashable and unequal to its tuple twin
        object.__setattr__(self, "target_size", tuple(size))
        if not isinstance(self.slant_enabled, bool):
            raise ValueError(f"slant_enabled must be a bool, got {self.slant_enabled!r}")
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

def _sort2(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    return np.minimum(a, b), np.maximum(a, b)


def _median3(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> np.ndarray:
    lo, hi = _sort2(a, b)
    return np.maximum(lo, np.minimum(hi, c))


def median_filter(img: GrayImage, window: int = 3) -> GrayImage:
    """Median over a window x window neighborhood, edges replicated.

    The default 3x3 window is a min/max comparator network, so it is exact
    for any input once it is for 0/1 inputs.  Each vertical triple of the
    edge-padded frame is sorted once into low, middle and high, and every
    output pixel is then the median of the largest of its three columns'
    lows, the median of their middles and the smallest of their highs.
    The network runs on 1-D slices of the flattened frame, where vertical
    neighbours lie w + 2 apart and horizontal ones 1 apart; the last two
    columns of each row of the result straddle two rows and are cropped.
    Other windows take `np.median` over a sliding-window view.
    """
    _check_window(window)
    px = img.pixels
    h, w = px.shape
    if window == 3:
        s = w + 2
        n = h * s + 2
        # two spare bytes let every slice below run to the end of the last row
        flat = np.zeros((h + 2) * s + 2, dtype=np.uint8)
        padded = flat[:-2].reshape(h + 2, s)
        padded[1:-1, 1:-1] = px
        padded[0, 1:-1], padded[-1, 1:-1] = px[0], px[-1]
        padded[:, 0], padded[:, -1] = padded[:, 1], padded[:, -2]
        lo, mid = _sort2(flat[:n], flat[s:s + n])
        mid, hi = _sort2(mid, flat[2 * s:])
        lo, mid = _sort2(lo, mid)
        lows = np.maximum(np.maximum(lo[:-2], lo[1:-1]), lo[2:])
        highs = np.minimum(np.minimum(hi[:-2], hi[1:-1]), hi[2:])
        med = _median3(lows, _median3(mid[:-2], mid[1:-1], mid[2:]), highs)
        return GrayImage(np.ascontiguousarray(med.reshape(h, s)[:, :w]))
    padded = np.pad(px, window // 2, mode="edge")
    view = np.lib.stride_tricks.sliding_window_view(padded, (window, window))
    med = np.median(view.reshape(h, w, -1), axis=2)
    return GrayImage(med.astype(np.uint8))


def _histogram(px: np.ndarray) -> np.ndarray:
    """Pixel count per gray level; paper is most of a scan, so only the rest is gathered."""
    ink = px[px != BACKGROUND]
    hist = np.bincount(ink, minlength=256)
    hist[BACKGROUND] += px.size - ink.size
    return hist


def _otsu(hist: np.ndarray) -> int:
    hist = hist.astype(np.float64)
    csum = np.cumsum(hist)
    msum = np.cumsum(hist * np.arange(256))
    w0 = csum[:-1]
    w1 = csum[-1] - w0
    s0 = msum[:-1]
    s1 = msum[-1] - s0
    # a class is empty only below the darkest or from the lightest level on,
    # where the 0/0 is zeroed; every other threshold scores at least 1
    with np.errstate(invalid="ignore"):
        var = w0 * w1 * (s0 / w0 - s1 / w1) ** 2
    var[(w0 == 0) | (w1 == 0)] = 0.0
    return int(np.argmax(var)) + 1


def otsu_threshold(pixels: np.ndarray) -> int:
    """Between-class-variance-maximizing threshold in [1, 255].

    Pixels strictly below the returned value are foreground.  Ties go to
    the smallest threshold.  Caller must ensure the histogram has two
    nonempty classes for some threshold (i.e. the image is not constant).
    """
    return _otsu(_histogram(np.asarray(pixels, dtype=np.uint8)))


def binarize(img: GrayImage, threshold: int | None = None) -> np.ndarray:
    """2-D bool ink mask: pixel < threshold.  threshold=None selects Otsu's.

    A constant image has no ink/paper separation under any threshold, so
    it yields an all-False mask instead of an arbitrary split.
    """
    _check_threshold(threshold)
    px = img.pixels
    hist = _histogram(px)
    if hist.max() == px.size:
        return np.zeros(px.shape, dtype=bool)
    if threshold is None:
        threshold = _otsu(hist)
    return px < threshold


# --- geometry ---------------------------------------------------------------

def estimate_orientation(mask: np.ndarray) -> float:
    """Dominant axis angle of a 2-D ink mask's nonzero pixels, radians in (-pi/2, pi/2].

    Positive angles lean toward increasing row for increasing column.
    Isotropic foregrounds report 0.
    """
    if mask.ndim != 2:
        raise ValueError(f"mask must be 2-D, got shape {mask.shape}")
    ys, xs = np.divmod(np.flatnonzero(mask), mask.shape[1])
    if xs.size < 2:
        raise TooFewPixels(f"orientation needs >= 2 foreground pixels, got {xs.size}")
    # the integer sums are exact, so each quotient has the bits of mean()
    x = xs - xs.sum() / xs.size
    y = ys - ys.sum() / ys.size
    mu20 = float((x * x).sum())
    mu02 = float((y * y).sum())
    mu11 = float((x * y).sum())
    # + 0.0 folds a signed zero so the isotropic case lands on atan2(0, .) = 0 or pi
    return 0.5 * math.atan2(2.0 * mu11 + 0.0, mu20 - mu02)


def _sample_bilinear(px: np.ndarray, xs: np.ndarray, ys: np.ndarray, fill: int) -> np.ndarray:
    """Bilinear samples of `px` at (xs, ys); taps outside the image read `fill`.

    `xs` and `ys` broadcast together.  The uint8 image is padded with `fill`,
    one pixel before and two after on each axis, and flattened; with stride
    w + 3 and base the flat index of (floor(y), floor(x)), the four taps are
    base, base+1, base+stride and base+stride+1.  Coordinates are clipped to
    [-1, n], which keeps every tap in the padding and changes no byte: past
    an edge all four taps read `fill`, and at the edge `fill` has weight 1
    and the image weight exactly 0.
    """
    h, w = px.shape
    stride = w + 3
    padded = np.full((h + 3, stride), fill, dtype=np.uint8)
    padded[1:h + 1, 1:w + 1] = px
    flat = padded.ravel()
    fx = np.clip(xs, -1.0, w)
    fy = np.clip(ys, -1.0, h)
    x0, y0 = np.floor(fx), np.floor(fy)
    base = ((y0 + 1.0) * stride + (x0 + 1.0)).astype(np.intp)
    fx -= x0
    fy -= y0
    # the weight products, the weighted taps and their running sum are
    # written in place: 0 + w00 t00 + w01 t01 + w10 t10 + w11 t11
    cols = ((1.0 - fx, flat), (fx, flat[1:]))
    out = np.zeros(base.shape)
    term = np.empty(base.shape)
    for wy, row in ((1.0 - fy, 0), (fy, stride)):
        for wx, taps in cols:
            np.multiply(wy, wx, out=term)
            term *= taps[row:].take(base)
            out += term
    return np.clip(np.rint(out, out=out), 0, 255, out=out).astype(np.uint8)


# Above this share of non-BACKGROUND pixels `warp_similarity` samples the
# whole frame.  Rotating 256x256 frames by 0.3 rad (best of 15), the ink's
# neighbourhood cost as much as the full frame at about 0.45 of the frame for
# pen strokes thickened step by step, and at about 0.16 for scattered single
# pixels, whose neighbourhoods barely overlap; a quarter lies between the two.
_DENSE_INK_SHARE = 0.25


def _reachable(fx: np.ndarray, fy: np.ndarray, shape: tuple[int, int], r: int) -> np.ndarray:
    """Flat indices, ascending, of the pixels of a (h, w) frame within `r`
    (L-infinity) of some point (rint(fx), rint(fy))."""
    h, w = shape
    # a point more than r outside the frame reaches no pixel, so each is
    # clipped to at most r + 1 outside it, onto a ring the crops below drop;
    # the floats are clipped, as an int cast of 1e300 would not be defined
    pad = r + 1
    width = w + 2 * pad
    xs = np.clip(np.rint(fx), -pad, w - 1 + pad).astype(np.intp)
    ys = np.clip(np.rint(fy), -pad, h - 1 + pad).astype(np.intp)
    marks = np.zeros((h + 2 * pad) * width, dtype=bool)
    marks[(ys + pad) * width + (xs + pad)] = True
    marks = marks.reshape(h + 2 * pad, width)
    # separable dilation by shifted ORs, each axis cropped back to the frame
    cols = marks[:, 1:w + 1].copy()
    for k in range(2, 2 * r + 2):
        cols |= marks[:, k:k + w]
    near = cols[1:h + 1].copy()
    for k in range(2, 2 * r + 2):
        near |= cols[k:k + h]
    return np.flatnonzero(near)


def warp_similarity(img: GrayImage, rotation: float = 0.0, scale: float = 1.0,
                    translation: tuple[float, float] = (0.0, 0.0)) -> GrayImage:
    """Rotate/scale about the image center, then translate by (dx, dy) pixels.

    Output keeps the input geometry; uncovered pixels read BACKGROUND.
    Resampling is bilinear over the inverse map.  rotation is radians,
    positive toward increasing row for increasing column.

    Only the output pixels that non-BACKGROUND ("ink") source pixels can
    affect are sampled, and the rest of the frame is BACKGROUND.  That is
    exact.  A sample at p reads the taps floor(p) and floor(p)+1 on each
    axis, so it gives an ink pixel s a nonzero weight only when p lies
    within 1 of s on both axes; a sample whose four taps all read BACKGROUND
    comes out as exactly BACKGROUND (the weights sum to 1 within rounding,
    which rint absorbs), and a point clipped at an edge puts weight 0 on the
    image.  The forward map A moves p and s to points at most
    reach = scale * (|cos| + |sin|) apart in L-infinity, so the output pixel
    lies within reach + 0.5 of rint(A(s)), that is within
    r = floor(reach + 0.5 + 1e-6) of it, the 1e-6 covering float error in
    the two maps.  Each candidate is sampled as a full-frame pass would
    sample it.  When more than `_DENSE_INK_SHARE` of the frame is ink (as
    on a scan whose paper is not exactly BACKGROUND), or the reach spans
    the frame, the whole frame is sampled instead.
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
    ink = px != BACKGROUND
    cx, cy = (w - 1) / 2.0, (h - 1) / 2.0
    ca, sa = math.cos(rotation), math.sin(rotation)
    reach = scale * (abs(ca) + abs(sa))
    dense = np.count_nonzero(ink) > _DENSE_INK_SHARE * px.size or reach + 1.0 >= max(h, w)
    if dense:
        rows, cols = np.arange(h)[:, None], np.arange(w)[None, :]
    else:
        ys, xs = np.divmod(np.flatnonzero(ink), w)
        u, v = xs - cx, ys - cy
        # the forward map only bounds where ink lands, so the order of its
        # float operations is free: the 1e-6 covers far more than their error
        sc, ss = scale * ca, scale * sa
        near = _reachable(sc * u - ss * v + (cx + dx), ss * u + sc * v + (cy + dy),
                          (h, w), math.floor(reach + 0.5 + 1e-6))
        rows, cols = np.divmod(near, w)
    yy = rows - cy - dy
    xx = cols - cx - dx
    sx = ca * xx + sa * yy
    sy = -sa * xx + ca * yy
    if scale != 1.0:  # x / 1.0 is x
        # below about 1e-308 a far pixel maps past the float range, to an
        # infinity that the sampler clips to paper as it would any far point
        with np.errstate(over="ignore"):
            sx /= scale
            sy /= scale
    sx += cx
    sy += cy
    samples = _sample_bilinear(px, sx, sy, BACKGROUND)
    if dense:
        return GrayImage(samples)
    out = np.full(h * w, BACKGROUND, dtype=np.uint8)
    out[near] = samples
    return GrayImage(out.reshape(h, w))


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
    return GrayImage(_sample_bilinear(img.pixels, xs[None, :], ys[:, None], BACKGROUND))


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
        if np.count_nonzero(mask) >= 2:
            theta = estimate_orientation(mask)
            if theta != 0.0:
                out = rotate(out, -theta)
    return scale_normalize(out, config.target_size)
