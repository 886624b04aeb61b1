"""Multi-level 2-D discrete wavelet transform over orthonormal filter banks.

Analysis convention: correlate with the filter under periodic (circular)
extension and keep the even phase, y[k] = sum_t f[t] * x[(2k + t) mod n].
Synthesis is the adjoint scatter, which gives exact reconstruction for
any even extent because periodization preserves the even-lag
orthonormality of the bank.

Rows (the x axis) are filtered before columns (the y axis), so the `h`
detail plane is low-pass in x and high-pass in y (horizontal strokes),
`v` is the transpose, and `d` is high-pass in both.

The descriptor reads only the coarsest approximation plane, and
periodized lowpass-and-decimate is linear and separable, so `levels`
passes are one cached matrix per axis extent, M_h @ X @ M_w.T.  The
pixels X are `BACKGROUND` less the ink D, which is zero outside the
ink's bounding box, and every row of M sums to sqrt(2)**levels, so the
plane is a constant paper plane less M_h @ D @ M_w.T, for which
`_ink_plane` needs only the operators' columns over the box.  The
descriptor reads that ink plane alone; `approximation` puts the paper
back.  `dwt2_multi` builds every detail plane as well; it serves subband
dumps and is the oracle the operators are tested against.

Filter taps are float64 evaluations of exact spectral factorizations of
the maximally flat half-band polynomial: minimum phase for the dbN
families, the least-asymmetric factor for sym8.  Each lowpass is listed
in ascending scaling-sequence order; the matching highpass is derived on
demand by alternating-sign reversal.
"""

import dataclasses
import functools
from enum import Enum

import numpy as np

from .errors import BadLevels, MalformedDecomposition, OddDimension
from .imaging import BACKGROUND, GrayImage


class WaveletFamily(Enum):
    HAAR = "haar"
    DB2 = "db2"
    DB8 = "db8"
    DB15 = "db15"
    SYM8 = "sym8"

    @classmethod
    def parse(cls, name: str) -> "WaveletFamily":
        try:
            return cls(name.strip().lower())
        except ValueError:
            known = ", ".join(f.value for f in cls)
            raise ValueError(f"unknown wavelet family {name!r}, expected one of: {known}") from None


_HAAR_LOWPASS = (
    0.7071067811865476,
    0.7071067811865476,
)

_DB2_LOWPASS = (
    0.48296291314453416,
    0.8365163037378079,
    0.2241438680420134,
    -0.12940952255126037,
)

_DB8_LOWPASS = (
    0.05441584224310401,
    0.31287159091429995,
    0.6756307362972898,
    0.5853546836542067,
    -0.015829105256349306,
    -0.2840155429615469,
    0.0004724845739132828,
    0.12874742662047847,
    -0.017369301001807547,
    -0.044088253930794755,
    0.013981027917398282,
    0.008746094047405777,
    -0.004870352993451574,
    -0.00039174037337694705,
    0.0006754494064505693,
    -0.00011747678412476953,
)

_DB15_LOWPASS = (
    0.004538537361578899,
    0.04674339489276627,
    0.20602386398699574,
    0.4926317717081396,
    0.6458131403574243,
    0.3390025354547315,
    -0.19320413960914543,
    -0.28888259656696563,
    0.06528295284877282,
    0.190146714007123,
    -0.039666176555790945,
    -0.1111209360372317,
    0.033877143923507685,
    0.05478055058450761,
    -0.025767007328439964,
    -0.020810050169693083,
    0.015083918027835902,
    0.005101000360407543,
    -0.006487734560315745,
    -0.00024175649076162427,
    0.0019433239803822114,
    -0.000373482354137617,
    -0.0003595652443624688,
    0.00015589648992059973,
    2.5792699155318936e-05,
    -2.8133296266047814e-05,
    3.36298718173758e-06,
    1.8112704079405772e-06,
    -6.316882325881664e-07,
    6.133359913305752e-08,
)

_SYM8_LOWPASS = (
    0.001889950332767689,
    -0.0003029205147241331,
    -0.014952258337062199,
    0.0038087520138944896,
    0.04913717967373029,
    -0.027219029917103486,
    -0.0519458381078818,
    0.36444189483617895,
    0.777185751699628,
    0.4813596512590534,
    -0.061273359067811076,
    -0.14329423835127267,
    0.007607487324976609,
    0.03169508781152599,
    -0.0005421323318000107,
    -0.0033824159510050028,
)

_LOWPASS_TAPS = {
    WaveletFamily.HAAR: _HAAR_LOWPASS,
    WaveletFamily.DB2: _DB2_LOWPASS,
    WaveletFamily.DB8: _DB8_LOWPASS,
    WaveletFamily.DB15: _DB15_LOWPASS,
    WaveletFamily.SYM8: _SYM8_LOWPASS,
}


@dataclasses.dataclass(frozen=True, eq=False)
class FilterPair:
    """Analysis lowpass/highpass taps of one orthonormal bank."""

    lowpass: np.ndarray
    highpass: np.ndarray


def analysis_filters(family: WaveletFamily) -> FilterPair:
    """Quadrature-mirror pair for a family: g[k] = (-1)^k h[L-1-k]."""
    h = np.array(_LOWPASS_TAPS[family])
    g = (-1.0) ** np.arange(h.size) * h[::-1]
    return FilterPair(h, g)


@dataclasses.dataclass(frozen=True, eq=False)
class DetailSet:
    """The three detail planes of one level: h, v, d orientation."""

    h: np.ndarray
    v: np.ndarray
    d: np.ndarray


@dataclasses.dataclass(frozen=True, eq=False)
class WaveletDecomposition:
    """Approximation plane plus per-level details, finest level first."""

    family: WaveletFamily
    levels: int
    approx: np.ndarray
    details: tuple[DetailSet, ...]


def _analyze(x: np.ndarray, taps: np.ndarray, axis: int) -> np.ndarray:
    x = np.moveaxis(x, axis, -1)
    n = x.shape[-1]
    idx = (2 * np.arange(n // 2)[:, None] + np.arange(taps.size)) % n
    y = x[..., idx] @ taps
    return np.moveaxis(y, -1, axis)


def _synthesize(y: np.ndarray, taps: np.ndarray, axis: int) -> np.ndarray:
    y = np.moveaxis(y, axis, -1)
    m = y.shape[-1]
    out = np.zeros(y.shape[:-1] + (2 * m,))
    base = 2 * np.arange(m)
    for t, c in enumerate(taps):
        # stride-2 indices are distinct mod 2m, so += has no collisions
        out[..., (base + t) % (2 * m)] += c * y
    return np.moveaxis(out, -1, axis)


def dwt2_level(plane: np.ndarray, filters: FilterPair):
    """One analysis step: returns (approx, h, v, d) at half extent."""
    plane = np.asarray(plane, dtype=np.float64)
    if plane.ndim != 2:
        raise OddDimension("plane must be 2-D")
    for n in plane.shape:
        if n < 2 or n % 2:
            raise OddDimension(f"plane extents must be even and >= 2, got {plane.shape}")
    lo = _analyze(plane, filters.lowpass, axis=1)
    hi = _analyze(plane, filters.highpass, axis=1)
    ll = _analyze(lo, filters.lowpass, axis=0)
    lh = _analyze(lo, filters.highpass, axis=0)
    hl = _analyze(hi, filters.lowpass, axis=0)
    hh = _analyze(hi, filters.highpass, axis=0)
    return ll, lh, hl, hh


def _check_levels(levels, width: int, height: int) -> None:
    # shifting the extents, rather than building 2**levels, keeps a huge levels cheap
    if not isinstance(levels, int) or levels < 1 or any(
            (n >> levels) << levels != n for n in (width, height)):
        raise BadLevels(f"{width}x{height} does not support {levels!r} halvings")


def dwt2_multi(img: GrayImage, family: WaveletFamily, levels: int) -> WaveletDecomposition:
    """Iterate `dwt2_level` on the approximation `levels` times."""
    _check_levels(levels, img.width, img.height)
    filters = analysis_filters(family)
    plane = img.pixels.astype(np.float64)
    details = []
    for _ in range(levels):
        plane, lh, hl, hh = dwt2_level(plane, filters)
        details.append(DetailSet(lh, hl, hh))
    return WaveletDecomposition(family, levels, plane, tuple(details))


# An operator is built a block of identity columns at a time, sized so that
# `_analyze`'s gather takes about this many bytes rather than n * n/2 * L * 8
# (7.9 MB for db15 at n = 256).  Building the level-3 operators at n = 256
# on a 2-core x86-64 VM (best of 21), 1 MiB was the fastest budget for db8,
# sym8 and db15 (db15 2.8 ms, against 3.9 at 512 KiB, 3.0 at 4 MiB and 8.6
# for the whole identity) and tied for haar and db2: smaller blocks pay
# numpy's per-call cost more often, larger ones leave the cache.  Freeing a
# gather this large also raises glibc's dynamic mmap and trim thresholds for
# the rest of the process, and the warm workloads depend on that: a build
# whose largest block was 0.45 MiB took a later median filter from 139 to
# 388 us per image, with about 218 minor page faults per warm `identify`.
_OP_GATHER_BYTES = 1 << 20


# One entry per (family, levels, extent) in use, typically one or two per
# pipeline; the bound stops ad-hoc extents from piling up for the life of
# the process.
@functools.lru_cache(maxsize=64)
def _lowpass_operator(family: WaveletFamily, levels: int, n: int) -> np.ndarray:
    """Read-only (n >> levels) x n matrix of `levels` lowpass-and-decimate passes.

    Column j is the passes applied to the unit vector e_j, so the columns
    are built a block at a time; each entry is the same per-row product as
    when the whole identity goes through at once, so the bits match.  That
    needs blocks of at least two columns: their gather keeps the column
    axis innermost, so numpy's matmul sums each row in order in its own
    loop, as for the whole identity, while a one-column gather is
    contiguous and goes to BLAS, which sums in another order.  n is even,
    so even-width blocks leave no block of one.  The matrix is
    column-major, as `_analyze` of the whole identity leaves it: `_ink_plane`
    multiplies column slices of it, and BLAS sums in an order that depends
    on the layout.
    """
    taps = analysis_filters(family).lowpass
    cols = max(2, _OP_GATHER_BYTES // (8 * (n // 2) * taps.size)) & ~1
    op = np.empty((n >> levels, n), order="F")
    for start in range(0, n, cols):
        block = np.eye(n, min(cols, n - start), -start)
        for _ in range(levels):
            block = _analyze(block, taps, axis=0)
        op[:, start:start + cols] = block
    op.setflags(write=False)
    return op


def _ink_box(img: GrayImage):
    """The frame's shape, the row and column slices that bound its ink, and the ink there.

    Ink is every pixel that is not `BACKGROUND`, and the box holds it as
    `BACKGROUND - pixels` in float64, which is exact for 8-bit values.  A
    blank frame has empty slices and an empty box.
    """
    px = img.pixels
    ink = px != BACKGROUND
    rows, cols = (np.flatnonzero(ink.any(axis=axis)) for axis in (1, 0))
    rows, cols = (slice(i[0], i[-1] + 1) if i.size else slice(0, 0) for i in (rows, cols))
    return px.shape, rows, cols, BACKGROUND - px[rows, cols].astype(np.float64)


def _ink_plane(box, family: WaveletFamily, levels: int) -> np.ndarray:
    """Coarsest approximation plane of `BACKGROUND - pixels`, from an `_ink_box`.

    Outside the box that difference is zero, so only the operators'
    columns over the box take part: `M_h[:, rows] @ D @ M_w[:, cols].T`.
    """
    (h, w), rows, cols, ink = box
    _check_levels(levels, w, h)
    rows_op = _lowpass_operator(family, levels, h)[:, rows]
    return rows_op @ ink @ _lowpass_operator(family, levels, w)[:, cols].T


def approximation(img: GrayImage, family: WaveletFamily, levels: int) -> np.ndarray:
    """Coarsest approximation plane of `dwt2_multi`, without the details.

    The pixels are `BACKGROUND` less the ink, so the plane is the paper's
    plane, the outer product of the operators' row sums times `BACKGROUND`,
    less `_ink_plane`.  Equal to `dwt2_multi(img, family, levels).approx` up
    to rounding.
    """
    ink = _ink_plane(_ink_box(img), family, levels)
    h, w = img.pixels.shape
    paper = np.outer(_lowpass_operator(family, levels, h).sum(axis=1),
                     _lowpass_operator(family, levels, w).sum(axis=1))
    return BACKGROUND * paper - ink


def idwt2(dec: WaveletDecomposition) -> np.ndarray:
    """Invert a decomposition back to the full-resolution float plane."""
    if dec.levels != len(dec.details) or dec.levels < 1:
        raise MalformedDecomposition(
            f"declared {dec.levels} levels but carry {len(dec.details)} detail sets")
    filters = analysis_filters(dec.family)
    plane = np.asarray(dec.approx, dtype=np.float64)
    for level in reversed(dec.details):
        for band in (level.h, level.v, level.d):
            if np.asarray(band).shape != plane.shape:
                raise MalformedDecomposition(
                    f"detail shape {np.asarray(band).shape} != approx shape {plane.shape}")
        lo = _synthesize(plane, filters.lowpass, 0) + _synthesize(level.h, filters.highpass, 0)
        hi = _synthesize(level.v, filters.lowpass, 0) + _synthesize(level.d, filters.highpass, 0)
        plane = _synthesize(lo, filters.lowpass, 1) + _synthesize(hi, filters.highpass, 1)
    return plane


def subband_images(dec: WaveletDecomposition) -> list[tuple[str, GrayImage]]:
    """Subband planes rescaled to uint8 for inspection.

    Each plane is mapped affinely so its min..max spans 0..255; a constant
    plane maps to mid-gray.  Names: approx, then h1/v1/d1 for the finest
    level onward.
    """
    named = [("approx", dec.approx)]
    for i, level in enumerate(dec.details, start=1):
        named += [(f"h{i}", level.h), (f"v{i}", level.v), (f"d{i}", level.d)]
    out = []
    for name, plane in named:
        lo, hi = float(plane.min()), float(plane.max())
        if hi == lo:
            px = np.full(plane.shape, 128, dtype=np.uint8)
        else:
            px = np.rint((plane - lo) * (255.0 / (hi - lo))).astype(np.uint8)
        out.append((name, GrayImage(px)))
    return out
