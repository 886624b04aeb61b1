import hashlib
import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sigfd import imaging
from sigfd.errors import (BadTarget, BadWindow, FormatError, IoError,
                          TooFewPixels)
from sigfd.imaging import (BACKGROUND, GrayImage, PreprocessConfig,
                           _sample_bilinear, binarize, estimate_orientation,
                           load_image, median_filter, otsu_threshold,
                           preprocess, rotate, save_image, scale_normalize,
                           warp_similarity)


def test_gray_image_validates_shape():
    with pytest.raises(ValueError):
        GrayImage(np.zeros(4, dtype=np.uint8))
    with pytest.raises(ValueError):
        GrayImage(np.zeros((0, 3), dtype=np.uint8))
    img = GrayImage(np.zeros((2, 3), dtype=np.uint8))
    assert (img.height, img.width) == (2, 3)


def test_gray_image_rejects_values_uint8_cannot_hold():
    for bad in ([[0, 300]], [[-1, 255]], [[0, 1.7]], [[0, float("nan")]], np.zeros((2, 2))):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=r"\[0, 255\]"):
                GrayImage(np.asarray(bad))
    # uint8 is taken as it is; other integers and bools in range convert
    px = np.arange(6, dtype=np.uint8).reshape(2, 3)
    assert GrayImage(px).pixels is px
    for ok in ([[0, 255]], np.array([[0, 255]], dtype=np.int64), np.array([[0, 255]], dtype=np.uint16)):
        out = GrayImage(ok).pixels
        assert out.dtype == np.uint8 and out.tolist() == [[0, 255]]
    assert GrayImage(np.eye(2, dtype=bool)).pixels.tolist() == [[1, 0], [0, 1]]


# --- PGM ---------------------------------------------------------------------

def test_pgm_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    img = GrayImage(rng.integers(0, 256, size=(7, 5), dtype=np.uint8))
    path = tmp_path / "x.pgm"
    save_image(img, path)
    back = load_image(path)
    assert np.array_equal(back.pixels, img.pixels)


def test_pgm_header_is_canonical(tmp_path):
    img = GrayImage(np.arange(6, dtype=np.uint8).reshape(2, 3))
    path = tmp_path / "x.pgm"
    save_image(img, path)
    assert path.read_bytes().startswith(b"P5\n3 2\n255\n")


def test_pgm_accepts_comments_and_whitespace(tmp_path):
    raster = bytes(range(6))
    path = tmp_path / "c.pgm"
    path.write_bytes(b"P5 # magic\n# a comment line\n  3\t2 # dims\n255\n" + raster)
    img = load_image(path)
    assert img.pixels.shape == (2, 3)
    assert img.pixels[1, 2] == 5


def test_pgm_rejects_wrong_magic(tmp_path):
    path = tmp_path / "p6.pgm"
    path.write_bytes(b"P6\n1 1\n255\n\x00\x00\x00")
    with pytest.raises(FormatError):
        load_image(path)


def test_pgm_rejects_wrong_maxval(tmp_path):
    path = tmp_path / "m.pgm"
    path.write_bytes(b"P5\n1 1\n65535\n\x00\x00")
    with pytest.raises(FormatError):
        load_image(path)


def test_pgm_rejects_truncated_raster(tmp_path):
    path = tmp_path / "t.pgm"
    path.write_bytes(b"P5\n4 4\n255\n" + bytes(10))
    with pytest.raises(FormatError):
        load_image(path)


def test_pgm_missing_file():
    with pytest.raises(IoError):
        load_image("/nonexistent/nope.pgm")


# A 3x2 raster keeps every truncation point cheap.
_SMALL_PGM = b"P5\n3 2\n255\n" + bytes([0, 40, 80, 120, 160, 255])


@pytest.fixture(scope="module")
def pgm_path(tmp_path_factory):
    return tmp_path_factory.mktemp("pgm") / "fuzz.pgm"


def _load_pgm(path, data):
    """Load `data` as a PGM; only an image, a FormatError or an IoError may come back."""
    path.write_bytes(data)
    try:
        return load_image(path)
    except (FormatError, IoError):
        return None


def test_truncated_pgm_is_a_format_error(pgm_path):
    assert _load_pgm(pgm_path, _SMALL_PGM).pixels.tobytes() == _SMALL_PGM[-6:]
    for end in range(len(_SMALL_PGM)):
        pgm_path.write_bytes(_SMALL_PGM[:end])
        with pytest.raises(FormatError):
            load_image(pgm_path)


@settings(deadline=None, max_examples=300)
@given(st.data())
def test_flipped_pgm_bytes_load_or_raise_a_data_error(pgm_path, data):
    header = len(_SMALL_PGM) - 6
    flips = data.draw(st.lists(st.tuples(st.integers(0, header - 1), st.integers(0, 255)),
                               min_size=1, max_size=3))
    mangled = bytearray(_SMALL_PGM)
    for at, value in flips:
        mangled[at] = value
    img = _load_pgm(pgm_path, bytes(mangled))
    if img is not None:
        assert img.pixels.dtype == np.uint8 and img.pixels.size >= 1


@pytest.mark.parametrize("header", [
    b"P5\n0 2\n255\n", b"P5\n3 0\n255\n", b"P5\n0 0\n255\n",
    b"P5\n9223372036854775808 2\n255\n", b"P5\n3 99999999999999999999\n255\n",
    b"P5\n" + b"9" * 5000 + b" 2\n255\n", b"P5\n3 2\n" + b"9" * 5000 + b"\n",
    b"P5\n3 2\n0\n", b"P5\n3 2\n1\n", b"P5\n3 2\n254\n", b"P5\n3 2\n256\n",
    b"P5\n3 2\n65535\n", b"P5\n-3 2\n255\n", b"P5\n3 +2\n255\n",
], ids=["w=0", "h=0", "0x0", "w=2**63", "h huge", "w 5000 digits", "maxval 5000 digits",
        "maxval=0", "maxval=1", "maxval=254", "maxval=256", "maxval=65535", "w<0", "h signed"])
def test_bad_pgm_dimensions_and_maxval_are_format_errors(pgm_path, header):
    pgm_path.write_bytes(header + bytes(6))
    with pytest.raises(FormatError):
        load_image(pgm_path)


# --- median filter -------------------------------------------------------------

def _median_oracle(px, window):
    pad = window // 2
    padded = np.pad(px, pad, mode="edge")
    out = np.empty_like(px)
    for r in range(px.shape[0]):
        for c in range(px.shape[1]):
            block = padded[r:r + window, c:c + window].ravel()
            out[r, c] = sorted(block)[len(block) // 2]
    return out


def test_median_window_one_is_identity():
    rng = np.random.default_rng(1)
    img = GrayImage(rng.integers(0, 256, size=(6, 6), dtype=np.uint8))
    assert np.array_equal(median_filter(img, 1).pixels, img.pixels)


def test_median_removes_isolated_speck():
    px = np.full((5, 5), 200, dtype=np.uint8)
    px[2, 2] = 0
    out = median_filter(GrayImage(px), 3)
    assert out.pixels[2, 2] == 200


def test_median_matches_sort_oracle():
    rng = np.random.default_rng(2)
    for window in (3, 5):
        for _ in range(5):
            px = rng.integers(0, 256, size=(9, 7), dtype=np.uint8)
            out = median_filter(GrayImage(px), window)
            assert np.array_equal(out.pixels, _median_oracle(px, window))


def _median_np_oracle(px, window):
    padded = np.pad(px, window // 2, mode="edge")
    view = np.lib.stride_tricks.sliding_window_view(padded, (window, window))
    return np.median(view.reshape(px.shape + (-1,)), axis=2).astype(np.uint8)


def test_median_network_matches_np_median_on_edge_shapes():
    rng = np.random.default_rng(5)
    images = [rng.integers(0, 256, size=shape, dtype=np.uint8)
              for shape in ((1, 1), (1, 9), (9, 1), (2, 3), (3, 2))]
    images += [np.full((4, 5), value, dtype=np.uint8) for value in (0, 131, 255)]
    images += [rng.integers(0, 256, size=(16, 16), dtype=np.uint8) for _ in range(20)]
    for px in images:
        for window in (1, 3, 5):
            out = median_filter(GrayImage(px), window)
            assert out.pixels.dtype == np.uint8
            assert np.array_equal(out.pixels, _median_np_oracle(px, window)), (px.shape, window)
        assert np.array_equal(median_filter(GrayImage(px), 1).pixels, px)


def test_median_network_selects_the_median_of_every_binary_window():
    # A comparator network that selects the median of every 0/255 input
    # selects it for every input (0-1 principle).  Each 3x3 pattern sits
    # in its own block of a 3-row strip, where the block's centre pixel
    # sees exactly that block.
    patterns = (np.arange(512)[:, None] >> np.arange(9) & 1).astype(np.uint8) * 255
    strip = np.hstack(list(patterns.reshape(512, 3, 3)))
    out = median_filter(GrayImage(strip), 3).pixels[1, 1::3]
    assert np.array_equal(out, np.median(patterns, axis=1).astype(np.uint8))


def test_median_rejects_bad_windows():
    img = GrayImage(np.zeros((3, 3), dtype=np.uint8))
    for bad in (0, 2, 4, -1):
        with pytest.raises(BadWindow):
            median_filter(img, bad)


# --- binarization ----------------------------------------------------------------

def _otsu_oracle(px):
    hist = [0] * 256
    for v in px.ravel():
        hist[int(v)] += 1
    total = px.size
    best_t, best_var = 1, -1.0
    for t in range(1, 256):
        w0 = sum(hist[:t])
        w1 = total - w0
        if w0 == 0 or w1 == 0:
            continue
        mu0 = sum(v * hist[v] for v in range(t)) / w0
        mu1 = sum(v * hist[v] for v in range(t, 256)) / w1
        var = w0 * w1 * (mu0 - mu1) ** 2
        if var > best_var:
            best_var, best_t = var, t
    return best_t


def test_otsu_two_class_image():
    px = np.full((16, 16), 230, dtype=np.uint8)
    px.ravel()[:100] = 20
    t = otsu_threshold(px)
    assert 20 < t <= 230
    assert t == _otsu_oracle(px)
    mask = binarize(GrayImage(px))
    assert np.count_nonzero(mask) == 100
    assert np.array_equal(mask, px < t)


def test_otsu_matches_oracle_on_random_images():
    rng = np.random.default_rng(3)
    for _ in range(10):
        px = rng.integers(0, 256, size=(12, 12), dtype=np.uint8)
        assert otsu_threshold(px) == _otsu_oracle(px)


def test_binarize_constant_image_is_degenerate():
    img = GrayImage(np.full((8, 8), 77, dtype=np.uint8))
    mask = binarize(img)
    assert mask.dtype == bool and mask.shape == (8, 8)
    assert not mask.any()
    # an explicit threshold above the constant does not rescue it
    assert not binarize(img, threshold=100).any()


def test_binarize_explicit_threshold():
    px = np.array([[10, 200], [90, 250]], dtype=np.uint8)
    mask = binarize(GrayImage(px), threshold=100)
    assert np.array_equal(mask, px < 100)
    # the threshold is checked before a constant image returns early
    for img in (GrayImage(px), GrayImage(np.full((4, 4), 77, dtype=np.uint8))):
        for bad in (300, 256, -1, 1.5):
            with pytest.raises(ValueError, match="threshold"):
                binarize(img, threshold=bad)


# --- orientation -----------------------------------------------------------------

def _mask_from_points(shape, points):
    bits = np.zeros(shape, dtype=bool)
    for r, c in points:
        bits[r, c] = True
    return bits


def test_orientation_horizontal_is_zero():
    mask = _mask_from_points((16, 16), [(8, c) for c in range(2, 14)])
    assert abs(estimate_orientation(mask)) < 1e-12


def test_orientation_vertical_is_half_pi():
    mask = _mask_from_points((16, 16), [(r, 5) for r in range(2, 14)])
    assert abs(estimate_orientation(mask) - math.pi / 2) < 1e-12


def test_orientation_diagonals():
    down = _mask_from_points((16, 16), [(i, i) for i in range(12)])
    assert abs(estimate_orientation(down) - math.pi / 4) < 1e-12
    up = _mask_from_points((16, 16), [(11 - i, i) for i in range(12)])
    assert abs(estimate_orientation(up) + math.pi / 4) < 1e-12


def test_orientation_isotropic_is_zero():
    bits = np.zeros((10, 10), dtype=bool)
    bits[2:8, 2:8] = True
    assert estimate_orientation(bits) == 0.0


def test_orientation_needs_two_pixels():
    with pytest.raises(TooFewPixels):
        estimate_orientation(_mask_from_points((4, 4), [(1, 1)]))
    with pytest.raises(TooFewPixels):
        estimate_orientation(np.zeros((4, 4), dtype=bool))


def test_orientation_needs_a_2d_mask():
    with pytest.raises(ValueError, match="2-D"):
        estimate_orientation(np.ones(5, dtype=bool))


# --- rotation ---------------------------------------------------------------------

def test_rotate_zero_angle_is_exact_copy():
    rng = np.random.default_rng(4)
    img = GrayImage(rng.integers(0, 256, size=(9, 9), dtype=np.uint8))
    out = rotate(img, 0.0)
    assert np.array_equal(out.pixels, img.pixels)
    assert out.pixels is not img.pixels


def test_rotate_quarter_turn_matches_rot90():
    rng = np.random.default_rng(5)
    for shape in ((5, 5), (8, 8)):
        px = rng.integers(0, 256, size=shape, dtype=np.uint8)
        out = rotate(GrayImage(px), math.pi / 2)
        assert np.array_equal(out.pixels, np.rot90(px, -1))


def test_rotate_keeps_center_pixel():
    px = np.full((65, 65), BACKGROUND, dtype=np.uint8)
    px[32, 32] = 0
    out = rotate(GrayImage(px), 0.37)
    assert out.pixels[32, 32] == 0


def test_rotate_fills_uncovered_with_background():
    px = np.zeros((32, 32), dtype=np.uint8)
    out = rotate(GrayImage(px), math.pi / 4)
    assert out.pixels[0, 0] == BACKGROUND
    assert out.pixels[-1, -1] == BACKGROUND


def test_rotate_round_trip_close_away_from_border():
    # smooth blob fading to background so the corner wedges are benign
    yy, xx = np.mgrid[0:64, 0:64]
    r2 = (xx - 31.5) ** 2 + (yy - 31.5) ** 2
    px = np.rint(255 - 200 * np.exp(-r2 / (2 * 10.0 ** 2))).astype(np.uint8)
    img = GrayImage(px)
    back = rotate(rotate(img, 0.3), -0.3)
    err = np.abs(back.pixels.astype(int) - px.astype(int))[2:-2, 2:-2]
    assert err.max() <= 3


# --- scaling -----------------------------------------------------------------------

def test_scale_identity_is_exact_copy():
    rng = np.random.default_rng(6)
    img = GrayImage(rng.integers(0, 256, size=(16, 8), dtype=np.uint8))
    out = scale_normalize(img, (8, 16))
    assert np.array_equal(out.pixels, img.pixels)


def test_scale_two_to_one_averages_blocks():
    px = np.array([[0, 255], [255, 0]], dtype=np.uint8)
    out = scale_normalize(GrayImage(px), (1, 1))
    assert out.pixels.shape == (1, 1)
    assert out.pixels[0, 0] == 128  # rint(127.5) rounds half to even


def test_scale_upsamples_constant_exactly():
    img = GrayImage(np.full((4, 4), 93, dtype=np.uint8))
    out = scale_normalize(img, (32, 16))
    assert out.pixels.shape == (16, 32)
    assert (out.pixels == 93).all()


def test_scale_rejects_nonpositive_target():
    img = GrayImage(np.zeros((4, 4), dtype=np.uint8))
    with pytest.raises(BadTarget):
        scale_normalize(img, (0, 4))


# --- similarity warp ----------------------------------------------------------------

def test_warp_identity_returns_copy():
    rng = np.random.default_rng(7)
    img = GrayImage(rng.integers(0, 256, size=(12, 12), dtype=np.uint8))
    out = warp_similarity(img)
    assert np.array_equal(out.pixels, img.pixels)


def test_warp_integer_translation_moves_content():
    px = np.full((16, 16), BACKGROUND, dtype=np.uint8)
    px[4, 5] = 0
    out = warp_similarity(GrayImage(px), translation=(3.0, 2.0))
    assert out.pixels[6, 8] == 0
    assert out.pixels[4, 5] == BACKGROUND
    # shifted by the full width or more, every tap falls outside the image
    ink = GrayImage(np.zeros((5, 7), dtype=np.uint8))
    for shift in ((7.0, 0.0), (-7.0, 0.0), (0.0, 5.0), (0.0, -12.5), (100.0, -100.0)):
        assert (warp_similarity(ink, translation=shift).pixels == BACKGROUND).all()
    # half a pixel across the border: the edge row/column blends ink with
    # background, rint(127.5) = 128, and the rest stays ink
    for (dx, dy), edge in (((0.5, 0.0), np.s_[:, 0]), ((-0.5, 0.0), np.s_[:, -1]),
                           ((0.0, 0.5), np.s_[0, :]), ((0.0, -0.5), np.s_[-1, :])):
        out = warp_similarity(ink, translation=(dx, dy)).pixels
        expected = np.zeros_like(out)
        expected[edge] = 128
        assert np.array_equal(out, expected), (dx, dy)


def _bilinear_reference(px, x, y, fill):
    """One bilinear sample at (x, y): the taps floor(c) and floor(c)+1 on each
    axis, `fill` off the image, each weight product times its tap added onto
    0.0 in the order y0x0, y0x1, y1x0, y1x1, rounded half to even into a byte."""
    h, w = px.shape
    x0, y0 = math.floor(x), math.floor(y)
    acc = 0.0
    for yi, wy in ((y0, 1.0 - (y - y0)), (y0 + 1, y - y0)):
        for xi, wx in ((x0, 1.0 - (x - x0)), (x0 + 1, x - x0)):
            inside = 0 <= yi < h and 0 <= xi < w
            acc += wy * wx * (float(px[yi, xi]) if inside else float(fill))
    return min(max(round(acc), 0), 255)


def _warp_reference(px, rotation, scale, dx, dy):
    """Per-pixel bilinear inverse map; taps off the image read BACKGROUND."""
    h, w = px.shape
    cx, cy = (w - 1) / 2.0, (h - 1) / 2.0
    ca, sa = math.cos(rotation), math.sin(rotation)
    out = np.empty_like(px)
    for r in range(h):
        for c in range(w):
            u, v = c - cx - dx, r - cy - dy
            out[r, c] = _bilinear_reference(px, (ca * u + sa * v) / scale + cx,
                                            (-sa * u + ca * v) / scale + cy, BACKGROUND)
    return out


def _axis_coordinates(n):
    """Sample coordinates along an axis of n pixels: the edges -1, 0, n-1 and
    n, half-integers, points in [-2, -1) and (n, n+1], +-1e20, and a 0.1-step
    run over the first pixels, whose weights make sums that land next to a
    half, where the order of accumulation decides the byte."""
    edges = [-1e20, -2.0, -1.75, -1.5, -1.0 - 2.0 ** -30, -1.0, -0.5, -(2.0 ** -30), 0.0, 0.5,
             n - 1.5, n - 1.0, n - 0.5, n - 2.0 ** -30, float(n), n + 2.0 ** -30, n + 0.5,
             n + 1.0, 1e20]
    return np.concatenate([edges, np.arange(-2.0, min(n, 12) + 1.0, 0.1)])


@pytest.mark.parametrize("fill", [0, BACKGROUND])
@pytest.mark.parametrize("shape", [(1, 1), (1, 9), (9, 1), (256, 256)],
                         ids=["1x1", "1x9", "9x1", "256x256"])
def test_sampler_matches_a_per_sample_reference(shape, fill):
    rng = np.random.default_rng(shape[0] * 1000 + shape[1])
    px = rng.integers(0, 256, size=shape, dtype=np.uint8)
    xs, ys = _axis_coordinates(shape[1]), _axis_coordinates(shape[0])
    # every sample of the grid, in broadcast (1, C)/(R, 1) and full (R, C) form
    expected = np.array([[_bilinear_reference(px, x, y, fill) for x in xs] for y in ys])
    assert np.array_equal(_sample_bilinear(px, xs[None, :], ys[:, None], fill), expected)
    gx, gy = np.meshgrid(xs, ys)
    assert np.array_equal(_sample_bilinear(px, gx, gy, fill), expected)
    # a full grid that is no product of two axes
    gx, gy = rng.choice(xs, size=(7, 40)), rng.choice(ys, size=(7, 40))
    expected = np.vectorize(lambda x, y: _bilinear_reference(px, x, y, fill))(gx, gy)
    assert np.array_equal(_sample_bilinear(px, gx, gy, fill), expected)


def test_warp_matches_a_per_pixel_reference():
    rng = np.random.default_rng(8)
    for shape, rotation, scale, dx, dy in (((7, 9), 0.3, 1.0, 0.0, 0.0),
                                           ((9, 7), -1.1, 0.8, 2.5, -1.25),
                                           ((6, 6), 2.0, 1.7, -6.5, 4.0),
                                           ((1, 5), 0.7, 0.5, 0.5, 0.5),
                                           ((37, 53), 0.0, 1.0, 0.0, 0.0)):
        px = rng.integers(0, 256, size=shape, dtype=np.uint8)
        out = warp_similarity(GrayImage(px), rotation, scale, (dx, dy)).pixels
        assert np.array_equal(out, _warp_reference(px, rotation, scale, dx, dy)), shape
    # the identity map samples every pixel at its own centre, bit for bit
    for shape in ((256, 256), (37, 53), (1, 1), (2, 9)):
        px = rng.integers(0, 256, size=shape, dtype=np.uint8)
        assert np.array_equal(warp_similarity(GrayImage(px)).pixels, px), shape


def test_warp_rejects_nonpositive_scale():
    img = GrayImage(np.zeros((4, 4), dtype=np.uint8))
    with pytest.raises(ValueError):
        warp_similarity(img, scale=0.0)
    nan, inf = float("nan"), float("inf")
    for kwargs, name in ((dict(rotation=nan), "rotation"), (dict(rotation=inf), "rotation"),
                         (dict(rotation=-inf), "rotation"), (dict(scale=nan), "scale"),
                         (dict(scale=inf), "scale"), (dict(translation=(nan, 0.0)), "translation"),
                         (dict(translation=(0.0, inf)), "translation"),
                         (dict(translation=(-inf, 0.0)), "translation")):
        with pytest.raises(ValueError, match=name):
            warp_similarity(img, **kwargs)


def _full_frame(px, rotation, scale, dx, dy, sampler=_sample_bilinear):
    """The bilinear sampler over every output pixel of the frame."""
    h, w = px.shape
    cx, cy = (w - 1) / 2.0, (h - 1) / 2.0
    yy, xx = np.meshgrid(np.arange(h) - cy - dy, np.arange(w) - cx - dx, indexing="ij")
    ca, sa = math.cos(rotation), math.sin(rotation)
    xs = (ca * xx + sa * yy) / scale + cx
    ys = (-sa * xx + ca * yy) / scale + cy
    return sampler(px, xs, ys, BACKGROUND)


def test_warp_far_translation_is_paper_and_huge_scale_samples_the_centre():
    px = np.full((20, 30), BACKGROUND, dtype=np.uint8)
    px[8:12, 10:20] = 0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for shift in ((1e300, 0.0), (-1e300, 0.0), (0.0, 1e300), (0.0, -1e300)):
            assert (warp_similarity(GrayImage(px), translation=shift).pixels == BACKGROUND).all()
        # every output pixel samples the centre: ink here, paper once the
        # ink is moved off it; at 1e308 the ink's corners map to infinity
        for scale in (1e300, 1e308):
            for moved in (px, np.roll(px, 8, axis=1)):
                out = warp_similarity(GrayImage(moved), scale=scale).pixels
                assert np.array_equal(out, _full_frame(moved, 0.0, scale, 0.0, 0.0))
            assert (warp_similarity(GrayImage(px), scale=scale).pixels == 0).all()


@pytest.mark.parametrize("scale", [1e-20, 1e-310, 5e-324])
def test_warp_tiny_scale_keeps_one_ink_pixel(scale):
    # every output pixel but the centre maps some 1e20 pixels away, past
    # the range of an int64 index, and at a subnormal scale past the float
    # range; an even frame has no pixel at its centre, so it turns to paper
    px = np.full((9, 9), BACKGROUND, dtype=np.uint8)
    px[4, 4] = 0
    even = np.full((8, 8), BACKGROUND, dtype=np.uint8)
    even[3:5, 3:5] = 0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = warp_similarity(GrayImage(px), scale=scale).pixels
        paper = warp_similarity(GrayImage(even), scale=scale).pixels
    assert np.array_equal(out, px)
    assert (paper == BACKGROUND).all()


@st.composite
def _inked_canvases(draw):
    """Paper canvases with a few ink blobs and isolated pixels, any of which
    may touch a border."""
    h, w = draw(st.one_of(st.tuples(st.integers(1, 64), st.integers(1, 64)), st.just((256, 256))))
    paper = draw(st.sampled_from([BACKGROUND, BACKGROUND, BACKGROUND, 254]))
    px = np.full((h, w), paper, dtype=np.uint8)
    rows = st.one_of(st.just(0), st.just(h - 1), st.integers(0, h - 1))
    cols = st.one_of(st.just(0), st.just(w - 1), st.integers(0, w - 1))
    for _ in range(draw(st.integers(0, 3))):
        r, c = draw(rows), draw(cols)
        px[max(r - draw(st.integers(0, 6)), 0):r + 1, c:c + draw(st.integers(1, 9))] = (
            draw(st.integers(0, 254)))
    for _ in range(draw(st.integers(0, 3))):
        px[draw(rows), draw(cols)] = draw(st.integers(0, 254))
    return px


_CENTRE_DOT = np.full((5, 5), BACKGROUND, dtype=np.uint8)
_CENTRE_DOT[2, 2] = 0
# ink on the top and left borders and an isolated pixel in the far corner
_BORDER_INK = np.full((256, 256), BACKGROUND, dtype=np.uint8)
_BORDER_INK[0, 100:140] = 0
_BORDER_INK[120:130, 0] = 40
_BORDER_INK[255, 255] = 200


@settings(deadline=None, max_examples=300)
@given(px=_inked_canvases(), rotation=st.floats(-math.pi, math.pi), scale=st.floats(0.25, 4.0),
       shift=st.tuples(st.floats(-1.5, 1.5), st.floats(-1.5, 1.5)))
@example(px=np.full((9, 7), BACKGROUND, dtype=np.uint8), rotation=0.5, scale=1.0, shift=(0.0, 0.0))
# magnified 4x, the dot's taps reach one source pixel beyond it on each side
@example(px=_CENTRE_DOT, rotation=0.0, scale=4.0, shift=(0.0, 0.0))
@example(px=_BORDER_INK, rotation=-2.5, scale=0.3, shift=(0.4, -0.2))
@example(px=_BORDER_INK, rotation=0.1, scale=3.7, shift=(-1.0, 1.0))
# scale * (|cos| + |sin|) + 0.5, whose floor (plus 1e-6) is the dilation
# radius, landing on an integer (scale 1.5 at 0, and within rounding 1/sqrt(2)
# and 1.5/sqrt(2) at pi/4) or just below one (the nextafter scales)
@example(px=_CENTRE_DOT, rotation=0.0, scale=1.5, shift=(0.1, 0.0))
@example(px=_BORDER_INK, rotation=0.0, scale=1.5, shift=(0.25 / 256, -0.5 / 256))
@example(px=_BORDER_INK, rotation=math.pi / 4, scale=1 / math.sqrt(2), shift=(0.0, 0.0))
@example(px=_BORDER_INK, rotation=math.pi / 4, scale=1.5 / math.sqrt(2), shift=(0.0, 0.0))
@example(px=_BORDER_INK, rotation=0.0, scale=math.nextafter(1.5, 0.0), shift=(0.0, 0.0))
@example(px=_BORDER_INK, rotation=math.pi / 2, scale=math.nextafter(2.5, 0.0),
         shift=(0.3 / 256, 0.0))
# border ink moved 0.7 pixel out of the frame rounds to a point just outside
# it, whose neighbourhood still reaches the edge row and column
@example(px=_BORDER_INK, rotation=0.0, scale=1.0, shift=(-0.7 / 256, -0.7 / 256))
@example(px=_BORDER_INK, rotation=0.0, scale=1.0, shift=(0.7 / 256, 0.7 / 256))
def test_ink_bounded_warp_equals_the_full_frame_sampler(px, rotation, scale, shift):
    # shifts are fractions of the frame, so the ink moves partly or wholly out
    h, w = px.shape
    dx, dy = shift[0] * w, shift[1] * h
    out = warp_similarity(GrayImage(px), rotation, scale, (dx, dy)).pixels
    assert np.array_equal(out, _full_frame(px, rotation, scale, dx, dy))
    if h <= 12 and w <= 12:
        assert np.array_equal(out, _warp_reference(px, rotation, scale, dx, dy))


def test_warp_on_either_side_of_the_dense_ink_share(monkeypatch):
    # a frame with just under and just over the share of ink above which the
    # whole frame is sampled, and a reach that spans the frame or falls just
    # short of it; each must equal the full-frame sampler
    calls = []
    reachable = imaging._reachable
    monkeypatch.setattr(imaging, "_reachable", lambda *a: calls.append(1) or reachable(*a))
    h, w = 24, 20
    limit = math.floor(imaging._DENSE_INK_SHARE * h * w)
    order = np.random.default_rng(9).permutation(h * w)
    for count, sparse in ((limit, True), (limit + 1, False)):
        px = np.full(h * w, BACKGROUND, dtype=np.uint8)
        px[order[:count]] = np.arange(count) % 255
        px = px.reshape(h, w)
        for rotation, scale in ((0.4, 1.0), (-2.0, 0.6), (math.pi / 4, 1.3)):
            calls.clear()
            out = warp_similarity(GrayImage(px), rotation, scale, (1.5, -2.0)).pixels
            assert np.array_equal(out, _full_frame(px, rotation, scale, 1.5, -2.0))
            assert bool(calls) == sparse, (count, rotation, scale)
    # reach + 1 >= max(h, w) samples the whole frame, just below it does not
    px = np.full((h, w), BACKGROUND, dtype=np.uint8)
    px[10:13, 4:15] = 0
    for rotation, scale, sparse in ((0.0, 23.0, False), (0.0, math.nextafter(23.0, 0.0), True),
                                    (math.pi / 4, 16.5, False),
                                    (0.3, 1e6, False), (0.3, 7.0, True)):
        calls.clear()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = warp_similarity(GrayImage(px), rotation, scale, (0.5, 0.25)).pixels
        assert np.array_equal(out, _full_frame(px, rotation, scale, 0.5, 0.25))
        assert bool(calls) == sparse, (rotation, scale)


@st.composite
def _paper_frames(draw):
    """Frames mostly of paper, with no paper at all, or with one pixel that
    is not paper."""
    h, w = draw(st.integers(1, 40)), draw(st.integers(1, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["paper", "no paper", "one pixel"]))
    if kind == "no paper":
        return rng.integers(0, BACKGROUND, size=(h, w), dtype=np.uint8)
    px = np.full((h, w), BACKGROUND, dtype=np.uint8)
    if kind == "one pixel":
        px[rng.integers(h), rng.integers(w)] = rng.integers(0, BACKGROUND)
    else:
        ink = rng.random((h, w)) < draw(st.floats(0.0, 1.0))
        px[ink] = rng.integers(0, 256, size=int(ink.sum()))
    return px


def _otsu_bincount_reference(px):
    """`otsu_threshold` over a histogram counted from every pixel."""
    hist = np.bincount(px.ravel(), minlength=256).astype(np.float64)
    csum = np.cumsum(hist)
    msum = np.cumsum(hist * np.arange(256))
    w0, s0 = csum[:-1], msum[:-1]
    w1, s1 = csum[-1] - w0, msum[-1] - s0
    valid = (w0 > 0) & (w1 > 0)
    var = np.zeros(255)
    var[valid] = w0[valid] * w1[valid] * (s0[valid] / w0[valid] - s1[valid] / w1[valid]) ** 2
    return int(np.argmax(var)) + 1


def _orientation_nonzero_reference(bits):
    """`estimate_orientation` over the coordinates `np.nonzero` lists."""
    ys, xs = np.nonzero(bits)
    x, y = xs - xs.mean(), ys - ys.mean()
    return 0.5 * math.atan2(2.0 * float((x * y).sum()) + 0.0,
                            float((x * x).sum()) - float((y * y).sum()))


@settings(deadline=None, max_examples=200)
@given(px=_paper_frames(), threshold=st.integers(0, 256))
@example(px=np.full((3, 4), BACKGROUND, dtype=np.uint8), threshold=256)
@example(px=np.array([[7, 255], [255, 255]], dtype=np.uint8), threshold=256)
@example(px=np.array([[0, 254], [1, 3]], dtype=np.uint8), threshold=2)
def test_otsu_and_orientation_equal_their_full_frame_references(px, threshold):
    assert otsu_threshold(px) == _otsu_bincount_reference(px)
    # the mask of the pixels below a threshold, 256 taking every non-paper
    # pixel, in C order and as a transposed view
    bits = px < threshold if threshold < 256 else px != BACKGROUND
    for view in (bits, bits.T):
        if np.count_nonzero(view) < 2:
            with pytest.raises(TooFewPixels):
                estimate_orientation(view)
        else:
            assert estimate_orientation(view) == _orientation_nonzero_reference(view)


# --- preprocess chain ----------------------------------------------------------------

def _slanted_bar(angle_deg, size=256):
    px = np.full((size, size), BACKGROUND, dtype=np.uint8)
    slope = math.tan(math.radians(angle_deg))
    c = (size - 1) / 2
    for x in range(40, size - 40):
        y = int(round(c + slope * (x - c)))
        px[max(0, y - 1):y + 2, x - 1:x + 2] = 0
    return GrayImage(px)


def test_preprocess_output_geometry():
    rng = np.random.default_rng(8)
    img = GrayImage(rng.integers(0, 256, size=(100, 180), dtype=np.uint8))
    out = preprocess(img, PreprocessConfig(target_size=(64, 32)))
    assert out.pixels.shape == (32, 64)


def test_preprocess_deslants_a_bar():
    out = preprocess(_slanted_bar(20.0))
    theta = estimate_orientation(binarize(out))
    assert abs(theta) < math.radians(1.0)


def test_preprocess_slant_disabled_keeps_bar_slanted():
    out = preprocess(_slanted_bar(20.0), PreprocessConfig(slant_enabled=False))
    theta = estimate_orientation(binarize(out))
    assert abs(theta - math.radians(20.0)) < math.radians(2.0)


def test_preprocess_constant_image_passes_through():
    img = GrayImage(np.full((64, 64), 255, dtype=np.uint8))
    out = preprocess(img, PreprocessConfig(target_size=(32, 32)))
    assert (out.pixels == 255).all()


def test_preprocess_config_validation():
    with pytest.raises(BadWindow):
        PreprocessConfig(median_window=2)
    with pytest.raises(BadTarget):
        PreprocessConfig(target_size=(100, 64))
    with pytest.raises(ValueError):
        PreprocessConfig(binarize_threshold=999)


def test_preprocess_config_slant_flag_must_be_a_bool():
    # "no" is truthy, and would switch deslanting on
    for flag in ("no", 0, None):
        with pytest.raises(ValueError, match="slant_enabled"):
            PreprocessConfig(slant_enabled=flag)


def test_preprocess_config_target_size_is_two_ints_kept_as_a_tuple():
    config = PreprocessConfig(target_size=[128, 64])
    assert config.target_size == (128, 64) and config == PreprocessConfig(target_size=(128, 64))
    assert hash(config) == hash(PreprocessConfig(target_size=(128, 64)))
    for size in ((128.0, 64), (128, 64, 1), 128, "ab", (True, 64.5)):
        with pytest.raises(ValueError, match="target size"):
            PreprocessConfig(target_size=size)
    # the type is checked before the geometry, which keeps its own error
    with pytest.raises(BadTarget):
        PreprocessConfig(target_size=[100, 64])


# SHA-256 of the pixels `preprocess` makes of 16 scrawls from the benchmark's
# generator at seed 0, at the default target and at 128x64.  A change that
# moves any preprocessed pixel changes it, and has to show its pixel diff and
# record the new digest here; a change to `bench/scrawl.py` does too.
_GOLDEN_PREPROCESS = "22343f672210fa610d9b75031df6ae0af18181d58bc8bd63f83f7cd4b37eb660"


def test_preprocess_pixels_match_the_golden_digest(bench_module):
    scrawl = bench_module("scrawl")
    digest = hashlib.sha256()
    for config in (PreprocessConfig(), PreprocessConfig(target_size=(128, 64))):
        for (px,) in scrawl.make_identities(0, "golden", 16, 1):
            digest.update(preprocess(GrayImage(px), config).pixels.tobytes())
    assert digest.hexdigest() == _GOLDEN_PREPROCESS


# --- the trimmed stages against their previous code ------------------------------------
#
# Each stage is compared with a copy of the code a cheaper one replaced, and
# must give the same bytes: the 3x3 network on 2-D slices, binarize with a
# min/max constant test and Otsu's boolean gathers (as in
# `_otsu_bincount_reference`), the centroid by mean() (as in
# `_orientation_nonzero_reference`), and a sampler that allocated every
# weight, product and sum afresh.

def _median3x3_previous(px):
    def sort2(a, b):
        return np.minimum(a, b), np.maximum(a, b)

    def median3(a, b, c):
        lo, hi = sort2(a, b)
        return np.maximum(lo, np.minimum(hi, c))

    h, w = px.shape
    padded = np.empty((h + 2, w + 2), dtype=np.uint8)
    padded[1:-1, 1:-1] = px
    padded[0, 1:-1], padded[-1, 1:-1] = px[0], px[-1]
    padded[:, 0], padded[:, -1] = padded[:, 1], padded[:, -2]
    lo, mid = sort2(padded[:-2], padded[1:-1])
    mid, hi = sort2(mid, padded[2:])
    lo, mid = sort2(lo, mid)
    lows = np.maximum(np.maximum(lo[:, :-2], lo[:, 1:-1]), lo[:, 2:])
    highs = np.minimum(np.minimum(hi[:, :-2], hi[:, 1:-1]), hi[:, 2:])
    return median3(lows, median3(mid[:, :-2], mid[:, 1:-1], mid[:, 2:]), highs)


def _binarize_previous(px, threshold):
    if px.min() == px.max():
        return np.zeros(px.shape, dtype=bool)
    return px < (_otsu_bincount_reference(px) if threshold is None else threshold)


def _sample_bilinear_previous(px, xs, ys, fill):
    h, w = px.shape
    stride = w + 3
    padded = np.full((h + 3, stride), fill, dtype=np.uint8)
    padded[1:h + 1, 1:w + 1] = px
    flat = padded.ravel()
    xs = np.clip(xs, -1.0, w)
    ys = np.clip(ys, -1.0, h)
    x0, y0 = np.floor(xs), np.floor(ys)
    fx, fy = xs - x0, ys - y0
    base = ((y0 + 1.0) * stride + (x0 + 1.0)).astype(np.intp)
    out = np.zeros(base.shape)
    for wy, row in ((1.0 - fy, flat), (fy, flat[stride:])):
        for wx, taps in ((1.0 - fx, row), (fx, row[1:])):
            out += (wy * wx) * taps.take(base)
    return np.clip(np.rint(out), 0, 255).astype(np.uint8)


def _preprocess_previous(px, config):
    """`preprocess` chaining the previous stages: the rotation samples the
    whole frame, which the ink-bounded warp equals, and the rescale runs
    with the previous sampler."""
    out = (_median3x3_previous(px) if config.median_window == 3
           else median_filter(GrayImage(px), config.median_window).pixels)
    if config.slant_enabled:
        mask = _binarize_previous(out, config.binarize_threshold)
        if np.count_nonzero(mask) >= 2:
            theta = _orientation_nonzero_reference(mask)
            if theta != 0.0:
                out = _full_frame(out, -theta, 1.0, 0.0, 0.0, _sample_bilinear_previous)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(imaging, "_sample_bilinear", _sample_bilinear_previous)
        return scale_normalize(GrayImage(out), config.target_size).pixels


def _same_bytes(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@st.composite
def _stage_frames(draw):
    """Paper with ink on up to `_DENSE_INK_SHARE` of the frame, ink on more
    of it (over paper of 255 or of 254), one level throughout (255 being all
    paper), or noise; from 1x1 up, 1xN and Nx1 included."""
    h, w = draw(st.one_of(st.tuples(st.integers(1, 40), st.integers(1, 40)),
                          st.tuples(st.just(1), st.integers(1, 300)),
                          st.tuples(st.integers(1, 300), st.just(1))))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["sparse", "dense", "constant", "noise"]))
    if kind == "constant":
        return np.full((h, w), draw(st.sampled_from([BACKGROUND, 254, 0, 97])), dtype=np.uint8)
    if kind == "noise":
        return rng.integers(0, 256, size=(h, w), dtype=np.uint8)
    share = imaging._DENSE_INK_SHARE
    lo, hi = (0.0, share) if kind == "sparse" else (share, 1.0)
    px = np.full((h, w), BACKGROUND if kind == "sparse" else draw(st.sampled_from([255, 254])),
                 dtype=np.uint8)
    ink = rng.random((h, w)) < draw(st.floats(lo, hi))
    px[ink] = rng.integers(0, BACKGROUND, size=int(ink.sum()))
    return px


@settings(deadline=None, max_examples=300)
@given(px=_stage_frames(), threshold=st.one_of(st.none(), st.integers(0, 255)))
@example(px=np.full((1, 1), 7, dtype=np.uint8), threshold=None)
@example(px=np.array([[0, 255, 255]], dtype=np.uint8), threshold=None)
@example(px=np.array([[254], [255], [254]], dtype=np.uint8), threshold=255)
def test_trimmed_median_binarize_and_orientation_keep_the_previous_bytes(px, threshold):
    med = median_filter(GrayImage(px), 3).pixels
    assert med.flags.c_contiguous and _same_bytes(med, _median3x3_previous(px))
    assert otsu_threshold(px) == _otsu_bincount_reference(px)
    mask = binarize(GrayImage(px), threshold)
    assert _same_bytes(mask, _binarize_previous(px, threshold))
    for bits in (mask, mask.T, px != BACKGROUND):
        if np.count_nonzero(bits) >= 2:
            assert _same_bytes(estimate_orientation(bits), _orientation_nonzero_reference(bits))


@settings(deadline=None, max_examples=200)
@given(px=_stage_frames(), data=st.data(), fill=st.sampled_from([0, BACKGROUND]))
def test_in_place_sampler_keeps_the_previous_bytes(px, data, fill):
    h, w = px.shape

    def coordinates(n):
        return np.concatenate([_axis_coordinates(n),
                               data.draw(st.lists(st.floats(-3.0, n + 2.0), max_size=8))])

    xs, ys = coordinates(w), coordinates(h)
    gx, gy = np.meshgrid(xs, ys)
    # a row of xs against a column of ys, as `scale_normalize` passes them,
    # and full grids, as `warp_similarity` does
    for x, y in ((xs[None, :], ys[:, None]), (gx, gy), (gx[:, ::-1], gy[::-1])):
        given_x, given_y = x.copy(), y.copy()
        out = _sample_bilinear(px, x, y, fill)
        assert _same_bytes(out, _sample_bilinear_previous(px, x, y, fill))
        assert _same_bytes(x, given_x) and _same_bytes(y, given_y)


@pytest.mark.parametrize("config", [
    PreprocessConfig(),
    PreprocessConfig(target_size=(128, 64), binarize_threshold=128),
    PreprocessConfig(median_window=1, target_size=(512, 256)),
], ids=["default", "threshold-128-at-128x64", "median-1-at-512x256"])
def test_preprocess_keeps_the_previous_chains_bytes(bench_module, config):
    # bench scrawls, on paper of 255 and, sampled over the whole frame, of 254
    scrawl = bench_module("scrawl")
    for seed in (3, 4):
        for (px,) in scrawl.make_identities(seed, "evaluate-grid", 6, 1):
            for page in (px, np.where(px == BACKGROUND, 254, px).astype(np.uint8)):
                assert _same_bytes(preprocess(GrayImage(page), config).pixels,
                                   _preprocess_previous(page, config))
