"""One slow, plainly correct reference per stage.

Each parity property in the tests compares a live preprocessing stage of
`sigfd.imaging` with the definition here, byte for byte, and the fast
transform with `spectrum` to a tolerance.  Nothing here imports from
`sigfd` but `BACKGROUND`, so no reference can call the stage it checks.
A new same-bits mode adds at most one reference to this module.
"""

import math

import numpy as np

from sigfd.imaging import BACKGROUND


def median(px, window):
    """Each pixel's window x window block of the edge-padded frame, sorted,
    and its middle element."""
    padded = np.pad(px, window // 2, mode="edge")
    blocks = np.lib.stride_tricks.sliding_window_view(padded, (window, window))
    return np.sort(blocks.reshape(px.shape + (-1,)), axis=-1)[..., window * window // 2]


def otsu(px):
    """The threshold t in [1, 255] that maximizes w0 * w1 * (mu0 - mu1) ** 2
    over a histogram of every pixel, where w0 counts the pixels below t;
    ties go to the smallest t, and a constant frame gives 1."""
    hist = np.bincount(px.ravel(), minlength=256).tolist()
    total, moment = sum(hist), sum(v * n for v, n in enumerate(hist))
    w0 = s0 = 0
    best_t, best_var = 1, -1.0
    for t in range(1, 256):
        w0 += hist[t - 1]
        s0 += (t - 1) * hist[t - 1]
        w1, s1 = total - w0, moment - s0
        if w0 and w1:
            var = w0 * w1 * (s0 / w0 - s1 / w1) ** 2
            if var > best_var:
                best_t, best_var = t, var
    return best_t


def binarize(px, threshold=None):
    """px < threshold, Otsu's when None; a constant frame has no ink."""
    if px.min() == px.max():
        return np.zeros(px.shape, dtype=bool)
    return px < (otsu(px) if threshold is None else threshold)


def orientation(bits):
    """Half the angle of the second central moments of the coordinates
    `np.nonzero` lists, a signed zero folded to +0."""
    ys, xs = np.nonzero(bits)
    x, y = xs - xs.mean(), ys - ys.mean()
    return 0.5 * math.atan2(2.0 * float((x * y).sum()) + 0.0,
                            float((x * x).sum()) - float((y * y).sum()))


def sample(px, xs, ys, fill):
    """Bilinear samples at (xs, ys), which broadcast together: the taps
    floor(c) and floor(c) + 1 on each axis, `fill` where a tap is off the
    frame, each weight product times its tap added onto 0.0 in the order
    y0x0, y0x1, y1x0, y1x1, rounded half to even into a byte."""
    h, w = px.shape
    x0, y0 = np.floor(xs), np.floor(ys)
    acc = np.zeros(np.broadcast_shapes(np.shape(xs), np.shape(ys)))
    for yi, wy in ((y0, 1.0 - (ys - y0)), (y0 + 1.0, ys - y0)):
        for xi, wx in ((x0, 1.0 - (xs - x0)), (x0 + 1.0, xs - x0)):
            inside = (0 <= yi) & (yi < h) & (0 <= xi) & (xi < w)
            tap = px[np.clip(yi, 0, h - 1).astype(np.intp), np.clip(xi, 0, w - 1).astype(np.intp)]
            acc += wy * wx * np.where(inside, tap, float(fill))
    return np.clip(np.rint(acc), 0, 255).astype(np.uint8)


def warp(px, rotation, scale, dx, dy):
    """Every output pixel sampled at its inverse map about the frame's
    centre, taps off the frame reading BACKGROUND."""
    h, w = px.shape
    cx, cy = (w - 1) / 2.0, (h - 1) / 2.0
    yy, xx = np.meshgrid(np.arange(h) - cy - dy, np.arange(w) - cx - dx, indexing="ij")
    ca, sa = math.cos(rotation), math.sin(rotation)
    return sample(px, (ca * xx + sa * yy) / scale + cx, (-sa * xx + ca * yy) / scale + cy,
                  BACKGROUND)


def rescale(px, target_size):
    """Resampled to (width, height) at pixel centres, clamped to the frame."""
    (tw, th), (h, w) = target_size, px.shape
    xs = np.clip((np.arange(tw) + 0.5) * (w / tw) - 0.5, 0.0, w - 1.0)
    ys = np.clip((np.arange(th) + 0.5) * (h / th) - 0.5, 0.0, h - 1.0)
    return sample(px, xs[None, :], ys[:, None], BACKGROUND)


def preprocess(px, config):
    """The median, then, when slant correction is on and the ink mask holds
    at least two pixels, the rotation by minus its orientation, then the
    rescale; `config` is read for its four fields."""
    out = median(px, config.median_window)
    if config.slant_enabled:
        bits = binarize(out, config.binarize_threshold)
        if np.count_nonzero(bits) >= 2:
            out = warp(out, -orientation(bits), 1.0, 0.0, 0.0)
    return rescale(out, config.target_size)


def spectrum(u):
    """The direct normalized sum: coefficient k is the mean over t of
    u[t] * exp(-2 pi i k t / N)."""
    n = len(u)
    t = np.arange(n)
    return np.array([np.sum(u * np.exp(-2j * np.pi * k * t / n)) for k in range(n)]) / n
