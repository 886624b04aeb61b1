"""Seeded signature-like scrawls, independent of the code under test.

Each identity is a handful of smooth pen strokes given by control
points.  A sample of that identity moves the control points by a random
similarity transform plus a small per-point wobble, renders them again
and sprinkles salt-and-pepper noise.  Nothing here calls into `sigfd`,
so a change to the program cannot change the inputs it is measured on.
"""

import hashlib
import math
import zlib

import numpy as np

CANVAS = 256
PAPER = 255
_MARGIN = 36


def identity_strokes(rng: np.random.Generator) -> list[tuple[np.ndarray, float, int]]:
    """Control points, pen radius and ink level of each stroke."""
    strokes = []
    band = CANVAS // 5
    for _ in range(int(rng.integers(3, 7))):
        n = int(rng.integers(4, 9))
        xs = np.sort(rng.uniform(_MARGIN, CANVAS - _MARGIN, size=n))
        ys = CANVAS / 2 + rng.uniform(-band, band, size=n)
        strokes.append((np.column_stack([xs, ys]),
                        float(rng.uniform(1.0, 2.4)), int(rng.integers(15, 95))))
    return strokes


def _smooth(points: np.ndarray, rounds: int = 3) -> np.ndarray:
    """Corner cutting: each round replaces a segment by its 1/4 and 3/4 points."""
    for _ in range(rounds):
        a, b = points[:-1], points[1:]
        cut = np.empty((2 * len(a), 2))
        cut[0::2] = 0.75 * a + 0.25 * b
        cut[1::2] = 0.25 * a + 0.75 * b
        points = np.concatenate([points[:1], cut, points[-1:]])
    return points


def _trace_path(points: np.ndarray, spacing: float = 0.8) -> np.ndarray:
    """Points along the polyline, at most `spacing` pixels apart."""
    steps = np.diff(points, axis=0)
    counts = np.maximum(1, np.ceil(np.hypot(steps[:, 0], steps[:, 1]) / spacing)).astype(int)
    seg = np.repeat(np.arange(len(steps)), counts)
    frac = (np.arange(counts.sum()) - np.repeat(np.cumsum(counts) - counts, counts) + 1) / np.repeat(counts, counts)
    return points[seg] + frac[:, None] * steps[seg]


def render_sample(strokes, rng: np.random.Generator, wobble: float) -> np.ndarray:
    """Move the strokes as one new sample of their identity and draw them.

    `wobble` is the standard deviation, in pixels, of the independent
    displacement of each control point: the within-identity variation.
    """
    canvas = np.full((CANVAS, CANVAS), PAPER, dtype=np.uint8)
    center = CANVAS / 2
    angle = math.radians(rng.uniform(-8.0, 8.0))
    scale = rng.uniform(0.92, 1.08)
    shift = rng.uniform(-8.0, 8.0, size=2)
    rot = scale * np.array([[math.cos(angle), -math.sin(angle)],
                            [math.sin(angle), math.cos(angle)]])
    for points, radius, ink in strokes:
        points = (points - center) @ rot.T + center + shift
        points = points + rng.normal(0.0, wobble, size=points.shape)
        path = _trace_path(_smooth(points))
        r = int(math.ceil(radius))
        cx = np.rint(path[:, 0]).astype(np.int64)
        cy = np.rint(path[:, 1]).astype(np.int64)
        for dy in range(-r, r + 1):
            for dx in range(-r, r + 1):
                if dx * dx + dy * dy > radius * radius:
                    continue
                x, y = cx + dx, cy + dy
                keep = (x >= 0) & (x < CANVAS) & (y >= 0) & (y < CANVAS)
                np.minimum.at(canvas, (y[keep], x[keep]), ink)
    flips = rng.choice(canvas.size, size=canvas.size // 50, replace=False)
    canvas.ravel()[flips] = rng.integers(0, 2, size=flips.size, dtype=np.uint8) * PAPER
    return canvas


def make_identities(seed: int, stream: str, n_identities: int, n_samples: int,
                    wobble: float = 1.2) -> list[list[np.ndarray]]:
    """`n_samples` pixel arrays for each of `n_identities` scrawls.

    `stream` names an independent input set drawn from the same seed, so
    that, for example, the identities a session enrolls are unrelated to
    the identities already in its gallery.
    """
    root = np.random.SeedSequence([seed, zlib.crc32(stream.encode())])
    out = []
    for ident_seq in root.spawn(n_identities):
        shape_seq, sample_seq = ident_seq.spawn(2)
        strokes = identity_strokes(np.random.default_rng(shape_seq))
        out.append([render_sample(strokes, np.random.default_rng(s), wobble)
                    for s in sample_seq.spawn(n_samples)])
    return out


def write_pgm(pixels: np.ndarray, path) -> None:
    """Binary PGM writer of the benchmark's own, so files do not depend on `sigfd`."""
    h, w = pixels.shape
    with open(path, "wb") as f:
        f.write(b"P5\n%d %d\n255\n" % (w, h))
        f.write(np.ascontiguousarray(pixels, dtype=np.uint8).tobytes())


def digest(*parts) -> str:
    """SHA-256 over nested lists of pixel arrays and strings."""
    h = hashlib.sha256()

    def feed(obj):
        if isinstance(obj, np.ndarray):
            h.update(str(obj.shape).encode())
            h.update(np.ascontiguousarray(obj).tobytes())
        elif isinstance(obj, (list, tuple)):
            for item in obj:
                feed(item)
        else:
            h.update(repr(obj).encode())

    feed(parts)
    return h.hexdigest()
