"""Distance measures between feature vectors; lower always means closer.

The angle and correlation measures are similarities negated into
distances, with the underlying cosine / correlation clamped to [-1, 1]
so floating-point drift cannot push outputs past the mathematical range.
"""

import dataclasses

import numpy as np

from .errors import DegenerateInput, LengthMismatch

MEASURE_NAMES = (
    "minkowski",
    "manhattan",
    "euclidean",
    "angle",
    "correlation",
    "mod-manhattan",
    "mod-sse",
)

DEFAULT_MINKOWSKI_P = 3.0


@dataclasses.dataclass(frozen=True)
class DistanceMeasure:
    """A named measure; `p` is the Minkowski order and ignored otherwise."""

    name: str
    p: float = DEFAULT_MINKOWSKI_P

    def __post_init__(self):
        if self.name not in MEASURE_NAMES:
            known = ", ".join(MEASURE_NAMES)
            raise ValueError(f"unknown measure {self.name!r}, expected one of: {known}")
        if not 0 < self.p < np.inf:
            raise ValueError(f"minkowski order must be positive and finite, got {self.p!r}")


# Gallery rows are scanned this many at a time, so the working set stays
# (probes x _BLOCK_ROWS x k) however large the gallery.
_BLOCK_ROWS = 1024


def _centred(rows: np.ndarray, out: np.ndarray) -> None:
    # Centered two-pass sums; the one-pass sum(x*x) - sum(x)**2/n cancels
    # to nothing for rows with a large mean and a small spread.
    np.subtract(rows, rows.mean(axis=1, keepdims=True), out=out)


def _centred_square(rows: np.ndarray, out: np.ndarray) -> None:
    _centred(rows, out)
    np.square(out, out=out)


# Measures divided by an outer product of per-row sums: the term summed
# along each row, written into a scratch block, and what the error names
# when a sum is zero.
_SCALED = {
    "angle": (np.square, "angle distance"),
    "correlation": (_centred_square, "correlation distance"),
    "mod-manhattan": (np.abs, "modified Manhattan"),
    "mod-sse": (np.square, "modified SSE"),
}


def _row_sums(rows: np.ndarray, term) -> np.ndarray:
    """sum(term(rows)) along each row, _BLOCK_ROWS rows at a time in one scratch block."""
    out = np.empty(len(rows))
    scratch = np.empty((min(_BLOCK_ROWS, len(rows)), rows.shape[1]))
    for start in range(0, len(rows), _BLOCK_ROWS):
        block = rows[start:start + _BLOCK_ROWS]
        term(block, scratch[:len(block)])
        np.add.reduce(scratch[:len(block)], axis=1, out=out[start:start + len(block)])
    return out


def distance(measure: DistanceMeasure, x, y) -> float:
    """The 1x1 `pairwise_distances`, whose shape check admits only equal-length vectors."""
    return float(pairwise_distances(measure, np.asarray(x)[None], np.asarray(y)[None])[0, 0])


def pairwise_distances(measure: DistanceMeasure, probes, gallery) -> np.ndarray:
    """Distance matrix D[i, j] between probes[i] and gallery[j] under `measure`.

    Each entry is reduced from its own pair of rows alone (elementwise
    products summed along the row, no matrix product), so it does not
    depend on the other rows in the call: a 1x1 call gives the same bits.
    The gallery is scanned _BLOCK_ROWS rows at a time through one reused
    (P, block, k) buffer, each block reduced straight into the result.
    Raises DegenerateInput when any row makes the measure undefined.
    """
    p = np.asarray(probes, dtype=np.float64)
    g = np.asarray(gallery, dtype=np.float64)
    if p.ndim != 2 or g.ndim != 2 or p.shape[1] != g.shape[1] or p.shape[1] == 0:
        raise LengthMismatch(
            f"operands must be 2-D with a shared nonzero width, got {p.shape} and {g.shape}")
    name = measure.name
    if name == "correlation":
        if (np.ptp(p, axis=1) == 0.0).any() or (np.ptp(g, axis=1) == 0.0).any():
            raise DegenerateInput("correlation distance undefined for a constant vector")
    if name in _SCALED:
        term, what = _SCALED[name]
        sp, sg = _row_sums(p, term), _row_sums(g, term)
        if (sp == 0.0).any() or (sg == 0.0).any():
            raise DegenerateInput(f"{what} undefined for a zero vector")
    if name == "correlation":
        p = p - p.mean(axis=1, keepdims=True)
    out = np.empty((len(p), len(g)))
    block = max(1, min(_BLOCK_ROWS, len(g)))
    # each probe row copied down a block, so the ufuncs below run over
    # contiguous memory instead of broadcasting one row
    tiles = np.repeat(p[:, None, :], block, axis=1)
    work = np.empty_like(tiles)
    for start in range(0, len(g), block):
        rows = g[start:start + block]
        stop = start + len(rows)
        w, t, d = work[:, :len(rows)], tiles[:, :len(rows)], out[:, start:stop]
        if name == "correlation":
            _centred(rows, w)
            np.multiply(t, w, out=w)
        elif name == "angle":
            np.multiply(t, rows, out=w)
        else:
            np.subtract(t, rows, out=w)
            np.abs(w, out=w)
        if name == "minkowski":
            # Scale each pair by its largest |difference| before the power, as
            # LAPACK dnrm2 does, so a high order cannot overflow to inf.
            top = w.max(axis=2)
            top = np.where(top > 0.0, top, 1.0)
            np.divide(w, top[:, :, None], out=w)
            w **= measure.p
        elif name in ("euclidean", "mod-sse"):
            np.square(w, out=w)
        np.add.reduce(w, axis=2, out=d)
        if name == "minkowski":
            d **= 1.0 / measure.p
            d *= top
        elif name == "euclidean":
            np.sqrt(d, out=d)
        elif name in ("angle", "correlation"):
            d /= np.sqrt(np.outer(sp, sg[start:stop]))
        elif name in _SCALED:
            d /= np.outer(sp, sg[start:stop])
    if name in ("angle", "correlation"):
        np.clip(out, -1.0, 1.0, out=out)
        np.negative(out, out=out)
    return out
