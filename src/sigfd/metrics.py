"""Distance measures between feature vectors; lower always means closer.

The angle and correlation measures are similarities negated into
distances, with the underlying cosine / correlation clamped to [-1, 1]
so floating-point drift cannot push outputs past the mathematical range.
"""

import dataclasses
import sys

import numpy as np

from .errors import DegenerateInput, LengthMismatch, _is_real

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
        # the distance is raised to 1/p, which is inf for p below about 5.6e-309;
        # the largest float, not inf, bounds p so that an int beyond it is refused
        p = self.p
        if not (_is_real(p) and 0 < p <= sys.float_info.max and 1.0 / float(p) < np.inf):
            raise ValueError(f"minkowski order must be a positive number, with p and 1/p "
                             f"finite, got {p!r}")


# Gallery rows are scanned this many at a time, so the working set stays
# (probes x _BLOCK_ROWS x k) however large the gallery.
_BLOCK_ROWS = 1024

# Measures divided by an outer product of per-row sums: the term summed
# along each row, and what the error names when a sum is zero.
_SCALED = {
    "angle": (np.square, "angle distance"),
    "correlation": (np.square, "correlation distance"),
    "mod-manhattan": (np.abs, "modified Manhattan"),
    "mod-sse": (np.square, "modified SSE"),
}


def _prepare(name: str, rows: np.ndarray, out: np.ndarray | None = None):
    """`rows` as the scan reads them under `name`, and their sums for a scaled measure.

    Correlation centres the rows into `out`, scratch of their shape (None
    for a new array); the other scaled measures write their term there.
    """
    if name not in _SCALED:
        return rows, None
    term, what = _SCALED[name]
    if name == "correlation":
        if (np.ptp(rows, axis=1) == 0.0).any():
            raise DegenerateInput("correlation distance undefined for a constant vector")
        # Centered two-pass sums; the one-pass sum(x*x) - sum(x)**2/n cancels
        # to nothing for rows with a large mean and a small spread.
        rows = np.subtract(rows, rows.mean(axis=1, keepdims=True), out=out)
        out = None  # the centred rows hold `out`, so the term takes a temporary
    sums = np.add.reduce(term(rows, out=out), axis=1)
    if (sums == 0.0).any():
        raise DegenerateInput(f"{what} undefined for a zero vector")
    return rows, sums


def distance(measure: DistanceMeasure, x, y) -> float:
    """The 1x1 `pairwise_distances`, whose shape check admits only equal-length vectors."""
    return float(pairwise_distances(measure, np.asarray(x)[None], np.asarray(y)[None])[0, 0])


def pairwise_distances(measure: DistanceMeasure, probes, gallery) -> np.ndarray:
    """Distance matrix D[i, j] between probes[i] and gallery[j] under `measure`.

    Each entry is reduced from its own pair of rows alone (elementwise
    products summed along the row, no matrix product), so it does not
    depend on the other rows in the call: a 1x1 call gives the same bits.
    The gallery is scanned _BLOCK_ROWS rows at a time through one reused
    (P, block, k) buffer, each block prepared and reduced straight into
    the result.  Raises DegenerateInput when any row makes the measure
    undefined, or when an overflow, a division by zero or an invalid
    operation takes a distance out of the float range.
    """
    p = np.asarray(probes, dtype=np.float64)
    g = np.asarray(gallery, dtype=np.float64)
    if p.ndim != 2 or g.ndim != 2 or p.shape[1] != g.shape[1] or p.shape[1] == 0:
        raise LengthMismatch(
            f"operands must be 2-D with a shared nonzero width, got {p.shape} and {g.shape}")
    try:
        with np.errstate(all="raise", under="ignore"):
            return _scan(measure, p, g)
    except FloatingPointError as exc:
        raise DegenerateInput(f"{measure.name} distance leaves the float range: {exc}") from None


def _scan(measure: DistanceMeasure, p: np.ndarray, g: np.ndarray) -> np.ndarray:
    name = measure.name
    p, sp = _prepare(name, p)
    out = np.empty((len(p), len(g)))
    block = max(1, min(_BLOCK_ROWS, len(g)))
    # each probe row copied down a block, so the ufuncs below run over
    # contiguous memory instead of broadcasting one row
    tiles = np.repeat(p[:, None, :], block, axis=1)
    # one probe's worth at least: a block is prepared in work[0] even with no probes
    work = np.empty((max(len(p), 1),) + tiles.shape[1:])
    for start in range(0, len(g), block):
        n = min(block, len(g) - start)
        w, t, d = work[:len(p), :n], tiles[:, :n], out[:, start:start + n]
        rows, sg = _prepare(name, g[start:start + n], work[0, :n])
        if name == "correlation":
            w[1:] = rows  # every probe's copy of the centred block
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
            d /= np.sqrt(np.outer(sp, sg))
        elif name in _SCALED:
            d /= np.outer(sp, sg)
    if name in ("angle", "correlation"):
        np.clip(out, -1.0, 1.0, out=out)
        np.negative(out, out=out)
    return out
