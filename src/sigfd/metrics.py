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
        if not self.p > 0:
            raise ValueError(f"minkowski order must be positive, got {self.p!r}")


def distance(measure: DistanceMeasure, x, y) -> float:
    """The 1x1 `pairwise_distances`, whose shape check admits only equal-length vectors."""
    return float(pairwise_distances(measure, np.asarray(x)[None], np.asarray(y)[None])[0, 0])


def pairwise_distances(measure: DistanceMeasure, probes, gallery) -> np.ndarray:
    """Distance matrix D[i, j] between probes[i] and gallery[j] under `measure`.

    Each entry is reduced from its own pair of rows alone (elementwise
    products summed along the row, no matrix product), so it does not
    depend on the other rows in the call: a 1x1 call gives the same bits.
    Raises DegenerateInput when any row makes the measure undefined.
    """
    p = np.asarray(probes, dtype=np.float64)
    g = np.asarray(gallery, dtype=np.float64)
    if p.ndim != 2 or g.ndim != 2 or p.shape[1] != g.shape[1] or p.shape[1] == 0:
        raise LengthMismatch(
            f"operands must be 2-D with a shared nonzero width, got {p.shape} and {g.shape}")
    name = measure.name
    if name in ("angle", "correlation"):
        if name == "correlation":
            if (np.ptp(p, axis=1) == 0.0).any() or (np.ptp(g, axis=1) == 0.0).any():
                raise DegenerateInput("correlation distance undefined for a constant vector")
            # Centered two-pass sums; the one-pass sum(x*x) - sum(x)**2/n
            # cancels to nothing for rows with a large mean and a small spread.
            p = p - p.mean(axis=1, keepdims=True)
            g = g - g.mean(axis=1, keepdims=True)
        np2 = np.sum(p * p, axis=1)
        ng2 = np.sum(g * g, axis=1)
        if (np2 == 0.0).any() or (ng2 == 0.0).any():
            raise DegenerateInput(f"{name} distance undefined for a zero vector")
        cos = np.sum(p[:, None, :] * g[None, :, :], axis=2) / np.sqrt(np.outer(np2, ng2))
        return -np.clip(cos, -1.0, 1.0)
    diff = np.abs(p[:, None, :] - g[None, :, :])
    if name == "minkowski":
        # Scale each pair by its largest |difference| before the power, as
        # LAPACK dnrm2 does, so a high order cannot overflow to inf.
        top = diff.max(axis=2)
        top = np.where(top > 0.0, top, 1.0)
        return top * np.sum((diff / top[:, :, None]) ** measure.p, axis=2) ** (1.0 / measure.p)
    if name == "manhattan":
        return np.sum(diff, axis=2)
    if name == "euclidean":
        return np.sqrt(np.sum(diff ** 2, axis=2))
    if name == "mod-manhattan":
        sp = np.sum(np.abs(p), axis=1)
        sg = np.sum(np.abs(g), axis=1)
        if (sp == 0.0).any() or (sg == 0.0).any():
            raise DegenerateInput("modified Manhattan undefined for a zero vector")
        return np.sum(diff, axis=2) / np.outer(sp, sg)
    sp = np.sum(p * p, axis=1)
    sg = np.sum(g * g, axis=1)
    if (sp == 0.0).any() or (sg == 0.0).any():
        raise DegenerateInput("modified SSE undefined for a zero vector")
    return np.sum(diff ** 2, axis=2) / np.outer(sp, sg)
