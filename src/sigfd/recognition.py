"""Gallery enrollment, nearest-neighbor matching, synthetic data, evaluation.

A gallery is an immutable collection of descriptor templates sharing one
set of extraction parameters.  Identification ranks identities by the
minimum distance over each identity's templates; ties break toward the
lexicographically smallest identity so results never depend on
enrollment order.
"""

import dataclasses
import math
import re
from pathlib import Path

import numpy as np

# `distance`, `dft`, `dwt2_multi` and `normalize_descriptor` are not called
# here, but bench/spans.py traces calls by patching these module globals,
# so every name it looks up on this module has to stay importable.
from .descriptor import (DescriptorMeta, FourierDescriptor, PipelineConfig,
                         describe, dft, extract_features, load_descriptor,
                         normalize_descriptor, save_descriptor)
from .errors import (DuplicateSample, EmptyGallery, FormatError,
                     InsufficientSamples, IoError, MetaMismatch,
                     UnknownIdentity)
from .imaging import (BACKGROUND, GrayImage, load_image, preprocess,
                      save_image, warp_similarity)
from .metrics import DistanceMeasure, distance, pairwise_distances
from .wavelet import WaveletFamily, dwt2_multi

MANIFEST_NAME = "MANIFEST.siggal"

_GAL_MAGIC = "SIGGAL"
_GAL_VERSION = "v1"

_NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9._-]*\Z")

# Template rows are stacked this many at a time while matching, so the
# working set stays (probes x _CHUNK_ROWS x k) however large the gallery.
_CHUNK_ROWS = 1024


def _check_name(label: str, what: str) -> str:
    if not isinstance(label, str) or not _NAME_RE.match(label):
        raise ValueError(
            f"{what} must be alphanumeric with ._- separators, got {label!r}")
    return label


@dataclasses.dataclass(frozen=True, eq=False)
class Template:
    """One enrolled sample: who it belongs to and its descriptor."""

    identity: str
    sample_id: str
    descriptor: FourierDescriptor


@dataclasses.dataclass(frozen=True, eq=False)
class Gallery:
    """Immutable template store; enrollment returns a new gallery."""

    meta: DescriptorMeta
    templates: tuple[Template, ...] = ()

    def __post_init__(self):
        seen = set()
        for t in self.templates:
            key = (t.identity, t.sample_id)
            if key in seen:
                raise DuplicateSample(f"{key!r} enrolled twice")
            seen.add(key)
            if t.descriptor.meta != self.meta:
                raise MetaMismatch(
                    f"template {key!r} has meta {t.descriptor.meta}, gallery has {self.meta}")

    def identities(self) -> list[str]:
        return sorted({t.identity for t in self.templates})


def new_gallery(config: PipelineConfig) -> Gallery:
    return Gallery(config.meta)


def _check_meta(gallery: Gallery, config: PipelineConfig) -> None:
    if config.meta != gallery.meta:
        raise MetaMismatch(f"config meta {config.meta} != gallery meta {gallery.meta}")


def enroll(gallery: Gallery, identity: str, sample_id: str, img: GrayImage,
           config: PipelineConfig) -> Gallery:
    """Extract features for one labeled sample; `Gallery` rejects a duplicate."""
    _check_meta(gallery, config)
    _check_name(identity, "identity")
    _check_name(sample_id, "sample_id")
    fd = extract_features(img, config)
    return Gallery(gallery.meta, gallery.templates + (Template(identity, sample_id, fd),))


@dataclasses.dataclass(frozen=True)
class MatchResult:
    """Best identity plus the full (identity, distance) ranking."""

    identity: str
    distance: float
    ranking: tuple[tuple[str, float], ...]


@dataclasses.dataclass(frozen=True)
class VerifyResult:
    genuine: bool
    distance: float


def _probe_features(gallery: Gallery, probe: GrayImage, config: PipelineConfig) -> FourierDescriptor:
    if not gallery.templates:
        raise EmptyGallery("gallery has no enrolled templates")
    _check_meta(gallery, config)
    return extract_features(probe, config)


def _identity_minima(measure: DistanceMeasure, probes: np.ndarray, rows,
                     owners) -> tuple[list, np.ndarray]:
    """Closest-template distance per identity for each probe.

    `probes` is (P, k); template t has magnitudes `rows[t]` and identity
    `owners[t]`.  Returns the sorted identities and the (P, identities)
    minima in that column order.  Distances are computed _CHUNK_ROWS
    template rows at a time into one (P, T) matrix whose columns are then
    grouped by identity and reduced with one `np.minimum.reduceat`; `min`
    is exact, so neither enrollment order nor chunking changes a result.
    """
    names = sorted(set(owners))
    column = {name: i for i, name in enumerate(names)}
    cols = np.array([column[o] for o in owners], dtype=np.intp)
    dmat = np.hstack([
        pairwise_distances(measure, probes, np.asarray(rows[start:start + _CHUNK_ROWS]))
        for start in range(0, len(cols), _CHUNK_ROWS)])
    order = np.argsort(cols, kind="stable")
    grouped = cols[order]
    firsts = np.flatnonzero(np.r_[True, grouped[1:] != grouped[:-1]])
    return names, np.minimum.reduceat(dmat[:, order], firsts, axis=1)


def identify(gallery: Gallery, probe: GrayImage, measure: DistanceMeasure,
             config: PipelineConfig) -> MatchResult:
    """Rank identities by their closest template to the probe."""
    fd = _probe_features(gallery, probe, config)
    names, minima = _identity_minima(measure, fd.magnitudes[None],
                                     [t.descriptor.magnitudes for t in gallery.templates],
                                     [t.identity for t in gallery.templates])
    dists = minima[0]
    # Columns are in sorted identity order, so a stable sort by distance
    # breaks ties toward the lexicographically smallest identity.
    order = np.argsort(dists, kind="stable")
    ranking = tuple(zip([names[i] for i in order.tolist()], dists[order].tolist()))
    return MatchResult(ranking[0][0], ranking[0][1], ranking)


def verify(gallery: Gallery, claimed: str, probe: GrayImage, measure: DistanceMeasure,
           threshold: float, config: PipelineConfig) -> VerifyResult:
    """Accept the claimed identity when its closest template is within threshold."""
    fd = _probe_features(gallery, probe, config)
    rows = [t.descriptor.magnitudes for t in gallery.templates if t.identity == claimed]
    if not rows:
        raise UnknownIdentity(f"{claimed!r} has no enrolled templates")
    _, minima = _identity_minima(measure, fd.magnitudes[None], rows, [claimed] * len(rows))
    d = float(minima[0, 0])
    return VerifyResult(d <= threshold, d)


# --- synthetic signatures -----------------------------------------------------

SYNTH_CANVAS = 256
_SYNTH_MARGIN = 32


@dataclasses.dataclass(frozen=True)
class SynthSpec:
    """Parameters of the synthetic signature generator.

    Each identity gets a randomly drawn base scrawl; each sample is the
    base under a random similarity transform drawn from the configured
    ranges plus salt-and-pepper noise.  Degenerate ranges (zero rotation
    and translation, unit scale, zero noise) reproduce the base exactly.
    """

    n_identities: int = 18
    samples_per_identity: int = 24
    rotation_deg: float = 10.0
    scale_range: tuple[float, float] = (0.9, 1.1)
    translation_px: float = 10.0
    noise_fraction: float = 0.02
    seed: int = 0

    def __post_init__(self):
        if self.n_identities < 1 or self.samples_per_identity < 1:
            raise ValueError("need at least one identity and one sample each")
        if self.rotation_deg < 0 or self.translation_px < 0:
            raise ValueError("rotation and translation ranges must be nonnegative")
        lo, hi = self.scale_range
        if not 0 < lo <= hi:
            raise ValueError(f"scale range must be 0 < lo <= hi, got {self.scale_range!r}")
        if not 0 <= self.noise_fraction <= 0.2:
            raise ValueError(f"noise fraction must be in [0, 0.2], got {self.noise_fraction!r}")


def _chaikin(pts: np.ndarray, rounds: int = 4) -> np.ndarray:
    for _ in range(rounds):
        a = 0.75 * pts[:-1] + 0.25 * pts[1:]
        b = 0.25 * pts[:-1] + 0.75 * pts[1:]
        mid = np.empty((2 * (len(pts) - 1), 2))
        mid[0::2] = a
        mid[1::2] = b
        pts = np.vstack([pts[:1], mid, pts[-1:]])
    return pts


def _densify(pts: np.ndarray, step: float = 0.7) -> np.ndarray:
    seg = np.diff(pts, axis=0)
    lengths = np.hypot(seg[:, 0], seg[:, 1])
    out = [pts[:1]]
    for i in range(len(seg)):
        n = max(1, int(math.ceil(lengths[i] / step)))
        ts = np.arange(1, n + 1)[:, None] / n
        out.append(pts[i] + ts * seg[i])
    return np.vstack(out)


def _stamp(canvas: np.ndarray, pts: np.ndarray, radius: float, ink: int) -> None:
    r = int(math.ceil(radius))
    xs = np.rint(pts[:, 0]).astype(np.int64)
    ys = np.rint(pts[:, 1]).astype(np.int64)
    h, w = canvas.shape
    for dy in range(-r, r + 1):
        for dx in range(-r, r + 1):
            if dx * dx + dy * dy > radius * radius:
                continue
            yy = ys + dy
            xx = xs + dx
            ok = (yy >= 0) & (yy < h) & (xx >= 0) & (xx < w)
            canvas[yy[ok], xx[ok]] = np.minimum(canvas[yy[ok], xx[ok]], ink)


def _render_base(rng: np.random.Generator) -> GrayImage:
    """Draw a signature-like scrawl: a few smooth strokes in a central band."""
    size = SYNTH_CANVAS
    canvas = np.full((size, size), BACKGROUND, dtype=np.uint8)
    lo = _SYNTH_MARGIN
    hi = size - _SYNTH_MARGIN
    band = size // 4
    for _ in range(int(rng.integers(3, 7))):
        m = int(rng.integers(4, 8))
        xs = np.sort(rng.uniform(lo, hi, size=m))
        ys = rng.uniform(size // 2 - band, size // 2 + band, size=m)
        pts = _densify(_chaikin(np.column_stack([xs, ys])))
        _stamp(canvas, pts, float(rng.uniform(1.0, 2.5)), int(rng.integers(20, 90)))
    return GrayImage(canvas)


def _sample_variant(base: GrayImage, spec: SynthSpec, rng: np.random.Generator) -> GrayImage:
    angle = math.radians(rng.uniform(-spec.rotation_deg, spec.rotation_deg))
    scale = float(rng.uniform(spec.scale_range[0], spec.scale_range[1]))
    dx = float(rng.uniform(-spec.translation_px, spec.translation_px))
    dy = float(rng.uniform(-spec.translation_px, spec.translation_px))
    img = warp_similarity(base, rotation=angle, scale=scale, translation=(dx, dy))
    if spec.noise_fraction > 0:
        px = img.pixels.copy()
        k = int(round(spec.noise_fraction * px.size))
        if k:
            idx = rng.choice(px.size, size=k, replace=False)
            px.ravel()[idx] = rng.integers(0, 2, size=k).astype(np.uint8) * 255
            img = GrayImage(px)
    return img


def generate_synthetic(spec: SynthSpec) -> dict[str, list[GrayImage]]:
    """Labeled image set, deterministic in spec.seed.

    Seeding is hierarchical (independent streams per identity and per
    sample), so the same seed reproduces every pixel bit for bit.
    """
    root = np.random.SeedSequence(spec.seed)
    out: dict[str, list[GrayImage]] = {}
    for i, ident_ss in enumerate(root.spawn(spec.n_identities)):
        base_ss, samples_ss = ident_ss.spawn(2)
        base = _render_base(np.random.default_rng(base_ss))
        samples = []
        for sample_ss in samples_ss.spawn(spec.samples_per_identity):
            samples.append(_sample_variant(base, spec, np.random.default_rng(sample_ss)))
        out[f"id{i:03d}"] = samples
    return out


# --- evaluation ----------------------------------------------------------------

@dataclasses.dataclass(frozen=True)
class EvalProtocol:
    """Split parameters: train_k templates per identity, rest probed.

    test_k reports the per-identity probe count when it is uniform,
    None when identities have ragged sample counts.
    """

    train_k: int
    test_k: int | None
    seed: int


@dataclasses.dataclass(frozen=True, eq=False)
class EvalReport:
    """Recognition rate (percent) per measure row and family column."""

    measures: tuple[DistanceMeasure, ...]
    families: tuple[WaveletFamily, ...]
    rates: np.ndarray
    protocol: EvalProtocol
    degenerate_protocol: bool = False

    def __post_init__(self):
        rates = np.asarray(self.rates, dtype=np.float64)
        if rates.shape != (len(self.measures), len(self.families)):
            raise ValueError(f"rates shape {rates.shape} does not match labels")
        if rates.size and (rates.min() < 0 or rates.max() > 100):
            raise ValueError("rates must lie in [0, 100]")
        object.__setattr__(self, "rates", rates)


def evaluate(dataset: dict[str, list[GrayImage]], measures, families,
             train_k: int, seed: int = 0,
             config: PipelineConfig = PipelineConfig()) -> EvalReport:
    """Split, enroll, probe: rank-1 recognition rate per measure and family.

    The split is drawn once from `seed` and shared by every (measure,
    family) cell.  config.family is ignored; levels, k, and preprocessing
    are shared across the grid.  A single-identity dataset still runs but
    its 100% rates are flagged degenerate.
    """
    measures = tuple(measures)
    families = tuple(families)
    if not measures or not families:
        raise ValueError("need at least one measure and one family")
    labels = sorted(dataset)
    if not labels:
        raise InsufficientSamples("dataset has no identities")
    if train_k < 1:
        raise InsufficientSamples(f"train_k must be >= 1, got {train_k}")
    for label in labels:
        if len(dataset[label]) <= train_k:
            raise InsufficientSamples(
                f"identity {label!r} has {len(dataset[label])} samples, "
                f"need > train_k = {train_k}")

    rng = np.random.default_rng(seed)
    train_idx: dict[str, np.ndarray] = {}
    test_idx: dict[str, np.ndarray] = {}
    for label in labels:
        perm = rng.permutation(len(dataset[label]))
        train_idx[label] = perm[:train_k]
        test_idx[label] = perm[train_k:]

    test_sizes = {len(test_idx[label]) for label in labels}
    protocol = EvalProtocol(train_k, test_sizes.pop() if len(test_sizes) == 1 else None, seed)

    pre = {label: [preprocess(img, config.preprocess) for img in dataset[label]]
           for label in labels}
    probe_labels = np.repeat(np.arange(len(labels)), [len(test_idx[l]) for l in labels])
    owners = [label for label in labels for _ in range(train_k)]

    rates = np.zeros((len(measures), len(families)))
    for fi, family in enumerate(families):
        cfg = dataclasses.replace(config, family=family)
        feats = {label: np.stack([describe(img, cfg).magnitudes for img in pre[label]])
                 for label in labels}
        train = np.vstack([feats[label][train_idx[label]] for label in labels])
        probes = np.vstack([feats[label][test_idx[label]] for label in labels])
        for mi, measure in enumerate(measures):
            _, minima = _identity_minima(measure, probes, train, owners)
            predicted = np.argmin(minima, axis=1)
            rates[mi, fi] = 100.0 * float(np.mean(predicted == probe_labels))

    return EvalReport(measures, families, rates, protocol,
                      degenerate_protocol=len(labels) == 1)


def report_to_csv(report: EvalReport) -> str:
    """Measure rows by family columns, rates to one decimal place."""
    lines = ["measure," + ",".join(f.value for f in report.families)]
    for measure, row in zip(report.measures, report.rates):
        lines.append(measure.name + "," + ",".join(f"{v:.1f}" for v in row))
    return "\n".join(lines) + "\n"


# --- gallery and dataset files --------------------------------------------------

def save_gallery(gallery: Gallery, root) -> None:
    """Write a manifest plus one descriptor file per template.

    Layout: <root>/MANIFEST.siggal and <root>/<identity>/<sample_id>.sigfd.
    """
    meta = gallery.meta
    if meta.family is None or meta.levels is None:
        raise ValueError("gallery meta must carry family and levels to be saved")
    root = Path(root)
    try:
        root.mkdir(parents=True, exist_ok=True)
        (root / MANIFEST_NAME).write_text(
            f"{_GAL_MAGIC} {_GAL_VERSION} {meta.family.value} {meta.levels} {meta.k}\n",
            encoding="ascii")
    except OSError as exc:
        raise IoError(f"cannot write gallery under {root}: {exc}") from exc
    for t in gallery.templates:
        ident_dir = root / t.identity
        try:
            ident_dir.mkdir(exist_ok=True)
        except OSError as exc:
            raise IoError(f"cannot create {ident_dir}: {exc}") from exc
        save_descriptor(t.descriptor, ident_dir / f"{t.sample_id}.sigfd")


def load_gallery(root) -> Gallery:
    root = Path(root)
    manifest = root / MANIFEST_NAME
    try:
        header = manifest.read_text(encoding="ascii")
    except (OSError, UnicodeDecodeError) as exc:
        raise IoError(f"cannot read {manifest}: {exc}") from exc
    fields = header.split()
    if len(fields) != 5 or fields[0] != _GAL_MAGIC or fields[1] != _GAL_VERSION:
        raise FormatError(f"{manifest}: bad gallery header {header!r}")
    try:
        meta = DescriptorMeta(WaveletFamily.parse(fields[2]), int(fields[3]), int(fields[4]))
    except ValueError as exc:
        raise FormatError(f"{manifest}: {exc}") from exc
    templates = []
    for ident_dir in sorted(p for p in root.iterdir() if p.is_dir()):
        paths = sorted(ident_dir.glob("*.sigfd"))
        if paths:
            try:
                _check_name(ident_dir.name, "identity")
            except ValueError as exc:
                raise FormatError(f"{ident_dir}: {exc}") from exc
        for path in paths:
            templates.append(Template(ident_dir.name, path.stem, load_descriptor(path)))
    return Gallery(meta, tuple(templates))


def save_dataset(dataset: dict[str, list[GrayImage]], root) -> int:
    """Write <root>/<identity>/s<nnn>.pgm per sample; returns images written."""
    root = Path(root)
    count = 0
    for label in sorted(dataset):
        _check_name(label, "identity")
        ident_dir = root / label
        try:
            ident_dir.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise IoError(f"cannot create {ident_dir}: {exc}") from exc
        for i, img in enumerate(dataset[label]):
            save_image(img, ident_dir / f"s{i:03d}.pgm")
            count += 1
    return count


def load_dataset(root) -> dict[str, list[GrayImage]]:
    """Read a <root>/<identity>/*.pgm tree into a labeled image set."""
    root = Path(root)
    if not root.is_dir():
        raise IoError(f"dataset root {root} is not a directory")
    out: dict[str, list[GrayImage]] = {}
    for ident_dir in sorted(p for p in root.iterdir() if p.is_dir()):
        images = [load_image(path) for path in sorted(ident_dir.glob("*.pgm"))]
        if images:
            out[ident_dir.name] = images
    if not out:
        raise InsufficientSamples(f"no identities with .pgm samples under {root}")
    return out
