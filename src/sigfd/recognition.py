"""Gallery enrollment, nearest-neighbor matching, synthetic data, evaluation.

A gallery is an immutable collection of descriptor templates sharing one
set of extraction parameters.  Identification ranks identities by the
minimum distance over each identity's templates; ties break toward the
lexicographically smallest identity so results never depend on
enrollment order.
"""

# annotations stay unevaluated, so `np.random.Generator` does not load
# numpy.random until the synthetic generator runs
from __future__ import annotations

import bisect
import dataclasses
import math
import operator
import os
import re
import sys
from pathlib import Path

import numpy as np

# `distance`, `dft`, `dwt2_multi`, `normalize_descriptor`, `load_descriptor`
# and `save_descriptor` are not called here, but bench/spans.py traces calls
# by patching these module globals, so every name it looks up on this module
# has to stay importable.
from .descriptor import (FourierDescriptor, PipelineConfig, _check_magnitudes,
                         _header_config, describe_each, dft, extract_features,
                         load_descriptor, normalize_descriptor, save_descriptor)
from .errors import (DuplicateSample, EmptyGallery, FormatError,
                     InsufficientSamples, IoError, MetaMismatch, SigfdError,
                     UnknownIdentity, _is_int, _is_real)
from .imaging import (BACKGROUND, GrayImage, load_image, preprocess, save_image,
                      warp_similarity)
from .metrics import DistanceMeasure, distance, pairwise_distances
from .wavelet import WaveletFamily, dwt2_multi

MANIFEST_NAME = "MANIFEST.siggal"

_GAL_MAGIC = "SIGGAL"
_GAL_VERSION = "v3"

_NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9._-]*\Z")

_NO_CODES = np.zeros(0, dtype=np.int32)


def _check_name(label: str, what: str) -> None:
    if not isinstance(label, str) or not _NAME_RE.match(label):
        raise ValueError(f"{what} must be alphanumeric with ._- separators, got {label!r}")


def _merge_names(table: tuple[str, ...], codes: np.ndarray, labels, what: str):
    """The (table, codes) column with `labels` appended.

    Each distinct label is checked, in the order given, before the sorted
    table takes in the new ones and the old codes are remapped to it.
    """
    distinct = dict.fromkeys(labels)
    for label in distinct:
        _check_name(label, what)
    merged = tuple(sorted(set(table).union(distinct)))
    position = {name: i for i, name in enumerate(merged)}
    remap = np.fromiter(map(position.__getitem__, table), np.int32, len(table))
    added = np.fromiter(map(position.__getitem__, labels), np.int32, len(labels))
    return merged, np.concatenate([remap[codes], added])


def _check_codes(names, columns: np.ndarray, sample_names, sample_columns: np.ndarray) -> None:
    """Every code names a table entry, every entry is used, and no key is repeated.

    A key is the (identity, sample id) pair, encoded as
    `identity_code * len(sample_names) + sample_code`.
    """
    for table, codes, what in ((names, columns, "identity"),
                               (sample_names, sample_columns, "sample_id")):
        if codes.size and (codes.min() < 0 or codes.max() >= len(table)):
            raise ValueError(f"{what} codes must lie in [0, {len(table)})")
        if not np.bincount(codes, minlength=len(table)).all():
            raise ValueError(f"the {what} table lists a name no template has")
    keys = np.sort(columns.astype(np.int64) * len(sample_names) + sample_columns)
    if (keys[1:] == keys[:-1]).any():
        seen = set()
        key = next(k for k in zip(columns.tolist(), sample_columns.tolist())
                   if k in seen or seen.add(k))
        raise DuplicateSample(f"{(names[key[0]], sample_names[key[1]])!r} enrolled twice")


@dataclasses.dataclass(frozen=True, eq=False)
class Template:
    """One enrolled sample: who it belongs to and its descriptor."""

    identity: str
    sample_id: str
    descriptor: FourierDescriptor


@dataclasses.dataclass(frozen=True, eq=False, init=False)
class Gallery:
    """Immutable template store; enrollment returns a new gallery.

    Keys are dictionary-encoded: template t, in enrollment order, is identity
    `names[columns[t]]` with sample id `sample_names[sample_columns[t]]` and
    row t of the read-only (count, k) `magnitudes`.  Each table is sorted and
    holds each name once.  `config` is how the templates were made, from
    preprocessing to the retained count; probes must be made the same way.
    """

    config: PipelineConfig
    names: tuple[str, ...]
    columns: np.ndarray
    sample_names: tuple[str, ...]
    sample_columns: np.ndarray
    magnitudes: np.ndarray

    def __new__(cls, config: PipelineConfig, templates: tuple[Template, ...] = ()):
        for t in templates:
            # records usually share their gallery's config object, and `is` is cheap
            if t.descriptor.config is not config and t.descriptor.config != config:
                raise MetaMismatch(f"template {(t.identity, t.sample_id)!r} has config "
                                   f"{t.descriptor.config}, gallery has {config}")
        mags = np.array([t.descriptor.magnitudes for t in templates], dtype=np.float64)
        return cls._from_keys(config, tuple(t.identity for t in templates),
                              tuple(t.sample_id for t in templates),
                              mags.reshape(len(templates), config.k))

    @classmethod
    def _from_keys(cls, config: PipelineConfig, identities, sample_ids, magnitudes) -> "Gallery":
        """A gallery from one (identity, sample id) key per template, in enrollment order."""
        names, columns = _merge_names((), _NO_CODES, identities, "identity")
        sample_names, sample_columns = _merge_names((), _NO_CODES, sample_ids, "sample_id")
        return cls._from_columns(config, names, columns, sample_names, sample_columns, magnitudes)

    @classmethod
    def _from_tables(cls, config: PipelineConfig, names, columns, sample_names,
                     sample_columns, magnitudes) -> "Gallery":
        """`_from_columns` over stored tables, a file's or a copy's, checked here once each."""
        for table, what in ((names, "identity"), (sample_names, "sample_id")):
            # whole-table passes at C speed; the per-name loop names the first bad one
            if not all(map(_NAME_RE.match, table)):
                for name in table:
                    _check_name(name, what)
            if not all(map(operator.lt, table, table[1:])):
                raise ValueError(f"the {what} table must be strictly increasing")
        return cls._from_columns(config, names, columns, sample_names, sample_columns, magnitudes)

    @classmethod
    def _from_columns(cls, config: PipelineConfig, names, columns, sample_names,
                      sample_columns, magnitudes) -> "Gallery":
        """The one place a gallery is built; the arrays become read-only.

        The callers check the name tables: `_merge_names` or `_from_tables`."""
        columns = np.ascontiguousarray(columns, dtype=np.int32)
        sample_columns = np.ascontiguousarray(sample_columns, dtype=np.int32)
        mags = np.ascontiguousarray(magnitudes, dtype=np.float64)
        count = len(columns)
        if sample_columns.shape != (count,) or mags.shape != (count, config.k):
            raise ValueError(f"need {count} sample codes and rows of {config.k}, got "
                             f"{len(sample_columns)} and a matrix of shape {mags.shape}")
        _check_magnitudes(mags)
        _check_codes(names, columns, sample_names, sample_columns)
        for array in (columns, sample_columns, mags):
            array.flags.writeable = False
        gallery = object.__new__(cls)
        # the fields are frozen, so they are written past __setattr__
        vars(gallery).update(config=config, names=tuple(names),
                             columns=columns, sample_names=tuple(sample_names),
                             sample_columns=sample_columns, magnitudes=mags)
        return gallery

    def __reduce__(self):
        # copies and pickles are rebuilt, and so re-checked, from their tables and columns
        return Gallery._from_tables, (self.config, self.names, self.columns,
                                      self.sample_names, self.sample_columns, self.magnitudes)

    @property
    def identities(self) -> tuple[str, ...]:
        """Each template's identity in enrollment order, built on each access."""
        return tuple(map(self.names.__getitem__, self.columns.tolist()))

    @property
    def sample_ids(self) -> tuple[str, ...]:
        """Each template's sample id in enrollment order, built on each access."""
        return tuple(map(self.sample_names.__getitem__, self.sample_columns.tolist()))

    @property
    def templates(self) -> tuple[Template, ...]:
        """The gallery as `Template` records in enrollment order, built on each access."""
        return tuple(Template(identity, sample_id, FourierDescriptor(row, self.config))
                     for identity, sample_id, row
                     in zip(self.identities, self.sample_ids, self.magnitudes))


def _check_config(gallery: Gallery, config: PipelineConfig) -> None:
    if config != gallery.config:
        raise MetaMismatch(f"config {config} != gallery config {gallery.config}")


def enroll(gallery: Gallery, identity: str, samples: list[tuple[str, GrayImage]],
           config: PipelineConfig) -> Gallery:
    """Add `(sample_id, image)` pairs of one identity.

    The new keys are checked, names first and then against every key
    already enrolled and each other, before any image is extracted.
    """
    _check_config(gallery, config)
    names, columns = _merge_names(gallery.names, gallery.columns,
                                  (identity,) * len(samples), "identity")
    sample_names, sample_columns = _merge_names(gallery.sample_names, gallery.sample_columns,
                                                [s for s, _ in samples], "sample_id")
    _check_codes(names, columns, sample_names, sample_columns)
    rows = [extract_features(img, config).magnitudes for _, img in samples]
    return Gallery._from_columns(gallery.config, names, columns, sample_names, sample_columns,
                                 np.vstack([gallery.magnitudes, *rows]))


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
    if not gallery.columns.size:
        raise EmptyGallery("gallery has no enrolled templates")
    _check_config(gallery, config)
    return extract_features(probe, config)


def _identity_minima(measure: DistanceMeasure, probes: np.ndarray, rows: np.ndarray,
                     codes: np.ndarray, n: int) -> np.ndarray:
    """Closest-template distance per identity for each probe.

    `probes` is (P, k), `rows` is (T, k) and `codes` gives each row's
    identity in [0, n).  Returns the (P, n) minima, inf where a code has no
    row.  One blocked `pairwise_distances` scan gives the (P, T) matrix,
    and one flat `np.minimum.at` scatters it into the minima by code; `min`
    is exact, so neither enrollment order nor the scan's blocking changes a
    result.
    """
    dmat = pairwise_distances(measure, probes, rows)
    out = np.full((len(probes), n), np.inf)
    # flat indices are cheaper for `minimum.at` than a 2-D (row, code) index
    np.minimum.at(out.reshape(-1), (np.arange(0, out.size, n)[:, None] + codes).ravel(),
                  dmat.ravel())
    return out


def identify(gallery: Gallery, probe: GrayImage, measure: DistanceMeasure,
             config: PipelineConfig) -> MatchResult:
    """Rank identities by their closest template to the probe."""
    fd = _probe_features(gallery, probe, config)
    dists = _identity_minima(measure, fd.magnitudes[None], gallery.magnitudes,
                             gallery.columns, len(gallery.names))[0]
    # Codes are in sorted identity order, so a stable sort by distance
    # breaks ties toward the lexicographically smallest identity.  Only an
    # exact tie (or a nan) can tell the stable sort from the faster default.
    order = np.argsort(dists)
    ranked = dists[order]
    if not (ranked[1:] > ranked[:-1]).all():
        order = np.argsort(dists, kind="stable")
        ranked = dists[order]
    ranking = tuple(zip([gallery.names[i] for i in order.tolist()], ranked.tolist()))
    return MatchResult(ranking[0][0], ranking[0][1], ranking)


def verify(gallery: Gallery, claimed: str, probe: GrayImage, measure: DistanceMeasure,
           threshold: float, config: PipelineConfig) -> VerifyResult:
    """Accept the claimed identity when its closest template is within threshold."""
    if math.isnan(threshold):
        raise ValueError("threshold must be a number, got nan")
    fd = _probe_features(gallery, probe, config)
    code = bisect.bisect_left(gallery.names, claimed)
    if code == len(gallery.names) or gallery.names[code] != claimed:
        raise UnknownIdentity(f"{claimed!r} has no enrolled templates")
    rows = gallery.magnitudes[gallery.columns == code]
    d = float(pairwise_distances(measure, fd.magnitudes[None], rows).min())
    return VerifyResult(d <= threshold, d)


# --- synthetic signatures -----------------------------------------------------

SYNTH_CANVAS = 256
_SYNTH_MARGIN = 32


def _check_seed(seed) -> None:
    """The seed rule of `SynthSpec`, `evaluate` and both `--seed` flags."""
    if not (_is_int(seed) and seed >= 0):
        raise ValueError(f"seed must be a non-negative int, got {seed!r}")


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
        if not all(_is_int(n) and n >= 1 for n in (self.n_identities,
                                                   self.samples_per_identity)):
            raise ValueError("need at least one identity and one sample each, as ints")
        # The ranges are ints or floats.  Each of rotation and translation is
        # drawn uniformly over [-x, x], and numpy needs the width 2x finite;
        # comparing with the largest float, not inf, also refuses an int that
        # has no float.
        top = sys.float_info.max
        if not all(_is_real(x) and 0 <= 2 * x <= top
                   for x in (self.rotation_deg, self.translation_px)):
            raise ValueError("rotation and translation ranges x must be nonnegative numbers, "
                             "with [-x, x] of finite width")
        scale = self.scale_range
        if not (isinstance(scale, (tuple, list)) and len(scale) == 2 and all(map(_is_real, scale))
                and 0 < scale[0] <= scale[1] <= top):
            raise ValueError(f"scale range must be two numbers 0 < lo <= hi < inf, "
                             f"got {scale!r}")
        if not (_is_real(self.noise_fraction) and 0 <= self.noise_fraction <= 0.2):
            raise ValueError(f"noise fraction must be in [0, 0.2], got {self.noise_fraction!r}")
        _check_seed(self.seed)


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
    family) cell.  `train_k` must be an int and `seed` a non-negative int,
    or the call is a `ValueError`; a train_k below 1 is `InsufficientSamples`.
    config.family is ignored; levels, k, and preprocessing
    are shared across the grid.  A single-identity dataset still runs but
    its 100% rates are flagged degenerate.  Images are read in label order
    and each is preprocessed once and described under every family before
    the next, so the first image that fails stops the run with its error
    type, re-raised to name the identity and the image's 0-based position
    in that identity's list.
    """
    measures = tuple(measures)
    families = tuple(families)
    if not measures or not families:
        raise ValueError("need at least one measure and one family")
    if not _is_int(train_k):
        raise ValueError(f"train_k must be an int, got {train_k!r}")
    _check_seed(seed)
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

    # Row r of each family's feature matrix is the r-th image in label order.
    rng = np.random.default_rng(seed)
    train_rows, probe_rows = [], []
    start = 0
    for label in labels:
        perm = start + rng.permutation(len(dataset[label]))
        train_rows.append(perm[:train_k])
        probe_rows.append(perm[train_k:])
        start += len(dataset[label])

    test_sizes = {len(rows) for rows in probe_rows}
    protocol = EvalProtocol(train_k, test_sizes.pop() if len(test_sizes) == 1 else None, seed)
    probe_labels = np.repeat(np.arange(len(labels)), [len(rows) for rows in probe_rows])
    train_labels = np.repeat(np.arange(len(labels)), train_k)
    train_rows = np.concatenate(train_rows)
    probe_rows = np.concatenate(probe_rows)

    # One preprocessed image is held at a time: it is described under every
    # family and dropped before the next image is read.
    configs = [dataclasses.replace(config, family=family) for family in families]
    feats = np.empty((len(families), start, config.k))
    row = 0
    for label in labels:
        for sample, img in enumerate(dataset[label]):
            try:
                feats[:, row] = describe_each(preprocess(img, config.preprocess), configs)
            except SigfdError as exc:
                raise type(exc)(f"identity {label!r} sample {sample}: {exc}") from exc
            row += 1

    rates = np.zeros((len(measures), len(families)))
    for fi in range(len(families)):
        train = feats[fi, train_rows]
        probes = feats[fi, probe_rows]
        for mi, measure in enumerate(measures):
            minima = _identity_minima(measure, probes, train, train_labels, len(labels))
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
    """Write the gallery as one packed file, <root>/MANIFEST.siggal (SIGGAL v3).

    Layout: the header line `SIGGAL v3 <family> <levels> <k> <median_window>
    <width> <height> <slant 0|1> <threshold or -> <count> <identities>
    <identity bytes> <sample ids> <sample id bytes>`; the sorted identity
    table and the sorted sample-id table, one name and a newline per entry;
    zero bytes up to an 8-byte boundary; the identity codes and the sample-id
    codes as little-endian int32, one per template in enrollment order; then
    the count x k magnitudes as little-endian float64.  The file is written
    to a temporary file of its own beside the manifest, fsynced, moved over
    the manifest with `os.replace`, and the directory is fsynced, so a save
    that fails or is killed leaves the previous gallery as it was (a killed
    save may leave its `MANIFEST.siggal.*.tmp` behind, which loading ignores).
    Concurrent saves do not clash, but the last one wins: `sigfd enroll`
    serializes load, enroll and save on a lock file.
    """
    config, pre = gallery.config, gallery.config.preprocess
    # the gallery's names hold no space or newline to break a table
    tables = ["".join(f"{name}\n" for name in table).encode("ascii")
              for table in (gallery.names, gallery.sample_names)]
    threshold = "-" if pre.binarize_threshold is None else pre.binarize_threshold
    head = (f"{_GAL_MAGIC} {_GAL_VERSION} {config.family.value} {config.levels} {config.k} "
            f"{pre.median_window} {pre.target_size[0]} {pre.target_size[1]} "
            f"{int(pre.slant_enabled)} {threshold} {len(gallery.columns)} "
            f"{len(gallery.names)} {len(tables[0])} {len(gallery.sample_names)} "
            f"{len(tables[1])}\n").encode("ascii") + b"".join(tables)
    data = b"".join([head, bytes(-len(head) % 8), gallery.columns.astype("<i4").tobytes(),
                     gallery.sample_columns.astype("<i4").tobytes(),
                     gallery.magnitudes.astype("<f8").tobytes()])
    root = Path(root)
    manifest = root / MANIFEST_NAME
    # a random name rather than mkstemp's, whose 0600 mode the manifest would keep
    tmp = root / f"{MANIFEST_NAME}.{os.urandom(8).hex()}.tmp"
    try:
        root.mkdir(parents=True, exist_ok=True)
        try:
            tmp.write_bytes(data)
            with open(tmp, "r+b") as written:
                os.fsync(written.fileno())
            os.replace(tmp, manifest)
        finally:
            tmp.unlink(missing_ok=True)
        if os.name == "posix":  # make the rename durable; Windows cannot open a directory
            fd = os.open(root, os.O_RDONLY)
            try:
                os.fsync(fd)
            finally:
                os.close(fd)
    except OSError as exc:
        raise IoError(f"cannot write gallery {manifest}: {exc}") from exc


def load_gallery(root) -> Gallery:
    """Read a gallery written by `save_gallery` (SIGGAL v3).

    The manifest is read in place: the code columns and the magnitude
    matrix are views of the file's bytes, and the only Python work is per
    distinct name.  A header whose configuration its target cannot carry is
    a `FormatError`.  A manifest holds every template; `*.sigfd` files
    beside it are ignored.  A v1 or v2 gallery is no longer read: it is a
    `FormatError` that says to re-enroll from the images.
    """
    root = Path(root)
    manifest = root / MANIFEST_NAME
    try:
        data = manifest.read_bytes()
    except OSError as exc:
        raise IoError(f"cannot read {manifest}: {exc}") from exc
    end = data.find(b"\n")
    end, body = (len(data), len(data)) if end < 0 else (end, end + 1)
    try:
        header = data[:end].decode("ascii")
    except UnicodeDecodeError as exc:
        raise FormatError(f"{manifest}: bad gallery header: {exc}") from exc
    fields = header.split()
    version = fields[1] if fields[:1] == [_GAL_MAGIC] and len(fields) > 1 else None
    if version in ("v1", "v2"):
        raise FormatError(f"{manifest}: SIGGAL {version} galleries are no longer read; "
                          "re-enroll the identities from their images")
    if version != _GAL_VERSION or len(fields) != 15:
        raise FormatError(f"{manifest}: bad gallery header {header[:80]!r}")
    try:
        config = _header_config(*fields[2:10])
        if not all(size.isdigit() for size in fields[10:]):
            raise ValueError(f"bad sizes in {' '.join(fields[10:])!r}")
        count, n_names, name_bytes, n_samples, sample_bytes = map(int, fields[10:])
        samples_at = body + name_bytes
        tables_end = samples_at + sample_bytes
        codes_at = tables_end + -tables_end % 8
        payload_at = codes_at + 8 * count
        size = payload_at + 8 * count * config.k
        if len(data) != size:
            raise ValueError(f"{count} templates of {config.k} magnitudes with these tables "
                             f"need {size} bytes, got {len(data)}")
        if any(data[tables_end:codes_at]):
            raise ValueError("the padding before the codes must be zero bytes")
        names = _read_table(data[body:samples_at], n_names, "identity")
        sample_names = _read_table(data[samples_at:tables_end], n_samples, "sample_id")
        columns = np.frombuffer(data, dtype="<i4", count=count, offset=codes_at)
        sample_columns = np.frombuffer(data, dtype="<i4", count=count,
                                       offset=codes_at + 4 * count)
        mags = np.frombuffer(data, dtype="<f8", count=count * config.k, offset=payload_at)
        return Gallery._from_tables(config, names, columns, sample_names, sample_columns,
                                    mags.reshape(count, config.k))
    except ValueError as exc:
        raise FormatError(f"{manifest}: {exc}") from exc


def _read_table(raw: bytes, n: int, what: str) -> tuple[str, ...]:
    """`n` newline-terminated names, unchecked: `Gallery._from_tables` checks them."""
    names = raw.decode("ascii").split("\n")
    if names.pop() or len(names) != n:
        raise ValueError(f"the {what} table needs {n} newline-terminated names "
                         f"in {len(raw)} bytes")
    return tuple(names)


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
