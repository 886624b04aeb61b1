"""The three workloads: inputs, program-side set-up, operations and checks.

`run.py` drives every workload through the `Workload` interface.
Operations call `sigfd` through module attributes (`recognition.identify`,
`cli.run`) so that the tracer's wrappers are seen when installed.
"""

import contextlib
import io
import re

import numpy as np

import scrawl
from sigfd import cli, descriptor, recognition
from sigfd.descriptor import FourierDescriptor, PipelineConfig
from sigfd.imaging import GrayImage
from sigfd.metrics import MEASURE_NAMES, DistanceMeasure
from sigfd.wavelet import WaveletFamily

CONFIG = PipelineConfig()
MANHATTAN = DistanceMeasure("manhattan")
# The largest genuine closest-template Manhattan distance over seeds 0-7
# of both gallery streams was 3.6, so every genuine claim must pass this.
VERIFY_THRESHOLD = 6.0

TEMPLATES_PER_ID = 4
# Fillers are real descriptors moved by a per-identity and then a
# per-template log-normal factor, so they crowd the real identities
# without copying them.
FILLER_IDENTITY_SIGMA = 0.45
FILLER_TEMPLATE_SIGMA = 0.15


class Workload:
    """Inputs drawn from a seed, a set-up to time, and operations to run.

    `primary` and `secondary` name the operation kinds reported as the
    end-to-end latencies; the run goes on until the primary kind has
    `min_primary` samples.
    """

    primary = secondary = ""
    min_primary = 100

    def __init__(self, seed: int):
        self.seed = seed
        self.inputs = self.draw()
        self.digest = scrawl.digest(*self.inputs)
        self.hits = 0
        self.tries = 0

    def draw(self) -> tuple:
        """The workload's input images, from benchmark code only."""
        raise NotImplementedError

    def regenerate_digest(self) -> str:
        return scrawl.digest(*self.draw())

    def setup(self) -> None:
        """Program-side preparation, timed as `setup_s`."""
        raise NotImplementedError

    def release(self) -> None:
        """Drop the last set-up's objects, so the next timed set-up does not free them."""

    def cycle(self) -> list:
        """The next `(kind, call)` operations; `call()` says whether the output checked out."""
        raise NotImplementedError

    def rank1_pct(self) -> float:
        """Share of identify calls whose top identity was the true one."""
        return 100.0 * self.hits / self.tries

    def checks(self) -> list:
        """Run-level output checks as `(name, ok, detail)`."""
        return []


class _GalleryParts:
    """Real templates extracted once, plus seeded filler magnitudes.

    Extraction and the filler draw happen before any timing;
    `build()` is the program-side gallery construction that set-up times.
    """

    def __init__(self, images, seed: int, n_templates: int):
        self.real = []
        for i, samples in enumerate(images):
            for j, px in enumerate(samples[:TEMPLATES_PER_ID]):
                fd = descriptor.extract_features(GrayImage(px), CONFIG)
                self.real.append(recognition.Template(f"r{i:03d}", f"t{j}", fd))
        real = np.array([t.descriptor.magnitudes for t in self.real])
        n_fill = (n_templates - len(self.real)) // TEMPLATES_PER_ID
        rng = np.random.default_rng([seed, 7])
        base = real[rng.integers(len(real), size=n_fill)]
        centers = base * np.exp(rng.normal(0.0, FILLER_IDENTITY_SIGMA, size=base.shape))
        self.filler = centers[:, None, :] * np.exp(
            rng.normal(0.0, FILLER_TEMPLATE_SIGMA, size=(n_fill, TEMPLATES_PER_ID, real.shape[1])))

    def build(self) -> recognition.Gallery:
        meta = CONFIG.meta
        fillers = [recognition.Template(f"f{f:05d}", f"t{j}", FourierDescriptor(mags, meta))
                   for f, per_id in enumerate(self.filler) for j, mags in enumerate(per_id)]
        return recognition.Gallery(meta, tuple(self.real + fillers))


def _probes(images) -> tuple[list, list]:
    """Split each identity's non-template samples between identify and verify probes."""
    lists = ([], [])
    for j in range(TEMPLATES_PER_ID, len(images[0])):
        for i, samples in enumerate(images):
            lists[(i + j) % 2].append((f"r{i:03d}", samples[j]))
    return lists


class Gallery10k(Workload):
    """In-memory library calls against a 10,000-template, 2,500-identity gallery."""

    primary, secondary = "identify", "verify"
    REAL_IDS, SAMPLES = 12, TEMPLATES_PER_ID + 16
    TEMPLATES = 10_000

    def __init__(self, seed: int, work_dir):
        super().__init__(seed)
        ident, claim = _probes(self.inputs[0])
        self.identify_probes = [(label, GrayImage(px)) for label, px in ident]
        self.verify_probes = [(label, GrayImage(px)) for label, px in claim]
        self.parts = _GalleryParts(self.inputs[0], seed, self.TEMPLATES)
        self.gallery = None
        self.n = 0

    def draw(self):
        return (scrawl.make_identities(self.seed, "gallery-10k", self.REAL_IDS, self.SAMPLES),)

    def setup(self):
        self.gallery = self.parts.build()

    def release(self):
        self.gallery = None

    def _identify(self, label, img) -> bool:
        res = recognition.identify(self.gallery, img, MANHATTAN, CONFIG)
        self.tries += 1
        self.hits += res.identity == label
        return (res.ranking[0] == (res.identity, res.distance) and np.isfinite(res.distance)
                and len(res.ranking) == self.TEMPLATES // TEMPLATES_PER_ID)

    def _verify(self, label, img) -> bool:
        res = recognition.verify(self.gallery, label, img, MANHATTAN, VERIFY_THRESHOLD, CONFIG)
        return bool(res.genuine)

    def cycle(self):
        a = self.identify_probes[self.n % len(self.identify_probes)]
        b = self.verify_probes[self.n % len(self.verify_probes)]
        self.n += 1
        return [("identify", lambda: self._identify(*a)), ("verify", lambda: self._verify(*b))]


_IDENTIFY_OUT = re.compile(r"(\S+) (-?\d+\.\d+)\n\Z")
_VERIFY_OUT = re.compile(r"(genuine|forgery) (-?\d+\.\d+)\n\Z")


class CliSession(Workload):
    """In-process `sigfd.cli.run` calls against an on-disk gallery of about 1k templates.

    One cycle enrolls a new identity, then runs a batch of reads.
    """

    primary, secondary = "identify", "enroll"
    REAL_IDS, SAMPLES = 12, TEMPLATES_PER_ID + 16
    ENROLL_IDS, ENROLL_IMAGES = 16, 2
    TEMPLATES = 1_000
    IDENTIFY_PER_CYCLE, VERIFY_PER_CYCLE = 8, 1

    def __init__(self, seed: int, work_dir):
        super().__init__(seed)
        images, pool = self.inputs
        inputs = work_dir / "inputs"
        inputs.mkdir(parents=True)
        self.parts = _GalleryParts(images, seed, self.TEMPLATES)
        self.gallery_dir = str(work_dir / "gallery")
        recognition.save_gallery(self.parts.build(), self.gallery_dir)
        self.built = None
        self.identify_probes, self.verify_probes = (
            [(label, self._write(inputs / f"{kind}-{n:03d}.pgm", px))
             for n, (label, px) in enumerate(items)]
            for kind, items in zip(("identify", "verify"), _probes(images)))
        self.enroll_sets = [[self._write(inputs / f"enroll-{e:02d}-s{j}.pgm", px)
                             for j, px in enumerate(samples)]
                            for e, samples in enumerate(pool)]
        self.n = 0

    @staticmethod
    def _write(path, px) -> str:
        scrawl.write_pgm(px, path)
        return str(path)

    def draw(self):
        return (scrawl.make_identities(self.seed, "cli-session", self.REAL_IDS, self.SAMPLES),
                scrawl.make_identities(self.seed, "cli-enroll", self.ENROLL_IDS, self.ENROLL_IMAGES))

    def setup(self):
        # Writing the gallery is left out of the timing: on ext4 in the VM
        # the benchmark was defined on, the same save_gallery took 0.2 s in
        # one run and 1.0 s a few runs later, as earlier runs' files piled up.
        self.built = self.parts.build()

    def release(self):
        self.built = None

    def _run(self, argv, pattern):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.run(argv)
        match = pattern.match(out.getvalue())
        if code != 0 or match is None:
            raise RuntimeError(f"sigfd {argv[0]} exited {code}: {out.getvalue()!r} {err.getvalue()!r}")
        return match

    def _identify(self, label, path) -> bool:
        match = self._run(["identify", self.gallery_dir, path], _IDENTIFY_OUT)
        self.tries += 1
        self.hits += match.group(1) == label
        return True

    def _verify(self, label, path) -> bool:
        match = self._run(["verify", self.gallery_dir, label,
                           "--threshold", str(VERIFY_THRESHOLD), path], _VERIFY_OUT)
        return match.group(1) == "genuine"

    def _enroll(self, n: int) -> bool:
        name = f"n{n:04d}"
        paths = self.enroll_sets[n % len(self.enroll_sets)]
        expect = re.compile(rf"enrolled {len(paths)} sample\(s\) for {name}\n\Z")
        self._run(["enroll", self.gallery_dir, name, *paths], expect)
        return True

    def cycle(self):
        c = self.n
        self.n += 1
        ops = [("enroll", lambda: self._enroll(c))]
        for k in range(self.IDENTIFY_PER_CYCLE):
            label, path = self.identify_probes[(c * self.IDENTIFY_PER_CYCLE + k) % len(self.identify_probes)]
            ops.append(("identify", lambda label=label, path=path: self._identify(label, path)))
        for k in range(self.VERIFY_PER_CYCLE):
            label, path = self.verify_probes[(c * self.VERIFY_PER_CYCLE + k) % len(self.verify_probes)]
            ops.append(("verify", lambda label=label, path=path: self._verify(label, path)))
        return ops


class EvaluateGrid(Workload):
    """`recognition.evaluate` over every measure and family on 8 identities x 8 samples.

    The secondary operation is the same evaluation restricted to the
    default family, which holds out the non-default families' DWT work.
    """

    primary, secondary = "evaluate", "evaluate_sym8"
    min_primary = 1
    IDS, SAMPLES, TRAIN_K = 8, 8, 4
    # With the galleries' 1.2 px wobble every cell reads 100.0 and the CSV
    # carries no information; 5 px leaves a few misses in the grid.
    WOBBLE = 5.0
    MEASURES = tuple(DistanceMeasure(name) for name in MEASURE_NAMES)

    def __init__(self, seed: int, work_dir):
        super().__init__(seed)
        self.root = work_dir / "dataset"
        for i, samples in enumerate(self.inputs[0]):
            (self.root / f"id{i:02d}").mkdir(parents=True)
            for j, px in enumerate(samples):
                scrawl.write_pgm(px, self.root / f"id{i:02d}" / f"s{j:02d}.pgm")
        self.dataset = None
        self.csv = {"evaluate": set(), "evaluate_sym8": set()}
        self.rates = []

    def draw(self):
        return (scrawl.make_identities(self.seed, "evaluate-grid", self.IDS, self.SAMPLES,
                                       self.WOBBLE),)

    def setup(self):
        self.dataset = recognition.load_dataset(self.root)

    def release(self):
        self.dataset = None

    def _evaluate(self, kind: str, families) -> bool:
        report = recognition.evaluate(self.dataset, self.MEASURES, families,
                                      self.TRAIN_K, self.seed, CONFIG)
        self.csv[kind].add(recognition.report_to_csv(report))
        if kind == "evaluate":
            self.rates.append(float(report.rates.mean()))
        return report.rates.shape == (len(self.MEASURES), len(families))

    def cycle(self):
        return [("evaluate", lambda: self._evaluate("evaluate", list(WaveletFamily))),
                ("evaluate_sym8", lambda: self._evaluate("evaluate_sym8", [WaveletFamily.SYM8]))]

    def rank1_pct(self) -> float:
        """Mean rank-1 rate over the grid's cells."""
        return float(np.mean(self.rates))

    def full_csv(self) -> str | None:
        return next(iter(self.csv["evaluate"]), None)

    def sym8_csv(self) -> str | None:
        return next(iter(self.csv["evaluate_sym8"]), None)

    def checks(self):
        out = [(f"{kind} CSV identical across calls", len(texts) == 1, f"{len(texts)} distinct")
               for kind, texts in self.csv.items()]
        full, sym8 = self.full_csv(), self.sym8_csv()
        if full and sym8:
            col = list(WaveletFamily).index(WaveletFamily.SYM8) + 1
            from_full = [row.split(",")[0] + "," + row.split(",")[col] for row in full.splitlines()]
            out.append(("sym8 column of the grid equals the sym8-only CSV",
                        from_full == sym8.splitlines(), ""))
        return out


WORKLOADS = {"gallery-10k": Gallery10k, "cli-session": CliSession, "evaluate-grid": EvaluateGrid}
