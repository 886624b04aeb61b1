"""Acceptance gate: eight checks pinning the artifact's core claims.

Each check prints one PASS/FAIL line (visible under `pytest -s`) and
asserts the same condition, so the module doubles as a gate and a
human-readable checklist.  Tolerances are fixed here and nowhere else.
"""

import math
import time

import numpy as np

from sigfd.descriptor import dft, normalize_descriptor, PipelineConfig
from sigfd.imaging import (BACKGROUND, GrayImage, binarize,
                           estimate_orientation, median_filter, preprocess,
                           rotate)
from sigfd.metrics import MEASURE_NAMES, DistanceMeasure, distance
from sigfd.recognition import (Gallery, SynthSpec, enroll, evaluate,
                               generate_synthetic, identify, report_to_csv)
from sigfd.wavelet import WaveletFamily, dwt2_multi, idwt2

import reference

TOL_RECONSTRUCTION = 1e-9   # criterion 1
TOL_SPECTRUM = 1e-9         # criterion 2
TOL_INVARIANCE = 1e-9       # criterion 3
MIN_ROTATION_HITS = 95      # criterion 4, out of 100 trials
MAX_ROTATION_SECONDS = 60.0
TOL_SYMMETRY = 1e-12        # criterion 5
TOL_REDUCTION = 1e-12
TOL_TRIANGLE = 1e-9
MAX_SLANT_DEGREES = 1.0     # criterion 6
MIN_RECOGNITION_RATE = 95.0  # criterion 7, percent
MAX_RECOGNITION_SECONDS = 300.0


def _report(num: int, claim: str, ok: bool, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'}: criterion {num}: {claim} ({detail})")
    assert ok, f"criterion {num}: {claim} ({detail})"


def test_criterion_1_wavelet_round_trip():
    rng = np.random.default_rng(101)
    images = [GrayImage(rng.integers(0, 256, size=(64, 64), dtype=np.uint8))
              for _ in range(20)]
    worst = 0.0
    for family in WaveletFamily:
        for levels in (1, 2, 3):
            for img in images:
                err = np.abs(idwt2(dwt2_multi(img, family, levels)) - img.pixels).max()
                worst = max(worst, float(err))
    _report(1, "every family reconstructs 64x64 images through 1..3 levels",
            worst < TOL_RECONSTRUCTION, f"max abs err {worst:.3e} < {TOL_RECONSTRUCTION:.0e}")


def test_criterion_2_spectrum_matches_direct_sum():
    rng = np.random.default_rng(102)
    worst = 0.0
    for _ in range(50):
        n = 2 ** int(rng.integers(2, 11))
        u = rng.normal(size=n) * 100
        worst = max(worst, float(np.abs(dft(u) - reference.spectrum(u)).max()))
    _report(2, "fast transform equals the direct normalized sum up to N=1024",
            worst < TOL_SPECTRUM, f"max abs err {worst:.3e} < {TOL_SPECTRUM:.0e}")


def test_criterion_3_sequence_invariances():
    rng = np.random.default_rng(103)
    worst = {"start shift": 0.0, "amplitude scale": 0.0, "constant offset": 0.0}
    for _ in range(100):
        n = 2 ** int(rng.integers(3, 11))
        u = rng.normal(size=n) * 50 + rng.normal() * 30
        k = int(min(64, n - 2))
        base = normalize_descriptor(dft(u), k)
        variants = {
            "start shift": np.roll(u, int(rng.integers(0, n))),
            "amplitude scale": float(rng.uniform(0.1, 10.0)) * u,
            "constant offset": u + float(rng.uniform(-100.0, 100.0)),
        }
        for kind, v in variants.items():
            dev = np.abs(normalize_descriptor(dft(v), k) - base).max()
            worst[kind] = max(worst[kind], float(dev))
    ok = all(v < TOL_INVARIANCE for v in worst.values())
    detail = ", ".join(f"{kind} {v:.3e}" for kind, v in worst.items())
    _report(3, "descriptors ignore start shift, gain, and offset", ok,
            f"max devs {detail}, tol {TOL_INVARIANCE:.0e}")


def test_criterion_4_rotated_probes_match_their_identity():
    started = time.monotonic()
    bases = generate_synthetic(SynthSpec(
        n_identities=10, samples_per_identity=1, rotation_deg=0.0,
        scale_range=(1.0, 1.0), translation_px=0.0, noise_fraction=0.0, seed=104))
    config = PipelineConfig()
    gallery = Gallery(config)
    for label, images in bases.items():
        gallery = enroll(gallery, label, [("base", images[0])])
    measure = DistanceMeasure("manhattan")
    labels = sorted(bases)
    rng = np.random.default_rng(104)
    hits = 0
    for _ in range(100):
        label = labels[int(rng.integers(len(labels)))]
        angle = math.radians(float(rng.choice([-10.0, -5.0, 5.0, 10.0])))
        probe = rotate(bases[label][0], angle)
        hits += identify(gallery, probe, measure, config).identity == label
    elapsed = time.monotonic() - started
    ok = hits >= MIN_ROTATION_HITS and elapsed < MAX_ROTATION_SECONDS
    _report(4, "rotated probes stay closest to their own identity",
            ok, f"{hits}/100 correct, {elapsed:.1f}s")


def test_criterion_5_metric_axioms():
    rng = np.random.default_rng(105)
    all_measures = [DistanceMeasure(name) for name in MEASURE_NAMES]
    mink1 = DistanceMeasure("minkowski", p=1.0)
    mink2 = DistanceMeasure("minkowski", p=2.0)
    manhattan = DistanceMeasure("manhattan")
    euclidean = DistanceMeasure("euclidean")
    triangle_measures = [mink1, mink2, DistanceMeasure("minkowski", p=3.0),
                         manhattan, euclidean]
    worst_sym = worst_red = worst_tri = 0.0
    bounded = True
    for _ in range(1000):
        x, y, z = rng.normal(size=(3, 16)) * 10 + 1.0
        for m in all_measures:
            worst_sym = max(worst_sym, abs(distance(m, x, y) - distance(m, y, x)))
        worst_red = max(worst_red,
                        abs(distance(mink1, x, y) - distance(manhattan, x, y)),
                        abs(distance(mink2, x, y) - distance(euclidean, x, y)))
        for m in triangle_measures:
            worst_tri = max(worst_tri,
                            distance(m, x, z) - distance(m, x, y) - distance(m, y, z))
        for name in ("angle", "correlation"):
            d = distance(DistanceMeasure(name), x, y)
            bounded = bounded and -1.0 <= d <= 1.0
    ok = (worst_sym <= TOL_SYMMETRY and worst_red <= TOL_REDUCTION
          and worst_tri <= TOL_TRIANGLE and bounded)
    _report(5, "symmetry, Minkowski reductions, triangle inequality, bounded similarities",
            ok, f"sym {worst_sym:.2e}, red {worst_red:.2e}, tri slack {worst_tri:.2e}, "
                f"bounded {bounded}")


def _slanted_bar(angle_deg: float, size: int = 256) -> GrayImage:
    px = np.full((size, size), BACKGROUND, dtype=np.uint8)
    slope = math.tan(math.radians(angle_deg))
    c = (size - 1) / 2
    for x in range(64, size - 64):
        y = int(round(c + slope * (x - c)))
        px[max(0, y - 1):y + 2, x - 1:x + 2] = 0
    return GrayImage(px)


def test_criterion_6_preprocessing_oracles():
    rng = np.random.default_rng(106)
    median_ok = True
    for _ in range(100):
        px = rng.integers(0, 256, size=(16, 16), dtype=np.uint8)
        median_ok = median_ok and np.array_equal(
            median_filter(GrayImage(px), 3).pixels, reference.median(px, 3))
    worst_deg = 0.0
    for angle in np.linspace(-45.0, 45.0, 13):
        out = preprocess(_slanted_bar(float(angle)))
        theta = estimate_orientation(binarize(out))
        worst_deg = max(worst_deg, abs(math.degrees(theta)))
    ok = median_ok and worst_deg <= MAX_SLANT_DEGREES
    _report(6, "median equals sort oracle; slants up to 45 degrees flatten",
            ok, f"median exact {median_ok}, residual slant {worst_deg:.2f} deg")


def test_criterion_7_synthetic_recognition_rate():
    started = time.monotonic()
    dataset = generate_synthetic(SynthSpec(seed=0))  # 18 identities x 24 samples
    report = evaluate(dataset, [DistanceMeasure("manhattan")],
                      [WaveletFamily.SYM8], train_k=12, seed=0)
    rate = float(report.rates[0, 0])
    elapsed = time.monotonic() - started
    ok = rate >= MIN_RECOGNITION_RATE and elapsed < MAX_RECOGNITION_SECONDS
    _report(7, "18x24 synthetic set, 12/12 split, sym8 + manhattan rank-1",
            ok, f"rate {rate:.1f}%, {elapsed:.1f}s")


def test_criterion_8_deterministic_reports():
    dataset = generate_synthetic(SynthSpec(n_identities=4, samples_per_identity=6,
                                           seed=88))
    measures = [DistanceMeasure(name) for name in MEASURE_NAMES]
    families = [WaveletFamily.HAAR, WaveletFamily.SYM8]
    first = report_to_csv(evaluate(dataset, measures, families, train_k=3, seed=1))
    second = report_to_csv(evaluate(dataset, measures, families, train_k=3, seed=1))
    ok = first.encode("ascii") == second.encode("ascii")
    _report(8, "repeated evaluations emit byte-identical reports", ok,
            f"{len(first)} bytes compared")
