"""Command-line front end.

Subcommands: enroll, identify, verify, evaluate, synth.  Results go to
stdout; diagnostics and progress go to stderr.  Exit codes: 0 success,
1 usage errors, 2 data or processing errors.
"""

import argparse
import contextlib
import dataclasses
import functools
import itertools
import os
import sys
from pathlib import Path

try:
    import fcntl
except ImportError:  # not POSIX: concurrent enrollments are not serialized
    fcntl = None

from .descriptor import PipelineConfig
from .errors import SigfdError
from .imaging import (_check_threshold, _check_window, _power_of_two, load_image, preprocess,
                      save_image)
from .metrics import DEFAULT_MINKOWSKI_P, MEASURE_NAMES, DistanceMeasure
from .recognition import (MANIFEST_NAME, Gallery, SynthSpec, _check_seed, enroll, evaluate,
                          generate_synthetic, identify, load_dataset,
                          load_gallery, report_to_csv, save_dataset,
                          save_gallery, verify)
from .wavelet import WaveletFamily, dwt2_multi, subband_images


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors; this front end reserves 2 for data."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _vetted(value: int, check) -> int:
    """`value` when the library's own `check` accepts it, else a usage error."""
    try:
        check(value)
    except (SigfdError, ValueError) as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    return value


def _odd_int(text: str) -> int:
    return _vetted(int(text), _check_window)


def _pow2_int(text: str) -> int:
    value = int(text)
    if not _power_of_two(value):
        raise argparse.ArgumentTypeError(f"{value} is not a power of two")
    return value


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"{value} is not >= 1")
    return value


def _byte_int(text: str) -> int:
    return _vetted(int(text), _check_threshold)


def _seed_int(text: str) -> int:
    return _vetted(int(text), _check_seed)


def _measure_name(text: str) -> str:
    try:
        return DistanceMeasure(text.strip().lower()).name
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


def _measure_list(text: str) -> list[str]:
    names = [_measure_name(part) for part in text.split(",") if part.strip()]
    if not names:
        raise argparse.ArgumentTypeError("empty measure list")
    return names


def _family_list(text: str) -> list[WaveletFamily]:
    items = [part for part in text.split(",") if part.strip()]
    if not items:
        raise argparse.ArgumentTypeError("empty family list")
    return [WaveletFamily.parse(part) for part in items]


def _add_preprocess_flags(sp, gallery: bool = True) -> None:
    # None marks a flag not given, which a stored gallery's value then fills
    default = "default: the gallery's, else " if gallery else "default "
    sp.add_argument("--median-window", type=_odd_int, default=None, metavar="N",
                    help=f"median filter window, odd ({default}3)")
    sp.add_argument("--target-size", type=_pow2_int, nargs=2, default=None,
                    metavar=("W", "H"), help=f"output geometry, powers of two ({default}256 256)")
    sp.add_argument("--no-slant", action="store_true", default=None,
                    help="skip slant normalization")
    sp.add_argument("--binarize-threshold", type=_byte_int, default=None, metavar="T",
                    help="fixed ink threshold instead of Otsu's")


def _add_measure_flags(sp) -> None:
    sp.add_argument("--measure", type=_measure_name, default="manhattan",
                    help=f"one of: {', '.join(MEASURE_NAMES)} (default manhattan)")
    sp.add_argument("--minkowski-p", type=float, default=DEFAULT_MINKOWSKI_P, metavar="P",
                    help="Minkowski order (default 3)")


def pipeline_from_args(args: argparse.Namespace,
                       stored: PipelineConfig = PipelineConfig()) -> PipelineConfig:
    """Extraction parameters from the flags.

    Explicit flags win and the `stored` config, a gallery's or the default
    one, supplies the rest.  A flag that disagrees with the gallery is
    caught where the config meets the gallery (`MetaMismatch`).
    """
    chosen = {name: getattr(args, name) for name in ("family", "levels", "k")
              if getattr(args, name, None) is not None}
    flags = {"median_window": args.median_window,
             "target_size": None if args.target_size is None else tuple(args.target_size),
             "slant_enabled": None if args.no_slant is None else not args.no_slant,
             "binarize_threshold": args.binarize_threshold}
    pre = dataclasses.replace(stored.preprocess,
                              **{name: v for name, v in flags.items() if v is not None})
    return dataclasses.replace(stored, preprocess=pre, **chosen)


def measure_from_args(args: argparse.Namespace, name: str | None = None) -> DistanceMeasure:
    """The `--measure` (or the given `name`) at the `--minkowski-p` order."""
    return DistanceMeasure(name or args.measure, args.minkowski_p)


@contextlib.contextmanager
def _enrollment_lock(root: Path):
    """Hold an exclusive `flock` on <root>/MANIFEST.siggal.lock, for one enrollment.

    Concurrent `sigfd enroll` runs on one gallery take turns, so none loads
    the manifest while another is about to replace it.  The lock file lives
    only while it is held: the holder unlinks it before letting go, and a
    waiter that wakes holding an unlinked file tries again.  A failed
    enrollment removes the directories it created.  Without `fcntl` nothing
    is locked.
    """
    if fcntl is None:
        yield
        return
    created = list(itertools.takewhile(lambda d: not d.exists(), (root, *root.parents)))
    lock = root / (MANIFEST_NAME + ".lock")
    while True:
        root.mkdir(parents=True, exist_ok=True)
        try:
            fd = os.open(lock, os.O_RDWR | os.O_CREAT, 0o666)
        except FileNotFoundError:  # a failed enrollment removed the directory
            continue
        fcntl.flock(fd, fcntl.LOCK_EX)
        if os.fstat(fd).st_nlink:  # still the file at `lock`, not one its holder unlinked
            break
        os.close(fd)
    done = False
    try:
        yield
        done = True
    finally:
        os.unlink(lock)
        if not done:
            with contextlib.suppress(OSError):  # not empty: someone else's now
                for d in created:
                    d.rmdir()
        os.close(fd)


def _cmd_enroll(args) -> int:
    root = Path(args.gallery)
    with _enrollment_lock(root):
        gallery = load_gallery(root) if (root / MANIFEST_NAME).exists() else None
        config = pipeline_from_args(args, PipelineConfig() if gallery is None else gallery.config)
        samples = [(Path(path).stem, load_image(path)) for path in args.images]
        if gallery is None:
            gallery = Gallery(config)
        save_gallery(enroll(gallery, args.identity, samples, config), root)
    print(f"enrolled {len(args.images)} sample(s) for {args.identity}")
    return 0


def _dump_subbands(img, config: PipelineConfig, out_dir: Path) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    dec = dwt2_multi(preprocess(img, config.preprocess), config.family, config.levels)
    for name, plane in subband_images(dec):
        save_image(plane, out_dir / f"{name}.pgm")
    print(f"wrote {1 + 3 * config.levels} subband planes to {out_dir}", file=sys.stderr)


def _cmd_identify(args) -> int:
    measure = measure_from_args(args)
    gallery = load_gallery(args.gallery)
    img = load_image(args.image)
    result = identify(gallery, img, measure, gallery.config)
    if args.dump_subbands:
        _dump_subbands(img, gallery.config, Path(args.dump_subbands))
    print(f"{result.identity} {result.distance:.6f}")
    return 0


def _cmd_verify(args) -> int:
    measure = measure_from_args(args)
    gallery = load_gallery(args.gallery)
    img = load_image(args.image)
    result = verify(gallery, args.identity, img, measure, args.threshold, gallery.config)
    print(f"{'genuine' if result.genuine else 'forgery'} {result.distance:.6f}")
    return 0


def _cmd_evaluate(args) -> int:
    config = pipeline_from_args(args)
    measures = [measure_from_args(args, name) for name in (args.measures or MEASURE_NAMES)]
    families = args.families or list(WaveletFamily)
    report = evaluate(load_dataset(args.dataset), measures, families, args.train_k, args.seed,
                      config)
    proto = report.protocol
    test_k = "ragged" if proto.test_k is None else proto.test_k
    print(f"split: train_k={proto.train_k} test_k={test_k} seed={proto.seed}", file=sys.stderr)
    if report.degenerate_protocol:
        print("warning: single-identity dataset, rates are trivially 100", file=sys.stderr)
    csv = report_to_csv(report)
    if args.out:
        Path(args.out).write_text(csv, encoding="ascii")
        print(f"wrote {args.out}", file=sys.stderr)
    else:
        sys.stdout.write(csv)
    return 0


def _cmd_synth(args) -> int:
    spec = SynthSpec(n_identities=args.identities,
                     samples_per_identity=args.samples,
                     rotation_deg=args.rotation,
                     scale_range=(args.scale[0], args.scale[1]),
                     translation_px=args.translation,
                     noise_fraction=args.noise,
                     seed=args.seed)
    count = save_dataset(generate_synthetic(spec), args.out)
    print(f"wrote {count} images to {args.out}")
    return 0


def _enroll_args(sp) -> None:
    sp.add_argument("gallery", metavar="GALLERY")
    sp.add_argument("identity", metavar="IDENTITY")
    sp.add_argument("--family", type=WaveletFamily.parse, default=None,
                    help="wavelet family for a new gallery (default sym8)")
    sp.add_argument("--levels", type=int, default=None,
                    help="decomposition depth for a new gallery (default 3)")
    sp.add_argument("--k", type=int, default=None,
                    help="retained magnitudes for a new gallery (default 64)")
    _add_preprocess_flags(sp)
    sp.add_argument("images", nargs="+", metavar="IMAGE",
                    help="PGM files; file stems become sample ids")
    sp.set_defaults(handler=_cmd_enroll)


def _identify_args(sp) -> None:
    sp.add_argument("gallery", metavar="GALLERY")
    _add_measure_flags(sp)
    sp.add_argument("--dump-subbands", metavar="DIR", default=None,
                    help="also write the probe's subband planes as PGMs")
    sp.add_argument("image", metavar="IMAGE")
    sp.set_defaults(handler=_cmd_identify)


def _verify_args(sp) -> None:
    sp.add_argument("gallery", metavar="GALLERY")
    sp.add_argument("identity", metavar="IDENTITY")
    sp.add_argument("--threshold", type=float, required=True,
                    help="accept when the closest-template distance is <= this")
    _add_measure_flags(sp)
    sp.add_argument("image", metavar="IMAGE")
    sp.set_defaults(handler=_cmd_verify)


def _evaluate_args(sp) -> None:
    sp.add_argument("dataset", metavar="DATASET_ROOT",
                    help="directory tree <identity>/<sample>.pgm")
    sp.add_argument("--measures", type=_measure_list, default=None,
                    help="comma-separated measure names (default: all)")
    sp.add_argument("--families", type=_family_list, default=None,
                    help="comma-separated family names (default: all)")
    sp.add_argument("--train-k", type=_positive_int, default=12,
                    help="templates per identity (default 12)")
    sp.add_argument("--seed", type=_seed_int, default=0, help="split seed (default 0)")
    sp.add_argument("--minkowski-p", type=float, default=DEFAULT_MINKOWSKI_P, metavar="P")
    sp.add_argument("--levels", type=int, default=None)
    sp.add_argument("--k", type=int, default=None)
    _add_preprocess_flags(sp, gallery=False)
    sp.add_argument("--out", metavar="FILE", default=None,
                    help="write the CSV here instead of stdout")
    sp.set_defaults(handler=_cmd_evaluate)


def _synth_args(sp) -> None:
    spec = SynthSpec()
    sp.add_argument("out", metavar="OUT_ROOT")
    sp.add_argument("--identities", type=_positive_int, default=spec.n_identities)
    sp.add_argument("--samples", type=_positive_int, default=spec.samples_per_identity)
    sp.add_argument("--seed", type=_seed_int, default=spec.seed)
    sp.add_argument("--rotation", type=float, default=spec.rotation_deg,
                    help="max |rotation| in degrees (default %(default)g)")
    sp.add_argument("--scale", type=float, nargs=2, default=spec.scale_range,
                    metavar=("LO", "HI"))
    sp.add_argument("--translation", type=float, default=spec.translation_px,
                    help="max |shift| per axis in pixels (default %(default)g)")
    sp.add_argument("--noise", type=float, default=spec.noise_fraction,
                    help="salt-and-pepper fraction (default %(default)g)")
    sp.set_defaults(handler=_cmd_synth)


def build_parser() -> argparse.ArgumentParser:
    """The parser, with every subcommand's arguments."""
    parser = _Parser(prog="sigfd",
                     description="Offline signature recognition with "
                                 "wavelet-domain Fourier descriptors.")
    sub = parser.add_subparsers(dest="command", required=True)
    _enroll_args(sub.add_parser("enroll", help="extract and store templates for one identity"))
    _identify_args(sub.add_parser("identify", help="match a probe against every identity"))
    _verify_args(sub.add_parser("verify", help="accept or reject a claimed identity"))
    _evaluate_args(sub.add_parser("evaluate", help="recognition-rate grid over a labeled dataset"))
    _synth_args(sub.add_parser("synth", help="generate a labeled synthetic dataset"))
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The one parser `run` shares across calls and threads in a process."""
    return build_parser()


def run(argv=None) -> int:
    """Parse and dispatch; returns the process exit code."""
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    try:
        return args.handler(args)
    except ValueError as exc:
        print(f"sigfd: error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"sigfd: error: {exc}", file=sys.stderr)
        return 2
    except SigfdError as exc:
        print(f"sigfd: error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        # numpy raises a private subclass; name the public one
        print(f"sigfd: error: MemoryError: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    raise SystemExit(run())
