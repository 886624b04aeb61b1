import json
import os
import re
import shutil
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from sigfd import cli
from sigfd.cli import build_parser, measure_from_args, pipeline_from_args, run
from sigfd.descriptor import PipelineConfig, extract_features
from sigfd.errors import FormatError
from sigfd.imaging import GrayImage, PreprocessConfig, load_image, preprocess, save_image
from sigfd.metrics import DEFAULT_MINKOWSKI_P, DistanceMeasure
from sigfd.recognition import (Gallery, SynthSpec, generate_synthetic,
                               identify, load_gallery, save_dataset, save_gallery)
from sigfd.wavelet import WaveletFamily, dwt2_multi, subband_images


@pytest.fixture(scope="module")
def dataset_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("data")
    data = generate_synthetic(SynthSpec(n_identities=3, samples_per_identity=4, seed=8))
    save_dataset(data, root)
    return root


@pytest.fixture(scope="module")
def gallery_dir(tmp_path_factory, dataset_dir):
    root = tmp_path_factory.mktemp("gal")
    for ident in ("id000", "id001", "id002"):
        code = run(["enroll", str(root), ident,
                    str(dataset_dir / ident / "s000.pgm"),
                    str(dataset_dir / ident / "s001.pgm")])
        assert code == 0
    return root


def test_cli_config_resolves_flags_and_defaults():
    parse = build_parser().parse_args
    assert pipeline_from_args(parse(["enroll", "g", "a", "x.pgm"])) == PipelineConfig()
    assert pipeline_from_args(parse(["evaluate", "d"])) == PipelineConfig()
    args = parse(["enroll", "g", "a", "--median-window", "5", "--target-size", "128", "64",
                  "probe.pgm"])
    assert args.gallery == "g"
    assert measure_from_args(parse(["identify", "g", "--measure", "euclidean", "p.pgm"])) == \
        DistanceMeasure("euclidean")
    config = pipeline_from_args(args)
    assert config.preprocess == PreprocessConfig(median_window=5, target_size=(128, 64))
    assert (config.family, config.levels, config.k) == (WaveletFamily.SYM8, 3, 64)
    # a stored gallery's parameters win over the defaults, and flags over both
    gallery = PipelineConfig(WaveletFamily.HAAR, 2, 16, PreprocessConfig(slant_enabled=False))
    stored = pipeline_from_args(args, gallery)
    assert (stored.family, stored.levels, stored.k) == (WaveletFamily.HAAR, 2, 16)
    assert stored.preprocess == PreprocessConfig(5, (128, 64), slant_enabled=False)
    enroll = parse(["enroll", "g", "a", "--family", "db2", "--levels", "2", "--k", "8",
                    "--no-slant", "--binarize-threshold", "100", "x.pgm"])
    config = pipeline_from_args(enroll)
    assert (config.family, config.levels, config.k) == (WaveletFamily.DB2, 2, 8)
    assert (config.preprocess.slant_enabled, config.preprocess.binarize_threshold) == (False, 100)


def test_measure_flags_resolve_to_distance_measure():
    parse = build_parser().parse_args
    args = parse(["identify", "g", "--measure", " Manhattan ", "p.pgm"])
    assert measure_from_args(args) == DistanceMeasure("manhattan")
    args = parse(["verify", "g", "a", "--threshold", "1", "--measure", "minkowski", "p.pgm"])
    assert measure_from_args(args).p == DEFAULT_MINKOWSKI_P
    args = parse(["identify", "g", "--measure", "minkowski", "--minkowski-p", "4", "p.pgm"])
    assert measure_from_args(args) == DistanceMeasure("minkowski", 4.0)
    args = parse(["evaluate", "d", "--measures", "Angle, mod-sse", "--minkowski-p", "2"])
    assert [measure_from_args(args, name) for name in args.measures] == \
        [DistanceMeasure("angle", 2.0), DistanceMeasure("mod-sse", 2.0)]


def test_enroll_reports_count(tmp_path, dataset_dir, capsys):
    code = run(["enroll", str(tmp_path / "g"), "id000",
                str(dataset_dir / "id000" / "s000.pgm")])
    assert code == 0
    assert capsys.readouterr().out == "enrolled 1 sample(s) for id000\n"


def test_identify_prints_identity_and_distance(dataset_dir, gallery_dir, capsys):
    code = run(["identify", str(gallery_dir),
                str(dataset_dir / "id001" / "s002.pgm")])
    assert code == 0
    fields = capsys.readouterr().out.split()
    assert fields[0] == "id001"
    float(fields[1])  # parses as a number


def test_identify_with_explicit_measure(dataset_dir, gallery_dir, capsys):
    code = run(["identify", str(gallery_dir), "--measure", "mod-sse",
                str(dataset_dir / "id002" / "s003.pgm")])
    assert code == 0
    assert capsys.readouterr().out.startswith("id002 ")


def test_identify_dump_subbands(tmp_path, dataset_dir, gallery_dir, capsys):
    out_dir = tmp_path / "bands"
    code = run(["identify", str(gallery_dir),
                "--dump-subbands", str(out_dir),
                str(dataset_dir / "id000" / "s002.pgm")])
    assert code == 0
    names = sorted(p.name for p in out_dir.glob("*.pgm"))
    assert names == ["approx.pgm", "d1.pgm", "d2.pgm", "d3.pgm",
                     "h1.pgm", "h2.pgm", "h3.pgm", "v1.pgm", "v2.pgm", "v3.pgm"]


def test_verify_genuine_and_forgery(dataset_dir, gallery_dir, capsys):
    code = run(["verify", str(gallery_dir), "id001",
                "--threshold", "5.0", str(dataset_dir / "id001" / "s003.pgm")])
    assert code == 0
    assert capsys.readouterr().out.startswith("genuine ")
    code = run(["verify", str(gallery_dir), "id001",
                "--threshold", "0.01", str(dataset_dir / "id001" / "s003.pgm")])
    assert code == 0
    assert capsys.readouterr().out.startswith("forgery ")


def test_evaluate_writes_csv(dataset_dir, capsys):
    code = run(["evaluate", str(dataset_dir),
                "--measures", "manhattan,euclidean", "--families", "haar,sym8",
                "--train-k", "2", "--seed", "0"])
    assert code == 0
    captured = capsys.readouterr()
    lines = captured.out.splitlines()
    assert lines[0] == "measure,haar,sym8"
    assert lines[1].startswith("manhattan,")
    assert lines[2].startswith("euclidean,")
    assert "split: train_k=2 test_k=2 seed=0" in captured.err


def test_evaluate_out_file_is_deterministic(tmp_path, dataset_dir):
    args = ["evaluate", str(dataset_dir), "--measures", "manhattan",
            "--families", "haar", "--train-k", "2", "--seed", "3"]
    assert run(args + ["--out", str(tmp_path / "a.csv")]) == 0
    assert run(args + ["--out", str(tmp_path / "b.csv")]) == 0
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


def test_synth_round_trips_through_evaluate(tmp_path, capsys):
    out = tmp_path / "syn"
    code = run(["synth", str(out), "--identities", "2", "--samples", "3",
                "--seed", "1"])
    assert code == 0
    assert capsys.readouterr().out == f"wrote 6 images to {out}\n"
    assert sorted(p.name for p in (out / "id000").glob("*.pgm")) == \
        ["s000.pgm", "s001.pgm", "s002.pgm"]
    code = run(["evaluate", str(out), "--measures", "manhattan",
                "--families", "haar", "--train-k", "2"])
    assert code == 0


def test_usage_errors_exit_one(tmp_path, dataset_dir, gallery_dir):
    probe = str(dataset_dir / "id000" / "s000.pgm")
    assert run([]) == 1
    assert run(["frobnicate"]) == 1
    assert run(["identify", str(gallery_dir), "--measure", "cosine",
                probe]) == 1
    assert run(["enroll", str(tmp_path / "g"), "a", "--median-window", "4", probe]) == 1
    assert run(["evaluate", str(dataset_dir), "--target-size", "100", "128"]) == 1
    assert not (tmp_path / "g").exists()
    assert run(["evaluate", str(dataset_dir), "--train-k", "0"]) == 1
    assert run(["evaluate", str(dataset_dir), "--families", "db3"]) == 1
    assert run(["evaluate", str(dataset_dir), "--measures", ","]) == 1
    assert run(["evaluate", str(dataset_dir), "--families", " , "]) == 1
    assert run(["synth", str(tmp_path / "s"), "--noise", "0.9"]) == 1


@pytest.mark.parametrize("seed", ["-1", "1.5", "x"])
@pytest.mark.parametrize("command", ["evaluate", "synth"])
def test_a_seed_is_a_non_negative_int_or_a_usage_error_before_any_file(tmp_path, capsys,
                                                                      command, seed):
    # a dataset that is not there would be a data error, had it been read
    root = tmp_path / "missing"
    assert run([command, str(root), f"--seed={seed}"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"sigfd {command}: error: argument --seed: " in captured.err
    assert not root.exists()


_BAD_INTEGER_FLAGS = [
    (["evaluate", "--median-window", "x"], "'x' is not an integer"),
    (["evaluate", "--median-window", "4"], "median window must be an odd integer >= 1, got 4"),
    (["evaluate", "--target-size", "64", "1.5"], "'1.5' is not an integer"),
    (["evaluate", "--target-size", "100", "64"], "100 is not a power of two"),
    (["evaluate", "--binarize-threshold", "t"], "'t' is not an integer"),
    (["evaluate", "--binarize-threshold", "256"],
     "binarize threshold must be an int in [0, 255], got 256"),
    (["evaluate", "--train-k", "1e3"], "'1e3' is not an integer"),
    (["evaluate", "--train-k", "0"], "0 is not >= 1"),
    (["evaluate", "--seed", "1.5"], "'1.5' is not an integer"),
    (["synth", "--identities", "two"], "'two' is not an integer"),
    (["synth", "--samples", "-3"], "-3 is not >= 1"),
    (["synth", "--seed", "-1"], "seed must be a non-negative int, got -1"),
]


@pytest.mark.parametrize("argv,error", _BAD_INTEGER_FLAGS,
                         ids=[" ".join(argv) for argv, _ in _BAD_INTEGER_FLAGS])
def test_a_bad_integer_flag_is_a_usage_error_that_names_no_private_function(tmp_path, capsys,
                                                                            argv, error):
    root = tmp_path / "missing"
    assert run([argv[0], str(root), *argv[1:]]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"sigfd {argv[0]}: error: argument {argv[1]}: {error}\n" in captured.err
    assert re.search(r"(?<![\w-])_[a-z]", captured.err) is None
    assert not root.exists()


def test_data_errors_exit_two(tmp_path, dataset_dir, gallery_dir):
    probe = str(dataset_dir / "id000" / "s000.pgm")
    assert run(["identify", str(tmp_path / "missing"), probe]) == 2
    bad = tmp_path / "bad.pgm"
    bad.write_bytes(b"not a pgm")
    assert run(["identify", str(gallery_dir), str(bad)]) == 2
    # re-enrolling the same sample id
    assert run(["enroll", str(gallery_dir), "id000",
                probe]) == 2
    # k beyond what the coarsest plane offers
    assert run(["enroll", str(tmp_path / "g2"), "a",
                "--k", "1023", probe]) == 2
    # more halvings than the target size supports
    assert run(["enroll", str(tmp_path / "g3"), "a",
                "--levels", "9", probe]) == 2
    # train_k does not leave a probe per identity
    assert run(["evaluate", str(dataset_dir), "--train-k", "4"]) == 2


def test_unwritable_outputs_are_data_errors(tmp_path, dataset_dir, capsys):
    out = tmp_path / "missing" / "dir" / "x.csv"
    assert run(["evaluate", str(dataset_dir), "--measures", "manhattan", "--families", "haar",
                "--train-k", "2", "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    # the OSError of the CSV write, past the split line
    assert captured.err.splitlines()[-1].startswith("sigfd: error: ")
    assert str(out) in captured.err and not out.parent.exists()
    below_a_file = tmp_path / "file" / "data"
    below_a_file.parent.write_bytes(b"")
    assert run(["synth", str(below_a_file), "--identities", "1", "--samples", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("sigfd: error: IoError: ")


def test_a_distance_out_of_the_float_range_is_a_data_error(tmp_path, dataset_dir, gallery_dir,
                                                            capsys):
    data = bytearray((gallery_dir / "MANIFEST.siggal").read_bytes())
    k = load_gallery(gallery_dir).config.k
    # the last template scaled by 1e200: still finite, so the gallery loads
    np.frombuffer(data, dtype="<f8", offset=len(data) - 8 * k)[:] *= 1e200
    gal = tmp_path / "huge"
    gal.mkdir()
    (gal / "MANIFEST.siggal").write_bytes(data)
    assert load_gallery(gal).magnitudes.max() > 1e190
    probe = str(dataset_dir / "id000" / "s002.pgm")
    capsys.readouterr()
    for measure in ("angle", "euclidean", "mod-sse", "correlation"):
        assert run(["identify", str(gal), "--measure", measure, probe]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"sigfd: error: DegenerateInput: {measure} distance ")
    # manhattan stays in range
    assert run(["identify", str(gal), probe]) == 0


def test_evaluate_with_a_blank_sample_is_a_data_error(tmp_path, capsys):
    data = generate_synthetic(SynthSpec(n_identities=2, samples_per_identity=3, seed=8))
    data["id001"][1] = GrayImage(np.full((64, 64), 255, dtype=np.uint8))
    save_dataset(data, tmp_path / "data")
    assert run(["evaluate", str(tmp_path / "data"), "--train-k", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    # s001.pgm is the second file of id001 in sorted order
    assert captured.err.startswith(
        "sigfd: error: DegenerateDescriptor: identity 'id001' sample 1: |a[1]| = ")
    assert captured.err.endswith("no usable fundamental\n")


def _tree_bytes(root):
    return {p.relative_to(root): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


def _keys(gallery):
    return [(t.identity, t.sample_id) for t in gallery.templates]


def _refuse_meta_changes(gal, probe, capsys):
    before = _tree_bytes(gal)
    capsys.readouterr()
    for flags in (["--family", "haar"], ["--levels", "2"], ["--k", "32"]):
        assert run(["enroll", str(gal), "idnew", *flags, probe]) == 2
        assert capsys.readouterr().out == ""
    assert _tree_bytes(gal) == before


def test_enroll_meta_flags_must_match_existing_gallery(tmp_path, dataset_dir, gallery_dir,
                                                       capsys):
    gal = tmp_path / "gal"
    shutil.copytree(gallery_dir, gal)
    probe = str(dataset_dir / "id000" / "s002.pgm")
    _refuse_meta_changes(gal, probe, capsys)
    # flags that repeat the stored parameters are accepted
    assert run(["enroll", str(gal), "idnew", "--family", "sym8", "--levels", "3",
                "--k", "64", probe]) == 0
    assert _keys(load_gallery(gal))[-1] == ("idnew", "s002")
    assert list(_tree_bytes(gal)) == [Path("MANIFEST.siggal")]


def _with_v3_header(data: bytes, old: bytes, new: bytes) -> bytes:
    """The v3 manifest `data` with `old` replaced by `new` in its header line.

    The sections after the header move with it, so the zero padding before
    the codes is recomputed to keep them on the 8-byte grid.
    """
    start = data.index(b"\n") + 1
    fields = data[:start].split()
    tables_end = start + int(fields[12]) + int(fields[14])
    head = data[:start].replace(old, new, 1) + data[start:tables_end]
    return head + bytes(-len(head) % 8) + data[tables_end + -tables_end % 8:]


@pytest.mark.parametrize("levels", [str(2 ** 63), "99999999999999999999"])
def test_huge_levels_are_bad_levels(tmp_path, dataset_dir, gallery_dir, capsys, levels):
    probe = str(dataset_dir / "id000" / "s002.pgm")
    capsys.readouterr()
    assert run(["enroll", str(tmp_path / "new"), "a", "--levels", levels, probe]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "BadLevels" in captured.err
    assert not (tmp_path / "new").exists()
    # the same value in a stored gallery's header fails at load
    good = (gallery_dir / "MANIFEST.siggal").read_bytes()
    gal = tmp_path / "gal"
    gal.mkdir()
    (gal / "MANIFEST.siggal").write_bytes(
        _with_v3_header(good, b" sym8 3 ", f" sym8 {levels} ".encode()))
    with pytest.raises(FormatError, match="MANIFEST.siggal: bad configuration: BadLevels"):
        load_gallery(gal)
    for argv in (["identify", str(gal), probe], ["verify", str(gal), "id000", "--threshold",
                                                 "1", probe]):
        assert run(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "FormatError" in captured.err and "BadLevels" in captured.err


@pytest.mark.parametrize("flag,value,error", [
    ("--levels", "0", "BadLevels"), ("--levels", "-1", "BadLevels"), ("--levels", "1", None),
    ("--levels", "9", "BadLevels"), ("--k", "0", "BadLength"), ("--k", "-1", "BadLength"),
    ("--k", "1", "BadLength"), ("--k", "9", None)])
def test_levels_and_k_have_one_rule_and_one_exit_code(tmp_path, dataset_dir, capsys,
                                                      flag, value, error):
    probe = str(dataset_dir / "id000" / "s002.pgm")
    capsys.readouterr()
    code = run(["enroll", str(tmp_path / "new"), "a", f"{flag}={value}", probe])
    captured = capsys.readouterr()
    if error is None:
        assert code == 0 and captured.out == "enrolled 1 sample(s) for a\n"
        assert run(["evaluate", str(dataset_dir), "--measures", "manhattan", "--families",
                    "haar", "--train-k", "2", f"{flag}={value}"]) == 0
        assert capsys.readouterr().out.startswith("measure,haar\n")
        return
    assert code == 2 and captured.out == "" and error in captured.err
    assert not (tmp_path / "new").exists()
    # evaluate reports the flag before it reads the dataset
    assert run(["evaluate", str(tmp_path / "missing"), f"{flag}={value}"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and error in captured.err


def test_enroll_rejects_a_stem_twice_in_one_batch(tmp_path, dataset_dir, gallery_dir, capsys):
    gal = tmp_path / "gal"
    shutil.copytree(gallery_dir, gal)
    before = _tree_bytes(gal)
    for sub, source in (("x", "s002.pgm"), ("y", "s003.pgm")):
        (tmp_path / sub).mkdir()
        shutil.copy(dataset_dir / "id000" / source, tmp_path / sub / "s1.pgm")
    capsys.readouterr()
    assert run(["enroll", str(gal), "a", str(tmp_path / "x" / "s1.pgm"),
                str(tmp_path / "y" / "s1.pgm")]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "DuplicateSample" in captured.err
    assert _tree_bytes(gal) == before


_SYNTH = ["synth", "{out}", "--identities", "1", "--samples", "1"]

# (id, argv with {v} for the value, exit code for nan, exit code for inf)
_FLOAT_FLAGS = [
    ("threshold", ["verify", "{gal}", "id001", "--threshold", "{v}", "{probe}"], 1, 0),
    ("minkowski-p-identify", ["identify", "{gal}", "--measure", "minkowski",
                              "--minkowski-p", "{v}", "{probe}"], 1, 1),
    ("minkowski-p-verify", ["verify", "{gal}", "id001", "--threshold", "1", "--measure",
                            "minkowski", "--minkowski-p", "{v}", "{probe}"], 1, 1),
    ("minkowski-p-evaluate", ["evaluate", "{data}", "--measures", "minkowski", "--families",
                              "haar", "--train-k", "2", "--minkowski-p", "{v}"], 1, 1),
    ("rotation", _SYNTH + ["--rotation", "{v}"], 1, 1),
    ("translation", _SYNTH + ["--translation", "{v}"], 1, 1),
    ("scale-hi", _SYNTH + ["--scale", "0.9", "{v}"], 1, 1),
    ("scale-lo", _SYNTH + ["--scale", "{v}", "1.1"], 1, 1),
    ("noise", _SYNTH + ["--noise", "{v}"], 1, 1),
]


@pytest.mark.parametrize("value", ["nan", "inf"])
@pytest.mark.parametrize("label,argv,nan_code,inf_code", _FLOAT_FLAGS,
                         ids=[case[0] for case in _FLOAT_FLAGS])
def test_non_finite_float_flags_end_in_an_exit_code(tmp_path, dataset_dir, gallery_dir, capsys,
                                                    value, label, argv, nan_code, inf_code):
    fill = {"gal": str(gallery_dir), "probe": str(dataset_dir / "id001" / "s003.pgm"),
            "data": str(dataset_dir), "out": str(tmp_path / "syn"), "v": value}
    code = run([arg.format(**fill) for arg in argv])
    assert isinstance(code, int)
    assert code == (nan_code if value == "nan" else inf_code)
    captured = capsys.readouterr()
    if code:
        assert captured.out == "" and "sigfd" in captured.err
    assert not (tmp_path / "syn").exists()


@pytest.mark.parametrize("argv", [
    pytest.param(_SYNTH + ["--rotation", "1e308"], id="rotation"),
    pytest.param(_SYNTH + ["--translation", "1e308"], id="translation"),
    pytest.param(["identify", "{gal}", "--measure", "minkowski", "--minkowski-p", "1e-310",
                  "{probe}"], id="minkowski-p"),
])
def test_finite_flags_out_of_range_are_usage_errors(tmp_path, dataset_dir, gallery_dir, capsys,
                                                    argv):
    # synth draws over [-x, x], which overflows at 2x = inf, and a Minkowski
    # distance is raised to 1/p, which is inf below about 5.6e-309
    fill = {"gal": str(gallery_dir), "probe": str(dataset_dir / "id001" / "s003.pgm"),
            "out": str(tmp_path / "syn")}
    assert run([arg.format(**fill) for arg in argv]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("sigfd: error: ")
    assert not (tmp_path / "syn").exists()


def test_synth_accepts_ranges_up_to_half_the_largest_float(tmp_path, capsys):
    half = repr(sys.float_info.max / 2)
    for flag in ("--rotation", "--translation"):
        out = tmp_path / flag.strip("-")
        assert run(_SYNTH[:1] + [str(out)] + _SYNTH[2:] + [flag, half]) == 0
        assert capsys.readouterr().out == f"wrote 1 images to {out}\n"


def test_corrupt_template_is_a_data_error(tmp_path, dataset_dir, gallery_dir, capsys):
    probe = str(dataset_dir / "id000" / "s002.pgm")
    good = (gallery_dir / "MANIFEST.siggal").read_bytes()
    nan = np.array(np.nan, dtype="<f8").tobytes()
    for corrupt, data in (("nan", good[:-8] + nan), ("short", good[:-8])):
        gal = tmp_path / corrupt
        gal.mkdir()
        (gal / "MANIFEST.siggal").write_bytes(data)
        assert run(["identify", str(gal), probe]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "FormatError" in captured.err and "MANIFEST.siggal" in captured.err


def test_v1_and_v2_galleries_are_data_errors_that_say_to_reenroll(tmp_path, dataset_dir,
                                                                   gallery_dir, capsys):
    g = load_gallery(gallery_dir)
    # a v1 tree: a one-line manifest over one descriptor file per template
    v1 = tmp_path / "v1"
    (v1 / "id000").mkdir(parents=True)
    (v1 / "MANIFEST.siggal").write_text("SIGGAL v1 sym8 3 64\n", encoding="ascii")
    for sample, row in zip(("s000", "s001"), g.magnitudes):
        (v1 / "id000" / f"{sample}.sigfd").write_text(
            "SIGFD v1 sym8 3 64\n" + "".join(f"{v!r}\n" for v in row.tolist()))
    # a v2 file: a `SIGGAL v2 <family> <levels> <k> <count>` header, one
    # `<identity> <sample_id>` line per template, then the payload
    v2 = tmp_path / "v2"
    v2.mkdir()
    lines = [f"SIGGAL v2 sym8 3 64 {len(g.columns)}",
             *map(" ".join, zip(g.identities, g.sample_ids)), ""]
    (v2 / "MANIFEST.siggal").write_bytes("\n".join(lines).encode() + g.magnitudes.tobytes())
    probe = str(dataset_dir / "id000" / "s002.pgm")
    capsys.readouterr()
    for version, gal in (("v1", v1), ("v2", v2)):
        before = _tree_bytes(gal)
        for argv in (["identify", str(gal), probe],
                     ["verify", str(gal), "id000", "--threshold", "1", probe],
                     ["enroll", str(gal), "idnew", probe]):
            assert run(argv) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == (f"sigfd: error: FormatError: {gal / 'MANIFEST.siggal'}: "
                                    f"SIGGAL {version} galleries are no longer read; re-enroll "
                                    "the identities from their images\n")
        assert _tree_bytes(gal) == before


def test_memory_error_is_a_data_error(tmp_path, dataset_dir, capsys, monkeypatch):
    class ArrayMemoryError(MemoryError):  # numpy raises a private subclass like this
        pass

    def exhausted(*args):
        raise ArrayMemoryError("Unable to allocate 32.0 GiB for an array")

    monkeypatch.setattr(cli, "enroll", exhausted)
    gal = tmp_path / "gal"
    assert run(["enroll", str(gal), "id000", str(dataset_dir / "id000" / "s000.pgm")]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "sigfd: error: MemoryError: Unable to allocate 32.0 GiB for an array\n"
    assert not gal.exists()


def test_help_exits_zero(capsys):
    assert run(["--help"]) == 0
    capsys.readouterr()
    assert run(["evaluate", "--help"]) == 0
    assert "--train-k" in capsys.readouterr().out


def _module_env():
    """The environment of a `python -m sigfd` child: this checkout's sources, 80 columns."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    return {**os.environ, "COLUMNS": "80",
            "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}


def test_python_m_sigfd_runs_the_cli(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")  # help text wraps at the terminal width

    def module_run(*argv):
        return subprocess.run([sys.executable, "-m", "sigfd", *argv], env=_module_env(),
                              capture_output=True, text=True, timeout=60)

    helped = module_run("--help")
    assert helped.returncode == 0
    assert run(["--help"]) == 0
    assert helped.stdout == capsys.readouterr().out
    usage = module_run("frobnicate")
    assert usage.returncode == 1
    assert usage.stdout == "" and "invalid choice: 'frobnicate'" in usage.stderr


def test_enrolled_preprocessing_is_stored_and_applied(tmp_path, dataset_dir, capsys):
    gal = tmp_path / "gal"
    for ident in ("id000", "id001", "id002"):
        assert run(["enroll", str(gal), ident, "--no-slant",
                    str(dataset_dir / ident / "s000.pgm")]) == 0
    no_slant = PipelineConfig(preprocess=PreprocessConfig(slant_enabled=False))
    assert load_gallery(gal).config == no_slant
    assert (gal / "MANIFEST.siggal").read_bytes().startswith(b"SIGGAL v3 sym8 3 64 3 256 256 0 - ")
    probe = str(dataset_dir / "id001" / "s003.pgm")
    capsys.readouterr()
    # queries take every extraction setting from the gallery
    assert run(["identify", str(gal), probe]) == 0
    inherited = capsys.readouterr().out
    g = load_gallery(gal)
    manhattan = DistanceMeasure("manhattan")
    result = identify(g, load_image(probe), manhattan, no_slant)
    assert inherited == f"{result.identity} {result.distance:.6f}\n"
    # before the preprocessing was stored, a probe without flags was deslanted
    unstored = Gallery._from_columns(PipelineConfig(), g.names, g.columns, g.sample_names,
                                     g.sample_columns, g.magnitudes)
    assert identify(unstored, load_image(probe), manhattan, PipelineConfig()).distance \
        != result.distance
    assert run(["verify", str(gal), "id001", "--threshold", "9", probe]) == 0
    assert capsys.readouterr().out == f"genuine {result.distance:.6f}\n"
    # the dumped planes are the probe's under the gallery's preprocessing too
    bands = tmp_path / "bands"
    assert run(["identify", str(gal), "--dump-subbands", str(bands), probe]) == 0
    assert capsys.readouterr().out == inherited
    dumped = {path.name: load_image(path).pixels.tobytes() for path in bands.iterdir()}
    for pre, same in ((no_slant.preprocess, True), (PreprocessConfig(), False)):
        planes = subband_images(dwt2_multi(preprocess(load_image(probe), pre), no_slant.family,
                                           no_slant.levels))
        want = {f"{name}.pgm": plane.pixels.tobytes() for name, plane in planes}
        assert (want == dumped) is same
    # identify and verify take no extraction flag, not even one that repeats
    # the gallery's; enroll's flag that disagrees with the gallery is a mismatch
    new = str(dataset_dir / "id002" / "s001.pgm")
    flagged = PipelineConfig(preprocess=PreprocessConfig(slant_enabled=False, median_window=5))
    mismatch = f"sigfd: error: MetaMismatch: config {flagged} != gallery config {no_slant}\n"
    before = _tree_bytes(gal)
    for argv, code, error in (
            (["identify", str(gal), "--no-slant", probe], 1, "--no-slant"),
            (["identify", str(gal), "--median-window", "5", probe], 1, "--median-window"),
            (["identify", str(gal), "--target-size", "128", "128", probe], 1, "--target-size"),
            (["verify", str(gal), "id001", "--threshold", "9", "--binarize-threshold", "90",
              probe], 1, "--binarize-threshold"),
            (["enroll", str(gal), "id002", "--median-window", "5", new], 2, mismatch)):
        assert run(argv) == code
        captured = capsys.readouterr()
        assert captured.out == ""
        if code == 1:
            assert f"unrecognized arguments: {error}" in captured.err
        else:
            assert captured.err == error
    assert _tree_bytes(gal) == before
    # enroll without flags takes the stored preprocessing too
    assert run(["enroll", str(gal), "id002", new]) == 0
    g = load_gallery(gal)
    assert g.config == no_slant
    assert g.magnitudes[-1].tobytes() == \
        extract_features(load_image(new), no_slant).magnitudes.tobytes()


@pytest.mark.parametrize("flag", [["--median-window", "3"], ["--target-size", "256", "256"],
                                  ["--no-slant"], ["--binarize-threshold", "100"]],
                         ids=lambda flag: flag[0])
@pytest.mark.parametrize("command", [["identify", "{gal}", "--dump-subbands", "{out}"],
                                     ["verify", "{gal}", "id001", "--threshold", "9"]],
                         ids=lambda command: command[0])
def test_queries_refuse_every_preprocessing_flag(tmp_path, dataset_dir, gallery_dir, capsys,
                                                  command, flag):
    # even a value that restates the gallery's: the gallery alone sets extraction
    out = tmp_path / "bands"
    argv = [a.format(gal=gallery_dir, out=out) for a in command]
    before = _tree_bytes(gallery_dir)
    capsys.readouterr()
    assert run([*argv, *flag, str(dataset_dir / "id001" / "s003.pgm")]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"error: unrecognized arguments: {flag[0]}" in captured.err
    assert _tree_bytes(gallery_dir) == before and not out.exists()


@pytest.fixture(scope="module")
def readme_dataset(tmp_path_factory):
    """What `sigfd synth data --identities 3 --samples 4 --seed 1` writes."""
    root = tmp_path_factory.mktemp("readme")
    save_dataset(generate_synthetic(SynthSpec(n_identities=3, samples_per_identity=4, seed=1)),
                 root)
    return root


V3_GALLERY = Path(__file__).resolve().parent / "data" / "v3-gallery"

# Outputs on tests/data/v3-gallery, captured with the CLI that wrote the SIGGAL v2
# file it was converted from (by `save_gallery(load_gallery(...))`): id000, id001
# and id002 of `readme_dataset`, each enrolled from s000 and s001.
_PINNED_ANSWERS = [
    (["identify", "{gal}", "{data}/id000/s002.pgm"], "id000 1.108460\n"),
    (["identify", "{gal}", "{data}/id000/s003.pgm"], "id000 1.334914\n"),
    (["identify", "{gal}", "{data}/id001/s002.pgm"], "id001 1.604580\n"),
    (["identify", "{gal}", "{data}/id001/s003.pgm"], "id001 1.868748\n"),
    (["identify", "{gal}", "{data}/id002/s002.pgm"], "id002 0.843576\n"),
    (["identify", "{gal}", "{data}/id002/s003.pgm"], "id002 0.439535\n"),
    (["identify", "{gal}", "--measure", "euclidean", "{data}/id002/s002.pgm"], "id002 0.145984\n"),
    (["verify", "{gal}", "id001", "--threshold", "2.0", "{data}/id001/s003.pgm"],
     "genuine 1.868748\n"),
]


def test_a_committed_gallery_file_reads_and_answers_as_before(tmp_path, readme_dataset, capsys):
    data = (V3_GALLERY / "MANIFEST.siggal").read_bytes()
    assert data.partition(b"\n")[0] == b"SIGGAL v3 sym8 3 64 3 256 256 1 - 6 3 18 2 10"
    g = load_gallery(V3_GALLERY)
    assert g.config == PipelineConfig()
    assert g.identities == ("id000", "id000", "id001", "id001", "id002", "id002")
    assert g.sample_ids == ("s000", "s001") * 3
    save_gallery(g, tmp_path / "again")
    assert (tmp_path / "again" / "MANIFEST.siggal").read_bytes() == data
    capsys.readouterr()
    for argv, out in _PINNED_ANSWERS:
        assert run([a.format(gal=V3_GALLERY, data=readme_dataset) for a in argv]) == 0
        assert capsys.readouterr().out == out
    # the file holds the preprocessing, so a query takes no flag for it
    probe = str(readme_dataset / "id001" / "s003.pgm")
    assert run(["identify", str(V3_GALLERY), "--no-slant", probe]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.endswith("error: unrecognized arguments: --no-slant\n")


def test_the_committed_gallery_templates_re_extract_from_their_scans(readme_dataset):
    # galleries enrolled before the ink-box products still serve new probes:
    # today's extraction of each template's scan is the stored row up to rounding
    g = load_gallery(V3_GALLERY)
    for row, identity, sample in zip(g.magnitudes, g.identities, g.sample_ids):
        mags = extract_features(load_image(readme_dataset / identity / f"{sample}.pgm")).magnitudes
        assert np.all(np.abs(mags - row) <= 1e-12 * row)


def test_enroll_checks_names_and_duplicates_before_extracting(tmp_path, dataset_dir,
                                                              gallery_dir, capsys):
    gal = tmp_path / "gal"
    shutil.copytree(gallery_dir, gal)
    before = _tree_bytes(gal)
    blank = tmp_path / "blank.pgm"  # its extraction would fail
    save_image(GrayImage(np.full((64, 64), 255, dtype=np.uint8)), blank)
    (tmp_path / "bad").mkdir()
    spaced = tmp_path / "bad" / "s 1.pgm"
    shutil.copy(dataset_dir / "id000" / "s002.pgm", spaced)
    enrolled = str(dataset_dir / "id000" / "s000.pgm")
    capsys.readouterr()
    for argv, code, error in (
            (["enroll", str(gal), "id000", enrolled, str(blank)], 2,
             "DuplicateSample: ('id000', 's000') enrolled twice"),
            (["enroll", str(gal), "idx", str(blank), enrolled, enrolled], 2,
             "DuplicateSample: ('idx', 's000') enrolled twice"),
            (["enroll", str(gal), "idx", str(spaced), str(blank)], 1, "got 's 1'")):
        assert run(argv) == code
        captured = capsys.readouterr()
        assert captured.out == "" and error in captured.err
    assert _tree_bytes(gal) == before


_CLI_TEXT = json.loads((Path(__file__).resolve().parent / "data" / "cli-text.json")
                       .read_text(encoding="utf-8"))


@pytest.mark.parametrize("case", list(_CLI_TEXT))
def test_help_and_usage_text_is_pinned(case, capsys, monkeypatch):
    """Help and usage output, byte for byte as captured from the CLI that built
    every subcommand's arguments up front (argparse of Python 3.11, 80 columns);
    the enroll, identify and verify help was captured again when its
    --median-window and --target-size defaults became the gallery's, and the
    identify and verify help and usage once more when they lost the
    preprocessing flags."""
    monkeypatch.setenv("COLUMNS", "80")
    want = _CLI_TEXT[case]
    code = run(want["argv"])
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (want["exit"], want["stdout"], want["stderr"])


def test_blank_probe_is_a_data_error(tmp_path, gallery_dir):
    blank = tmp_path / "blank.pgm"
    save_image(GrayImage(np.full((64, 64), 255, dtype=np.uint8)), blank)
    assert run(["identify", str(gallery_dir), str(blank)]) == 2


# --- one parser per process --------------------------------------------------------

@pytest.fixture
def fresh_parser():
    """`run`'s shared parser cleared before the test, and again afterwards."""
    cli._parser.cache_clear()
    yield
    cli._parser.cache_clear()


def test_run_builds_one_parser_per_process(fresh_parser, monkeypatch, capsys):
    built = []

    def counted():
        built.append(None)
        return build_parser()

    monkeypatch.setattr(cli, "build_parser", counted)
    for argv in (["--help"], ["identify", "--help"], ["frobnicate"], ["enroll"],
                 ["identify", "--help"], ["synth", "--help"]):
        run(argv)
    assert len(built) == 1


def test_a_shared_parser_answers_as_a_fresh_process(fresh_parser, tmp_path, dataset_dir,
                                                    gallery_dir, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")  # help text wraps at the terminal width
    gal = str(gallery_dir)
    lines = [(["identify", gal], 1),
             (["identify", "--help"], 0),
             (["identify", gal, str(tmp_path / "missing.pgm")], 2),
             (["identify", gal, str(dataset_dir / "id001" / "s002.pgm")], 0),
             (["identify", "--measure", "euclidean", gal,
               str(dataset_dir / "id002" / "s003.pgm")], 0)]
    for argv, code in lines:
        fresh = subprocess.run([sys.executable, "-m", "sigfd", *argv], env=_module_env(),
                               capture_output=True, text=True, timeout=60)
        got = run(argv)
        captured = capsys.readouterr()
        assert (got, captured.out, captured.err) == (fresh.returncode, fresh.stdout, fresh.stderr)
        assert got == code


def test_threads_share_the_parser(fresh_parser):
    lines = [["identify", "g", "p.pgm"],
             ["identify", "g", "--measure", "angle", "--dump-subbands", "d", "q.pgm"],
             ["verify", "g", "a", "--threshold", "2", "p.pgm"],
             ["verify", "g", "b", "--threshold", "3", "--minkowski-p", "5", "q.pgm"]]
    want = [build_parser().parse_args(argv) for argv in lines]
    shared = cli._parser()
    barrier = threading.Barrier(len(lines))
    got = [None] * len(lines)

    def parse(i):
        barrier.wait(timeout=30)
        parser = cli._parser()
        try:
            got[i] = (parser is shared, parser.parse_args(lines[i]))
        except SystemExit as exc:
            got[i] = (parser is shared, exc)

    threads = [threading.Thread(target=parse, args=(i,)) for i in range(len(lines))]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=30)
    assert not any(thread.is_alive() for thread in threads)
    assert got == [(True, args) for args in want]


# --- concurrent and interrupted enrollment -------------------------------------------

_ENROLL_CHILD = """
import sys, time
from pathlib import Path
from sigfd import cli
gal, tag, image, ready, n = sys.argv[1:6]
Path(ready, tag).touch()
while len(list(Path(ready).iterdir())) < 2:  # start together
    time.sleep(0.001)
for i in range(int(n)):
    code = cli.run(["enroll", gal, f"{tag}{i}", image])
    if code:
        sys.exit(code)
"""


def test_two_processes_enrolling_into_one_gallery_lose_no_template(tmp_path, dataset_dir):
    gal, ready, n = tmp_path / "gal", tmp_path / "ready", 6
    ready.mkdir()
    children = [subprocess.Popen([sys.executable, "-c", _ENROLL_CHILD, str(gal), tag,
                                  str(dataset_dir / "id000" / "s000.pgm"), str(ready), str(n)],
                                 env=_module_env(), stdout=subprocess.PIPE,
                                 stderr=subprocess.PIPE, text=True)
                for tag in ("a", "b")]
    for tag, child in zip(("a", "b"), children):
        out, err = child.communicate(timeout=120)
        assert (child.returncode, err) == (0, "")
        assert out == "".join(f"enrolled 1 sample(s) for {tag}{i}\n" for i in range(n))
    gallery = load_gallery(gal)
    assert sorted(gallery.names) == sorted(f"{tag}{i}" for tag in "ab" for i in range(n))
    assert len(gallery.columns) == 2 * n
    assert [p.name for p in gal.iterdir()] == ["MANIFEST.siggal"]


_KILLED_CHILD = """
import os, signal, sys
from sigfd import cli
os.replace = lambda src, dst: os.kill(os.getpid(), signal.SIGKILL)
cli.run(["enroll", *sys.argv[1:]])
"""


def test_an_enroll_killed_before_the_replace_keeps_the_previous_gallery(tmp_path, dataset_dir,
                                                                        gallery_dir, capsys):
    gal = tmp_path / "gal"
    shutil.copytree(gallery_dir, gal)
    before = (gal / "MANIFEST.siggal").read_bytes()
    probe = str(dataset_dir / "id001" / "s003.pgm")
    killed = subprocess.run([sys.executable, "-c", _KILLED_CHILD, str(gal), "idnew", probe],
                            env=_module_env(), capture_output=True, timeout=60)
    assert killed.returncode == -9
    assert (gal / "MANIFEST.siggal").read_bytes() == before
    assert load_gallery(gal).names == ("id000", "id001", "id002")
    # it died holding a written temporary file and the lock; neither is in the way
    assert len([p for p in gal.iterdir() if p.name.endswith(".tmp")]) == 1
    capsys.readouterr()
    assert run(["enroll", str(gal), "idnew", probe]) == 0
    assert capsys.readouterr().out == "enrolled 1 sample(s) for idnew\n"
    assert load_gallery(gal).names == ("id000", "id001", "id002", "idnew")
    assert "MANIFEST.siggal.lock" not in {p.name for p in gal.iterdir()}
