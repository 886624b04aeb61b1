import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from sigfd.cli import build_parser, measure_from_args, pipeline_from_args, run
from sigfd.descriptor import DescriptorMeta, PipelineConfig, extract_features
from sigfd.imaging import GrayImage, PreprocessConfig, load_image, save_image
from sigfd.metrics import DEFAULT_MINKOWSKI_P, DistanceMeasure
from sigfd.recognition import (SynthSpec, Template, generate_synthetic,
                               load_gallery, save_dataset)
from sigfd.wavelet import WaveletFamily


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
    args = parse(["identify", "g", "--measure", "euclidean",
                  "--median-window", "5", "--target-size", "128", "64", "probe.pgm"])
    assert args.gallery == "g"
    assert measure_from_args(args) == DistanceMeasure("euclidean")
    config = pipeline_from_args(args)
    assert config.preprocess == PreprocessConfig(median_window=5, target_size=(128, 64))
    assert (config.family, config.levels, config.k) == (WaveletFamily.SYM8, 3, 64)
    # a stored gallery's parameters win over the defaults
    stored = pipeline_from_args(args, DescriptorMeta(WaveletFamily.HAAR, 2, 16))
    assert stored.meta == DescriptorMeta(WaveletFamily.HAAR, 2, 16)
    assert stored.preprocess.target_size == (128, 64)
    enroll = parse(["enroll", "g", "a", "--family", "db2", "--levels", "2", "--k", "8",
                    "--no-slant", "--binarize-threshold", "100", "x.pgm"])
    config = pipeline_from_args(enroll)
    assert config.meta == DescriptorMeta(WaveletFamily.DB2, 2, 8)
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
    assert run(["identify", str(gallery_dir), "--median-window", "4",
                probe]) == 1
    assert run(["identify", str(gallery_dir), "--target-size", "100",
                "128", probe]) == 1
    assert run(["evaluate", str(dataset_dir), "--train-k", "0"]) == 1
    assert run(["evaluate", str(dataset_dir), "--families", "db3"]) == 1
    assert run(["synth", str(tmp_path / "s"), "--noise", "0.9"]) == 1


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


def test_enroll_meta_flags_must_match_existing_v1_gallery(tmp_path, dataset_dir, gallery_dir,
                                                          write_v1_gallery, capsys):
    gal = write_v1_gallery(load_gallery(gallery_dir), tmp_path / "gal")
    _refuse_meta_changes(gal, str(dataset_dir / "id000" / "s002.pgm"), capsys)


def test_enroll_migrates_a_v1_gallery_to_v2(tmp_path, dataset_dir, gallery_dir,
                                            write_v1_gallery, capsys):
    old = load_gallery(gallery_dir)
    gal = write_v1_gallery(old, tmp_path / "gal")
    v1_files = _tree_bytes(gal)
    probe = dataset_dir / "id001" / "s002.pgm"
    capsys.readouterr()
    assert run(["identify", str(gallery_dir), str(probe)]) == 0
    v2_answer = capsys.readouterr().out
    assert run(["identify", str(gal), str(probe)]) == 0
    assert capsys.readouterr().out == v2_answer
    new = dataset_dir / "id002" / "s003.pgm"
    assert run(["enroll", str(gal), "idnew", str(new)]) == 0
    assert capsys.readouterr().out == "enrolled 1 sample(s) for idnew\n"
    assert (gal / "MANIFEST.siggal").read_bytes().startswith(b"SIGGAL v2 sym8 3 64 7\n")
    migrated = load_gallery(gal)
    want = old.templates + (Template("idnew", "s003", extract_features(load_image(new))),)
    assert _keys(migrated) == [(t.identity, t.sample_id) for t in want]
    assert [t.descriptor.magnitudes.tobytes() for t in migrated.templates] == \
        [t.descriptor.magnitudes.tobytes() for t in want]
    # the v1 descriptor files stay on disk as they were, and are no longer read
    after = _tree_bytes(gal)
    assert all(after[p] == data for p, data in v1_files.items() if p.suffix == ".sigfd")
    (gal / "id000" / "s000.sigfd").write_text("not a descriptor\n")
    assert run(["identify", str(gal), str(probe)]) == 0
    assert capsys.readouterr().out == v2_answer


@pytest.mark.parametrize("levels", [str(2 ** 63), "99999999999999999999"])
def test_huge_levels_are_bad_levels(tmp_path, dataset_dir, gallery_dir, capsys, levels):
    probe = str(dataset_dir / "id000" / "s002.pgm")
    capsys.readouterr()
    assert run(["enroll", str(tmp_path / "new"), "a", "--levels", levels, probe]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "BadLevels" in captured.err
    assert not (tmp_path / "new").exists()
    # the same value in a stored gallery's header
    gal = tmp_path / "gal"
    gal.mkdir()
    good = (gallery_dir / "MANIFEST.siggal").read_bytes()
    (gal / "MANIFEST.siggal").write_bytes(good.replace(b" sym8 3 ", f" sym8 {levels} ".encode(), 1))
    for argv in (["identify", str(gal), probe], ["verify", str(gal), "id000", "--threshold",
                                                 "1", probe]):
        assert run(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "BadLevels" in captured.err


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
                              "--minkowski-p", "{v}", "{probe}"], 1, 0),
    ("minkowski-p-verify", ["verify", "{gal}", "id001", "--threshold", "1", "--measure",
                            "minkowski", "--minkowski-p", "{v}", "{probe}"], 1, 0),
    ("minkowski-p-evaluate", ["evaluate", "{data}", "--measures", "minkowski", "--families",
                              "haar", "--train-k", "2", "--minkowski-p", "{v}"], 1, 0),
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


def test_corrupt_v1_template_is_a_data_error(tmp_path, dataset_dir, gallery_dir,
                                             write_v1_gallery, capsys):
    probe = str(dataset_dir / "id000" / "s002.pgm")
    for corrupt in ("nan", "short"):
        gal = write_v1_gallery(load_gallery(gallery_dir), tmp_path / corrupt)
        path = gal / "id001" / "s000.sigfd"
        lines = path.read_text().splitlines()
        lines = lines[:-1] + ["nan"] if corrupt == "nan" else lines[:-1]
        path.write_text("\n".join(lines) + "\n")
        assert run(["identify", str(gal), probe]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "FormatError" in captured.err and "s000.sigfd" in captured.err


def test_help_exits_zero(capsys):
    assert run(["--help"]) == 0
    capsys.readouterr()
    assert run(["evaluate", "--help"]) == 0
    assert "--train-k" in capsys.readouterr().out


def test_python_m_sigfd_runs_the_cli(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")  # help text wraps at the terminal width
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}

    def module_run(*argv):
        return subprocess.run([sys.executable, "-m", "sigfd", *argv], env=env,
                              capture_output=True, text=True, timeout=60)

    helped = module_run("--help")
    assert helped.returncode == 0
    assert run(["--help"]) == 0
    assert helped.stdout == capsys.readouterr().out
    usage = module_run("frobnicate")
    assert usage.returncode == 1
    assert usage.stdout == "" and "invalid choice: 'frobnicate'" in usage.stderr


def test_blank_probe_is_a_data_error(tmp_path, gallery_dir):
    blank = tmp_path / "blank.pgm"
    save_image(GrayImage(np.full((64, 64), 255, dtype=np.uint8)), blank)
    assert run(["identify", str(gallery_dir), str(blank)]) == 2
