"""The README's Library and Command line examples run as written, and name every option."""

import argparse
import re
import shlex
from pathlib import Path

from sigfd.cli import build_parser, run
from sigfd.imaging import save_image
from sigfd.recognition import SynthSpec, generate_synthetic

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_library_example_runs(tmp_path, monkeypatch, capsys):
    (code,) = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    alice, bob = generate_synthetic(SynthSpec(n_identities=2, samples_per_identity=3)).values()
    for name, img in (("alice0.pgm", alice[0]), ("alice1.pgm", alice[1]),
                      ("bob0.pgm", bob[0]), ("probe.pgm", alice[2])):
        save_image(img, tmp_path / name)
    monkeypatch.chdir(tmp_path)
    exec(compile(code, str(README), "exec"), {})
    assert capsys.readouterr().out.splitlines()[-1] == "('alice', 'bob')"


def test_readme_command_line_example_prints_its_comments(tmp_path, monkeypatch, capsys):
    # each `sigfd ...` line of the shell blocks, with the `# ...` lines under it
    commands = []
    for block in re.findall(r"```sh\n(.*?)```", README.read_text(encoding="utf-8"), re.S):
        for line in block.splitlines():
            if line.startswith("sigfd "):
                commands.append((shlex.split(line)[1:], []))
            elif line.startswith("# ") and commands:
                commands[-1][1].append(line[2:])
    monkeypatch.chdir(tmp_path)
    shown = []
    for argv, comments in commands:
        capsys.readouterr()
        assert run(argv) == 0, argv
        out = capsys.readouterr().out.splitlines()
        for comment in comments:
            if comment.endswith("(stderr)") or comment == "...":
                continue
            line = re.sub(r"\s+\(.*\)$", "", comment)  # "(stdout, CSV)" annotates the line
            assert line in out, (argv, line, out)
            shown.append(line)
    # synth, three enrolls, identify, verify and evaluate; two lines of the CSV
    assert (len(commands), len(shown)) == (7, 4)


def _parser_long_options() -> set[str]:
    """Every long option of every subcommand parser, `--help` aside."""
    parser = build_parser()
    (commands,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return {option for sub in commands.choices.values() for action in sub._actions
            for option in action.option_strings if option.startswith("--")} - {"--help"}


def test_readme_command_line_section_names_every_long_option_and_no_other():
    text = README.read_text(encoding="utf-8")
    section = text[text.index("## Command line\n"):]
    section = section[:section.index("\n## ", 1)]
    named = set(re.findall(r"--[a-z][a-z0-9-]*", section))
    options = _parser_long_options()
    assert options - named == set(), "options README's Command line section never names"
    assert named - options - {"--help"} == set(), "options README names that no parser has"
