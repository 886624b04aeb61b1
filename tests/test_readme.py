"""The README's Library example runs as written."""

import re
from pathlib import Path

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
