"""The README's examples run as written: its Python block, and every
`oucausal` line of its CLI block on its own model file."""

import pathlib
import re
import shlex
import warnings

from oucausal import cli

README = (pathlib.Path(__file__).resolve().parents[1] / "README.md").read_text()


def _block(after: str, language: str) -> str:
    return re.search(re.escape(after) + r".*?```" + language + r"\n(.*?)```", README, re.S).group(1)


def test_readme_python_example_runs(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        exec(compile(_block("## Library example", "python"), "README.md", "exec"), {})


def test_readme_cli_examples_exit_zero_on_the_readme_model(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "model.json").write_text(_block("Model file schema:", "json"))
    lines = _block("## CLI", "sh").replace("\\\n", " ").splitlines()
    commands = [shlex.split(line, comments=True) for line in lines]
    assert commands and all(argv[0] == "oucausal" for argv in commands)
    for argv in commands:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = cli.main(argv[1:])
        assert code == 0, (argv, capsys.readouterr().err)
