"""The README's CLI examples, run through ``cli.main``: each command must
print exactly the ``# `` lines the README shows after it.  The Library
section's ``python`` block is run as well, so a name it uses must exist."""

import re
import shlex
from pathlib import Path

import pytest

from iout_wakeup.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def _blocks(section, language):
    """The ``language`` code blocks of a ``## `` section of the README."""
    text = README.read_text(encoding="utf-8")
    section = text.split(f"\n## {section}\n", 1)[1].split("\n## ", 1)[0]
    return re.findall(rf"```{language}\n(.*?)```", section, re.S)


def _cli_examples():
    """(argv, stdout) of each ``iout-wakeup`` command in the CLI section's
    ``sh`` blocks; a command's output is the ``# `` lines that follow it."""
    examples = []
    for block in _blocks("CLI", "sh"):
        for line in block.replace("\\\n", " ").splitlines():
            if line.startswith("iout-wakeup "):
                examples.append((shlex.split(line)[1:], ""))
            elif line.startswith("# "):
                argv, out = examples[-1]
                examples[-1] = (argv, out + line[2:] + "\n")
    return examples


EXAMPLES = _cli_examples()


def test_readme_shows_every_subcommand():
    assert {argv[0] for argv, _ in EXAMPLES} == {"sweep-range", "lifetime", "simulate"}


@pytest.mark.parametrize("argv, stdout", EXAMPLES, ids=[" ".join(a) for a, _ in EXAMPLES])
def test_readme_cli_example(argv, stdout, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)  # the examples write their --out files here
    assert main(argv) == 0
    assert capsys.readouterr().out == stdout


def test_readme_library_block_runs():
    (block,) = _blocks("Library", "python")
    exec(compile(block, "README.md", "exec"), {})
