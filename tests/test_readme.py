"""The README's CLI examples run as written and print the headers it shows.

Each ``dualsig ...`` line of the first code block under README § CLI runs
in-process from a fresh working directory.  It must exit 0, and the CSV
header it writes (to the ``--out`` file when it names one, else to stdout)
must equal the first token of the last ``# ...`` comment line under it.
"""

import shlex
from pathlib import Path

import pytest

from dualsig.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def cli_examples(text: str) -> list[tuple[list[str], str]]:
    """``(argv, header)`` of every command in the first code block of § CLI."""
    section = text.split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]
    block = section.split("```\n", 2)[1]
    examples = []
    for line in block.splitlines():
        if line.startswith("dualsig "):
            examples.append([shlex.split(line)[1:], None])
        elif line.startswith("#") and examples:
            examples[-1][1] = line[1:].split()[0]
    return [(argv, header) for argv, header in examples]


def test_parser_reads_commands_and_their_last_comment():
    text = ("# Title\n\n## CLI\n\nprose\n\n```\n"
            "dualsig a --x 1\n# first\n# h1,h2  (note)\n\n"
            "dualsig b --out f.csv\n# g1 ; more\n```\n\n## Next\n")
    assert cli_examples(text) == [(["a", "--x", "1"], "h1,h2"),
                                  (["b", "--out", "f.csv"], "g1")]


EXAMPLES = cli_examples(README.read_text(encoding="utf-8"))


def test_every_subcommand_has_an_example():
    assert sorted(argv[0] for argv, _ in EXAMPLES) == [
        "losses", "phase", "simulate", "thresholds", "verify"]


@pytest.mark.parametrize("argv, header", EXAMPLES, ids=[argv[0] for argv, _ in EXAMPLES])
def test_example_runs_and_prints_the_documented_header(argv, header, tmp_path, monkeypatch,
                                                       capsys):
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 0
    out = capsys.readouterr().out
    if "--out" in argv:
        out = (tmp_path / argv[argv.index("--out") + 1]).read_text(encoding="utf-8")
    assert out.split("\n", 1)[0] == header
