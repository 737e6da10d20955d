"""The README's examples run as written and give what it shows.

Each ``dualsig ...`` line of the first code block under README § CLI runs
in-process from a fresh working directory.  It must exit 0, and the CSV
header it writes (to the ``--out`` file when it names one, else to stdout)
must equal the first token of the last ``# ...`` comment line under it.

Each ``python`` code block runs in a fresh namespace, and the values its
comments state are checked, so a changed signature or result cannot leave
the README behind.
"""

import math
import re
import shlex
from pathlib import Path

import pytest

from dualsig.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"
TEXT = README.read_text(encoding="utf-8")


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


EXAMPLES = cli_examples(TEXT)


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


def python_blocks(text: str) -> list[tuple[str, str]]:
    """``(section, code)`` of every ``python`` code block, ``section`` being
    the title of the ``## `` section that holds it."""
    return [(re.findall(r"^## (.+)$", text[:m.start()], re.M)[-1], m.group(1))
            for m in re.finditer(r"^```python\n(.*?)^```$", text, re.M | re.S)]


def test_python_blocks_are_found_with_their_sections():
    text = "## A\n\n```python\nx = 1\n```\n\n## B\n\n```\ny\n```\n```python\nz = 2\n```\n"
    assert python_blocks(text) == [("A", "x = 1\n"), ("B", "z = 2\n")]


def points_and_grids(ns):
    # profile.l_human = 1/(tau0 + tau_h) = 0.5; grid.cells.shape = (2, 3); crossing = sqrt(2)
    assert ns["profile"].l_human == 0.5
    assert ns["grid"].cells.shape == (2, 3)
    assert abs(ns["crossing"] - math.sqrt(2.0)) <= 1e-15


def discrete_problems(ns):
    # information gain minus misuse penalty: 1/240 - 17/480 = -1/32 = report.lhs
    assert abs(ns["report"].lhs - -1.0 / 32.0) <= 1e-15


# the values each section's block states in its comments
STATED = {"Library: points and grids": points_and_grids,
          "Library: discrete problems": discrete_problems}
BLOCKS = python_blocks(TEXT)


def test_every_section_with_stated_values_has_a_block():
    assert set(STATED) <= {section for section, _ in BLOCKS}


@pytest.mark.parametrize("section, code", BLOCKS, ids=[section for section, _ in BLOCKS])
def test_python_block_runs_and_gives_the_values_it_states(section, code):
    namespace = {}
    exec(compile(code, f"README.md, {section}", "exec"), namespace)
    STATED.get(section, lambda ns: None)(namespace)
