"""Every benchmark command's stdout must hash to its recorded golden digest.

``bench/golden.json`` maps a CLI argv (space-separated) to the SHA-256 of
the bytes that command writes to stdout.  Running each one in-process pins
the CSV bytes across refactors and speedups; the file is only read here.
"""

import hashlib
import json
from pathlib import Path

import pytest

from dualsig.cli import main

GOLDEN = json.loads((Path(__file__).resolve().parents[1] / "bench" / "golden.json")
                    .read_text(encoding="utf-8"))


@pytest.mark.parametrize("argv", sorted(GOLDEN))
def test_stdout_matches_golden_digest(argv, capsys):
    assert main(argv.split()) == 0
    out = capsys.readouterr().out.encode("utf-8")
    assert hashlib.sha256(out).hexdigest() == GOLDEN[argv]
