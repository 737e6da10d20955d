"""Every benchmark command's stdout must hash to its recorded golden digest.

``bench/golden.json`` maps a CLI argv (space-separated) to the SHA-256 of
the bytes that command writes to stdout.  Running each one in-process pins
the CSV bytes across refactors and speedups; the file is only read here.

``EDGES`` does the same for edge cases of the array closed forms: odd
precisions, grids through ``tau_a = tau_h`` and ``lam = 1``, 1x1 grids,
thresholds at ``lam`` in {0, 1/2, 1} and full-overlap ``losses``.  Its
digests were recorded from the per-cell implementation that preceded the
array one.
"""

import hashlib
import json
from pathlib import Path

import pytest

from dualsig.cli import main

GOLDEN = json.loads((Path(__file__).resolve().parents[1] / "bench" / "golden.json")
                    .read_text(encoding="utf-8"))


EDGES = {
    "phase --tau0 0.3 --tauH 2.7 --tauA-steps 37 --lambda-steps 29":
        "4156ca3bc3d68daa5f1098e34353111256234a3868cef6b33821311ba581be46",
    "phase --tauH 0.37 --tauA-steps 61 --lambda-steps 53":
        "2cccece8e64c62f89e59cb50ec294683fc567b36325bc1ee1f7215107838bcea",
    "phase --tau0 5 --tauH 1e-3 --tauA-min 1e-4 --tauA-max 0.01 --tauA-steps 41 "
    "--lambda-steps 33":
        "9bae565c5aa6d540c2ea84ee80d81d129e79929be6a1004a5959ff4d5ace55cf",
    "phase --tauA-min 0.99 --tauA-max 1.01 --tauA-steps 101 --lambda-steps 101":
        "b0184cd971e652c152078c2ce33ac18ec5d6f8eb77f4ad0401157f72834b6e6f",
    "phase --tauA-steps 1 --lambda-steps 1":
        "f739cb95d52366eee662d40db89c2d9b2b440f09bc58d2d9efe251845aa3a5e3",
    "phase --tauA-min 1.5 --tauA-steps 1 --lambda-min 0.3 --lambda-steps 1":
        "c351511afc0795235e838422dfae78ee6422f1c89659aa027b98d229358cc696",
    # the lam = 1 row includes tau_a = tau_h = 1
    "phase --tauA-min 0.5 --tauA-max 1.5 --tauA-steps 11 --lambda-steps 11":
        "a3252bd64fd517b6ea4ae35aae93e53b364e5a94f9c0cfbeaf18385ee02e3c00",
    "thresholds --lambda 0 --lambda 0.5 --lambda 1 --tau0 2.5 --tauH 0.4":
        "e408a9d6da8fdbb988370960066c036369482a4ee02c586a59696e744487c648",
    "thresholds --tau0 0.3 --tauH 2.7 --lambda-steps 1001":
        "e3b827387bbbee01231deb4b8c41b209a2963c61ca801d0e804ebae3ea0b49bc",
    "losses --tauA 0.5 --tauH 2 --lambda 1":
        "eff69cb663662a5ffb77af58e90c2c85f2c7c4b09bc62c513bb1514d3c3825d4",
    "losses --tauA 1 --tauH 1 --lambda 1":
        "b043c47d435096d4f6d22f37912823a4464b6c9c433cbf2158beb280cc303e1c",
}


def stdout_digest(argv, capsys):
    assert main(argv.split()) == 0
    return hashlib.sha256(capsys.readouterr().out.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("argv", sorted(GOLDEN))
def test_stdout_matches_golden_digest(argv, capsys):
    assert stdout_digest(argv, capsys) == GOLDEN[argv]


@pytest.mark.parametrize("argv", sorted(EDGES))
def test_edge_case_stdout_matches_recorded_digest(argv, capsys):
    assert stdout_digest(argv, capsys) == EDGES[argv]
