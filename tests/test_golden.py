"""Every benchmark command's stdout must hash to its recorded golden digest.

``bench/golden.json`` maps a CLI argv (space-separated) to the SHA-256 of
the bytes that command writes to stdout.  Running each one in-process pins
the CSV bytes across refactors and speedups; the file is only read here.

``EDGES`` does the same for edge cases of the array closed forms: odd
precisions, grids through ``tau_a = tau_h`` and ``lam = 1``, 1x1 grids,
thresholds at ``lam`` in {0, 1/2, 1} and full-overlap ``losses``.  Its
digests were recorded from the per-cell implementation that preceded the
array one.  Its ``verify`` entries pin Monte Carlo bytes beyond the
benchmark's seed-0 runs: other seeds, ``n`` and precisions of
``closed_forms`` and ``gap``, recorded before their cells ran on a process
pool, and ``lemma``, which shares the discrete gap residual with ``gap``,
at two seeds of ``--n 2000`` and at ``--n 100000``, above ``CHUNK``; that
last one was recorded while the grid search still scanned point by point.
Its ``simulate`` entries pin both overlap modes at odd pool sizes and a
non-default sampling plan.

A mismatch only says that some byte moved; ``tools/golden_diff.py`` says
which columns and rows, and by how many ulps.  A deliberate change
re-records the digests it moves, and only those.
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
    "verify --suite closed_forms --n 3000 --seed 1":
        "d8d5c65e65d352ce2322a5d47c1e33829edb1ad825a54a63aa44bebd1d5ed72d",
    "verify --suite closed_forms --n 20000 --tau0 2 --tauH 0.7 --seed 4":
        "accc98f7df66de0d939080710785214747b9711f926ed2a04000615af1dfdb96",
    "verify --suite gap --n 5000 --seed 2":
        "6d44af525c027bcbcdddac09afcaa1fd7ee124c159631a44ddeba185a56e522f",
    # 2 * CHUNK + 1: three chunks, the last a single draw, so the pairwise
    # chunk total meets an odd length
    "verify --suite gap --n 131073 --seed 3":
        "712535e6baf05c933b6adddfe42013a5a7ec8dcbaf30a0cce336c345be5f7226",
    "verify --suite lemma --n 2000 --seed 0":
        "33f648015e6b5f620f0ff9acff980d42117d3b3d8e8ad9d73c61deb8aaa510ce",
    "verify --suite lemma --n 2000 --seed 1":
        "05c3fe44aa953f5d75b4f0fd0039349d6c7243c935143b41fcac33a16da84382",
    "verify --suite lemma --n 100000 --seed 0":
        "1a2a1dcc3ceb921b1b73474f1c5dbbc94ba455524277d08f955c9142a5351ae7",
    # odd pool sizes and a plan other than the benchmark's, in both modes
    "simulate --n 997 --n 5003 --reps 7 --mode heterogeneous --a 0.2 --m 0.6 --k 0.15 "
    "--h-total 0.4 --tau-min 0.3 --tau-max 3 --seed 5":
        "9c7184cd92365fbad4ab73730ba57f13ae0dbafc33596d3c3f7fbf4e81f0f8b9",
    # the target is the realized rate round(k*N) / round(m*N): 200/699 and
    # 800/2801, not k/m = 2/7
    "simulate --n 999 --n 4001 --reps 9 --mode homogeneous --a 0.35 --m 0.7 --k 0.2 "
    "--h-total 0.45 --seed 2":
        "80ff87e556da346b828c8c1ac38ea9b43458e3c482645a4a28893104a219b051",
}


def assert_digest(argv, capsys, recorded):
    assert main(argv.split()) == 0
    digest = hashlib.sha256(capsys.readouterr().out.encode("utf-8")).hexdigest()
    assert digest == recorded, (
        f"`{argv}` no longer prints its recorded bytes.  To see which rows moved, "
        "write the output of a revision that matched, for example with "
        "`git worktree add ../parent HEAD`, and this tree's, then compare them: "
        f"`PYTHONPATH=../parent/src python -m dualsig.cli {argv} > old.csv`, "
        f"`PYTHONPATH=src python -m dualsig.cli {argv} > new.csv`, "
        "`python tools/golden_diff.py old.csv new.csv`")


@pytest.mark.parametrize("argv", sorted(GOLDEN))
def test_stdout_matches_golden_digest(argv, capsys):
    assert_digest(argv, capsys, GOLDEN[argv])


@pytest.mark.parametrize("argv", sorted(EDGES))
def test_edge_case_stdout_matches_recorded_digest(argv, capsys):
    assert_digest(argv, capsys, EDGES[argv])
