"""Self-tests of the benchmark: python -m pytest bench"""

import json
import sys

import pytest

import harness
import spans

sys.path.insert(0, str(harness.SRC))


def test_flipped_hash_counts_as_failed_operation():
    argv = harness.commands("phase_grid", 0)[3]
    good = harness.Run(argv=argv, returncode=0, stdout=b"x\n", wall_s=0.1)
    golden = {" ".join(argv): harness.digest(b"x\n")}
    assert harness.failures([[good], [good]], golden) == []

    flipped = dict(golden)
    flipped[" ".join(argv)] = harness.digest(b"y\n")
    assert len(harness.failures([[good], [good]], flipped)) == 2


def test_changed_bytes_and_bad_exit_count_as_failed_operations():
    argv = harness.commands("mc_verify", 7)[0]
    first = harness.Run(argv=argv, returncode=0, stdout=b"a\n", wall_s=0.1)
    changed = harness.Run(argv=argv, returncode=0, stdout=b"b\n", wall_s=0.1)
    crashed = harness.Run(argv=argv, returncode=1, stdout=b"a\n", wall_s=0.1)
    fails = harness.failures([[first], [changed], [crashed]], {})
    assert len(fails) == 2
    assert fails[0].startswith("pass 1: ") and "stdout differs" in fails[0]
    assert fails[1].startswith("pass 2: ") and "exit 1" in fails[1]


def test_self_times_on_synthetic_tree():
    tree = [
        ["root", 0.0, 10.0, -1],
        ["a", 1.0, 4.0, 0],
        ["a.x", 1.5, 2.0, 1],
        ["a.y", 2.5, 3.5, 1],
        ["b", 5.0, 9.0, 0],
        ["b.x", 5.0, 9.0, 4],
        ["root2", 20.0, 21.0, -1],
    ]
    assert spans.self_times(tree) == pytest.approx([3.0, 1.5, 0.5, 1.0, 0.0, 4.0, 1.0])


def test_self_times_count_overlapping_children_once():
    tree = [["p", 0.0, 10.0, -1], ["c1", 1.0, 5.0, 0], ["c2", 3.0, 7.0, 0]]
    assert spans.self_times(tree)[0] == pytest.approx(4.0)


def _bindings():
    out = {}
    for module, attr, _ in spans.Tracer().patches():
        owner, name = spans.target(module, attr)
        out[(module, attr)] = vars(owner)[name]
    return out


def test_traced_run_restores_every_attribute_and_partitions_root_spans(capsys):
    from dualsig import cli
    before = _bindings()
    tracer = spans.Tracer()
    with tracer.installed():
        assert all(_bindings()[key] is not fn for key, fn in before.items())
        for argv in (["losses", "--tauA", "1.5", "--lambda", "0.3"],
                     ["phase", "--tauA-steps", "5", "--lambda-steps", "4"],
                     ["simulate", "--n", "2000", "--reps", "3"],
                     ["verify", "--suite", "gap", "--n", "2000"]):
            assert tracer.run("cli.main", cli.main, argv) == 0
    after = _bindings()
    assert all(after[key] is fn for key, fn in before.items())

    metrics = tracer.metrics()
    roots = [metrics[f"cli.command{i}.s"] for i in range(4)]
    own = sum(v for k, v in metrics.items() if k.endswith(".self_s"))
    assert own == pytest.approx(sum(roots), abs=1e-9)
    assert metrics["regimes.phase_sweep.cells"] == 20
    assert metrics["cli.csv_rows"] == 1 + 20 + 1 + 23
    assert metrics["rng.subset.calls"] == 3 + 2  # assistant draws, human-set draws
    assert metrics["bregman.gap_check_discrete.calls"] == 200
    assert tracer.overhead_s() > 0.0


def test_attributes_restored_when_traced_code_raises():
    from dualsig import cli
    before = _bindings()
    with pytest.raises(RuntimeError):
        with spans.Tracer().installed():
            raise RuntimeError("boom")
    assert all(_bindings()[key] is fn for key, fn in before.items())
    assert cli._write_csv is before[("cli", "_write_csv")]


@pytest.mark.parametrize("workload", sorted(harness.WORKLOADS))
def test_seed_reaches_only_the_seed_flag(workload):
    for template in harness.WORKLOADS[workload]:
        assert all(template[i - 1] == "--seed"
                   for i, arg in enumerate(template) if arg == harness.SEED)
    seed = 918273645
    for a, b in zip(harness.commands(workload, seed), harness.commands(workload, seed + 1)):
        changed = [i for i, (x, y) in enumerate(zip(a, b)) if x != y]
        assert all(a[i - 1] == "--seed" and a[i] == str(seed) for i in changed)
    assert str(seed) not in json.dumps(harness.program_env())


def test_benchmark_json_matches_harness():
    spec = json.loads((harness.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(harness.WORKLOADS)
    predictions = json.loads((harness.ROOT / "bench" / "predictions.json").read_text())
    assert set(predictions["predictions"]) == {m["name"] for m in spec["per_layer"]}
    golden = harness.load_golden()
    assert {" ".join(argv) for w in harness.WORKLOADS for argv in harness.commands(w, 0)} \
        == set(golden)
