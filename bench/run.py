"""Run one workload of the dualsig benchmark and print its metrics.

    python3 bench/run.py --workload mc_verify --seed 0 --seconds 14 --trace 0

Runs the workload's commands as fresh processes, pass after pass, for at
least ``--seconds`` and at least ``harness.MIN_PASSES`` passes, then prints
one ``sha256`` line per command, a JSON record with run metadata and
per-metric quartiles, and last a JSON result line.  ``--trace 0`` reports the
end-to-end metrics of ``BENCHMARK.json``; ``--trace 1`` adds a traced
in-process pass and reports its per-layer metrics.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import subprocess
import sys
import time
import traceback
from importlib import metadata
from pathlib import Path

import harness
import spans

TRACE_DIR = harness.ROOT / ".bench_trace"
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def in_process(argv: list[str], tracer: spans.Tracer) -> harness.Run:
    """Call ``dualsig.cli.main(argv)`` in this process under a ``cli.main``
    span, capturing its stdout."""
    from dualsig import cli
    buf, err = io.StringIO(), ""
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(buf):
            code = tracer.run("cli.main", cli.main, argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    except Exception:  # reported as a failed command, not a crash
        code, err = -1, traceback.format_exc()
    return harness.Run(argv=argv, returncode=code, wall_s=time.perf_counter() - start,
                       stdout=buf.getvalue().encode("utf-8"), stderr=err.encode())


def _read(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read().strip()
    except OSError:
        return ""


def machine() -> dict:
    model = next((line.split(":", 1)[1].strip() for line in _read("/proc/cpuinfo").splitlines()
                  if line.startswith("model name")), platform.processor() or "unknown")
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        kind = _read(index / "type")
        if kind != "Instruction":
            caches[f"L{_read(index / 'level')}"] = _read(index / "size")
    return {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "cpu_model": model, "caches": caches,
            "blas_env": {k: os.environ.get(k) for k in BLAS_VARS}}


def versions() -> dict:
    commit = "unknown"
    if (harness.ROOT / ".git").exists():
        with contextlib.suppress(OSError, subprocess.CalledProcessError):
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=harness.ROOT, check=True,
                                    capture_output=True, text=True).stdout.strip()
    try:
        numpy = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy = "unknown"
    return {"git_commit": commit, "python": platform.python_version(), "numpy": numpy}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(harness.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (harness.SRC / "dualsig" / "cli.py").is_file():
        print(f"error: no dualsig sources under {harness.SRC}", file=sys.stderr)
        return 2
    with open(harness.ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    golden = harness.load_golden()

    # The untimed first import fills the bytecode cache.  One timed import
    # precedes every pass, so that set-up samples span the whole run, as the
    # passes do, rather than the machine's state in its first second.
    harness.setup_time()
    setups, passes = [], []
    start = time.perf_counter()
    while len(passes) < harness.MIN_PASSES or time.perf_counter() - start < args.seconds:
        setups.append(harness.setup_time())
        passes.append(harness.run_pass(args.workload, args.seed))
    samples = {
        "wall_s": [sum(r.wall_s for r in p) for p in passes],
        "setup_s": [r.wall_s for r in setups],
        "peak_rss_mb": [max(r.peak_rss_mb for r in p) for p in passes],
        "cli.cpu_s": [sum(r.cpu_s for r in p) for p in passes],
    }
    checked = list(passes)
    layers: dict[str, float] = {}
    if args.trace:
        sys.path.insert(0, str(harness.SRC))
        tracer = spans.Tracer()
        with tracer.installed():
            checked.append([in_process(argv, tracer)
                            for argv in harness.commands(args.workload, args.seed)])
        layers = tracer.metrics()
        layers["trace.overhead_s"] = tracer.overhead_s()
        roots = sum(v for k, v in layers.items() if k.startswith("cli.command"))
        own = sum(v for k, v in layers.items() if k.endswith(".self_s"))
        TRACE_DIR.mkdir(exist_ok=True)
        with open(TRACE_DIR / f"{args.workload}-seed{args.seed}.json", "w",
                  encoding="utf-8") as fh:
            json.dump({"workload": args.workload, "seed": args.seed,
                       "commands": harness.commands(args.workload, args.seed),
                       "fields": ["name", "start", "end", "parent"],
                       "spans": tracer.spans, "counts": tracer.counts}, fh)

    fails = harness.failures(checked, golden)
    fails += [f"setup: exit {r.returncode}" for r in setups if r.returncode != 0]
    attempted = sum(len(p) for p in checked) + len(setups)
    summaries = {name: harness.summary(values) for name, values in samples.items()}

    for run in passes[0]:
        print(f"sha256 {harness.digest(run.stdout)} {' '.join(run.argv)}")
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, **versions(), "machine": machine(),
              "passes": len(passes), "metrics": summaries, "attempted": attempted,
              "failed": len(fails), "failures": fails}
    if args.trace:
        layers["cli.cpu_s"] = summaries["cli.cpu_s"]["median"]
        record["layers"] = layers
        record["partition_residual_s"] = own - roots
    print(json.dumps(record))

    if args.trace:
        chosen = {m["name"]: {"value": layers.get(m["name"], 0), "unit": m["unit"]}
                  for m in spec["per_layer"]}
    else:
        chosen = {m["name"]: {"value": summaries[m["name"]]["median"], "unit": m["unit"]}
                  for m in spec["end_to_end"]}
    print(json.dumps({"correct": not fails, "attempted": attempted,
                      "failed": len(fails), "metrics": chosen}))
    return 0 if not fails else 1


if __name__ == "__main__":
    sys.exit(main())
