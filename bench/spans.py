"""In-process span tracing of the dualsig CLI, installed from outside ``src/``.

:class:`Tracer` replaces module and class attributes of the program with
wrappers that record a span (name, start, end, parent) per call, or only a
count for functions called too often to time (more than ~10^4 calls per
command).  Every replaced attribute is restored when :meth:`Tracer.installed`
exits.  Spans stay in memory until the caller writes them out.

A function imported with ``from .x import f`` is a separate binding in each
importing module, so it is patched at every binding the CLI reaches.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import statistics
import time
from collections import Counter

# (module, attribute, span name, what to count from the result)
SPANS = (
    ("rng", "RngHandle.words", "rng.words", "count"),
    ("rng", "RngHandle.uniforms", "rng.uniforms", None),
    ("rng", "RngHandle.normals", "rng.normals", "count"),
    ("rng", "RngHandle.subset", "rng.subset", None),
    ("montecarlo", "sample_triple", "montecarlo.sample_triple", "count"),
    ("montecarlo", "paired_loss_estimates", "montecarlo.paired_loss_estimates", None),
    ("montecarlo", "verify_closed_forms", "montecarlo.verify_closed_forms", None),
    ("core", "bayes_posterior_mean", "core.posterior_mean", None),
    ("core", "cn_posterior_mean", "core.posterior_mean", None),
    ("montecarlo", "bayes_posterior_mean", "core.posterior_mean", None),
    ("montecarlo", "cn_posterior_mean", "core.posterior_mean", None),
    ("bregman", "bayes_posterior_mean", "core.posterior_mean", None),
    ("bregman", "cn_posterior_mean", "core.posterior_mean", None),
    ("regimes", "phase_sweep", "regimes.phase_sweep", "cells"),
    ("cueworld", "build_world", "cueworld.build_world", None),
    ("cueworld", "sample_ai_set", "cueworld.sample_ai_set", None),
    ("cueworld", "empirical_lambda", "cueworld.empirical_lambda", None),
    ("bregman", "gap_check_gaussian_cn", "bregman.gap_check_gaussian_cn", None),
    ("bregman", "gap_check_discrete", "bregman.gap_check_discrete", None),
    ("voi", "brute_force_voi", "voi.brute_force_voi", None),
    ("voi", "marginal_value_discrete", "voi.marginal_value_discrete", None),
)

# (module, attribute, count name): calls counted, not timed
COUNTS = (
    ("bregman", "bregman_loss", "bregman.bregman_loss.calls"),
    ("core", "loss_profile", "core.loss_profile.calls"),
    ("regimes", "loss_profile", "core.loss_profile.calls"),
)

SEARCH_SITES = ("_search", "voi")

# every name a count-only wrapper increments once per call
COUNTED = tuple(name for _, _, name in COUNTS) + ("search.objective_evals",)
COST_CALLS = 20_000


def _count(kind: str, result) -> int:
    if kind == "cells":
        return sum(len(row) for row in result.cells)
    if isinstance(result, tuple):  # sample_triple: (y, h, a)
        result = result[0]
    return getattr(result, "size", 1)


def target(module: str, attr: str):
    """The object holding ``attr`` (``Class.method`` allowed) and its last name."""
    owner = importlib.import_module(f"dualsig.{module}")
    *path, name = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, name


def self_times(spans: list) -> list[float]:
    """Each span's duration minus the part of it covered by its children.

    ``spans`` holds ``(name, start, end, parent)`` records, ``parent`` being
    the index of the enclosing span or -1.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for _, start, end, parent in spans:
        children.setdefault(parent, []).append((start, end))
    out = []
    for i, (_, start, end, _) in enumerate(spans):
        covered, reach = 0.0, start
        for c_start, c_end in sorted(children.get(i, ())):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        out.append((end - start) - covered)
    return out


def call_cost(wrap) -> float:
    """Seconds that ``wrap`` adds to one call of a no-op function: the median
    of five loops of ``COST_CALLS`` calls."""
    def noop():
        return None
    wrapped = wrap(noop)
    extra = []
    for _ in range(5):
        start = time.perf_counter()
        for _ in range(COST_CALLS):
            noop()
        middle = time.perf_counter()
        for _ in range(COST_CALLS):
            wrapped()
        end = time.perf_counter()
        extra.append(((end - middle) - (middle - start)) / COST_CALLS)
    return statistics.median(extra)


class Tracer:
    """Records spans and counts; see the module docstring."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack = [-1]

    def span(self, name: str, fn, count: str | None = None):
        """Wrap ``fn`` so each call records a span and ``<name>.calls``."""
        spans, counts, stack = self.spans, self.counts, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            record = [name, 0.0, 0.0, stack[-1]]
            stack.append(len(spans))
            spans.append(record)
            record[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = time.perf_counter()
                stack.pop()
            counts[name + ".calls"] += 1
            if count:
                counts[f"{name}.{count}"] += _count(count, result)
            return result
        return wrapper

    def counter(self, name: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def run(self, name: str, fn, *args):
        """Call ``fn(*args)`` under a span ``name`` opened at the current level."""
        return self.span(name, fn)(*args)

    def metrics(self) -> dict[str, float]:
        """Counts, plus ``<span>.self_s`` and inclusive ``<span>.s`` per span
        name, and ``cli.command<i>.s`` for the i-th top-level span."""
        out: dict[str, float] = dict(self.counts)
        for (name, start, end, _), own in zip(self.spans, self_times(self.spans)):
            out[name + ".self_s"] = out.get(name + ".self_s", 0.0) + own
            out[name + ".s"] = out.get(name + ".s", 0.0) + (end - start)
        roots = [end - start for _, start, end, parent in self.spans if parent == -1]
        for i, duration in enumerate(roots):
            out[f"cli.command{i}.s"] = duration
        return out

    def patches(self):
        """``(module, attribute, wrap)`` for every binding the tracer replaces."""
        for module, attr, name, count in SPANS:
            yield module, attr, lambda fn, n=name, c=count: self.span(n, fn, c)
        for module, attr, name in COUNTS:
            yield module, attr, lambda fn, n=name: self.counter(n, fn)
        for module in SEARCH_SITES:
            yield module, "minimize_grid_refine", self._search
        yield "cli", "_write_csv", self._write_csv

    def _search(self, fn):
        counter = self.counter
        def minimize_grid_refine(f, *args, **kwargs):
            return fn(counter("search.objective_evals", f), *args, **kwargs)
        return self.span("search.minimize_grid_refine", minimize_grid_refine)

    def _write_csv(self, fn):
        counts = self.counts
        def write_csv(path, header, rows):
            rows = list(rows)
            counts["cli.csv_rows"] += len(rows)
            return fn(path, header, rows)
        return self.span("cli.write_csv", write_csv)

    def overhead_s(self) -> float:
        """Time the wrappers added: the recorded spans and counted calls,
        each times the measured cost of one such wrapper call."""
        counted = sum(self.counts[name] for name in COUNTED)
        return (len(self.spans) * call_cost(lambda fn: Tracer().span("noop", fn))
                + counted * call_cost(lambda fn: Tracer().counter("noop", fn)))

    @contextlib.contextmanager
    def installed(self):
        """Install every wrapper; restore the original attributes on exit."""
        saved = []
        try:
            for module, attr, wrap in self.patches():
                owner, name = target(module, attr)
                original = vars(owner)[name]
                saved.append((owner, name, original))
                setattr(owner, name, wrap(original))
            yield self
        finally:
            for owner, name, original in reversed(saved):
                setattr(owner, name, original)
