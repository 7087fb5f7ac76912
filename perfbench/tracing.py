"""Per-layer tracing of toruscan from outside its source.

install() replaces public functions with timing wrappers at the names the
consuming module looks them up by (toruscan.scan.run_detector,
toruscan.detector.refine_event, toruscan.integrate.DopriDriver.step, ...);
uninstall() puts the originals back.  Nothing under src/ changes, and an
untraced run never sees a wrapper.

Calls at or above a cell (cells, refinements, scans, return maps, writers)
are kept as spans in memory: name, start, end, parent, pid and the time
covered by child calls, so each span's self time is its duration minus its
children's.  Accepted steps and field evaluations are far too many for a
span each; they are counted and timed into totals, and their time still
counts as child time of the enclosing span.

Scan workers run in other processes.  The pool class that toruscan.scan
looks up is replaced by TracedPool, which runs each task under a fresh
tracer in the worker and merges the worker's spans and totals back into the
parent's tracer as the results arrive.
"""

from __future__ import annotations

import functools
import math
import os
import time
from collections import defaultdict
from concurrent.futures import ProcessPoolExecutor

_perf = time.perf_counter

# The tracer the wrappers in this process report to.  A pool worker finds it
# here: a forked worker inherits the parent's, a spawned one installs its own.
_active = None

SAMPLE_EVERY = 2048  # keep every n-th field-evaluation input for the replay
SAMPLE_MAX = 512


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent, child_s, pid, info]
        self.stack = []
        self.totals = defaultdict(float)  # seconds per aggregated name
        self.counts = defaultdict(int)
        self.samples = []  # (field kind, mu, state) inputs of field evaluations
        self.in_refine = 0
        self._undo = []

    def reset(self):
        """Empty the record in place: installed wrappers hold its containers."""
        for container in (self.spans, self.stack, self.totals, self.counts, self.samples):
            container.clear()
        self.in_refine = 0

    # -- spans ---------------------------------------------------------------

    def _open(self, name):
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, _perf(), 0.0, parent, 0.0, os.getpid(), None])
        self.stack.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def _close(self, idx):
        span = self.spans[idx]
        span[2] = _perf()
        self.stack.pop()
        if span[3] >= 0:
            self.spans[span[3]][4] += span[2] - span[1]

    def _charge(self, seconds):
        """Count an aggregated call's time as child time of the open span."""
        if self.stack:
            self.spans[self.stack[-1]][4] += seconds

    def span_fn(self, name, fn, info=None):
        """Wrap fn so every call is a span; info(result) annotates it."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if info is not None:
                self.spans[idx][6] = info(result)
            return result

        return wrapper

    def total_fn(self, name, fn):
        """Wrap fn so calls are counted and timed into totals, not spans."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = _perf()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = _perf() - t0
                self.totals[name] += dt
                self.counts[name] += 1
                self._charge(dt)

        return wrapper

    # -- layer-specific wrappers ----------------------------------------------

    def field_factory(self, kind, factory):
        """Wrap a field factory so the fields it returns count evaluations."""
        counts, samples = self.counts, self.samples

        @functools.wraps(factory)
        def make(mu):
            field = factory(mu)

            def counted(y):
                n = counts["field_evals"] + 1
                counts["field_evals"] = n
                if n % SAMPLE_EVERY == 0 and len(samples) < SAMPLE_MAX:
                    samples.append((kind, mu, tuple(y)))
                return field(y)

            return counted

        return make

    def step_method(self, step):
        """Wrap DopriDriver.step; steps inside refine_event are substeps."""
        counts, totals = self.counts, self.totals

        @functools.wraps(step)
        def traced_step(drv, t_limit):
            e0 = counts["field_evals"]
            t0 = _perf()
            try:
                return step(drv, t_limit)
            finally:
                dt = _perf() - t0
                if self.in_refine:
                    counts["refine_substeps"] += 1
                else:
                    counts["steps"] += 1
                    totals["step_s"] += dt
                    counts["step_field_evals"] += counts["field_evals"] - e0
                self._charge(dt)

        return traced_step

    def refine_fn(self, refine):
        spanned = self.span_fn("integrate.refine_event", refine)

        @functools.wraps(refine)
        def traced_refine(*args, **kwargs):
            self.in_refine += 1
            try:
                return spanned(*args, **kwargs)
            finally:
                self.in_refine -= 1

        return traced_refine

    def writer_fn(self, writer):
        """Wrap write_*_atomic(path, data): bytes and time per file suffix."""

        @functools.wraps(writer)
        def traced_write(path, data):
            self.counts["output_bytes"] += len(data)
            t0 = _perf()
            try:
                return writer(path, data)
            finally:
                dt = _perf() - t0
                self.totals["output.write." + os.path.splitext(path)[1].lstrip(".")] += dt
                self._charge(dt)

        return traced_write

    # -- install / uninstall --------------------------------------------------

    def _patch(self, obj, attr, make):
        # A hook that has moved raises here: its metrics would otherwise read 0.
        original = getattr(obj, attr)
        self._undo.append((obj, attr, original))
        setattr(obj, attr, make(original))

    def install(self):
        """Install every wrapper; a missing hook raises with none installed."""
        try:
            return self._install()
        except BaseException:
            self.uninstall()
            raise

    def _install(self):
        import toruscan.cli as cli
        import toruscan.detector as detector
        import toruscan.integrate as integrate
        import toruscan.output as output
        import toruscan.scan as scan
        import toruscan.section as section

        global _active
        _active = self
        p = self._patch
        p(detector, "joint_field", lambda f: self.field_factory("joint", f))
        p(section, "flow_field", lambda f: self.field_factory("flow", f))
        p(integrate.DopriDriver, "step", self.step_method)
        p(detector, "refine_event", self.refine_fn)
        p(section, "refine_event", self.refine_fn)
        p(scan, "run_detector", lambda f: self.span_fn("detector.run", f, _cell_info))
        for name in ("singularity_curve_distance", "is_degenerate", "vector_field"):
            p(scan, name, lambda f: self.total_fn("scan.preclassify", f))
        p(scan, "ProcessPoolExecutor", lambda f: TracedPool)
        p(cli, "run_scan", lambda f: self.span_fn("scan.run_scan", f, _pool_info))
        p(cli, "assemble_overlays", lambda f: self.span_fn("scan.assemble_overlays", f))
        p(cli, "return_map", lambda f: self.span_fn("section.return_map", f, _map_info))
        for name, kind in (
            ("scan_csv_text", "csv"),
            ("section_csv_text", "csv"),
            ("scan_json_text", "json"),
            ("scan_png_bytes", "png"),
        ):
            p(cli, name, lambda f, kind=kind: self.total_fn(f"output.format.{kind}", f))
        p(cli, "write_bytes_atomic", self.writer_fn)
        p(output, "write_bytes_atomic", self.writer_fn)
        return self

    def uninstall(self):
        global _active
        while self._undo:
            obj, attr, original = self._undo.pop()
            setattr(obj, attr, original)
        _active = None

    # -- worker results -------------------------------------------------------

    def snapshot(self):
        return {
            "spans": self.spans,
            "totals": dict(self.totals),
            "counts": dict(self.counts),
            "samples": self.samples,
        }

    def merge(self, snap):
        """Add a worker's record; its root spans hang under the open span."""
        base = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        for span in snap["spans"]:
            span = list(span)
            span[3] = parent if span[3] < 0 else span[3] + base
            self.spans.append(span)
        for k, v in snap["totals"].items():
            self.totals[k] += v
        for k, v in snap["counts"].items():
            self.counts[k] += v
        room = SAMPLE_MAX - len(self.samples)
        self.samples.extend(snap["samples"][:room])


def _cell_info(outcome):
    return outcome.classification.value


def _map_info(result):
    return len(result.crossings)


def _pool_info(result):
    return result.metadata.get("workers", 1)


class _InWorker:
    """Picklable task wrapper: run fn under a fresh tracer, return its record."""

    def __init__(self, fn):
        self.fn = fn

    def __call__(self, *args):
        tracer = _active if _active is not None else Tracer().install()
        tracer.reset()
        result = tracer.span_fn("scan.worker_task", self.fn)(*args)
        return result, tracer.snapshot()


class TracedPool(ProcessPoolExecutor):
    def map(self, fn, *iterables, **kwargs):
        for result, snap in super().map(_InWorker(fn), *iterables, **kwargs):
            if _active is not None:
                _active.merge(snap)
            yield result


# -- metrics ------------------------------------------------------------------


def _quantile(xs, p):
    if not xs:
        return 0.0
    xs = sorted(xs)
    k = min(len(xs) - 1, max(0, math.ceil(p * len(xs)) - 1))
    return xs[k]


def replay_ns_per_eval(samples, repeats=5, target_evals=20000):
    """Median ns per evaluation of the unwrapped public field functions."""
    from toruscan.dynamics import flow_field, joint_field

    if not samples:
        return 0.0
    factories = {"joint": joint_field, "flow": flow_field}
    fields = {}
    calls = []
    for kind, mu, y in samples:
        key = (kind, mu)
        if key not in fields:
            fields[key] = factories[kind](mu)
        calls.append((fields[key], y))
    loops = max(1, target_evals // len(calls))
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter_ns()
        for _ in range(loops):
            for f, y in calls:
                f(y)
        times.append((time.perf_counter_ns() - t0) / (loops * len(calls)))
    return sorted(times)[len(times) // 2]


def layer_metrics(tracer):
    """Per-layer metric values from one traced run (units as in BENCHMARK.json)."""
    spans, totals, counts = tracer.spans, tracer.totals, tracer.counts

    def named(name):
        return [s for s in spans if s[0] == name]

    def dur(s):
        return s[2] - s[1]

    cells = named("detector.run")
    cell_s = [dur(s) for s in cells]
    refines = named("integrate.refine_event")
    maps = named("section.return_map")
    steps = counts["steps"]

    busy_max = idle = busy_sum = capacity = 0.0
    for idx, scan in enumerate(spans):
        if scan[0] != "scan.run_scan":
            continue
        wall = dur(scan)
        n_workers = scan[6] or 1
        busy = defaultdict(float)
        for s in spans:
            if s[0] == "scan.worker_task" and s[3] == idx:
                busy[s[5]] += dur(s)
        if not busy:  # cells ran in this process
            busy[scan[5]] = wall
        per_worker = list(busy.values()) + [0.0] * (n_workers - len(busy))
        busy_max += max(per_worker)
        idle += sum(wall - b for b in per_worker)
        busy_sum += sum(per_worker)
        capacity += n_workers * wall

    def fmt(kind):
        return totals[f"output.format.{kind}"] + totals[f"output.write.{kind}"]

    return {
        "dynamics.field_evals": counts["field_evals"],
        "dynamics.field_ns_per_eval": replay_ns_per_eval(tracer.samples),
        "integrate.steps": steps,
        "integrate.step_s": totals["step_s"],
        "integrate.step_us_per_step": 1e6 * totals["step_s"] / steps if steps else 0.0,
        "integrate.evals_per_step": counts["step_field_evals"] / steps if steps else 0.0,
        "integrate.refine_calls": len(refines),
        "integrate.refine_substeps": counts["refine_substeps"],
        "integrate.refine_substeps_per_call": (
            counts["refine_substeps"] / len(refines) if refines else 0.0
        ),
        "integrate.refine_s": sum(dur(s) for s in refines),
        "detector.runs": len(cells),
        "detector.run_s": sum(cell_s),
        "detector.self_s": sum(dur(s) - s[4] for s in cells),
        "detector.cell_ms_p50": 1e3 * _quantile(cell_s, 0.50),
        "detector.cell_ms_p95": 1e3 * _quantile(cell_s, 0.95),
        "detector.cell_ms_max": 1e3 * max(cell_s, default=0.0),
        "detector.nonexistence_cells": sum(1 for s in cells if s[6] == "Nonexistence"),
        "scan.run_scan_s": sum(dur(s) for s in named("scan.run_scan")),
        "scan.preclassify_s": totals["scan.preclassify"],
        "scan.overlays_s": sum(dur(s) for s in named("scan.assemble_overlays")),
        "scan.worker_busy_s_max": busy_max,
        "scan.worker_idle_s": idle,
        "scan.parallel_efficiency": busy_sum / capacity if capacity else 0.0,
        "output.csv_s": fmt("csv"),
        "output.json_s": fmt("json"),
        "output.png_s": fmt("png"),
        "output.bytes": counts["output_bytes"],
        "section.return_map_s": sum(dur(s) for s in maps),
        "section.self_s": sum(dur(s) - s[4] for s in maps),
        "section.crossings": sum(s[6] for s in maps),
    }


def spans_json(tracer):
    """The kept spans as plain records, for writing out at the end of a run."""
    keys = ("name", "start", "end", "parent", "child_s", "pid", "info")
    return [dict(zip(keys, s)) for s in tracer.spans]
