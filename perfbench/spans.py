"""Spans recorded from outside the program, around calls into its layers.

The modules import names directly (``from .circuit import validate``), so
a function is wrapped where it is called: at each importing module's
binding, not at its definition. ``Tracer.installed()`` swaps the wrappers
in and restores every original binding when it exits, also on error.

A span is ``[name, parent, start, end, extra]`` in a per-thread list, with
``parent`` the index of the enclosing span of the same thread (-1 for a
root). Self time is a span's duration minus that of its children. ``extra``
holds a count measured at the boundary: grid points, samples, bytes,
solver function evaluations.
"""

from __future__ import annotations

import contextlib
import os
import threading
from collections import defaultdict
from time import perf_counter

import numpy as np

from mirror_dce import circuit, cli, experiments, trajectories

# How often a thread samples the process's OS thread count (every Nth span).
_THREAD_SAMPLE_EVERY = 64


def os_threads() -> int:
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("Threads:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def _file_bytes(args, paths) -> int:
    return sum(os.path.getsize(p) for p in paths)


def _sweep_points(args, datasets) -> tuple[int, int]:
    return (
        sum(int(ds.x.size) for ds in datasets),
        sum(int(np.isnan(ds.n_out).sum()) for ds in datasets),
    )


def _size_of(position: int):
    return lambda args, result: int(np.size(args[position]))


# (owner, attribute, span name, extra): every binding the workloads reach.
def _bindings():
    return [
        (experiments, "solve_acceleration_parameter", "trajectories.solve_acceleration_parameter", None),
        (experiments, "drive_normalized_bias", "experiments.drive_normalized_bias", None),
        (experiments, "trajectory_to_drive", "circuit.trajectory_to_drive", None),
        (experiments, "validate", "circuit.validate", None),
        (experiments, "output_spectrum", "scattering.output_spectrum", _size_of(0)),
        (experiments, "write_spectrum_datasets", "experiments.write", _file_bytes),
        (experiments, "position", "trajectories.position", None),
        (experiments, "run_sweep", "experiments.run_sweep", _sweep_points),
        (circuit, "fourier_decompose", "numerics.fourier_decompose", None),
        (circuit, "position", "trajectories.position", None),
        (circuit, "external_flux", "circuit.external_flux", _size_of(2)),
        (trajectories, "ellip_e", "numerics.elliptic", None),
        (trajectories, "ellip_f", "numerics.elliptic", None),
        (cli, "run_sweep", "experiments.run_sweep", _sweep_points),
        (cli, "write_spectrum_datasets", "experiments.write", _file_bytes),
        (cli, "trajectory_to_drive", "circuit.trajectory_to_drive", None),
        (cli, "solve_acceleration_parameter", "trajectories.solve_acceleration_parameter", None),
        (cli, "proper_time", "trajectories.proper_time", _size_of(1)),
        (circuit.DriveSpectrum, "__post_init__", "circuit.DriveSpectrum.init", None),
    ]


class _ThreadSpans:
    def __init__(self, ident: int):
        self.ident = ident
        self.records: list[list] = []
        self.stack: list[int] = []


class Tracer:
    """Collects spans from every thread that calls a wrapped binding."""

    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._threads: list[_ThreadSpans] = []
        self.max_os_threads = 0

    def _spans(self) -> _ThreadSpans:
        st = getattr(self._local, "spans", None)
        if st is None:
            st = self._local.spans = _ThreadSpans(threading.get_ident())
            with self._lock:
                self._threads.append(st)
        return st

    def call(self, name, fn, *args, extra=None, **kwargs):
        """Call fn inside a span; extra(args, result) gives its count."""
        st = self._spans()
        if len(st.records) % _THREAD_SAMPLE_EVERY == 0:
            seen = os_threads()
            with self._lock:
                self.max_os_threads = max(self.max_os_threads, seen)
        rec = [name, st.stack[-1] if st.stack else -1, perf_counter(), 0.0, None]
        st.stack.append(len(st.records))
        st.records.append(rec)
        try:
            result = fn(*args, **kwargs)
        finally:
            rec[3] = perf_counter()
            st.stack.pop()
        if extra is not None:
            rec[4] = extra(args, result)
        return result

    def _wrap(self, name, fn, extra):
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, extra=extra, **kwargs)

        traced.__wrapped__ = fn
        return traced

    def _wrap_find_root(self, fn):
        # Count the solver's function evaluations by wrapping the f it gets.
        def traced(f, *args, **kwargs):
            evals = [0]

            def counted(x):
                evals[0] += 1
                return f(x)

            return self.call("numerics.find_root", fn, counted, *args,
                             extra=lambda a, r: evals[0], **kwargs)

        traced.__wrapped__ = fn
        return traced

    @contextlib.contextmanager
    def installed(self):
        """Swap the wrappers in; restore the original bindings on exit."""
        saved = []
        try:
            for owner, attr, name, extra in _bindings():
                original = getattr(owner, attr)
                saved.append((owner, attr, original))
                setattr(owner, attr, self._wrap(name, original, extra))
            original = trajectories.find_root
            saved.append((trajectories, "find_root", original))
            trajectories.find_root = self._wrap_find_root(original)
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def take(self) -> list[_ThreadSpans]:
        """Hand over the spans recorded so far and start afresh."""
        with self._lock:
            threads, self._threads = self._threads, []
        self._local = threading.local()
        return threads


def installed_bindings() -> list[tuple[object, str, object]]:
    """(owner, attribute, current value) of every binding the tracer wraps;
    used to verify that no wrapper is left behind."""
    out = [(o, a, getattr(o, a)) for o, a, _, _ in _bindings()]
    out.append((trajectories, "find_root", trajectories.find_root))
    return out


def aggregate(threads: list[_ThreadSpans]) -> dict:
    """Per span name: calls, total and self seconds, summed extra; plus the
    seconds covered by root spans of the main thread."""
    per = defaultdict(lambda: {"calls": 0, "total": 0.0, "self": 0.0, "extra": None})
    main = threading.main_thread().ident
    covered = 0.0
    for st in threads:
        child = [0.0] * len(st.records)
        for rec in st.records:
            if rec[1] >= 0:
                child[rec[1]] += rec[3] - rec[2]
        for i, (name, parent, t0, t1, extra) in enumerate(st.records):
            a = per[name]
            a["calls"] += 1
            a["total"] += t1 - t0
            a["self"] += (t1 - t0) - child[i]
            if extra is not None:
                if isinstance(extra, tuple):
                    a["extra"] = tuple(x + y for x, y in zip(a["extra"] or (0,) * len(extra), extra))
                else:
                    a["extra"] = (a["extra"] or 0) + extra
            if parent < 0 and st.ident == main:
                covered += t1 - t0
    return {"spans": dict(per), "main_covered_s": covered}


def write_spans(threads: list[_ThreadSpans], path) -> None:
    """Write raw spans as CSV: thread, index, parent, name, start, end, extra."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("thread,index,parent,name,start_s,end_s,extra\n")
        for k, st in enumerate(threads):
            for i, (name, parent, t0, t1, extra) in enumerate(st.records):
                if isinstance(extra, tuple):
                    extra = "/".join(map(str, extra))
                fh.write(f"{k},{i},{parent},{name},{t0:.9f},{t1:.9f},{'' if extra is None else extra}\n")
