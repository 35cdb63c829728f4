"""Outside-in tracing of the mbang layers.

Wrappers are installed on the module or class attribute each caller looks a
public name up through (``run_mbang`` calls ``mbang.discovery.dedirect``, so
that attribute is wrapped, not ``mbang.sem.dedirect``).  Every wrapped call
becomes a span with a name, start, end, parent and op id; spans are kept in
memory and written out when the run ends.  A span's self time is its duration
minus the time of its children.

Moment lookups inside ``cumulant_from_moments`` are timed through a proxy of
the table passed to it, as unrecorded child frames, so the combination's self
time excludes them without storing one span per lookup.
"""

from __future__ import annotations

import functools
import importlib
import os
import time
from collections import Counter, defaultdict

SETUP_OP = -1


class Stats:
    """Aggregates over the spans of one phase (set-up or timed ops)."""

    def __init__(self):
        self.self_s = defaultdict(float)
        self.total_s = defaultdict(float)
        self.calls = Counter()
        self.counts = Counter()
        self.secs = defaultdict(float)


class Tracer:
    def __init__(self):
        self.spans = []  # (op, span id, parent id, name, start, end)
        self.setup = Stats()
        self.ops = Stats()
        self.op = None
        self._stack = []  # frames: [name, start, child seconds, span id, parent id]
        self._next_id = 0

    @property
    def stats(self) -> Stats:
        return self.setup if self.op is None else self.ops

    def enter(self, name: str, record: bool = True) -> list:
        parent = -1
        if self._stack:
            top = self._stack[-1]
            parent = top[3] if top[3] >= 0 else top[4]
        sid = -1
        if record:
            sid = self._next_id
            self._next_id += 1
        frame = [name, time.perf_counter(), 0.0, sid, parent]
        self._stack.append(frame)
        return frame

    def exit(self, frame: list) -> float:
        end = time.perf_counter()
        self._stack.pop()
        name, start, child, sid, parent = frame
        dur = end - start
        st = self.stats
        st.self_s[name] += dur - child
        st.total_s[name] += dur
        st.calls[name] += 1
        if self._stack:
            self._stack[-1][2] += dur
        if sid >= 0:
            op = SETUP_OP if self.op is None else self.op
            self.spans.append((op, sid, parent, name, start, end))
        return dur

    def write_spans(self, path):
        """Write every recorded span as CSV, times in microseconds from the first span."""
        t0 = self.spans[0][4] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("op,span,parent,name,start_us,end_us\n")
            for op, sid, parent, name, start, end in self.spans:
                fh.write(
                    f"{op},{sid},{parent},{name},"
                    f"{(start - t0) * 1e6:.1f},{(end - t0) * 1e6:.1f}\n"
                )


# --- hooks -----------------------------------------------------------------


def _plain(tracer, fn, name):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        frame = tracer.enter(name)
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.exit(frame)

    return wrapper


def _gate(tracer, fn, name):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        frame = tracer.enter(name)
        try:
            passed, evidence = fn(*args, **kwargs)
        finally:
            tracer.exit(frame)
        kind = evidence["kind"] if passed else "fail"
        tracer.stats.counts[f"discovery.gate_tests.{kind}"] += 1
        return passed, evidence

    return wrapper


def _dataset(tracer, fn, name):
    @functools.wraps(fn)
    def wrapper(self):
        frame = tracer.enter(name)
        try:
            fn(self)
        finally:
            tracer.exit(frame)
        st = tracer.stats
        st.counts["sem.datasets_built"] += 1
        st.counts["sem.preprocess.bytes"] += self.values.size * 8

    return wrapper


def _entry(tracer, fn, name):
    @functools.wraps(fn)
    def wrapper(self, idx):
        key = tuple(sorted(int(v) for v in idx))
        miss = key not in getattr(self, "_entries", {})
        frame = tracer.enter(name)
        try:
            value = fn(self, idx)
        finally:
            dur = tracer.exit(frame)
        st = tracer.stats
        k = len(key)
        st.counts["cumulants.entry_calls"] += 1
        st.secs[f"cumulants.entry.k{k}"] += dur
        if miss:
            st.counts[f"cumulants.entries.k{k}"] += 1
        return value

    return wrapper


def _sample_moment(tracer, fn, name):
    # Memo hits are timed by the lookup frames of the table proxy; only the
    # moments actually computed become spans.
    @functools.wraps(fn)
    def wrapper(self, key):
        if key in getattr(self, "_moments", ()):
            return fn(self, key)
        frame = tracer.enter(name)
        try:
            value = fn(self, key)
        finally:
            tracer.exit(frame)
        st = tracer.stats
        st.counts["cumulants.moments"] += 1
        st.counts["cumulants.moment.bytes"] += len(key) * self._rows.shape[1] * 8
        return value

    return wrapper


def _moment_table(tracer, fn, name):
    @functools.wraps(fn)
    def wrapper(data, k_max):
        frame = tracer.enter(name)
        try:
            table = fn(data, k_max)
        finally:
            tracer.exit(frame)
        n = (data.values if hasattr(data, "values") else data).shape[1]
        st = tracer.stats
        st.counts["cumulants.moments"] += len(table.values)
        st.counts["cumulants.moment.bytes"] += sum(len(key) for key in table.values) * n * 8
        return table

    return wrapper


class _TimedTable:
    """Moment-table proxy whose lookups are child frames of the combination."""

    __slots__ = ("_inner", "_tracer")

    def __init__(self, inner, tracer):
        self._inner = inner
        self._tracer = tracer

    def get(self, idx):
        frame = self._tracer.enter("cumulants.lookup", record=False)
        try:
            return self._inner.get(idx)
        finally:
            self._tracer.exit(frame)


def _combine(tracer, fn, name):
    @functools.wraps(fn)
    def wrapper(moments, idx, *args, **kwargs):
        frame = tracer.enter(name)
        try:
            return fn(_TimedTable(moments, tracer), idx, *args, **kwargs)
        finally:
            tracer.exit(frame)

    return wrapper


def _counted(counter, size):
    def make(tracer, fn, name):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = tracer.enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.exit(frame)
            tracer.stats.counts[counter] += size(args, result)
            return result

        return wrapper

    return make


def _file_bytes(path_arg):
    def make(tracer, fn, name):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = tracer.enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.exit(frame)
            tracer.stats.counts[f"{name}.bytes"] += os.path.getsize(args[path_arg])
            return result

        return wrapper

    return make


_population = _counted("cumulants.population_entries", lambda args, result: 1)
_tensor = _counted("cumulants.tensor.entries", lambda args, result: len(result.values))

# (attribute the caller looks the name up through, span name, wrapper factory)
HOOKS = [
    ("mbang.bench:run_benchmark", "bench.run_benchmark", _plain),
    ("mbang.bench:score", "bench.score", _plain),
    ("mbang.bench:random_bowfree", "sem.random_bowfree", _plain),
    ("mbang.sem:random_bowfree", "sem.random_bowfree", _plain),
    ("mbang.bench:simulate", "sem.simulate", _plain),
    ("mbang.cli:simulate", "sem.simulate", _plain),
    ("mbang.sem:simulate", "sem.simulate", _plain),
    ("mbang.distributions:Noise.sample", "distributions.sample", _plain),
    ("mbang.sem:Dataset.__post_init__", "sem.dataset", _dataset),
    ("mbang.discovery:dedirect", "sem.dedirect", _plain),
    ("mbang.discovery:center_rows", "sem.center_rows", _plain),
    ("mbang.cli:center_rows", "sem.center_rows", _plain),
    ("mbang.discovery:standardize_rows", "sem.standardize_rows", _plain),
    ("mbang.bench:oracle_first_stage", "discovery.first_stage", _plain),
    ("mbang.cli:oracle_first_stage", "discovery.first_stage", _plain),
    ("mbang.discovery:oracle_first_stage", "discovery.first_stage", _plain),
    ("mbang.bench:run_mbang", "discovery.run_mbang", _plain),
    ("mbang.cli:run_mbang", "discovery.run_mbang", _plain),
    ("mbang.discovery:run_mbang", "discovery.run_mbang", _plain),
    ("mbang.discovery:run_mbang_population", "discovery.population", _plain),
    ("mbang.discovery:find_multidirected", "discovery.search", _plain),
    ("mbang.discovery:cumulant_test", "discovery.gate", _gate),
    ("mbang.discovery:SampleCumulants.entry", "cumulants.entry", _entry),
    ("mbang.discovery:SampleCumulants._moment", "cumulants.moment", _sample_moment),
    ("mbang.discovery:cumulant_from_moments", "cumulants.combine", _combine),
    ("mbang.cumulants:cumulant_from_moments", "cumulants.combine", _combine),
    ("mbang.cumulants:sample_moments", "cumulants.moment", _moment_table),
    ("mbang.discovery:PopulationCumulants.entry", "cumulants.population_entry", _population),
    ("mbang.cli:sample_cumulant_tensor", "cumulants.tensor", _tensor),
    ("mbang.discovery:bidirected_subdivision", "graphs.subdivision", _plain),
    ("mbang.bench:bidirected_subdivision", "graphs.subdivision", _plain),
    ("mbang.cli:main", "cli.main", _plain),
    ("mbang.fileio:write_dataset_csv", "fileio.write_csv", _file_bytes(1)),
    ("mbang.fileio:read_dataset_csv", "fileio.read_csv", _file_bytes(0)),
    ("mbang.fileio:write_dataset_bin", "fileio.write_bin", _file_bytes(1)),
    ("mbang.fileio:read_dataset_bin", "fileio.read_bin", _file_bytes(0)),
    ("mbang.fileio:load_json", "fileio.json", _plain),
    ("mbang.fileio:save_json", "fileio.json", _plain),
    ("mbang.fileio:canonical_sha256", "fileio.json", _plain),
    ("mbang.fileio:load_spec", "fileio.json", _plain),
    ("mbang.fileio:spec_from_json_dict", "fileio.json", _plain),
]


class Hooks:
    """Installs and removes the wrappers; remembers targets that do not exist."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self.missing: list[str] = []
        self._plan = []  # (owner, attr, original, wrapper)
        for target, name, factory in HOOKS:
            owner, attr = _resolve(target)
            original = owner.__dict__.get(attr) if owner is not None else None
            if original is None:
                self.missing.append(target)
                continue
            self._plan.append((owner, attr, original, factory(tracer, original, name)))
        self.span_names = {name for target, name, _ in HOOKS if target not in self.missing}

    def install(self):
        for owner, attr, _, wrapper in self._plan:
            setattr(owner, attr, wrapper)

    def remove(self):
        for owner, attr, original, _ in self._plan:
            setattr(owner, attr, original)


def _resolve(target):
    module_name, _, path = target.partition(":")
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None, None
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part, None)
        if owner is None:
            return None, None
    return owner, attr
