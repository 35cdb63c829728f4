"""Per-layer metrics of the traced run, each with the end-to-end metric and
workload it is expected to move.

Times are milliseconds per op and counts are per op, over the timed ops of the
traced passes.  A metric whose hooks no longer exist, or whose hooks never
fired on a workload listed in its ``on`` tuple, is reported as missing with
the hooks named, never as 0.  On workloads outside ``on`` the layer is not
exercised by design and its metrics read 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

LAYERS = ("sem", "distributions", "cumulants", "discovery", "fileio", "graphs", "bench", "cli")

ALL = ("paper-cell", "deep-cliques", "wide-overlap", "cli-roundtrip")


@dataclass(frozen=True)
class LayerMetric:
    name: str  # its unit and direction are in BENCHMARK.json
    spans: tuple[str, ...]
    on: tuple[str, ...]
    moves: str
    value: Callable  # (stats, ops, extra) -> float


def _self_ms(*names):
    return lambda st, ops, extra: 1000.0 * sum(st.self_s[n] for n in names) / ops


def _total_ms(*names):
    return lambda st, ops, extra: 1000.0 * sum(st.total_s[n] for n in names) / ops


def _secs_ms(key):
    return lambda st, ops, extra: 1000.0 * st.secs[key] / ops


def _count(key):
    return lambda st, ops, extra: st.counts[key] / ops


def _mb_per_s(name):
    def value(st, ops, extra):
        secs = st.total_s[name]
        return st.counts[f"{name}.bytes"] / 1e6 / secs if secs else 0.0

    return value


def _hit_ratio(st, ops, extra):
    calls = st.counts["cumulants.entry_calls"]
    misses = sum(st.counts[f"cumulants.entries.k{k}"] for k in range(1, 10))
    return (calls - misses) / calls if calls else 0.0


def _pass_ratio(st, ops, extra):
    passed = st.counts["discovery.gate_tests.primary"] + st.counts["discovery.gate_tests.relaxed"]
    tested = passed + st.counts["discovery.gate_tests.fail"]
    return passed / tested if tested else 0.0


def _population_rate(st, ops, extra):
    return extra.get("population_edge_recovery_rate", 0.0)


PREPROCESS = ("sem.dedirect", "sem.center_rows", "sem.standardize_rows")
GATE_MOVES = "graph_exact_rate, edge_recovery_rate @ wide-overlap"

METRICS = [
    LayerMetric("sem.simulate.ms", ("sem.simulate",), ("paper-cell", "cli-roundtrip"),
                "ops_per_s @ paper-cell; setup_s @ deep-cliques, wide-overlap", _self_ms("sem.simulate")),
    LayerMetric("distributions.sample.ms", ("distributions.sample",), ("paper-cell", "cli-roundtrip"),
                "ops_per_s @ paper-cell; setup_s @ deep-cliques, wide-overlap", _self_ms("distributions.sample")),
    LayerMetric("sem.random_bowfree.ms", ("sem.random_bowfree",), ("paper-cell",),
                "ops_per_s @ paper-cell", _self_ms("sem.random_bowfree")),
    LayerMetric("sem.dedirect.ms", ("sem.dedirect",), ALL,
                "op_ms.p50 @ paper-cell, wide-overlap; none @ deep-cliques", _total_ms("sem.dedirect")),
    LayerMetric("sem.center_rows.ms", ("sem.center_rows",), ALL,
                "op_ms.p50 @ paper-cell, wide-overlap; none @ deep-cliques", _total_ms("sem.center_rows")),
    LayerMetric("sem.standardize_rows.ms", ("sem.standardize_rows",), ALL,
                "op_ms.p50 @ paper-cell, wide-overlap; none @ deep-cliques", _total_ms("sem.standardize_rows")),
    LayerMetric("sem.preprocess.ms", PREPROCESS, ALL,
                "op_ms.p50 @ paper-cell, wide-overlap; none @ deep-cliques", _total_ms(*PREPROCESS)),
    LayerMetric("sem.datasets_built", ("sem.dataset",), ALL,
                "op_ms.p50 @ paper-cell, wide-overlap; none @ deep-cliques", _count("sem.datasets_built")),
    LayerMetric("sem.preprocess.bytes", ("sem.dataset",), ALL,
                "op_ms.p50 @ paper-cell, wide-overlap; none @ deep-cliques", _count("sem.preprocess.bytes")),
]

for _k in range(2, 9):
    METRICS.append(LayerMetric(f"cumulants.entries.k{_k}", ("cumulants.entry",), ALL,
                               "op_ms.p90, ops_per_s @ deep-cliques", _count(f"cumulants.entries.k{_k}")))
    METRICS.append(LayerMetric(f"cumulants.entry.k{_k}.ms", ("cumulants.entry",), ALL,
                               "op_ms.p90, ops_per_s @ deep-cliques", _secs_ms(f"cumulants.entry.k{_k}")))

METRICS += [
    LayerMetric("cumulants.entry_hit_ratio", ("cumulants.entry",), ALL,
                "op_ms.p50 @ wide-overlap", _hit_ratio),
    LayerMetric("cumulants.combine.ms", ("cumulants.combine",), ALL,
                "op_ms.p90, ops_per_s @ deep-cliques", _self_ms("cumulants.combine")),
    LayerMetric("cumulants.moment.ms", ("cumulants.moment",), ALL,
                "op_ms.p50 @ wide-overlap", _self_ms("cumulants.moment")),
    LayerMetric("cumulants.moments", ("cumulants.moment",), ALL,
                "op_ms.p50 @ wide-overlap", _count("cumulants.moments")),
    LayerMetric("cumulants.moment.bytes", ("cumulants.moment",), ALL,
                "op_ms.p50 @ wide-overlap", _count("cumulants.moment.bytes")),
    LayerMetric("cumulants.population_entry.ms", ("cumulants.population_entry",), ("wide-overlap",),
                "op_ms.p50 @ wide-overlap", _total_ms("cumulants.population_entry")),
    LayerMetric("cumulants.population_entries", ("cumulants.population_entry",), ("wide-overlap",),
                "op_ms.p50 @ wide-overlap", _count("cumulants.population_entries")),
    LayerMetric("cumulants.tensor.ms", ("cumulants.tensor",), ("cli-roundtrip",),
                "op_ms.p50 @ cli-roundtrip", _total_ms("cumulants.tensor")),
    LayerMetric("cumulants.tensor.entries", ("cumulants.tensor",), ("cli-roundtrip",),
                "op_ms.p50 @ cli-roundtrip", _count("cumulants.tensor.entries")),
    LayerMetric("discovery.search.ms", ("discovery.search",), ALL,
                "op_ms.p50 @ wide-overlap", _self_ms("discovery.search")),
    LayerMetric("discovery.gate.ms", ("discovery.gate",), ALL,
                "op_ms.p50 @ wide-overlap", _self_ms("discovery.gate")),
]

for _kind in ("root", "primary", "relaxed", "fail"):
    METRICS.append(LayerMetric(f"discovery.gate_tests.{_kind}", ("discovery.gate",), ALL,
                               GATE_MOVES, _count(f"discovery.gate_tests.{_kind}")))

METRICS += [
    LayerMetric("discovery.gate_pass_ratio", ("discovery.gate",), ALL,
                GATE_MOVES, _pass_ratio),
    LayerMetric("discovery.population.edge_recovery_rate", ("discovery.population",),
                ("wide-overlap",), "correctness oracle @ wide-overlap", _population_rate),
]

for _io in ("write_csv", "read_csv", "write_bin", "read_bin"):
    METRICS.append(LayerMetric(f"fileio.{_io}.ms", (f"fileio.{_io}",), ("cli-roundtrip",),
                               "ops_per_s @ cli-roundtrip", _total_ms(f"fileio.{_io}")))
    METRICS.append(LayerMetric(f"fileio.{_io}.mb_per_s", (f"fileio.{_io}",), ("cli-roundtrip",),
                               "ops_per_s @ cli-roundtrip", _mb_per_s(f"fileio.{_io}")))

METRICS += [
    LayerMetric("fileio.json.ms", ("fileio.json",), ("cli-roundtrip",),
                "ops_per_s @ cli-roundtrip", _self_ms("fileio.json")),
    LayerMetric("cli.self.ms", ("cli.main",), ("cli-roundtrip",),
                "ops_per_s @ cli-roundtrip", _self_ms("cli.main")),
    LayerMetric("bench.score.ms", ("bench.score",), ("paper-cell",),
                "ops_per_s @ paper-cell", _self_ms("bench.score")),
    LayerMetric("graphs.subdivision.ms", ("graphs.subdivision",), ALL,
                "ops_per_s @ paper-cell, cli-roundtrip", _self_ms("graphs.subdivision")),
]


def derive(workload, stats, ops, extra, installed, units):
    """Per-layer metric values for one traced run, plus the missing ones.

    ``installed`` holds the span names whose hooks exist and ``units`` maps
    each metric to its unit.  Returns
    (metrics, missing) where missing maps a metric name to the reason.
    """
    metrics, missing = {}, {}
    for m in METRICS:
        absent = [s for s in m.spans if s not in installed]
        if absent:
            missing[m.name] = f"hook for {', '.join(absent)} does not exist"
            continue
        if workload in m.on and not any(stats.calls[s] for s in m.spans):
            missing[m.name] = f"hook {', '.join(m.spans)} never called"
            continue
        metrics[m.name] = {"value": m.value(stats, ops, extra), "unit": units[m.name]}
    return metrics, missing


def layer_self_ms(stats, ops):
    """Self time per op of every layer, in ms; span names start with their
    layer, and ``harness`` is the benchmark's own share of the op."""
    out = dict.fromkeys(LAYERS + ("harness",), 0.0)
    for name, secs in stats.self_s.items():
        layer = name.split(".", 1)[0]
        out[layer] += 1000.0 * secs / ops
    return out
