"""The four seeded workloads.

Each workload turns the workload seed into a fixed list of cases during
set-up; the program only ever sees the generated inputs.  Paper-cell trials
draw their graph and data from the seed.  The other workloads keep one fixed
set of models (drawn once from MODEL_SEED) and draw the data from the seed:
an op's cost depends mostly on its model's loadings, so models redrawn per
seed would move the latency percentiles from run to run.  A case's ``run`` is
the timed op; ``finish`` reads and checks its output outside the timing.
Every program entry point is looked up through its module at call time, so
the tracing wrappers see the calls.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import io
import json
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from mbang import bench, cli, discovery, fileio, noise_from_tag, sem
from mbang.errors import ValidationError
from mbang.graphs import MixedGraph, graph_from_json_dict, graph_to_json_dict

import models

ORDER_LIMIT = "cumulant order must be in 1.."
MODEL_SEED = 20105306


class OpError(Exception):
    """A failure the program reported instead of raising (trial error, exit code).

    ``truth`` is the ground truth of the failed op when only the op knew it.
    """

    def __init__(self, kind: str, message: str, truth: MixedGraph | None = None):
        super().__init__(message)
        self.kind = kind
        self.truth = truth


@dataclass
class Outcome:
    graph: MixedGraph
    truth: MixedGraph
    detail: dict = field(default_factory=dict)
    problems: list = field(default_factory=list)
    population: MixedGraph | None = None

    def digest(self) -> str:
        doc = {"graph": graph_to_json_dict(self.graph), "detail": self.detail}
        if self.population is not None:
            doc["population"] = graph_to_json_dict(self.population)
        blob = json.dumps(doc, sort_keys=True, separators=(",", ":")).encode("utf-8")
        return hashlib.sha256(blob).hexdigest()


@dataclass
class Case:
    key: str
    run: Callable[[], object]
    finish: Callable[[object], Outcome]
    # Ground truth when set-up knows it; paper-cell trials draw theirs in the op.
    truth: MixedGraph | None = None
    # A ValidationError starting with this text is a correct output (the
    # order limit refusing a k > 8 clique); None accepts no refusal.
    refusal: str | None = None
    # An independent recomputation of the output, run on the case's first
    # output only (repetitions are held to its digest); returns problems.
    verify: Callable[[Outcome], list] | None = None

    def refused(self, exc: Exception) -> bool:
        return (
            self.refusal is not None
            and isinstance(exc, ValidationError)
            and str(exc).startswith(self.refusal)
        )


@dataclass(frozen=True)
class Workload:
    name: str  # its reason is in BENCHMARK.json
    setup: Callable  # (seed, workdir) -> list[Case]


def _checked(graph: MixedGraph, truth: MixedGraph, **extra) -> Outcome:
    problems = []
    if graph.p != truth.p:
        problems.append(f"recovered graph has p={graph.p}, truth p={truth.p}")
    elif graph.directed != truth.directed:
        problems.append("directed edges differ from the oracle first stage")
    return Outcome(graph, truth, problems=problems, **extra)


# --- paper-cell ------------------------------------------------------------

PAPER_TRIALS = 120
PAPER_NOISES = ("uniform10", "t10", "gamma24", "chi2")


def _trial(cfg):
    outcomes, _ = bench.run_benchmark(cfg)
    return outcomes[0]


def _finish_trial(o) -> Outcome:
    if o.error is not None:
        kind, _, message = o.error.partition(": ")
        raise OpError(kind, message, truth=o.truth)
    out = _checked(o.recovered, o.truth)
    mine = (len(o.truth.multi & o.recovered.multi), len(o.truth.multi), o.truth == o.recovered)
    if (o.edge_correct, o.edge_total, o.graph_exact) != mine:
        out.problems.append(f"bench.score gave {(o.edge_correct, o.edge_total, o.graph_exact)}, expected {mine}")
    return out


def paper_cell(seed: int, workdir) -> list[Case]:
    cases = []
    for i in range(PAPER_TRIALS):
        cfg = bench.TrialConfig(
            p_pre=7, edges=5, noise=PAPER_NOISES[i % len(PAPER_NOISES)], n=50000,
            trials=1, seed=seed * PAPER_TRIALS + i,
        )
        cases.append(Case(f"trial-{i}", functools.partial(_trial, cfg), _finish_trial))
    return cases


# --- deep-cliques and wide-overlap -----------------------------------------

# Latency percentiles sit inside one case's samples, not on the gap between
# two cases, when a cycle has 5, 15, 25, ... successful cases (odd, and 0.9 x
# cases ends in .5).  Deep-cliques has 5 successful k values (4..8) under 3
# noises, wide-overlap 15 models and cli-roundtrip 25 specs.
DEEP_N = 50000
DEEP_KS = range(4, 10)
DEEP_NOISES = ("chi2", "gamma24", "uniform10")


def _discover(Y, spec):
    return discovery.run_mbang(Y, discovery.oracle_first_stage(spec))


def deep_cliques(seed: int, workdir) -> list[Case]:
    cases = []
    for k in DEEP_KS:
        for t, tag in enumerate(DEEP_NOISES):
            spec, truth = models.clique_model(k, tag, [MODEL_SEED, k, t])
            Y = sem.simulate(spec, DEEP_N, seed=[seed, k, t, 1])
            cases.append(Case(
                f"k{k}-{tag}",
                functools.partial(_discover, Y, spec),
                lambda r, truth=truth: _checked(r.graph, truth),
                truth,
                refusal=ORDER_LIMIT if k > 8 else None,
            ))
    return cases


WIDE_P = 60
WIDE_EDGES = 45
WIDE_N = 20000
WIDE_MODELS = 15
WIDE_NOISES = ("gamma24", "chi2", "uniform10")


def _wide_op(Y, spec):
    return _discover(Y, spec), discovery.run_mbang_population(spec)


def _finish_wide(results, truth) -> Outcome:
    sample, population = results
    return _checked(sample.graph, truth, population=population.graph)


def wide_overlap(seed: int, workdir) -> list[Case]:
    cases = []
    for m in range(WIDE_MODELS):
        spec, truth = models.overlap_model(WIDE_P, WIDE_EDGES, WIDE_NOISES, [MODEL_SEED, m])
        Y = sem.simulate(spec, WIDE_N, seed=[seed, m, 1])
        cases.append(Case(
            f"model-{m}",
            functools.partial(_wide_op, Y, spec),
            functools.partial(_finish_wide, truth=truth),
            truth,
        ))
    return cases


# --- cli-roundtrip ---------------------------------------------------------

# Specs of 5 to 8 variables and five sample sizes: op costs spread over a
# continuum, so p50 does not jump between two clusters of cases.
CLI_SPECS = 25
CLI_P_PRE = 8
CLI_EDGES = 7
CLI_NS = (4000, 6000, 8000, 10000, 12000)
CLI_NOISES = ("chi2", "gamma24", "uniform10")
CLI_ORDERS = (3, 4)


def _cli(argv):
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(argv)
    except SystemExit as exc:  # argparse usage errors exit instead of returning
        rc = exc.code
    if rc != 0:
        raise OpError(f"exit {rc}", f"mbang {argv[0]}: {err.getvalue().strip()}")


def _cli_op(files, n, sim_seed):
    spec = files["spec"]
    for fmt in ("csv", "bin"):
        _cli(["simulate", "--spec", spec, "--n", str(n), "--seed", str(sim_seed),
              "--out", files[fmt], "--format", fmt])
        _cli(["discover", "--data", files[fmt], "--oracle-spec", spec, "--out", files[f"graph-{fmt}"]])
    for k in CLI_ORDERS:
        _cli(["cumulants", "--data", files["bin"], "--order", str(k), "--out", files[f"k{k}"]])
    return files


def _finish_cli(files, truth) -> Outcome:
    docs = {}
    for name in ("graph-csv", "graph-bin", *(f"k{k}" for k in CLI_ORDERS)):
        with open(files[name], "r", encoding="utf-8") as fh:
            docs[name] = json.load(fh)
    out = _checked(graph_from_json_dict(docs["graph-csv"]), truth)
    if docs["graph-csv"] != docs["graph-bin"]:
        out.problems.append("discover output differs between the CSV and .bin routes")
    for k in CLI_ORDERS:
        want = math.comb(truth.p + k - 1, k)
        if len(docs[f"k{k}"]["entries"]) != want:
            out.problems.append(f"order-{k} tensor has {len(docs[f'k{k}']['entries'])} entries, expected {want}")
        out.detail[f"k{k}"] = docs[f"k{k}"]
    return out


def _verify_cli(outcome, files) -> list:
    """Recompute the CLI's cumulant tensors from the data file with numpy:
    order 3 is the third central moment, order 4 the fourth central moment
    minus the three pairings of covariances."""
    X = fileio.read_dataset(files["bin"]).values
    X = X - X.mean(axis=1, keepdims=True)
    n = X.shape[1]
    cov = X @ X.T / n
    problems = []
    for k in CLI_ORDERS:
        for e in outcome.detail[f"k{k}"]["entries"]:
            idx = [v - 1 for v in e["idx"]]
            want = float(np.prod(X[idx], axis=0).mean())
            if k == 4:
                i, j, a, b = idx
                want -= float(cov[i, j] * cov[a, b] + cov[i, a] * cov[j, b] + cov[i, b] * cov[j, a])
            if not math.isclose(e["value"], want, rel_tol=1e-7, abs_tol=1e-9):
                problems.append(f"order-{k} cumulant {e['idx']} is {e['value']!r}, numpy gives {want!r}")
                break
    return problems


def cli_roundtrip(seed: int, workdir) -> list[Case]:
    noises = [noise_from_tag(t) for t in CLI_NOISES]
    cases = []
    for c in range(CLI_SPECS):
        attempt = 0
        while True:
            spec, truth = sem.random_bowfree(CLI_P_PRE, CLI_EDGES, noises, seed=[MODEL_SEED, c, attempt])
            if truth.multi:
                break
            attempt += 1
        files = {"spec": str(workdir / f"spec{c}.json")}
        for name, suffix in (("csv", "csv"), ("bin", "bin"), ("graph-csv", "json"), ("graph-bin", "json"),
                             *((f"k{k}", "json") for k in CLI_ORDERS)):
            files[name] = str(workdir / f"case{c}-{name}.{suffix}")
        fileio.save_spec(spec, files["spec"])
        cases.append(Case(
            f"spec-{c}",
            functools.partial(_cli_op, files, CLI_NS[c % len(CLI_NS)], seed * CLI_SPECS + c),
            functools.partial(_finish_cli, truth=truth),
            truth,
            verify=functools.partial(_verify_cli, files=files),
        ))
    return cases


WORKLOADS = {
    w.name: w
    for w in (
        Workload("paper-cell", paper_cell),
        Workload("deep-cliques", deep_cliques),
        Workload("wide-overlap", wide_overlap),
        Workload("cli-roundtrip", cli_roundtrip),
    )
}
