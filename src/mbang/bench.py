"""Benchmark harness: random-graph trials, scoring, and result emission.

Per trial: generate a random bow-free model, simulate, run the pipeline,
score against ground truth.  Trial seeds derive from (master seed, trial
index) only, so the same graphs recur across sample sizes and worker counts.
"""

from __future__ import annotations

import csv
import numbers
import os
import time
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass

from .discovery import (
    DiscoveryConfig,
    load_first_stage,
    oracle_first_stage,
    run_mbang,
)
from .distributions import noise_from_tag
from .errors import MbangError, ValidationError
from .graphs import MixedGraph, bidirected_subdivision, is_finite_real
from .sem import random_bowfree, simulate


@dataclass(frozen=True)
class TrialConfig:
    """One benchmark cell: a graph regime, a sample size, and pipeline knobs."""

    p_pre: int = 7
    edges: int = 5
    noise: str = "uniform10"
    n: int = 50000
    trials: int = 100
    stage: str = "oracle"
    seed: int = 0
    cumulant_tolerance: float = 0.05
    relaxed_test: bool = True
    hide_prob: float = 0.5
    workers: int = 1

    def __post_init__(self):
        counts = (("p_pre", 1), ("n", 1), ("trials", 1), ("workers", 1), ("edges", 0), ("seed", 0))
        for name, least in counts:
            value = getattr(self, name)
            if not isinstance(value, numbers.Integral) or isinstance(value, bool) or value < least:
                raise ValidationError(f"{name} must be an integer >= {least}, got {value!r}")
        for name in ("noise", "stage"):
            if not isinstance(getattr(self, name), str):
                raise ValidationError(f"{name} must be a string, got {getattr(self, name)!r}")
        if not (is_finite_real(self.hide_prob) and 0.0 <= self.hide_prob <= 1.0):
            raise ValidationError(f"hide_prob must be in [0, 1], got {self.hide_prob!r}")
        noise_from_tag(self.noise)
        self.discovery_config()

    def discovery_config(self) -> DiscoveryConfig:
        return DiscoveryConfig(
            cumulant_tolerance=self.cumulant_tolerance,
            relaxed_test=self.relaxed_test,
        )


@dataclass(frozen=True)
class TrialOutcome:
    trial: int
    truth: MixedGraph
    recovered: MixedGraph | None
    edge_correct: int
    edge_total: int
    graph_exact: bool
    stage_exact: bool
    subdivision_correct: int
    subdivision_total: int
    wall_ms: float
    error: str | None = None


def score(truth: MixedGraph, recovered: MixedGraph):
    """Edge-exact scoring: (edge_correct, edge_total, graph_exact).

    A ground-truth multidirected edge counts only when the identical vertex
    set is recovered; ``graph_exact`` needs both edge sets to match exactly.
    Pair-level scoring is ``score`` on both bidirected subdivisions.
    """
    if truth.p != recovered.p:
        raise ValidationError(f"vertex sets differ: {truth.p} vs {recovered.p}")
    t, r = truth.multi, recovered.multi
    exact = truth.directed == recovered.directed and t == r
    return len(t & r), len(t), exact


def _run_trial(cfg: TrialConfig, trial: int) -> TrialOutcome:
    noise = noise_from_tag(cfg.noise)
    spec, truth = random_bowfree(
        cfg.p_pre,
        cfg.edges,
        noise,
        seed=[cfg.seed, trial, 0],
        hide_prob=cfg.hide_prob,
    )
    pairs = bidirected_subdivision(truth)
    start = time.perf_counter()
    try:
        Y = simulate(spec, cfg.n, seed=[cfg.seed, trial, 1])
        if cfg.stage == "oracle":
            stage = oracle_first_stage(spec)
        else:
            stage = load_first_stage(
                os.path.join(cfg.stage, f"trial_{trial:04d}.json")
            )
        stage_exact = stage.graph == pairs
        result = run_mbang(Y, stage, cfg.discovery_config())
    except MbangError as exc:  # trial-level failures are recorded, not fatal
        wall = (time.perf_counter() - start) * 1000.0
        edge_total = len(truth.multi)
        sub_total = len(pairs.multi)
        return TrialOutcome(
            trial, truth, None, 0, edge_total, False, False, 0, sub_total, wall,
            error=f"{type(exc).__name__}: {exc}",
        )
    wall = (time.perf_counter() - start) * 1000.0
    edge_correct, edge_total, graph_exact = score(truth, result.graph)
    sub_correct, sub_total, _ = score(pairs, bidirected_subdivision(result.graph))
    return TrialOutcome(
        trial, truth, result.graph, edge_correct, edge_total, graph_exact,
        stage_exact, sub_correct, sub_total, wall,
    )


def run_benchmark(cfg: TrialConfig):
    """Run every trial and aggregate; deterministic given cfg.seed.

    Returns (outcomes, aggregate).  Aggregate rates are plain means of
    per-trial indicators; edge percentages average the per-trial ratios over
    trials that have at least one ground-truth edge.
    """
    indices = list(range(cfg.trials))
    # The pool starts all its workers at the first submit: never more than trials.
    workers = min(cfg.workers, cfg.trials)
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            outcomes = list(pool.map(_run_trial, [cfg] * len(indices), indices))
    else:
        outcomes = [_run_trial(cfg, t) for t in indices]
    return outcomes, aggregate_outcomes(cfg, outcomes)


def _rate(flags) -> float | None:
    flags = list(flags)
    return sum(flags) / len(flags) if flags else None


def aggregate_outcomes(cfg: TrialConfig, outcomes) -> dict:
    edge_ratios = [
        o.edge_correct / o.edge_total for o in outcomes if o.edge_total > 0
    ]
    sub_ratios = [
        o.subdivision_correct / o.subdivision_total
        for o in outcomes
        if o.subdivision_total > 0
    ]
    conditional = _rate(o.graph_exact for o in outcomes if o.stage_exact)
    errors = Counter(o.error.partition(": ")[0] for o in outcomes if o.error is not None)
    return {
        "config": asdict(cfg),
        "trials": len(outcomes),
        "failed_trials": sum(errors.values()),
        "errors": dict(errors),
        "graph_exact_rate": _rate(o.graph_exact for o in outcomes),
        "edge_recovery_rate": _rate(edge_ratios),
        "subdivision_recovery_rate": _rate(sub_ratios),
        "stage_exact_rate": _rate(o.stage_exact for o in outcomes),
        "graph_exact_rate_given_stage_exact": conditional,
        "mean_wall_ms": _rate(o.wall_ms for o in outcomes),
    }


CSV_FIELDS = [
    "trial", "seed", "n", "edges", "noise",
    "edge_correct", "edge_total", "graph_exact", "stage_exact", "wall_ms",
]


def write_trials_csv(cfg: TrialConfig, outcomes, path):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=CSV_FIELDS)
        writer.writeheader()
        for o in outcomes:
            writer.writerow(
                {
                    "trial": o.trial,
                    "seed": cfg.seed,
                    "n": cfg.n,
                    "edges": cfg.edges,
                    "noise": cfg.noise,
                    "edge_correct": o.edge_correct,
                    "edge_total": o.edge_total,
                    "graph_exact": int(o.graph_exact),
                    "stage_exact": int(o.stage_exact),
                    "wall_ms": f"{o.wall_ms:.3f}",
                }
            )
