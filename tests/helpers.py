"""Shared fixtures and independent oracles for the test suite.

The oracles here deliberately re-derive quantities along different routes than
the package (numerical inverse instead of Neumann series, moment expansion
instead of direct cumulant aggregation, the signed sum over set partitions
instead of the subset recursion, subset enumeration instead of
Bron-Kerbosch) so the tests do not just compare code with itself.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import os
import pathlib
import subprocess
import sys
from collections import Counter

import numpy as np

from mbang import (
    HiddenSource,
    LsemSpec,
    MixedGraph,
    Noise,
    has_k_trek,
    is_bow_free,
)
from mbang.cumulants import MAX_ORDER, MomentTable
from mbang.errors import ValidationError
from mbang.graphs import sorted_multi

CHI2 = Noise("chi2", (2.0,))
EXP1 = Noise("exponential", (1.0,))
GAMMA24 = Noise("gamma", (2.0, 4.0))
UNIFORM5 = Noise("uniform", (-5.0, 5.0))
UNIFORM10 = Noise("uniform", (-10.0, 10.0))
T10 = Noise("t", (10.0,))

SKEWED = (CHI2, EXP1, GAMMA24)
ALL_NOISES = (CHI2, EXP1, GAMMA24, UNIFORM5, UNIFORM10, T10)


# A 7-vertex showcase DAG: hiding the parentless vertices 1 and 5 yields a
# canonical mixed graph with one 3-directed and one 2-directed edge.
def showcase_dag() -> MixedGraph:
    return MixedGraph(
        7,
        {(1, 3), (1, 4), (1, 6), (5, 6), (5, 7), (2, 3), (2, 4), (3, 7), (4, 7)},
    )


SHOWCASE_HIDDEN = {1, 5}


def showcase_mixed() -> MixedGraph:
    return MixedGraph(
        5,
        {(1, 2), (1, 3), (2, 5), (3, 5)},
        [{2, 3, 4}, {4, 5}],
    )


def showcase_spec() -> LsemSpec:
    g = showcase_mixed()
    B = np.zeros((5, 5))
    B[0, 1] = 0.8
    B[0, 2] = -0.7
    B[1, 4] = 0.9
    B[2, 4] = 0.75
    hidden = (
        HiddenSource(frozenset({2, 3, 4}), (0.8, -0.85, 0.9), CHI2),
        HiddenSource(frozenset({4, 5}), (0.7, 0.8), CHI2),
    )
    return LsemSpec(g, B, (CHI2,) * 5, hidden)


# Two models with vertices 1..4 and the directed edge 1 -> 2: in case 1 two
# separate hidden causes cover the pairs {2,3} and {3,4}; in case 2 a single
# hidden cause covers {2,3,4}.
def case1_graph() -> MixedGraph:
    return MixedGraph(4, {(1, 2)}, [{2, 3}, {3, 4}])


def case2_graph() -> MixedGraph:
    return MixedGraph(4, {(1, 2)}, [{2, 3, 4}])


def _with_edge_b(p=4):
    B = np.zeros((p, p))
    B[0, 1] = 0.8
    return B


def case1_spec() -> LsemSpec:
    hidden = (
        HiddenSource(frozenset({2, 3}), (0.8, 0.7), CHI2),
        HiddenSource(frozenset({3, 4}), (0.75, 0.85), CHI2),
    )
    return LsemSpec(case1_graph(), _with_edge_b(), (CHI2,) * 4, hidden)


def case2_spec(hidden_noise: Noise = CHI2) -> LsemSpec:
    hidden = (HiddenSource(frozenset({2, 3, 4}), (0.8, 0.7, 0.9), hidden_noise),)
    return LsemSpec(case2_graph(), _with_edge_b(), (CHI2,) * 4, hidden)


def symmetric_triangle_spec() -> LsemSpec:
    """One 3-directed edge whose hidden cause is symmetric (third cumulant 0)."""
    g = MixedGraph(3, frozenset(), [{1, 2, 3}])
    hidden = (HiddenSource(frozenset({1, 2, 3}), (0.8, 0.8, 0.8), UNIFORM5),)
    return LsemSpec(g, np.zeros((3, 3)), (UNIFORM5,) * 3, hidden)


# An 8-variable model shaped like a pair-level first stage over field data:
# 11 directed edges plus 7 bidirected pairs among 5 of the vertices, whose
# maximal cliques are exactly three overlapping 3-directed edges.
ECO_DIRECTED = {
    (8, 7), (1, 7), (2, 3), (6, 2), (6, 4), (7, 4),
    (5, 1), (5, 4), (5, 3), (3, 4), (2, 1),
}
ECO_PAIRS = [(8, 1), (8, 6), (8, 5), (7, 5), (7, 6), (6, 1), (5, 6)]
ECO_EDGES = ({1, 6, 8}, {5, 6, 8}, {5, 6, 7})


def ecology_like_stage_dict() -> dict:
    rng = np.random.default_rng(2024)
    B = np.zeros((8, 8))
    for i, j in sorted(ECO_DIRECTED):
        B[i - 1, j - 1] = draw_coef(rng)
    return {
        "p": 8,
        "directed": sorted(list(e) for e in ECO_DIRECTED),
        "bidirected": [list(pr) for pr in ECO_PAIRS],
        "B": [[float(x) for x in row] for row in B],
    }


def ecology_like_spec() -> LsemSpec:
    doc = ecology_like_stage_dict()
    graph = MixedGraph(8, ECO_DIRECTED, [frozenset(h) for h in ECO_EDGES])
    rng = np.random.default_rng(77)
    hidden = tuple(
        HiddenSource(frozenset(h), tuple(draw_coef(rng) for _ in h), CHI2)
        for h in sorted_multi(graph.multi)
    )
    return LsemSpec(graph, np.asarray(doc["B"]), (CHI2,) * 8, hidden)


def draw_coef(rng) -> float:
    mag = rng.uniform(0.6, 1.0)
    return mag if rng.random() < 0.5 else -mag


def random_mixed_graph(rng, p: int, edge_prob: float = 0.4, max_multi: int = 2) -> MixedGraph:
    """Random bow-free acyclic mixed graph with 0..max_multi multidirected edges."""
    perm = list(rng.permutation(p) + 1)
    directed = set()
    for a in range(p):
        for b in range(a + 1, p):
            if rng.random() < edge_prob:
                directed.add((perm[a], perm[b]))
    g = MixedGraph(p, frozenset(directed))
    multi: set[frozenset[int]] = set()
    target = int(rng.integers(0, max_multi + 1))
    attempts = 0
    while len(multi) < target and attempts < 50:
        attempts += 1
        size = int(rng.integers(2, min(p, 4) + 1))
        members = frozenset(int(v) for v in rng.choice(p, size=size, replace=False) + 1)
        candidate = MixedGraph(p, g.directed, multi | {members})
        if is_bow_free(candidate):
            multi.add(members)
    return MixedGraph(p, g.directed, frozenset(multi))


def random_spec(rng, graph: MixedGraph, noises=SKEWED) -> LsemSpec:
    """Generic coefficients and noises for a given bow-free acyclic mixed graph."""
    p = graph.p
    B = np.zeros((p, p))
    for i, j in sorted(graph.directed):
        B[i - 1, j - 1] = draw_coef(rng)
    pool = list(noises)
    pick = lambda: pool[int(rng.integers(len(pool)))]
    hidden = tuple(
        HiddenSource(frozenset(h), tuple(draw_coef(rng) for _ in h), pick())
        for h in sorted_multi(graph.multi)
    )
    return LsemSpec(graph, B, tuple(pick() for _ in range(p)), hidden)


def adjacency(g: MixedGraph) -> dict[int, frozenset[int]]:
    """Maps v to every vertex that shares a multidirected edge with v, read
    straight from ``g.multi``."""
    return {v: frozenset(u for h in g.multi if v in h for u in h) - {v} for v in range(1, g.p + 1)}


def exhaustive_maximal_cliques(bg: MixedGraph) -> list[frozenset[int]]:
    """Subset-enumeration oracle for maximal cliques of size >= 2 (p <= 8)."""
    adj = adjacency(bg)
    vertices = range(1, bg.p + 1)
    cliques = []
    for r in range(2, bg.p + 1):
        for sub in itertools.combinations(vertices, r):
            if all(b in adj[a] for a, b in itertools.combinations(sub, 2)):
                cliques.append(frozenset(sub))
    maximal = [
        c for c in cliques if not any(c < other for other in cliques)
    ]
    return sorted(set(maximal), key=lambda c: tuple(sorted(c)))


def edge_families(p: int, max_edges: int) -> list[tuple[frozenset[int], ...]]:
    """Every nonempty family of at most ``max_edges`` multidirected edges on
    vertices 1..p in which no edge lies inside another."""
    subsets = [
        frozenset(c) for r in range(2, p + 1) for c in itertools.combinations(range(1, p + 1), r)
    ]
    return [
        family
        for m in range(1, max_edges + 1)
        for family in itertools.combinations(subsets, m)
        if not any(a < b or b < a for a, b in itertools.combinations(family, 2))
    ]


class StructuralCumulants:
    """The zero pattern of a model's population cumulants without the model:
    an entry is 1.0 when its distinct indices have a k-trek in ``graph``
    (which has no directed edges, as after dedirection) and 0.0 otherwise."""

    def __init__(self, graph: MixedGraph):
        self.graph = graph

    def entry(self, idx) -> float:
        return 1.0 if has_k_trek(self.graph, sorted(set(idx))) else 0.0


def oracle_total_effects(spec: LsemSpec):
    """Total effects via a dense numerical inverse (not the Neumann route)."""
    p = spec.graph.p
    q = p + len(spec.hidden)
    ext = np.zeros((q, q))
    ext[:p, :p] = spec.B
    for k, src in enumerate(spec.hidden):
        for v, lam in zip(sorted(src.members), src.loadings):
            ext[p + k, v - 1] = lam
    T = np.linalg.inv(np.eye(q) - ext.T)
    sources = tuple(spec.noise) + tuple(s.noise for s in spec.hidden)
    return T[:p, :], sources


def oracle_population_moment(W, sources, idx) -> float:
    """E[prod_l X_{i_l}] by expanding over all source assignments."""
    k = len(idx)
    total = 0.0
    for assign in itertools.product(range(W.shape[1]), repeat=k):
        coef = 1.0
        for l, s in enumerate(assign):
            coef *= W[idx[l] - 1, s]
            if coef == 0.0:
                break
        if coef == 0.0:
            continue
        for s, count in Counter(assign).items():
            coef *= sources[s].raw_moment(count)
        total += coef
    return total


def oracle_population_cumulant(spec: LsemSpec, idx) -> float:
    """Moment-route population cumulant: independent of the multilinear path."""
    W, sources = oracle_total_effects(spec)
    idx = tuple(int(v) for v in idx)
    table = {
        key: oracle_population_moment(W, sources, key)
        for key in _all_sub_multisets(idx)
    }
    return bell_cumulant(MomentTable(table), idx)


def _all_sub_multisets(idx):
    out = set()
    for r in range(1, len(idx) + 1):
        for sub in itertools.combinations(range(len(idx)), r):
            out.add(tuple(sorted(idx[i] for i in sub)))
    return out


@functools.lru_cache(maxsize=None)
def set_partitions(k: int) -> tuple[tuple[tuple[int, ...], ...], ...]:
    """All partitions of positions {0, ..., k-1}, each a tuple of sorted blocks.

    Enumerated through restricted growth strings and cached per k.
    """
    if not 0 <= k <= MAX_ORDER:
        raise ValidationError(f"partition order must be in 0..{MAX_ORDER}")
    if k == 0:
        return ((),)
    out = []
    labels = [0] * k

    def step(i: int, top: int):
        if i == k:
            blocks: dict[int, list[int]] = {}
            for pos, lab in enumerate(labels):
                blocks.setdefault(lab, []).append(pos)
            out.append(tuple(tuple(b) for _, b in sorted(blocks.items())))
            return
        for lab in range(top + 2):
            labels[i] = lab
            step(i + 1, max(top, lab))

    step(1, 0)
    return tuple(out)


def bell_cumulant(moments, idx) -> float:
    """Joint cumulant as the signed sum over set partitions of the positions:
    sum over (A_1, ..., A_L) of (-1)^(L-1) (L-1)! prod_l m(A_l)."""
    idx = tuple(int(v) for v in idx)
    total = 0.0
    for partition in set_partitions(len(idx)):
        L = len(partition)
        term = -math.factorial(L - 1) if L % 2 == 0 else math.factorial(L - 1)
        for block in partition:
            term *= moments.get(tuple(idx[pos] for pos in block))
        total += term
    return total


@functools.lru_cache(maxsize=None)
def seed1_pass() -> dict:
    """The result of ``seed1_pass.py``, run once per test session in a fresh
    interpreter with BLAS pinned to one thread."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    script = pathlib.Path(__file__).with_name("seed1_pass.py")
    proc = subprocess.run(
        [sys.executable, str(script)], env=env, capture_output=True, text=True, timeout=600
    )
    if proc.returncode != 0:
        raise RuntimeError(f"seed1_pass.py exited with {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])
