"""An exhaustive census of the gated walk (the paper's Algorithm 2).

Every nonempty family of multidirected edges on p = 5 vertices, no edge
inside another and no directed edges, is handed to the walk as its bidirected
subdivision. A family counts as exact when the recovered graph equals it.

The counts are regression numbers, not a pass bar. Algorithm 2 reports a
clique R only when P and Q are both empty, so a vertex that failed the gate
earlier can sit in Q and block a true edge. The smallest such family is
{1,2}, {1,3,4}, {2,3,4}: vertex 2 is in Q when R = (1,3,4) closes, vertex 1
when R = (2,3,4) does, and only the six pairs come back. A change to a count
is a change to the walk.

The sample census runs the same small families through the whole pipeline:
one simulated dataset per family (n = 20000, seeded by the family's index),
the oracle first stage and the default gate.  Its counts are regression
numbers too; a change to the gate, the merge or the sample provider names
its new count.
"""

from __future__ import annotations

import functools

import numpy as np
import pytest

from mbang import HiddenSource, LsemSpec, MixedGraph, find_multidirected, oracle_first_stage
from mbang import run_mbang, run_mbang_population, simulate
from mbang.graphs import bidirected_subdivision, sorted_multi

from helpers import CHI2, UNIFORM10, StructuralCumulants, draw_coef, edge_families

P = 5
FAMILIES = edge_families(P, 5)
SMALL = [family for family in FAMILIES if len(family) <= 3]


def _structural_recovery(family) -> frozenset[frozenset[int]]:
    graph = MixedGraph(P, frozenset(), family)
    pairs = bidirected_subdivision(graph)
    edges, _ = find_multidirected(StructuralCumulants(graph), pairs)
    # The pipeline keeps every first-stage pair no reported edge covers.
    kept = {pr for pr in pairs.multi if not any(pr <= e for e in edges)}
    return frozenset(edges) | kept


@functools.lru_cache(maxsize=None)
def structural_census() -> dict:
    return {family: _structural_recovery(family) for family in FAMILIES}


def _misses(recovered: dict) -> set:
    return {family for family, got in recovered.items() if got != frozenset(family)}


def test_structural_census_counts():
    census = structural_census()
    assert len(FAMILIES) == 4921
    assert len(FAMILIES) - len(_misses(census)) == 2283
    small = {family: census[family] for family in SMALL}
    assert len(SMALL) == 1121
    assert len(SMALL) - len(_misses(small)) == 856
    smallest = (frozenset({1, 2}), frozenset({1, 3, 4}), frozenset({2, 3, 4}))
    assert census[smallest] == bidirected_subdivision(MixedGraph(P, frozenset(), smallest)).multi


def _spec(family, noise, rng) -> LsemSpec:
    graph = MixedGraph(P, frozenset(), family)
    hidden = tuple(
        HiddenSource(frozenset(h), tuple(draw_coef(rng) for _ in h), noise)
        for h in sorted_multi(graph.multi)
    )
    return LsemSpec(graph, np.zeros((P, P)), (noise,) * P, hidden)


@pytest.mark.parametrize("noise", [CHI2, UNIFORM10], ids=["chi2", "uniform10"])
def test_population_walk_agrees_with_the_structural_census(noise):
    rng = np.random.default_rng(2026)
    recovered = {
        family: run_mbang_population(_spec(family, noise, rng)).graph.multi for family in SMALL
    }
    assert len(SMALL) - len(_misses(recovered)) == 856
    assert recovered == {family: structural_census()[family] for family in SMALL}


@pytest.mark.parametrize("noise, exact", [(CHI2, 817), (UNIFORM10, 821)], ids=["chi2", "uniform10"])
def test_sample_census_counts(noise, exact):
    rng = np.random.default_rng(2026)
    recovered = {}
    for i, family in enumerate(SMALL):
        spec = _spec(family, noise, rng)
        recovered[family] = run_mbang(simulate(spec, 20000, seed=i), oracle_first_stage(spec)).graph.multi
    assert len(SMALL) - len(_misses(recovered)) == exact
