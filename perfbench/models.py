"""Seeded model generators built from the public mbang types.

``random_bowfree`` rarely produces overlapping hidden causes, so the
wide-overlap and deep-clique models are assembled here from ``MixedGraph``,
``HiddenSource`` and ``LsemSpec``.
"""

from __future__ import annotations

import numpy as np

from mbang import HiddenSource, LsemSpec, MixedGraph, noise_from_tag


def _coef(rng) -> float:
    # Same range as random_bowfree: uniform over (-1, -0.6) union (0.6, 1).
    mag = float(rng.uniform(0.6, 1.0))
    return mag if rng.random() < 0.5 else -mag


def _spec(p, directed, sources, observed_noise, rng):
    """Spec with hidden sources aligned to the sorted multidirected edges."""
    ordered = sorted(sources, key=lambda src: tuple(sorted(src[0])))
    graph = MixedGraph(p, frozenset(directed), frozenset(frozenset(m) for m, _ in ordered))
    B = np.zeros((p, p))
    for i, j in sorted(directed):
        B[i - 1, j - 1] = _coef(rng)
    hidden = tuple(
        HiddenSource(frozenset(m), tuple(_coef(rng) for _ in m), noise) for m, noise in ordered
    )
    return LsemSpec(graph, B, tuple(observed_noise), hidden), graph


def clique_model(k: int, tag: str, seed):
    """One hidden cause over vertices 1..k plus the chain k+1 -> k+2 -> k+3."""
    rng = np.random.default_rng(seed)
    noise = noise_from_tag(tag)
    p = k + 3
    directed = {(k + 1, k + 2), (k + 2, k + 3)}
    return _spec(p, directed, [(frozenset(range(1, k + 1)), noise)], [noise] * p, rng)


def overlap_model(p: int, edges: int, tags, seed):
    """``edges`` overlapping, pairwise non-nested hidden causes and no directed edges.

    Member sets have 2..5 vertices; a draw that equals, contains or lies
    inside an earlier set is redrawn.  Every source and every observed
    noise picks its distribution from ``tags``.
    """
    rng = np.random.default_rng(seed)
    pool = [noise_from_tag(t) for t in tags]
    pick = lambda: pool[int(rng.integers(len(pool)))]
    members: list[frozenset[int]] = []
    while len(members) < edges:
        size = int(rng.integers(2, 6))  # 2..5 members
        draw = frozenset(int(v) + 1 for v in rng.choice(p, size=size, replace=False))
        if any(draw <= m or m <= draw for m in members):
            continue
        members.append(draw)
    observed = [pick() for _ in range(p)]
    return _spec(p, set(), [(m, pick()) for m in members], observed, rng)
