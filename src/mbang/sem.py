"""Linear SEM simulation on mixed graphs and the random bow-free generator.

Matrix convention used throughout: ``B[i-1, j-1]`` is the direct effect of
vertex i on vertex j (row = cause), so in column form ``X = (I - B^T)^{-1} eps``.
File formats restate this to keep transpose bugs out of interchange.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .distributions import Noise
from .errors import NumericalError, ValidationError
from .graphs import (
    MixedGraph,
    bows,
    is_acyclic,
    is_bow_free,
    is_finite_real,
    sorted_multi,
    topological_order,
)


@dataclass(frozen=True)
class Dataset:
    """A p x n observation matrix; row v-1 holds vertex v, one column per sample."""

    values: np.ndarray

    def __post_init__(self):
        arr = np.ascontiguousarray(np.asarray(self.values, dtype=float))
        if arr.ndim != 2:
            raise ValidationError("dataset must be a 2-d matrix (rows = variables)")
        if arr.shape[1] < 1:
            raise ValidationError("dataset needs at least one sample column")
        if not np.all(np.isfinite(arr)):
            raise ValidationError("dataset entries must be finite")
        object.__setattr__(self, "values", arr)

    @property
    def p(self) -> int:
        return self.values.shape[0]

    @property
    def n(self) -> int:
        return self.values.shape[1]


@dataclass(frozen=True)
class HiddenSource:
    """One hidden cause behind a multidirected edge: loadings per member vertex."""

    members: frozenset[int]
    loadings: tuple[float, ...]
    noise: Noise

    def __post_init__(self):
        object.__setattr__(self, "members", frozenset(int(v) for v in self.members))
        if not all(is_finite_real(x) for x in self.loadings):
            raise ValidationError(f"loadings must be finite real numbers, got {self.loadings!r}")
        object.__setattr__(self, "loadings", tuple(float(x) for x in self.loadings))
        if len(self.members) < 2:
            raise ValidationError("a hidden source needs at least 2 member vertices")
        if len(self.loadings) != len(self.members):
            raise ValidationError("loadings must align with sorted member vertices")


def effects_matrix(B, p: int, directed, name: str) -> np.ndarray:
    """``B`` as a finite p x p float matrix whose nonzeros lie on ``directed`` edges."""
    B = np.asarray(B, dtype=float)
    if B.shape != (p, p):
        raise ValidationError(f"{name} must be {p}x{p}, got {B.shape}")
    if not np.all(np.isfinite(B)):
        raise ValidationError(f"{name} entries must be finite")
    for i0, j0 in np.argwhere(B != 0.0):
        if (int(i0) + 1, int(j0) + 1) not in directed:
            raise ValidationError(
                f"{name}[{i0 + 1},{j0 + 1}] nonzero but edge {i0 + 1}->{j0 + 1} absent"
            )
    return B


@dataclass(frozen=True)
class LsemSpec:
    """A simulable model: graph, direct effects, and noise for every source.

    ``noise[v-1]`` is the idiosyncratic noise of observed vertex v.  ``hidden``
    is aligned with the sorted multidirected edges of the graph, one source per
    edge.  Intercepts are identically zero.
    """

    graph: MixedGraph
    B: np.ndarray
    noise: tuple[Noise, ...]
    hidden: tuple[HiddenSource, ...] = ()

    def __post_init__(self):
        p = self.graph.p
        object.__setattr__(self, "B", effects_matrix(self.B, p, self.graph.directed, "B"))
        object.__setattr__(self, "noise", tuple(self.noise))
        object.__setattr__(self, "hidden", tuple(self.hidden))
        if len(self.noise) != p:
            raise ValidationError("need one noise spec per observed vertex")
        if not is_acyclic(self.graph):
            raise ValidationError("spec graph must be acyclic")
        if not is_bow_free(self.graph):
            raise ValidationError("spec graph must be bow-free")
        edges = [frozenset(h) for h in sorted_multi(self.graph.multi)]
        if [s.members for s in self.hidden] != edges:
            raise ValidationError(
                "hidden sources must align one-to-one with the sorted multidirected edges"
            )


def simulate(spec: LsemSpec, n: int, seed=None) -> Dataset:
    """Draw n i.i.d. samples from the model.

    Noise draws happen in a fixed order (observed vertices by label, then
    hidden sources by sorted edge), so output is reproducible given the seed.
    The draws do not depend on ``B``: the same seed with ``B = 0`` returns the
    correlated noise matrix eps itself.
    """
    if n < 1:
        raise ValidationError("sample count must be >= 1")
    rng = np.random.default_rng(seed)
    p = spec.graph.p
    values = np.empty((p, n), dtype=float)
    for v in range(1, p + 1):
        values[v - 1] = spec.noise[v - 1].sample(rng, n)
    for src in spec.hidden:
        draw = src.noise.sample(rng, n)
        for v, lam in zip(sorted(src.members), src.loadings):
            values[v - 1] += lam * draw
    for j in topological_order(spec.graph):
        for i in sorted(spec.graph.parents[j]):
            b = spec.B[i - 1, j - 1]
            if b != 0.0:
                values[j - 1] += b * values[i - 1]
    return Dataset(values)


def dedirect(data: Dataset, B: np.ndarray) -> Dataset:
    """Remove estimated direct effects: X = Y - B^T Y (row = cause convention).

    With the true B this recovers the correlated noise vector sample by sample.
    With finite Y and B a non-finite X can only be an overflow: NumericalError.
    """
    B = np.asarray(B, dtype=float)
    if B.shape != (data.p, data.p):
        raise ValidationError(f"effects matrix must be {data.p}x{data.p}, got {B.shape}")
    with np.errstate(over="ignore", invalid="ignore"):
        X = data.values - B.T @ data.values
    try:
        return Dataset(X)
    except ValidationError as exc:
        raise NumericalError(f"dedirection X = Y - B^T Y overflowed: {exc}") from exc


def standardize_rows(data: Dataset) -> Dataset:
    """Scale each row to unit empirical standard deviation (means untouched)."""
    with np.errstate(over="ignore", invalid="ignore"):
        sd = data.values.std(axis=1)
    zero = np.flatnonzero(sd == 0.0)
    if zero.size:
        raise NumericalError(f"zero-variance row for vertex {zero[0] + 1}")
    bad = np.flatnonzero(~np.isfinite(sd))
    if bad.size:
        raise NumericalError(f"row standard deviation for vertex {bad[0] + 1} is not finite")
    return Dataset(data.values / sd[:, None])


def center_rows(data: Dataset) -> Dataset:
    """Subtract each row's empirical mean.

    A finite row can still overflow, in its mean or in its values minus the
    mean (``1.7e308`` beside four ``-0.675e308``): NumericalError.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        centered = data.values - data.values.mean(axis=1, keepdims=True)
    try:
        return Dataset(centered)
    except ValidationError as exc:
        bad = np.flatnonzero(~np.isfinite(centered).all(axis=1))
        raise NumericalError(f"centering overflowed for vertex {bad[0] + 1}") from exc


def marginalize(dag: MixedGraph, hidden) -> tuple[MixedGraph, dict[int, int]]:
    """Hide parentless vertices of a DAG and return the canonical mixed graph.

    Each hidden vertex with m >= 2 children becomes one m-directed edge among
    those children; hidden vertices with fewer children vanish (their effect
    folds into noise).  Bows created by the marginalization are then removed
    by dropping the parent endpoint from the multidirected edge, deleting the
    edge if fewer than 2 members remain.

    Returns the relabeled graph on observed vertices 1..p_obs plus the
    old-to-new label map.
    """
    if dag.multi:
        raise ValidationError("marginalize expects a DAG (no multidirected edges)")
    hidden = {int(v) for v in hidden}
    for v in hidden:
        if not 1 <= v <= dag.p:
            raise ValidationError(f"hidden vertex {v} outside 1..{dag.p}")
        if dag.parents[v]:
            raise ValidationError(f"hidden vertex {v} has parents; only parentless vertices can be hidden")
    observed = [v for v in range(1, dag.p + 1) if v not in hidden]
    relabel = {old: new for new, old in enumerate(observed, start=1)}

    directed = {
        (relabel[i], relabel[j])
        for i, j in dag.directed
        if i not in hidden and j not in hidden
    }
    raw_edges = []
    for v in sorted(hidden):
        kids = sorted(dag.children[v])
        if len(kids) >= 2:
            raw_edges.append(tuple(relabel[c] for c in kids))

    multi: set[frozenset[int]] = set()
    for members in sorted(raw_edges):
        mset = set(members)
        while found := bows(directed, [mset]):
            mset.discard(found[0][0])
        if len(mset) >= 2:
            multi.add(frozenset(mset))

    return MixedGraph(len(observed), frozenset(directed), frozenset(multi)), relabel


def _draw_coef(rng: np.random.Generator) -> float:
    # Uniform over (-1, -0.6) union (0.6, 1): magnitude then sign.
    mag = rng.uniform(0.6, 1.0)
    return mag if rng.random() < 0.5 else -mag


def random_bowfree(
    p: int,
    e: int,
    noise: Noise | Sequence[Noise],
    seed=None,
    hide_prob: float = 0.5,
) -> tuple[LsemSpec, MixedGraph]:
    """Generate a random bow-free acyclic mixed-graph model.

    Draws e directed edges uniformly from {(i, j) | i < j}, hides each
    parentless vertex having >= 2 children independently with probability
    ``hide_prob``, marginalizes, then draws every coefficient (direct effects
    and hidden loadings) uniformly from (-1, -0.6) union (0.6, 1).

    ``noise`` is either one distribution used for every source or a sequence
    from which each source's distribution is drawn uniformly.  Returns the
    simulable spec together with its ground-truth observed graph.
    """
    max_e = p * (p - 1) // 2
    if not 0 <= e <= max_e:
        raise ValidationError(f"edge count must be in 0..{max_e} for p={p}")
    rng = np.random.default_rng(seed)
    pairs = [(i, j) for i in range(1, p + 1) for j in range(i + 1, p + 1)]
    chosen = rng.choice(max_e, size=e, replace=False) if e else np.empty(0, dtype=int)
    edges = sorted(pairs[k] for k in chosen)
    dag = MixedGraph(p, frozenset(edges))

    candidates = [
        v
        for v in range(1, p + 1)
        if not dag.parents[v] and len(dag.children[v]) >= 2
    ]
    hid = {v for v in candidates if rng.random() < hide_prob}
    obs_graph, _ = marginalize(dag, hid)

    p_obs = obs_graph.p
    B = np.zeros((p_obs, p_obs))
    for i, j in sorted(obs_graph.directed):
        B[i - 1, j - 1] = _draw_coef(rng)

    loadings = [
        tuple(_draw_coef(rng) for _ in h) for h in sorted_multi(obs_graph.multi)
    ]

    if isinstance(noise, Noise):
        pick = lambda: noise
    else:
        pool = list(noise)
        if not pool:
            raise ValidationError("noise sequence must not be empty")
        pick = lambda: pool[int(rng.integers(len(pool)))]

    observed_noise = tuple(pick() for _ in range(p_obs))
    hidden = tuple(
        HiddenSource(frozenset(h), lams, pick())
        for h, lams in zip(sorted_multi(obs_graph.multi), loadings)
    )
    spec = LsemSpec(obs_graph, B, observed_noise, hidden)
    return spec, obs_graph


def extended_total_effects(spec: LsemSpec) -> tuple[np.ndarray, tuple[Noise, ...]]:
    """Total effects of every independent noise source on the observed vector.

    Builds the extended system with one synthetic parentless vertex per
    multidirected edge, then accumulates the nilpotent Neumann series of the
    extended coefficient matrix, so structural zeros stay exactly zero.
    Returns (W, sources) where ``W[i-1, s]`` is the total effect of source s
    on observed vertex i; sources are the p observed noises followed by the
    hidden sources in sorted-edge order.
    """
    p = spec.graph.p
    q = p + len(spec.hidden)
    ext = np.zeros((q, q))
    ext[:p, :p] = spec.B
    for k, src in enumerate(spec.hidden):
        for v, lam in zip(sorted(src.members), src.loadings):
            ext[p + k, v - 1] = lam
    M = ext.T
    T = np.eye(q)
    power = np.eye(q)
    for _ in range(q - 1):
        power = M @ power
        if not power.any():
            break
        T += power
    sources = tuple(spec.noise) + tuple(s.noise for s in spec.hidden)
    return T[:p, :], sources
