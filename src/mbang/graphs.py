"""Acyclic mixed graphs with multidirected edges.

Vertices carry 1-based labels in every public structure and file format.
Code that touches coefficient matrices maps label ``v`` to row/column
``v - 1``; nothing else is ever 0-based.
"""

from __future__ import annotations

import heapq
import itertools
import numbers
import sys
from dataclasses import dataclass
from functools import cached_property

from .errors import SchemaError, ValidationError

Edge = tuple[int, int]


def _as_edge_set(edges) -> frozenset[Edge]:
    return frozenset((int(i), int(j)) for i, j in edges)


def _as_multi_set(multi) -> frozenset[frozenset[int]]:
    return frozenset(frozenset(int(v) for v in h) for h in multi)


def sorted_multi(multi) -> list[tuple[int, ...]]:
    """Multidirected edges as sorted tuples, in a deterministic order."""
    return sorted(tuple(sorted(h)) for h in multi)


@dataclass(frozen=True)
class MixedGraph:
    """A graph (V, directed, multi) on vertices 1..p.

    ``directed`` holds ordered pairs (i, j) meaning i -> j.  ``multi`` holds
    k-directed (multidirected) edges: unordered sets of k >= 2 distinct
    vertices that share one hidden common cause.  Overlapping and nested
    multidirected edges are allowed; the set semantics deduplicate exact
    repeats.  Instances are immutable and safe to share across workers.
    """

    p: int
    directed: frozenset[Edge] = frozenset()
    multi: frozenset[frozenset[int]] = frozenset()

    def __post_init__(self):
        object.__setattr__(self, "directed", _as_edge_set(self.directed))
        object.__setattr__(self, "multi", _as_multi_set(self.multi))
        if self.p < 0:
            raise ValidationError("vertex count must be nonnegative")
        for i, j in self.directed:
            if i == j:
                raise ValidationError(f"self-loop {i} -> {j} is not allowed")
            if not (1 <= i <= self.p and 1 <= j <= self.p):
                raise ValidationError(f"directed edge ({i}, {j}) outside 1..{self.p}")
        for h in self.multi:
            if len(h) < 2:
                raise ValidationError(
                    f"multidirected edge {sorted(h)} needs at least 2 vertices"
                )
            for v in h:
                if not 1 <= v <= self.p:
                    raise ValidationError(
                        f"multidirected edge vertex {v} outside 1..{self.p}"
                    )

    @cached_property
    def parents(self) -> dict[int, frozenset[int]]:
        out: dict[int, set[int]] = {v: set() for v in range(1, self.p + 1)}
        for i, j in self.directed:
            out[j].add(i)
        return {v: frozenset(s) for v, s in out.items()}

    @cached_property
    def children(self) -> dict[int, frozenset[int]]:
        out: dict[int, set[int]] = {v: set() for v in range(1, self.p + 1)}
        for i, j in self.directed:
            out[i].add(j)
        return {v: frozenset(s) for v, s in out.items()}

    @cached_property
    def ancestor_map(self) -> dict[int, frozenset[int]]:
        """Maps v to every vertex with a directed path to v, v itself included."""
        anc: dict[int, frozenset[int]] = {}
        for v in topological_order(self):
            acc = {v}
            for u in self.parents[v]:
                acc.update(anc[u])
            anc[v] = frozenset(acc)
        return anc


@dataclass(frozen=True)
class BidirectedGraph:
    """Vertices 1..p with unordered bidirected pairs only."""

    p: int
    pairs: frozenset[frozenset[int]] = frozenset()

    def __post_init__(self):
        object.__setattr__(self, "pairs", _as_multi_set(self.pairs))
        if self.p < 0:
            raise ValidationError("vertex count must be nonnegative")
        for pair in self.pairs:
            if len(pair) != 2:
                raise ValidationError(f"bidirected pair {sorted(pair)} must have 2 distinct vertices")
            for v in pair:
                if not 1 <= v <= self.p:
                    raise ValidationError(f"bidirected pair vertex {v} outside 1..{self.p}")

    @cached_property
    def adjacency(self) -> dict[int, frozenset[int]]:
        out: dict[int, set[int]] = {v: set() for v in range(1, self.p + 1)}
        for pair in self.pairs:
            a, b = sorted(pair)
            out[a].add(b)
            out[b].add(a)
        return {v: frozenset(s) for v, s in out.items()}


def topological_order(g: MixedGraph) -> list[int]:
    """Vertices ordered so that every directed edge points forward.

    Ties resolve to the smallest label, so the order is deterministic.
    Raises ValidationError if the directed part has a cycle.
    """
    indeg = {v: 0 for v in range(1, g.p + 1)}
    for _, j in g.directed:
        indeg[j] += 1
    ready = [v for v, d in indeg.items() if d == 0]
    heapq.heapify(ready)
    order = []
    while ready:
        v = heapq.heappop(ready)
        order.append(v)
        for c in g.children[v]:
            indeg[c] -= 1
            if indeg[c] == 0:
                heapq.heappush(ready, c)
    if len(order) != g.p:
        raise ValidationError("directed part contains a cycle")
    return order


def is_acyclic(g: MixedGraph) -> bool:
    """True iff the directed part has no directed cycle."""
    try:
        topological_order(g)
    except ValidationError:
        return False
    return True


def bows(directed, groups) -> list[Edge]:
    """The directed edges, sorted, whose two endpoints share one of ``groups``:
    multidirected edges, or a first stage's bidirected pairs."""
    return sorted((i, j) for i, j in directed if any(i in h and j in h for h in groups))


def is_bow_free(g: MixedGraph) -> bool:
    """True iff no pair is joined by both a directed and a multidirected edge."""
    return not bows(g.directed, g.multi)


def bidirected_subdivision(g: MixedGraph) -> BidirectedGraph:
    """Replace each k-directed edge by its (k choose 2) bidirected pairs."""
    pairs: set[frozenset[int]] = set()
    for h in g.multi:
        for a, b in itertools.combinations(sorted(h), 2):
            pairs.add(frozenset((a, b)))
    return BidirectedGraph(g.p, frozenset(pairs))


def check_vertex_tuple(p: int, t) -> tuple[int, ...]:
    """Validate a tuple of k >= 2 distinct vertex labels in 1..p."""
    tup = tuple(int(v) for v in t)
    if len(tup) < 2:
        raise ValidationError("vertex tuple needs k >= 2 entries")
    if len(set(tup)) != len(tup):
        raise ValidationError(f"vertex tuple {tup} has repeated vertices")
    for v in tup:
        if not 1 <= v <= p:
            raise ValidationError(f"vertex {v} outside 1..{p}")
    return tup


@dataclass(frozen=True)
class TrekWitness:
    """One k-trek: per-sink sources and directed paths (length 0 allowed).

    ``hidden_edge`` is the multidirected edge the sources lie in, or None when
    all paths share a single source vertex.
    """

    sources: tuple[int, ...]
    paths: tuple[tuple[int, ...], ...]
    hidden_edge: frozenset[int] | None = None


def _directed_path(g: MixedGraph, s: int, t: int) -> tuple[int, ...] | None:
    if s == t:
        return (s,)
    prev = {s: 0}
    queue = [s]
    while queue:
        u = queue.pop(0)
        for c in sorted(g.children[u]):
            if c not in prev:
                prev[c] = u
                if c == t:
                    path = [t]
                    while path[-1] != s:
                        path.append(prev[path[-1]])
                    return tuple(reversed(path))
                queue.append(c)
    return None


def find_k_trek(g: MixedGraph, t) -> TrekWitness | None:
    """Search for a k-trek between the distinct vertices of ``t``.

    A k-trek is a collection of k directed paths, one per queried vertex, that
    either all start at one common source vertex or start at (not necessarily
    distinct) members of a single multidirected edge.  Length-0 paths count:
    a vertex reaches itself, which is what lets the members of a multidirected
    edge form treks among themselves.
    """
    tup = check_vertex_tuple(g.p, t)
    if not is_acyclic(g):
        raise ValidationError("k-trek search requires an acyclic graph")
    anc = [g.ancestor_map[v] for v in tup]
    common = frozenset.intersection(*anc)
    if common:
        src = min(common)
        paths = tuple(_directed_path(g, src, v) for v in tup)
        return TrekWitness(sources=(src,) * len(tup), paths=paths, hidden_edge=None)
    for h in sorted_multi(g.multi):
        hs = frozenset(h)
        sources = []
        for a in anc:
            hit = a & hs
            if not hit:
                sources = []
                break
            sources.append(min(hit))
        if sources:
            paths = tuple(_directed_path(g, s, v) for s, v in zip(sources, tup))
            return TrekWitness(sources=tuple(sources), paths=paths, hidden_edge=hs)
    return None


def has_k_trek(g: MixedGraph, t) -> bool:
    """True iff a k-trek exists between the distinct vertices of ``t``."""
    return find_k_trek(g, t) is not None


def vertex_label(value) -> int:
    """A vertex label, or the vertex count ``p``, read from a JSON document.

    ValueError unless it is an integral, finite number; a bool is not one.
    Range checks stay with the graph constructors.
    """
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, numbers.Integral) and not isinstance(value, bool):
        return int(value)
    raise ValueError(f"{value!r} is not an integer")


def is_finite_real(value) -> bool:
    """Whether a JSON or config value is a finite real number; a bool or a string is not one."""
    real = isinstance(value, numbers.Real) and not isinstance(value, bool)
    return real and abs(value) <= sys.float_info.max


def graph_to_json_dict(g: MixedGraph) -> dict:
    return {
        "p": g.p,
        "directed": [list(e) for e in sorted(g.directed)],
        "multi": [list(h) for h in sorted_multi(g.multi)],
    }


def graph_from_json_dict(obj) -> MixedGraph:
    if not isinstance(obj, dict):
        raise SchemaError("graph document must be a JSON object")
    try:
        p = vertex_label(obj["p"])
        directed = [(vertex_label(i), vertex_label(j)) for i, j in obj.get("directed", [])]
        multi = [[vertex_label(v) for v in h] for h in obj.get("multi", [])]
    except (KeyError, TypeError, ValueError) as exc:
        raise SchemaError(f"malformed graph document: {exc}") from exc
    return MixedGraph(p, frozenset(directed), frozenset(frozenset(h) for h in multi))


def graph_to_dot(g: MixedGraph) -> str:
    """DOT rendering: solid directed edges, each multidirected edge drawn as a
    dashed star from a synthetic hidden node H1, H2, ..."""
    lines = ["digraph mixed {"]
    for v in range(1, g.p + 1):
        lines.append(f'  "{v}";')
    for i, j in sorted(g.directed):
        lines.append(f'  "{i}" -> "{j}";')
    for k, h in enumerate(sorted_multi(g.multi), start=1):
        name = f"H{k}"
        lines.append(f'  "{name}" [shape=box, style=dashed];')
        for v in h:
            lines.append(f'  "{name}" -> "{v}" [style=dashed];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def format_graph(g: MixedGraph) -> str:
    """Human-readable printout: 'i -> j' per directed edge and
    '(i1,...,ik) <-*->' per multidirected edge."""
    lines = [f"vertices: 1..{g.p}"]
    for i, j in sorted(g.directed):
        lines.append(f"{i} -> {j}")
    for h in sorted_multi(g.multi):
        lines.append("(" + ",".join(str(v) for v in h) + ") <-*->")
    return "\n".join(lines)
