"""Recovering multidirected edges: first-stage adapters and the gated clique search.

The pipeline takes observations Y, a first stage supplying the direct-effects
estimate and a mixed graph of bidirected pairs, removes the direct effects
(X = Y - B^T Y), and then merges bidirected pairs into multidirected edges by
running a Bron-Kerbosch walk whose every extension is gated on a nonzero
higher-order cumulant of X.
"""

from __future__ import annotations

import itertools
from dataclasses import asdict, dataclass, replace

import numpy as np

from . import fileio
from .cumulants import PopulationCumulants, cumulant_from_moments
from .errors import SchemaError, ValidationError
from .graphs import MixedGraph, bidirected_subdivision, bows, graph_from_json_dict
from .graphs import graph_to_json_dict, is_finite_real, sorted_multi, topological_order
from .sem import Dataset, LsemSpec, center_rows, dedirect, effects_matrix, standardize_rows

EXACT_EPS = 1e-9


@dataclass(frozen=True)
class DiscoveryConfig:
    """Knobs for the merge stage.

    ``cumulant_tolerance`` is the nonzero-test threshold on the cumulants of
    standardized rows; population-oracle runs use ``EXACT_EPS``.  The relaxed
    test also accepts an order-(k+2) entry that repeats one clique member.
    """

    cumulant_tolerance: float = 0.05
    relaxed_test: bool = True

    def __post_init__(self):
        if not isinstance(self.relaxed_test, bool):
            raise ValidationError(f"relaxed_test must be true or false, got {self.relaxed_test!r}")
        tol = self.cumulant_tolerance
        if not (is_finite_real(tol) and tol >= 0):
            raise ValidationError(f"cumulant tolerance must be a finite number >= 0, got {tol!r}")


@dataclass(frozen=True)
class FirstStageResult:
    """Output of the first stage: the effects estimate and a bow-free mixed
    graph whose multidirected edges are all bidirected pairs.

    A wider multidirected edge, a bow (a directed edge whose endpoints are
    also a pair), a directed cycle, or a nonzero of ``B_hat`` off the directed
    edges raises ValidationError.
    """

    B_hat: np.ndarray
    graph: MixedGraph

    def __post_init__(self):
        g = self.graph
        wide = sorted_multi(h for h in g.multi if len(h) != 2)
        if wide:
            raise ValidationError(f"first-stage bidirected edges must be pairs, got {wide}")
        found = bows(g.directed, g.multi)
        if found:
            raise ValidationError(f"first stage contains bows {found}")
        topological_order(g)
        object.__setattr__(self, "B_hat", effects_matrix(self.B_hat, g.p, g.directed, "B_hat"))


def oracle_first_stage(spec: LsemSpec) -> FirstStageResult:
    """Ground-truth stand-in for the external first stage: the true effects
    matrix and the bidirected subdivision of the true multidirected edges."""
    return FirstStageResult(spec.B.copy(), bidirected_subdivision(spec.graph))


def first_stage_from_json_dict(obj) -> FirstStageResult:
    """Parse externally computed first-stage output.

    Schema: {"p": int, "directed": [[i,j],...], "bidirected": [[i,j],...],
    "B": [[...],...]}.  Anything ``FirstStageResult`` refuses, a bow or a
    ``bidirected`` entry that is not a pair included, raises SchemaError.
    """
    if not isinstance(obj, dict):
        raise SchemaError("first-stage document must be a JSON object")
    try:
        graph = graph_from_json_dict({**obj, "multi": obj.get("bidirected", [])})
        if not all(is_finite_real(x) for row in obj["B"] for x in row):
            raise SchemaError("B_hat entries must be finite real numbers")
        return FirstStageResult(np.asarray(obj["B"], dtype=float), graph)
    except (KeyError, TypeError, ValueError) as exc:
        raise SchemaError(f"malformed first-stage document: {exc}") from exc
    except ValidationError as exc:
        raise SchemaError(str(exc)) from exc


def load_first_stage(path) -> FirstStageResult:
    """Read and validate a first-stage JSON file."""
    return first_stage_from_json_dict(fileio.load_json(path))


class SampleCumulants:
    """Lazily computed plug-in cumulants of a fixed data matrix.

    Moments are memoized per sorted index; the clique walk only ever touches
    indices inside bidirected cliques and asks each cumulant entry at most
    once, so nothing close to a full high-order tensor is materialized.  The
    provider is its own moment table: ``get`` serves
    ``cumulant_from_moments``.  As for ``sample_cumulant_tensor``, the caller
    centers the rows.
    """

    def __init__(self, data: Dataset):
        self._rows = data.values
        self._moments: dict[tuple[int, ...], float] = {}

    def _moment(self, key: tuple[int, ...]) -> float:
        try:
            return self._moments[key]
        except KeyError:
            prod = self._rows[key[0] - 1].copy()
            for v in key[1:]:
                prod *= self._rows[v - 1]
            value = float(prod.mean())
            self._moments[key] = value
            return value

    def get(self, idx) -> float:
        return self._moment(tuple(sorted(int(v) for v in idx)))

    def entry(self, idx) -> float:
        return cumulant_from_moments(self, tuple(sorted(int(v) for v in idx)))


def cumulant_test(provider, R, v: int, cfg: DiscoveryConfig):
    """Gate for extending the ordered clique R by candidate v.

    Passes when |C^(k+1)_{R,v}| exceeds the threshold, or (relaxed) when some
    clique member j, repeated, gives |C^(k+2)_{R,v,j}| above it.  An empty R passes
    unconditionally: the order-1 cumulant of centered data carries no signal,
    so the first vertex is always admitted.

    Returns (passed, evidence) where evidence names the entry that fired.
    """
    R = tuple(R)
    if not R:
        return True, {"vertex": int(v), "kind": "root", "order": 0, "index": [], "value": None}
    idx = R + (int(v),)
    relaxed = (idx + (j,) for j in R) if cfg.relaxed_test else ()
    for entry in itertools.chain((idx,), relaxed):
        value = provider.entry(entry)
        if abs(value) > cfg.cumulant_tolerance:
            kind = "primary" if entry is idx else "relaxed"
            return True, {"vertex": int(v), "kind": kind, "order": len(entry),
                          "index": sorted(entry), "value": value}
    return False, None


def _walk(provider, adj, cfg, reported, R, P, Q, chain):
    # One node: yields each admitted child's arguments.  No node refers to itself,
    # so the provider is freed when the walk returns.  P and Q are int bitmasks.
    if not P and not Q and len(R) >= 2:
        reported.setdefault(frozenset(R), list(chain))
    rest = Q
    while rest:
        if not P & ~adj[(rest & -rest).bit_length() - 1]:
            return
        rest &= rest - 1
    while P:
        v = (P & -P).bit_length() - 1
        if adj[v]:
            passed, evidence = cumulant_test(provider, R, v, cfg)
            if passed:
                yield (R + (v,), P & adj[v], Q & adj[v], chain + (evidence,))
        P ^= 1 << v
        Q |= 1 << v
        if not P & ~adj[v]:
            return


def find_multidirected(provider, graph: MixedGraph, cfg: DiscoveryConfig | None = None):
    """Cumulant-gated Bron-Kerbosch: two vertices are adjacent when they share
    a multidirected edge, so a graph and its bidirected subdivision give the
    same walk.  P, Q and each neighborhood are int bitmasks over the labels.

    The paper's pivotless Bron-Kerbosch walk: a node reports its clique R
    (when |R| >= 2) only if both the candidate set P and the excluded set Q
    are empty on entry; each v in P with a nonempty neighborhood gets a child
    node only when :func:`cumulant_test` passes, and is then moved from P to Q
    whether or not it passed.  Iteration order over P is sorted, so results
    are deterministic.

    The nodes are generators on one stack, and a node resumes only once its
    last child's subtree is done: the gate queries come in a recursion's
    depth-first order, yet no Python frame is spent per clique member.

    A node returns early once some q in Q is adjacent to every vertex of P:
    every descendant keeps q in Q and its P inside adj[q], so nothing below
    can report.  The rule is tested for all of Q on entry and for each v as it
    moves to Q.  It skips only subtrees that report nothing, so the reported
    edges and their admission chains are those of the full walk; a gate
    query, and so an order refusal, is made only where the walk needs it.

    Returns (edges, diagnostics): the reported vertex sets, deduplicated, and
    one record per reported edge listing the cumulant entries that justified
    each admission along its path.
    """
    cfg = cfg or DiscoveryConfig()
    reported: dict[frozenset[int], list[dict]] = {}
    adj = [0] * (graph.p + 1)
    for h in graph.multi:
        mask = sum(1 << v for v in h)
        for v in h:
            adj[v] |= mask ^ (1 << v)
    stack = [_walk(provider, adj, cfg, reported, (), (1 << graph.p + 1) - 2, 0, ())]
    while stack:
        child = next(stack[-1], None)
        if child is None:
            stack.pop()
        else:
            stack.append(_walk(provider, adj, cfg, reported, *child))
    edges = set(reported)
    diagnostics = [
        {"edge": sorted(e), "source": "merged", "tests": reported[e]}
        for e in sorted(edges, key=lambda s: tuple(sorted(s)))
    ]
    return edges, diagnostics


class _AlwaysNonzero:
    def entry(self, idx) -> float:
        return 1.0


def enumerate_cliques(graph: MixedGraph) -> list[frozenset[int]]:
    """All maximal cliques with >= 2 vertices, sorted, where two vertices are
    adjacent when they share a multidirected edge: the walk with an
    always-passing gate."""
    _, diagnostics = find_multidirected(_AlwaysNonzero(), graph)
    return [frozenset(d["edge"]) for d in diagnostics]


@dataclass(frozen=True)
class DiscoveryResult:
    """Recovered graph, the effects estimate used, and per-merge diagnostics."""

    graph: MixedGraph
    B_hat: np.ndarray
    config: DiscoveryConfig
    diagnostics: tuple[dict, ...] = ()

    def to_json_dict(self) -> dict:
        out = graph_to_json_dict(self.graph)
        out["B_hat"] = [[float(x) for x in row] for row in self.B_hat]
        out["config"] = asdict(self.config)
        out["diagnostics"] = list(self.diagnostics)
        return out


def _assemble(stage: FirstStageResult, edges, diagnostics, cfg) -> DiscoveryResult:
    # Bidirected pairs the walk left uncovered stay in the output as
    # 2-directed edges; dropping them would lose structure the first stage
    # already established.
    multi = set(edges)
    diags = list(diagnostics)
    for pair in sorted(stage.graph.multi, key=lambda s: tuple(sorted(s))):
        if not any(pair <= m for m in edges):
            multi.add(pair)
            diags.append({"edge": sorted(pair), "source": "retained", "tests": []})
    graph = MixedGraph(stage.graph.p, stage.graph.directed, frozenset(multi))
    return DiscoveryResult(graph=graph, B_hat=stage.B_hat, config=cfg, diagnostics=tuple(diags))


def run_mbang(Y: Dataset, stage: FirstStageResult, cfg: DiscoveryConfig | None = None) -> DiscoveryResult:
    """Full pipeline on observations: dedirection by the first stage, then merge.

    The rows of X = Y - B_hat^T Y are centered and standardized before the
    gated search, so the tolerance always applies to standardized cumulants.
    """
    cfg = cfg or DiscoveryConfig()
    if stage.graph.p != Y.p:
        raise ValidationError(f"first stage is for p={stage.graph.p} but data has {Y.p} rows")
    X = dedirect(Y, stage.B_hat)
    X = center_rows(X)
    X = standardize_rows(X)
    provider = SampleCumulants(X)
    edges, diagnostics = find_multidirected(provider, stage.graph, cfg)
    return _assemble(stage, edges, diagnostics, cfg)


def run_mbang_population(spec: LsemSpec, cfg: DiscoveryConfig | None = None) -> DiscoveryResult:
    """Pipeline driven by exact population cumulants and the oracle first stage.

    The tolerance is forced to ``EXACT_EPS``.  Nothing is standardized:
    scaling never moves a population entry onto or off zero.
    """
    cfg = replace(cfg or DiscoveryConfig(), cumulant_tolerance=EXACT_EPS)
    stage = oracle_first_stage(spec)
    provider = PopulationCumulants.from_spec(spec, dedirected=True)
    edges, diagnostics = find_multidirected(provider, stage.graph, cfg)
    return _assemble(stage, edges, diagnostics, cfg)
