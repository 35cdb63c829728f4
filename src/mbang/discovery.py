"""Recovering multidirected edges: first-stage adapters and the gated clique search.

The pipeline takes observations Y, a first stage supplying the direct-effects
estimate and the bidirected pair structure, removes the direct effects
(X = Y - B^T Y), and then merges bidirected pairs into multidirected edges by
running a Bron-Kerbosch recursion whose every extension is gated on a nonzero
higher-order cumulant of X.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, replace

import numpy as np

from . import fileio
from .cumulants import PopulationCumulants, cumulant_from_moments
from .errors import SchemaError, ValidationError
from .graphs import BidirectedGraph, MixedGraph, bidirected_subdivision, graph_to_json_dict
from .graphs import bows, is_finite_real, vertex_label
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
    """Output of the first stage: effects estimate plus pair-level structure.

    ``directed`` obeys the rules of ``MixedGraph``, and a bow (a directed edge
    whose endpoints are also a bidirected pair) raises ValidationError.
    """

    B_hat: np.ndarray
    directed: frozenset[tuple[int, int]]
    bidirected: BidirectedGraph

    def __post_init__(self):
        p = self.bidirected.p
        object.__setattr__(self, "directed", MixedGraph(p, self.directed).directed)
        found = bows(self.directed, self.bidirected.pairs)
        if found:
            raise ValidationError(f"first stage contains bows {found}")
        object.__setattr__(self, "B_hat", effects_matrix(self.B_hat, p, self.directed, "B_hat"))

    @property
    def p(self) -> int:
        return self.bidirected.p


def oracle_first_stage(spec: LsemSpec, perturbation: float = 0.0, seed=None) -> FirstStageResult:
    """Ground-truth stand-in for the external first stage.

    Returns the true effects matrix (optionally with additive noise of the
    given magnitude on supported entries) and the bidirected subdivision of
    the true multidirected edges.  The noise range, 2 * perturbation, must be finite.
    """
    if not (is_finite_real(perturbation) and perturbation >= 0 and is_finite_real(2 * perturbation)):
        raise ValidationError(f"stage perturbation must be >= 0 with a finite range, got {perturbation!r}")
    B_hat = spec.B.copy()
    if perturbation:
        rng = np.random.default_rng(seed)
        for i, j in sorted(spec.graph.directed):
            B_hat[i - 1, j - 1] += rng.uniform(-perturbation, perturbation)
    return FirstStageResult(
        B_hat=B_hat,
        directed=spec.graph.directed,
        bidirected=bidirected_subdivision(spec.graph),
    )


def first_stage_from_json_dict(obj) -> FirstStageResult:
    """Parse externally computed first-stage output.

    Schema: {"p": int, "directed": [[i,j],...], "bidirected": [[i,j],...],
    "B": [[...],...]}.  Anything ``FirstStageResult`` refuses, a bow included,
    raises SchemaError.
    """
    if not isinstance(obj, dict):
        raise SchemaError("first-stage document must be a JSON object")
    try:
        p = vertex_label(obj["p"])
        directed = frozenset((vertex_label(i), vertex_label(j)) for i, j in obj.get("directed", []))
        pairs = frozenset(
            frozenset((vertex_label(i), vertex_label(j))) for i, j in obj.get("bidirected", [])
        )
        if not all(is_finite_real(x) for row in obj["B"] for x in row):
            raise SchemaError("B_hat entries must be finite real numbers")
        B = np.asarray(obj["B"], dtype=float)
    except (KeyError, TypeError, ValueError) as exc:
        raise SchemaError(f"malformed first-stage document: {exc}") from exc
    try:
        return FirstStageResult(B, directed, BidirectedGraph(p, pairs))
    except ValidationError as exc:
        raise SchemaError(str(exc)) from exc


def load_first_stage(path) -> FirstStageResult:
    """Read and validate a first-stage JSON file."""
    return first_stage_from_json_dict(fileio.load_json(path))


class SampleCumulants:
    """Lazily computed plug-in cumulants of a fixed data matrix.

    Moments and cumulant entries are memoized per sorted index; the clique walk
    only ever touches indices inside bidirected cliques, so nothing close to a
    full high-order tensor is materialized.  The provider is its own moment
    table: ``get`` serves ``cumulant_from_moments``.  As for
    ``sample_cumulant_tensor``, the caller centers the rows.
    """

    def __init__(self, data):
        self._rows = data.values if isinstance(data, Dataset) else np.asarray(data, dtype=float)
        self._moments: dict[tuple[int, ...], float] = {}
        self._entries: dict[tuple[int, ...], float] = {}

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
        key = tuple(sorted(int(v) for v in idx))
        try:
            return self._entries[key]
        except KeyError:
            value = cumulant_from_moments(self, key)
            self._entries[key] = value
            return value


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
    thr = cfg.cumulant_tolerance
    idx = R + (int(v),)
    value = provider.entry(idx)
    if abs(value) > thr:
        return True, {
            "vertex": int(v),
            "kind": "primary",
            "order": len(idx),
            "index": sorted(idx),
            "value": value,
        }
    if cfg.relaxed_test:
        for j in R:
            value2 = provider.entry(idx + (j,))
            if abs(value2) > thr:
                return True, {
                    "vertex": int(v),
                    "kind": "relaxed",
                    "order": len(idx) + 1,
                    "index": sorted(idx + (j,)),
                    "value": value2,
                }
    return False, None


def find_multidirected(provider, bg: BidirectedGraph, cfg: DiscoveryConfig | None = None):
    """Cumulant-gated Bron-Kerbosch over the bidirected pairs.

    Exactly the pivotless recursion: a node reports its clique R (when
    |R| >= 2) only if both the candidate set P and the excluded set Q are
    empty on entry; each v in P with a nonempty bidirected neighborhood is
    recursed into only when :func:`cumulant_test` passes, and is then moved
    from P to Q whether or not it passed.  Iteration order over P is sorted,
    so results are deterministic.

    Returns (edges, diagnostics): the reported vertex sets, deduplicated, and
    one record per reported edge listing the cumulant entries that justified
    each admission along its path.
    """
    cfg = cfg or DiscoveryConfig()
    adj = bg.adjacency
    reported: dict[frozenset[int], list[dict]] = {}

    def walk(R: tuple[int, ...], P: set[int], Q: set[int], chain: tuple[dict, ...]):
        if not P and not Q and len(R) >= 2:
            reported.setdefault(frozenset(R), list(chain))
            return
        for v in sorted(P):
            if adj[v]:
                passed, evidence = cumulant_test(provider, R, v, cfg)
                if passed:
                    walk(R + (v,), P & adj[v], Q & adj[v], chain + (evidence,))
            P = P - {v}
            Q = Q | {v}

    try:
        walk((), set(range(1, bg.p + 1)), set(), ())
    except BaseException:
        # The closure refers to itself; after a refused order, clear it so the
        # provider's data goes when the caller drops the exception, not at the
        # next full collection.  A normal return leaves the cycle to the
        # collector: freeing the data on every call made each following call
        # regrow the heap and fault its pages in again.
        del walk
        raise
    edges = set(reported)
    diagnostics = [
        {"edge": sorted(e), "source": "merged", "tests": reported[e]}
        for e in sorted(edges, key=lambda s: tuple(sorted(s)))
    ]
    return edges, diagnostics


class _AlwaysNonzero:
    def entry(self, idx) -> float:
        return 1.0


def enumerate_cliques(bg: BidirectedGraph) -> list[frozenset[int]]:
    """All maximal cliques with >= 2 vertices, sorted: the walk with an always-passing gate."""
    _, diagnostics = find_multidirected(_AlwaysNonzero(), bg)
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
    # Bidirected pairs the recursion left uncovered stay in the output as
    # 2-directed edges; dropping them would lose structure the first stage
    # already established.
    multi = set(edges)
    diags = list(diagnostics)
    for pair in sorted(stage.bidirected.pairs, key=lambda s: tuple(sorted(s))):
        if not any(pair <= m for m in edges):
            multi.add(pair)
            diags.append({"edge": sorted(pair), "source": "retained", "tests": []})
    graph = MixedGraph(stage.p, stage.directed, frozenset(multi))
    return DiscoveryResult(graph=graph, B_hat=stage.B_hat, config=cfg, diagnostics=tuple(diags))


def run_mbang(Y: Dataset, stage: FirstStageResult, cfg: DiscoveryConfig | None = None) -> DiscoveryResult:
    """Full pipeline on observations: dedirection by the first stage, then merge.

    The rows of X = Y - B_hat^T Y are centered and standardized before the
    gated search, so the tolerance always applies to standardized cumulants.
    """
    cfg = cfg or DiscoveryConfig()
    if stage.p != Y.p:
        raise ValidationError(
            f"first stage is for p={stage.p} but data has {Y.p} rows"
        )
    X = dedirect(Y, stage.B_hat)
    X = center_rows(X)
    X = standardize_rows(X)
    provider = SampleCumulants(X)
    edges, diagnostics = find_multidirected(provider, stage.bidirected, cfg)
    return _assemble(stage, edges, diagnostics, cfg)


def run_mbang_population(spec: LsemSpec, cfg: DiscoveryConfig | None = None) -> DiscoveryResult:
    """Pipeline driven by exact population cumulants and the oracle first stage.

    The tolerance is forced to ``EXACT_EPS``.  Nothing is standardized:
    scaling never moves a population entry onto or off zero.
    """
    cfg = replace(cfg or DiscoveryConfig(), cumulant_tolerance=EXACT_EPS)
    stage = oracle_first_stage(spec)
    provider = PopulationCumulants.from_spec(spec, dedirected=True)
    edges, diagnostics = find_multidirected(provider, stage.bidirected, cfg)
    return _assemble(stage, edges, diagnostics, cfg)
