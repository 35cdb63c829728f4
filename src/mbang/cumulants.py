"""Both cumulant engines: the subset recursion over moments and the population oracle.

With m(A) = E[ prod_{a in A} Z_{i_a} ] for a set A of positions of an index
tuple (i_1, ..., i_k), and s0 the first position of S, the joint cumulant obeys

    kappa(S) = m(S) - sum over T strictly inside S with s0 in T of kappa(T) m(S - T)

(McCullagh 1987, ch. 2-3; Smith 1995): 2^(k-1) - 1 terms at a level of k
positions, and 3^(k-1) - 2^(k-1) products for one order-k entry (2059 at k = 8).
Plugging empirical moments of centered rows in gives the sample estimator
(``cumulant_from_moments``, also behind the lazy ``discovery.SampleCumulants``);
plugging analytic source cumulants into the multilinear expansion of
X = (I - B^T)^-1 eps gives the population oracle (``PopulationCumulants``).
One builder fills the dense tensor from either.  Orders stop at 8:
``Noise.cumulant`` of t10 ends at order 9, and a larger clique is refused by
name, which the benchmark under perfbench/ scores as a correct refusal.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, replace

import numpy as np

from .errors import ValidationError
from .sem import Dataset, LsemSpec, extended_total_effects

MAX_ORDER = 8


def _matrix(data) -> np.ndarray:
    if isinstance(data, Dataset):
        return data.values
    arr = np.asarray(data, dtype=float)
    if arr.ndim != 2:
        raise ValidationError("expected a p x n matrix")
    return arr


@dataclass
class MomentTable:
    """Symmetric moment lookup keyed by sorted multi-index (1-based labels)."""

    values: dict[tuple[int, ...], float]

    def get(self, idx) -> float:
        key = tuple(sorted(int(v) for v in idx))
        try:
            return self.values[key]
        except KeyError:
            raise ValidationError(f"moment for index {key} missing from table") from None


def sample_moments(data, k_max: int) -> MomentTable:
    """Empirical moments E[prod Z_j] for every sorted multi-index up to order k_max."""
    if k_max < 1:
        raise ValidationError("k_max must be >= 1")
    mat = _matrix(data)
    p, n = mat.shape
    if n < 1:
        raise ValidationError("dataset is empty")
    values: dict[tuple[int, ...], float] = {}
    for k in range(1, k_max + 1):
        for idx in itertools.combinations_with_replacement(range(1, p + 1), k):
            prod = mat[idx[0] - 1].copy()
            for v in idx[1:]:
                prod *= mat[v - 1]
            values[idx] = float(prod.mean())
    return MomentTable(values)


def cumulant_from_moments(moments: MomentTable, idx) -> float:
    """Joint cumulant of the (possibly repeated) indices from a moment table.

    ``moments`` is anything with ``get(idx)``.  Position subsets are bitmasks;
    the 2^k - 1 moments are fetched once, then kappa is filled in increasing
    order over the masks holding position 0, so each kappa(T) read is known.
    """
    idx = tuple(int(v) for v in idx)
    k = len(idx)
    if not 1 <= k <= MAX_ORDER:
        raise ValidationError(f"cumulant order must be in 1..{MAX_ORDER}, got {k}")
    full = (1 << k) - 1
    m = [0.0] * (full + 1)
    for mask in range(1, full + 1):
        m[mask] = moments.get(tuple(idx[pos] for pos in range(k) if mask >> pos & 1))
    kappa = [0.0] * (full + 1)
    for mask in range(1, full + 1, 2):
        # T = {0} | u for each u strictly inside rest = S - {0}, and S - T = rest ^ u.
        rest, u, value = mask ^ 1, mask ^ 1, m[mask]
        while u:
            u = (u - 1) & rest
            value -= kappa[u | 1] * m[rest ^ u]
        kappa[mask] = value
    return kappa[full]


@dataclass(frozen=True)
class CumulantTensor:
    """Order-k symmetric tensor stored sparsely by sorted multi-index."""

    order: int
    p: int
    values: dict[tuple[int, ...], float]

    def entry(self, idx) -> float:
        key = tuple(sorted(int(v) for v in idx))
        if len(key) != self.order:
            raise ValidationError(f"index {key} has wrong order for tensor of order {self.order}")
        try:
            return self.values[key]
        except KeyError:
            raise ValidationError(f"index {key} outside tensor support") from None


def _tensor(make_entry, p: int, k: int) -> CumulantTensor:
    """Every sorted order-k entry over labels 1..p.  ``make_entry()`` returns
    the entry function; it runs after the order check, so a refused order
    computes no moment."""
    if not 2 <= k <= MAX_ORDER:
        raise ValidationError(f"tensor order must be in 2..{MAX_ORDER}, got {k}")
    entry = make_entry()
    values = {
        idx: entry(idx) for idx in itertools.combinations_with_replacement(range(1, p + 1), k)
    }
    return CumulantTensor(k, p, values)


def sample_cumulant_tensor(data, k: int) -> CumulantTensor:
    """Plug-in cumulant tensor of centered data (center rows before calling)."""
    mat = _matrix(data)
    return _tensor(
        lambda: functools.partial(cumulant_from_moments, sample_moments(mat, k)), mat.shape[0], k
    )


class PopulationCumulants:
    """Exact model cumulants served entry by entry.

    Multilinearity over the extended system: independent sources contribute
    only on the diagonal, so the entry at (i_1, ..., i_k) is
    sum_s kappa_k(eps_s) * prod_l W[i_l, s] with W the total-effects matrix.
    The zero pattern therefore matches the k-trek structure of the graph
    exactly (structural zeros are exact 0.0, not round-off).
    """

    def __init__(self, W: np.ndarray, sources):
        self._W = W
        self._sources = tuple(sources)
        self._kappas: dict[int, np.ndarray] = {}

    @classmethod
    def from_spec(cls, spec: LsemSpec, dedirected: bool = True) -> "PopulationCumulants":
        """Oracle for a model; with ``dedirected`` the direct effects are zeroed
        first, matching the X = Y - B^T Y step of the pipeline."""
        if dedirected:
            spec = replace(spec, B=np.zeros_like(spec.B))
        return cls(*extended_total_effects(spec))

    def entry(self, idx) -> float:
        rows = [int(v) - 1 for v in idx]
        k = len(rows)
        if not 1 <= k <= MAX_ORDER:
            raise ValidationError(f"cumulant order must be in 1..{MAX_ORDER}, got {k}")
        if k not in self._kappas:
            self._kappas[k] = np.array([src.cumulant(k) for src in self._sources])
        return float(np.sum(self._kappas[k] * np.prod(self._W[rows, :], axis=0)))


def population_cumulant_tensor(spec: LsemSpec, k: int) -> CumulantTensor:
    """Exact cumulant tensor of the model's observed vector."""
    return _tensor(
        lambda: PopulationCumulants.from_spec(spec, dedirected=False).entry, spec.graph.p, k
    )


def tensor_to_json_dict(t: CumulantTensor) -> dict:
    return {
        "order": t.order,
        "p": t.p,
        "entries": [
            {"idx": list(idx), "value": t.values[idx]} for idx in sorted(t.values)
        ],
    }
