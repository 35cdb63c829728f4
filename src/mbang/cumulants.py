"""Cumulant tensors: the subset recursion over moments.

With m(A) = E[ prod_{a in A} Z_{i_a} ] for a set A of positions of an index
tuple (i_1, ..., i_k), and s0 the first position of S, the joint cumulant obeys

    kappa(S) = m(S) - sum over T strictly inside S with s0 in T of kappa(T) m(S - T)

(McCullagh 1987, ch. 2-3; Smith 1995): 2^(k-1) - 1 terms at a level of k
positions, and 3^(k-1) - 2^(k-1) products for one order-k entry (2059 at k = 8).
Plugging empirical moments in gives the sample estimator; plugging analytic
source cumulants into the multilinear expansion of X = (I - B^T)^-1 eps gives
the population oracle.  Orders stop at 8: ``Noise.cumulant`` of t10 ends at
order 9, and a larger clique is refused by name, which the benchmark under
perfbench/ scores as a correct refusal.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .errors import SchemaError, ValidationError
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


def sample_cumulant_tensor(data, k: int) -> CumulantTensor:
    """Plug-in cumulant tensor of centered data (center rows before calling)."""
    if not 2 <= k <= MAX_ORDER:
        raise ValidationError(f"tensor order must be in 2..{MAX_ORDER}, got {k}")
    mat = _matrix(data)
    p = mat.shape[0]
    moments = sample_moments(mat, k)
    values = {
        idx: cumulant_from_moments(moments, idx)
        for idx in itertools.combinations_with_replacement(range(1, p + 1), k)
    }
    return CumulantTensor(k, p, values)


def population_cumulant_entry(W: np.ndarray, kappas: np.ndarray, idx) -> float:
    """One entry of sum_s kappa_k(eps_s) * prod_l W[i_l - 1, s]."""
    rows = W[[int(v) - 1 for v in idx], :]
    return float(np.sum(kappas * np.prod(rows, axis=0)))


def source_cumulants(sources, k: int) -> np.ndarray:
    return np.array([src.cumulant(k) for src in sources])


def population_cumulant_tensor(spec: LsemSpec, k: int) -> CumulantTensor:
    """Exact cumulant tensor of the model's observed vector.

    Multilinearity over the extended system: independent sources contribute
    only on the diagonal, so the entry at (i_1, ..., i_k) is
    sum_s kappa_k(eps_s) * prod_l T[i_l, s] with T the total-effects matrix.
    The zero pattern therefore matches the k-trek structure of the graph
    exactly (structural zeros are exact 0.0, not round-off).
    """
    if not 2 <= k <= MAX_ORDER:
        raise ValidationError(f"tensor order must be in 2..{MAX_ORDER}, got {k}")
    W, sources = extended_total_effects(spec)
    kappas = source_cumulants(sources, k)
    p = spec.graph.p
    values = {
        idx: population_cumulant_entry(W, kappas, idx)
        for idx in itertools.combinations_with_replacement(range(1, p + 1), k)
    }
    return CumulantTensor(k, p, values)


def tensor_to_json_dict(t: CumulantTensor) -> dict:
    return {
        "order": t.order,
        "p": t.p,
        "entries": [
            {"idx": list(idx), "value": t.values[idx]} for idx in sorted(t.values)
        ],
    }


def tensor_from_json_dict(obj) -> CumulantTensor:
    if not isinstance(obj, dict):
        raise SchemaError("tensor document must be a JSON object")
    try:
        order = int(obj["order"])
        p = int(obj["p"])
        values = {
            tuple(int(v) for v in entry["idx"]): float(entry["value"])
            for entry in obj["entries"]
        }
    except (KeyError, TypeError, ValueError) as exc:
        raise SchemaError(f"malformed tensor document: {exc}") from exc
    for idx in values:
        if len(idx) != order or tuple(sorted(idx)) != idx:
            raise SchemaError(f"tensor entry index {idx} must be sorted and of length {order}")
    return CumulantTensor(order, p, values)
