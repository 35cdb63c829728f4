"""Cumulant tensors: the signed partition sum over moments.

The order-k joint cumulant of coordinates (i_1, ..., i_k) is

    sum over set partitions (A_1, ..., A_L) of the k index positions of
    (-1)^(L-1) (L-1)!  prod_l  E[ prod_{a in A_l} Z_{i_a} ]

Plugging empirical moments into that sum gives the sample estimator; plugging
analytic source cumulants into the multilinear expansion of X = (I - B^T)^-1 eps
gives the population oracle.  Orders up to 8 are supported (Bell(8) = 4140
partitions), which covers every clique the discovery stage can touch at
desk scale.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import SchemaError, ValidationError
from .sem import Dataset, LsemSpec, extended_total_effects

MAX_ORDER = 8


@lru_cache(maxsize=None)
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
    """Joint cumulant of the (possibly repeated) indices from a moment table."""
    idx = tuple(int(v) for v in idx)
    k = len(idx)
    if not 1 <= k <= MAX_ORDER:
        raise ValidationError(f"cumulant order must be in 1..{MAX_ORDER}, got {k}")
    total = 0.0
    for partition in set_partitions(k):
        L = len(partition)
        term = -math.factorial(L - 1) if L % 2 == 0 else math.factorial(L - 1)
        for block in partition:
            term *= moments.get(tuple(idx[pos] for pos in block))
        total += term
    return total


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
