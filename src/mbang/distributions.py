"""Zero-mean noise distributions with analytic cumulants and seeded sampling.

Supported families, all shifted to mean zero:

    uniform(a, b)        E[X^k] = ((b-a)/2)^k / (k+1)  for even k, 0 for odd k
    t(df)                rescaled to unit variance; E[X^k] exists for k < df
    gamma(shape, rate)   kappa_k = shape (k-1)! / rate^k
    chi2(df)             = gamma(df/2, 1/2)
    exponential(rate)    = gamma(1, rate)

Uniform and t state their raw moments and derive their cumulants from them;
the gamma family states its cumulants and derives its raw moments.  Asking t
for an order >= df raises, and a value that cannot be computed in floating
point raises NumericalError.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache, wraps

import numpy as np

from .errors import NumericalError, SchemaError, ValidationError
from .graphs import is_finite_real

_FAMILIES = ("uniform", "gamma", "chi2", "exponential", "t")


def moments_from_cumulants(kappa: list[float]) -> list[float]:
    """Raw moments m_0..m_K from cumulants; ``kappa[k]`` is the order-k cumulant
    (index 0 unused)."""
    K = len(kappa) - 1
    m = [1.0] + [0.0] * K
    for r in range(1, K + 1):
        m[r] = sum(math.comb(r - 1, j - 1) * kappa[j] * m[r - j] for j in range(1, r + 1))
    return m


def cumulants_from_moments(m: list[float]) -> list[float]:
    """Inverse of :func:`moments_from_cumulants`; ``m[0]`` must be 1."""
    K = len(m) - 1
    kappa = [0.0] * (K + 1)
    for r in range(1, K + 1):
        kappa[r] = m[r] - sum(
            math.comb(r - 1, j - 1) * kappa[j] * m[r - j] for j in range(1, r)
        )
    return kappa


def _finite(method):
    # A power past the float range raises OverflowError, an underflowed rate**k
    # ZeroDivisionError, and a product or sum of large terms quietly gives inf.
    @wraps(method)
    def wrapper(self, order: int) -> float:
        try:
            value = method(self, order)
        except (OverflowError, ZeroDivisionError):
            value = math.inf
        if not math.isfinite(value):
            what = f"{method.__name__.replace('_', ' ')} of order {order} of {self.dist}{self.params}"
            raise NumericalError(f"{what} cannot be computed in floating point")
        return value

    return wrapper


@dataclass(frozen=True)
class Noise:
    """One noise source: a distribution tag plus parameters, shifted to mean 0."""

    dist: str
    params: tuple[float, ...] = ()

    def __post_init__(self):
        if not all(is_finite_real(x) for x in self.params):
            raise ValidationError(f"{self.dist} parameters must be finite real numbers, got {self.params!r}")
        object.__setattr__(self, "params", tuple(float(x) for x in self.params))
        d, p = self.dist, self.params
        if d == "uniform":
            if len(p) != 2 or not p[0] < p[1] or not math.isfinite(p[1] - p[0]):
                raise ValidationError("uniform needs parameters (a, b) with a < b and a finite width b - a")
        elif d == "gamma":
            if len(p) != 2 or p[0] <= 0 or p[1] <= 0:
                raise ValidationError("gamma needs positive (shape, rate)")
        elif d == "chi2":
            if len(p) != 1 or p[0] <= 0:
                raise ValidationError("chi2 needs a positive degrees-of-freedom parameter")
        elif d == "exponential":
            if len(p) != 1 or p[0] <= 0:
                raise ValidationError("exponential needs a positive rate")
        elif d == "t":
            if len(p) != 1 or p[0] <= 2:
                raise ValidationError("t needs df > 2 (unit-variance rescaling)")
        else:
            raise ValidationError(f"unknown distribution {d!r}; expected one of {_FAMILIES}")

    @property
    def max_cumulant_order(self) -> int | None:
        """Largest available cumulant order, or None when unlimited."""
        if self.dist == "t":
            df = self.params[0]
            return math.ceil(df) - 1
        return None

    def _gamma_shape_rate(self) -> tuple[float, float]:
        if self.dist == "gamma":
            return self.params
        if self.dist == "chi2":
            return self.params[0] / 2.0, 0.5
        if self.dist == "exponential":
            return 1.0, self.params[0]
        raise AssertionError(self.dist)

    @_finite
    def cumulant(self, order: int) -> float:
        """Order-k cumulant of the zero-mean distribution."""
        if order < 1:
            raise ValidationError("cumulant order must be >= 1")
        if order == 1:
            return 0.0
        limit = self.max_cumulant_order
        if limit is not None and order > limit:
            raise ValidationError(
                f"cumulant of order {order} does not exist for {self.dist}{self.params}"
            )
        if self.dist in ("uniform", "t"):
            return _cumulants_from_raw(self, order)[order]
        shape, rate = self._gamma_shape_rate()
        return shape * math.factorial(order - 1) / rate**order

    @_finite
    def raw_moment(self, order: int) -> float:
        """Order-k raw moment E[X^k] of the zero-mean distribution."""
        if order < 0:
            raise ValidationError("moment order must be >= 0")
        if order == 0:
            return 1.0
        if self.dist == "uniform":
            half_width = (self.params[1] - self.params[0]) / 2
            return 0.0 if order % 2 else half_width**order / (order + 1)
        if self.dist == "t":
            return _t_moment(self.params[0], order)
        kappa = [0.0] + [self.cumulant(k) for k in range(1, order + 1)]
        return moments_from_cumulants(kappa)[order]

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        """Draw n independent values; reproducible given the generator state."""
        d, p = self.dist, self.params
        if d == "uniform":
            a, b = p
            return rng.uniform(a, b, size=n) - (a + b) / 2.0
        if d == "t":
            df = p[0]
            return rng.standard_t(df, size=n) / math.sqrt(df / (df - 2.0))
        shape, rate = self._gamma_shape_rate()
        return rng.gamma(shape, 1.0 / rate, size=n) - shape / rate


def _t_moment(df: float, order: int) -> float:
    # Raw moment of the unit-variance t(df); exists only for order < df.
    if order >= df:
        raise ValidationError(f"moment of order {order} does not exist for t({df:g})")
    if order % 2:
        return 0.0
    m = 1.0
    for j in range(1, order // 2 + 1):
        m *= (2 * j - 1) * df / (df - 2 * j)
    return m / (df / (df - 2.0)) ** (order // 2)


@lru_cache(maxsize=None)
def _cumulants_from_raw(noise: Noise, order: int) -> tuple[float, ...]:
    # Cumulants 0..order of a family that states its raw moments.
    return tuple(cumulants_from_moments([noise.raw_moment(r) for r in range(order + 1)]))


PRESETS: dict[str, Noise] = {
    "uniform10": Noise("uniform", (-10.0, 10.0)),
    "uniform5": Noise("uniform", (-5.0, 5.0)),
    "t10": Noise("t", (10.0,)),
    "gamma24": Noise("gamma", (2.0, 4.0)),
    "chi2": Noise("chi2", (2.0,)),
    "exp1": Noise("exponential", (1.0,)),
}


def noise_from_tag(tag: str) -> Noise:
    """Resolve a CLI preset name to its distribution."""
    try:
        return PRESETS[tag]
    except KeyError:
        raise ValidationError(
            f"unknown noise preset {tag!r}; choose from {sorted(PRESETS)}"
        ) from None


def noise_to_json_dict(noise: Noise) -> dict:
    return {"dist": noise.dist, "params": list(noise.params)}


def noise_from_json_dict(obj) -> Noise:
    if not isinstance(obj, dict) or "dist" not in obj:
        raise SchemaError("noise entry must be an object with 'dist' and 'params'")
    try:
        return Noise(str(obj["dist"]), tuple(obj.get("params", ())))
    except ValidationError as exc:
        raise SchemaError(str(exc)) from exc
