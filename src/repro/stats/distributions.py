"""Parameterised probability distributions used by Impressions.

The paper (Table 2) relies on a small zoo of distributions:

* a hybrid **lognormal body + Pareto tail** for file sizes by count,
* a **mixture of two lognormals** for file sizes weighted by contained bytes,
* a **Poisson** model for file count by namespace depth,
* an **inverse-polynomial** model for directory size in files,
* **percentile / categorical** models for extension popularity,
* plain **empirical** distributions for everything read directly from a
  dataset.

Every distribution exposes the same small interface (:class:`Distribution`):
``sample``, ``pdf``, ``cdf``, ``mean`` and a ``params()`` dictionary used for
reproducibility reporting.  Sampling always goes through a caller-supplied
:class:`numpy.random.Generator` so that images are exactly reproducible from a
seed.
"""

from __future__ import annotations

import abc
import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Mapping, Sequence

import numpy as np

from repro.stats.special import log_factorial, ndtr, ndtri, xlogy

__all__ = [
    "Distribution",
    "LognormalDistribution",
    "ParetoDistribution",
    "HybridLognormalPareto",
    "MixtureOfLognormals",
    "ShiftedPoissonDistribution",
    "InversePolynomialDistribution",
    "CategoricalDistribution",
    "EmpiricalDistribution",
]


class Distribution(abc.ABC):
    """Common interface for all parameterised distributions.

    Subclasses are immutable value objects: all parameters are fixed at
    construction time and reported through :meth:`params` so a generated image
    can be reproduced exactly.
    """

    #: short machine-readable name used in reproducibility reports
    name: str = "distribution"

    @abc.abstractmethod
    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """Draw ``size`` independent samples using ``rng``."""

    @abc.abstractmethod
    def pdf(self, x: np.ndarray) -> np.ndarray:
        """Probability density (or mass) at ``x``."""

    @abc.abstractmethod
    def cdf(self, x: np.ndarray) -> np.ndarray:
        """Cumulative distribution function at ``x``."""

    @abc.abstractmethod
    def mean(self) -> float:
        """Analytical mean of the distribution."""

    @abc.abstractmethod
    def params(self) -> Mapping[str, float]:
        """Parameters as a plain dictionary for reproducibility reports."""

    def describe(self) -> str:
        """Human-readable one line description."""
        rendered = ", ".join(f"{key}={value:.6g}" for key, value in self.params().items())
        return f"{self.name}({rendered})"

    def _validate_size(self, size: int) -> None:
        if size < 0:
            raise ValueError(f"sample size must be non-negative, got {size}")


@dataclass(frozen=True)
class LognormalDistribution(Distribution):
    """Lognormal distribution parameterised by the log-space mean and sigma.

    ``mu`` and ``sigma`` are the mean and standard deviation of ``ln(x)``, as
    in the paper (e.g. file-size body µ=9.48, σ=2.46).
    """

    mu: float
    sigma: float
    name: str = field(default="lognormal", init=False)

    def __post_init__(self) -> None:
        if self.sigma <= 0:
            raise ValueError(f"sigma must be positive, got {self.sigma}")

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        self._validate_size(size)
        return rng.lognormal(mean=self.mu, sigma=self.sigma, size=size)

    def pdf(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        out = np.zeros_like(x)
        positive = x > 0
        xs = x[positive]
        coeff = 1.0 / (xs * self.sigma * math.sqrt(2.0 * math.pi))
        out[positive] = coeff * np.exp(-((np.log(xs) - self.mu) ** 2) / (2.0 * self.sigma**2))
        return out

    def cdf(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        out = np.zeros_like(x)
        positive = x > 0
        out[positive] = ndtr((np.log(x[positive]) - self.mu) / self.sigma)
        return out

    def quantile(self, q: np.ndarray) -> np.ndarray:
        """Inverse CDF; useful for stratified sampling and tests."""
        q = np.asarray(q, dtype=float)
        if np.any((q < 0) | (q > 1)):
            raise ValueError("quantiles must lie in [0, 1]")
        return np.exp(self.mu + self.sigma * ndtri(q))

    def mean(self) -> float:
        return math.exp(self.mu + self.sigma**2 / 2.0)

    def median(self) -> float:
        return math.exp(self.mu)

    def params(self) -> Mapping[str, float]:
        return {"mu": self.mu, "sigma": self.sigma}


@dataclass(frozen=True)
class ParetoDistribution(Distribution):
    """Pareto (type I) distribution with shape ``k`` and scale ``xm``.

    Used for the heavy tail of file sizes beyond 512 MB (k=0.91, Xm=512 MB in
    Table 2).
    """

    k: float
    xm: float
    name: str = field(default="pareto", init=False)

    def __post_init__(self) -> None:
        if self.k <= 0:
            raise ValueError(f"shape k must be positive, got {self.k}")
        if self.xm <= 0:
            raise ValueError(f"scale xm must be positive, got {self.xm}")

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        self._validate_size(size)
        # numpy's pareto() samples (X/xm - 1); rescale back to type I support.
        return self.xm * (1.0 + rng.pareto(self.k, size=size))

    def pdf(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        out = np.zeros_like(x)
        support = x >= self.xm
        out[support] = self.k * self.xm**self.k / x[support] ** (self.k + 1)
        return out

    def cdf(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        out = np.zeros_like(x)
        support = x >= self.xm
        out[support] = 1.0 - (self.xm / x[support]) ** self.k
        return out

    def mean(self) -> float:
        if self.k <= 1:
            return math.inf
        return self.k * self.xm / (self.k - 1)

    def params(self) -> Mapping[str, float]:
        return {"k": self.k, "xm": self.xm}


@dataclass(frozen=True)
class HybridLognormalPareto(Distribution):
    """Hybrid file-size model: lognormal body with a Pareto tail.

    With probability ``body_fraction`` (α1 in the paper, default 0.99994) a
    sample is drawn from the lognormal body truncated to values below the tail
    threshold ``tail_xm``; otherwise it is drawn from the Pareto tail starting
    at ``tail_xm``.  This is the model behind Figure 2(c)/(d): the tail
    accounts for the few very large files that dominate the bytes-by-size
    distribution.
    """

    body: LognormalDistribution
    tail: ParetoDistribution
    body_fraction: float
    name: str = field(default="hybrid-lognormal-pareto", init=False)

    def __post_init__(self) -> None:
        if not 0.0 < self.body_fraction <= 1.0:
            raise ValueError(
                f"body_fraction must lie in (0, 1], got {self.body_fraction}"
            )

    @property
    def tail_fraction(self) -> float:
        return 1.0 - self.body_fraction

    @cached_property
    def _body_mass(self) -> float:
        """The body's CDF at the tail threshold, computed once per instance."""
        return float(self.body.cdf(np.asarray([self.tail.xm]))[0])

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        self._validate_size(size)
        if size == 0:
            return np.empty(0, dtype=float)
        from_tail = rng.random(size) >= self.body_fraction
        out = np.empty(size, dtype=float)
        n_tail = int(from_tail.sum())
        n_body = size - n_tail
        if n_body:
            out[~from_tail] = self._sample_truncated_body(rng, n_body)
        if n_tail:
            out[from_tail] = self.tail.sample(rng, n_tail)
        return out

    def _sample_truncated_body(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """Sample the lognormal body truncated to ``[0, tail_xm)``.

        The truncation point is far in the tail of the body (512 MB against a
        median of ~13 KB) so simple rejection sampling converges immediately;
        a CDF-inversion fallback guards pathological parameterisations.
        """
        limit = self.tail.xm
        body_cdf_at_limit = self._body_mass
        if body_cdf_at_limit <= 0.0:
            # The body lies entirely above the tail threshold; inversion only.
            return np.full(size, limit)
        quantiles = rng.random(size) * body_cdf_at_limit
        return self.body.quantile(quantiles)

    def pdf(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        limit = self.tail.xm
        body_mass = max(self._body_mass, 1e-300)
        below = x < limit
        out = np.empty_like(x)
        out[below] = self.body_fraction * self.body.pdf(x[below]) / body_mass
        out[~below] = self.tail_fraction * self.tail.pdf(x[~below])
        return out

    def cdf(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        limit = self.tail.xm
        body_mass = max(self._body_mass, 1e-300)
        below = x < limit
        out = np.empty_like(x)
        out[below] = self.body_fraction * self.body.cdf(x[below]) / body_mass
        out[~below] = self.body_fraction + self.tail_fraction * self.tail.cdf(x[~below])
        return np.clip(out, 0.0, 1.0)

    def mean(self) -> float:
        # Mean of the truncated body via numerical integration over quantiles.
        limit = self.tail.xm
        body_mass = self._body_mass
        if body_mass <= 0:
            body_mean = limit
        else:
            qs = np.linspace(1e-9, body_mass - 1e-12, 4096)
            body_mean = float(np.mean(self.body.quantile(qs)))
        tail_mean = self.tail.mean()
        if math.isinf(tail_mean):
            return math.inf
        return self.body_fraction * body_mean + self.tail_fraction * tail_mean

    def params(self) -> Mapping[str, float]:
        return {
            "body_fraction": self.body_fraction,
            "mu": self.body.mu,
            "sigma": self.body.sigma,
            "k": self.tail.k,
            "xm": self.tail.xm,
        }


@dataclass(frozen=True)
class MixtureOfLognormals(Distribution):
    """Weighted mixture of lognormal components.

    The paper models *file size by containing bytes* with a two-component
    mixture (α1=0.76, µ1=14.83, σ1=2.35; α2=0.24, µ2=20.93, σ2=1.48), which
    captures the pronounced bimodality of the bytes-by-size curve.
    """

    components: tuple[LognormalDistribution, ...]
    weights: tuple[float, ...]
    name: str = field(default="mixture-of-lognormals", init=False)

    def __post_init__(self) -> None:
        if len(self.components) != len(self.weights):
            raise ValueError("components and weights must have equal length")
        if not self.components:
            raise ValueError("mixture needs at least one component")
        if any(weight < 0 for weight in self.weights):
            raise ValueError("mixture weights must be non-negative")
        total = sum(self.weights)
        if not math.isclose(total, 1.0, rel_tol=1e-6, abs_tol=1e-6):
            raise ValueError(f"mixture weights must sum to 1, got {total}")

    @classmethod
    def from_parameters(
        cls,
        weights: Sequence[float],
        mus: Sequence[float],
        sigmas: Sequence[float],
    ) -> "MixtureOfLognormals":
        """Build a mixture from parallel parameter sequences."""
        if not len(weights) == len(mus) == len(sigmas):
            raise ValueError("weights, mus and sigmas must have equal length")
        components = tuple(
            LognormalDistribution(mu=mu, sigma=sigma) for mu, sigma in zip(mus, sigmas)
        )
        return cls(components=components, weights=tuple(float(w) for w in weights))

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        self._validate_size(size)
        if size == 0:
            return np.empty(0, dtype=float)
        choices = rng.choice(len(self.components), size=size, p=np.asarray(self.weights))
        out = np.empty(size, dtype=float)
        for index, component in enumerate(self.components):
            mask = choices == index
            count = int(mask.sum())
            if count:
                out[mask] = component.sample(rng, count)
        return out

    def pdf(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        out = np.zeros_like(x)
        for weight, component in zip(self.weights, self.components):
            out += weight * component.pdf(x)
        return out

    def cdf(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        out = np.zeros_like(x)
        for weight, component in zip(self.weights, self.components):
            out += weight * component.cdf(x)
        return out

    def mean(self) -> float:
        return sum(w * c.mean() for w, c in zip(self.weights, self.components))

    def params(self) -> Mapping[str, float]:
        rendered: dict[str, float] = {}
        for index, (weight, component) in enumerate(zip(self.weights, self.components), 1):
            rendered[f"alpha{index}"] = weight
            rendered[f"mu{index}"] = component.mu
            rendered[f"sigma{index}"] = component.sigma
        return rendered


@dataclass(frozen=True)
class ShiftedPoissonDistribution(Distribution):
    """Poisson distribution over ``offset + Poisson(lam)``.

    Models the file count by namespace depth (λ=6.49 in Table 2).  The offset
    defaults to zero; a non-zero offset lets callers model depths that start
    at 1 instead of 0.
    """

    lam: float
    offset: int = 0
    name: str = field(default="poisson", init=False)

    def __post_init__(self) -> None:
        if self.lam <= 0:
            raise ValueError(f"lambda must be positive, got {self.lam}")

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        self._validate_size(size)
        return rng.poisson(self.lam, size=size) + self.offset

    def pmf(self, k: np.ndarray) -> np.ndarray:
        """scipy's ``poisson.pmf(k - offset, lam)``, value for value.

        It is scipy's formula on exact ports of the special functions it
        calls (:mod:`repro.stats.special`), so generation imports no scipy.
        """
        k = np.asarray(k) - self.offset
        support = (k >= 0) & (np.floor(k) == k)
        out = np.where(np.isnan(k), np.nan, 0.0)
        ks = np.asarray(k, dtype=float)[support]
        out[support] = np.clip(np.exp(xlogy(ks, self.lam) - log_factorial(ks) - self.lam), 0, 1)
        return out[()]

    def pdf(self, x: np.ndarray) -> np.ndarray:
        return self.pmf(x)

    def cdf(self, x: np.ndarray) -> np.ndarray:
        """scipy's ``poisson.cdf(floor(x) - offset, lam)``, value for value (see :meth:`pmf`)."""
        from scipy.special import pdtr

        k = np.floor(np.asarray(x)) - self.offset
        below = np.clip(pdtr(k, self.lam), 0, 1)
        inside = np.where(np.isposinf(k), 1.0, below)
        outside = np.where(np.isnan(k), np.nan, 0.0)
        return np.where(k >= 0, inside, outside)[()]

    def mean(self) -> float:
        return self.lam + self.offset

    def params(self) -> Mapping[str, float]:
        return {"lambda": self.lam, "offset": float(self.offset)}


@dataclass(frozen=True)
class InversePolynomialDistribution(Distribution):
    """Discrete distribution with mass proportional to ``1 / (k + offset)**degree``.

    The paper models directory size in files with an inverse polynomial of
    degree 2 and offset 2.36: most directories hold few files and the
    probability of holding ``k`` files falls off polynomially.  Support is the
    integers ``0 .. max_value``.
    """

    degree: float
    offset: float
    max_value: int = 10_000
    name: str = field(default="inverse-polynomial", init=False)

    def __post_init__(self) -> None:
        if self.degree <= 0:
            raise ValueError(f"degree must be positive, got {self.degree}")
        if self.offset <= 0:
            raise ValueError(f"offset must be positive, got {self.offset}")
        if self.max_value < 1:
            raise ValueError(f"max_value must be at least 1, got {self.max_value}")

    def _weights(self) -> np.ndarray:
        support = np.arange(0, self.max_value + 1, dtype=float)
        weights = 1.0 / (support + self.offset) ** self.degree
        return weights / weights.sum()

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        self._validate_size(size)
        return rng.choice(self.max_value + 1, size=size, p=self._weights())

    def pmf(self, k: np.ndarray) -> np.ndarray:
        k = np.asarray(k)
        weights = self._weights()
        out = np.zeros(k.shape, dtype=float)
        valid = (k >= 0) & (k <= self.max_value) & (k == np.floor(k))
        out[valid] = weights[k[valid].astype(int)]
        return out

    def pdf(self, x: np.ndarray) -> np.ndarray:
        return self.pmf(x)

    def cdf(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x)
        cumulative = np.cumsum(self._weights())
        clipped = np.clip(np.floor(x).astype(int), -1, self.max_value)
        out = np.zeros(x.shape, dtype=float)
        positive = clipped >= 0
        out[positive] = cumulative[clipped[positive]]
        return out

    def mean(self) -> float:
        weights = self._weights()
        return float(np.dot(np.arange(self.max_value + 1), weights))

    def params(self) -> Mapping[str, float]:
        return {
            "degree": self.degree,
            "offset": self.offset,
            "max_value": float(self.max_value),
        }


class CategoricalDistribution(Distribution):
    """Discrete distribution over arbitrary labels with explicit weights.

    Used for extension popularity (percentile values for the top-20
    extensions plus an ``others`` bucket) and for the special-directory bias
    model.
    """

    name = "categorical"

    def __init__(self, labels: Sequence[str], weights: Sequence[float]) -> None:
        if len(labels) != len(weights):
            raise ValueError("labels and weights must have equal length")
        if not labels:
            raise ValueError("categorical distribution needs at least one label")
        weights_array = np.asarray(weights, dtype=float)
        if np.any(weights_array < 0):
            raise ValueError("weights must be non-negative")
        total = float(weights_array.sum())
        if total <= 0:
            raise ValueError("weights must sum to a positive value")
        self._labels = tuple(labels)
        self._probabilities = weights_array / total

    @property
    def labels(self) -> tuple[str, ...]:
        return self._labels

    @property
    def probabilities(self) -> np.ndarray:
        return self._probabilities.copy()

    def probability_of(self, label: str) -> float:
        """Return the probability mass assigned to ``label`` (0 if absent)."""
        try:
            index = self._labels.index(label)
        except ValueError:
            return 0.0
        return float(self._probabilities[index])

    def sample_labels(self, rng: np.random.Generator, size: int) -> list[str]:
        """Sample ``size`` labels."""
        self._validate_size(size)
        indices = rng.choice(len(self._labels), size=size, p=self._probabilities)
        return [self._labels[index] for index in indices]

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """Sample label *indices* (the numeric interface of Distribution)."""
        self._validate_size(size)
        return rng.choice(len(self._labels), size=size, p=self._probabilities)

    def pdf(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x)
        out = np.zeros(x.shape, dtype=float)
        valid = (x >= 0) & (x < len(self._labels)) & (x == np.floor(x))
        out[valid] = self._probabilities[x[valid].astype(int)]
        return out

    def cdf(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x)
        cumulative = np.cumsum(self._probabilities)
        clipped = np.clip(np.floor(x).astype(int), -1, len(self._labels) - 1)
        out = np.zeros(x.shape, dtype=float)
        positive = clipped >= 0
        out[positive] = cumulative[clipped[positive]]
        return out

    def mean(self) -> float:
        return float(np.dot(np.arange(len(self._labels)), self._probabilities))

    def params(self) -> Mapping[str, float]:
        return {label: float(p) for label, p in zip(self._labels, self._probabilities)}


class EmpiricalDistribution(Distribution):
    """Distribution backed directly by an observed sample.

    Sampling draws with replacement from the observations; the CDF is the
    empirical CDF.  This is the representation Impressions uses when a user
    supplies a raw dataset rather than a parameterised curve.
    """

    name = "empirical"

    def __init__(self, observations: Sequence[float]) -> None:
        data = np.asarray(observations, dtype=float)
        if data.size == 0:
            raise ValueError("empirical distribution needs at least one observation")
        self._sorted = np.sort(data)

    @property
    def observations(self) -> np.ndarray:
        return self._sorted.copy()

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        self._validate_size(size)
        return rng.choice(self._sorted, size=size, replace=True)

    def pdf(self, x: np.ndarray) -> np.ndarray:
        # Density of a discrete empirical distribution: mass at observed points.
        x = np.asarray(x, dtype=float)
        out = np.zeros_like(x)
        unique, counts = np.unique(self._sorted, return_counts=True)
        mass = counts / self._sorted.size
        for value, probability in zip(unique, mass):
            out[np.isclose(x, value)] = probability
        return out

    def cdf(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        return np.searchsorted(self._sorted, x, side="right") / self._sorted.size

    def quantile(self, q: np.ndarray) -> np.ndarray:
        q = np.asarray(q, dtype=float)
        if np.any((q < 0) | (q > 1)):
            raise ValueError("quantiles must lie in [0, 1]")
        return np.quantile(self._sorted, q)

    def mean(self) -> float:
        return float(self._sorted.mean())

    def params(self) -> Mapping[str, float]:
        return {
            "n": float(self._sorted.size),
            "mean": float(self._sorted.mean()),
            "std": float(self._sorted.std()),
            "min": float(self._sorted.min()),
            "max": float(self._sorted.max()),
        }
