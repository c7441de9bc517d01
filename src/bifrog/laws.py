"""Laws for the number of sleeping frogs placed on each vertex.

Every law exposes the probability generating function and its complement
cpgf(z) = 1 - pgf(1 - z) in a closed form free of cancellation at small z
(the chance that a vertex keeps a frog when each is kept with probability
z), the mean, point masses (P[eta = 0] is read off them), the activation
probability q = P[eta >= 1], and a vectorized sampler with its scalar
twin draw (which reads the same random numbers).
Laws with eta == 0 almost surely are rejected: the process would be empty.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .tree import _check_int, _check_real

#: largest k a Constant law takes: sample returns it as an int64
_CONSTANT_K_MAX = 2 ** 63 - 1
#: largest mu numpy's Poisson sampler takes, int64 max less ten of its square roots
_POISSON_MU_MAX = 9.223372006484771e18


class InitLaw:
    """Base class for per-vertex frog-count distributions."""

    #: largest k with P[eta = k] > 0, or None for unbounded support
    support_max: int | None = None

    def pgf(self, s: float) -> float:
        raise NotImplementedError

    def cpgf(self, z: float) -> float:
        """1 - pgf(1 - z) for z in [0, 1].  The four laws here override it
        with closed forms that keep full relative precision; this plain form,
        left to a law defined elsewhere, is 0.0 once z is below about
        1.1e-16."""
        return 1.0 - self.pgf(1.0 - z)

    @property
    def mean(self) -> float:
        raise NotImplementedError

    @property
    def p0(self) -> float:
        """Mass at zero, P[eta = 0]."""
        return self.pmf(0)

    @property
    def q(self) -> float:
        """Activation probability P[eta >= 1]."""
        return 1.0 - self.p0

    def pmf(self, k: int) -> float:
        raise NotImplementedError

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        raise NotImplementedError

    def draw(self, rng: np.random.Generator) -> int:
        """One variate, reading exactly the stream sample(rng, 1) reads."""
        return int(self.sample(rng, 1)[0])


@dataclass(frozen=True)
class Constant(InitLaw):
    k: int

    def __post_init__(self):
        object.__setattr__(self, "k", _check_int("Constant law's k", self.k, 1, _CONSTANT_K_MAX))
        object.__setattr__(self, "support_max", self.k)

    def pgf(self, s):
        return s ** self.k

    def cpgf(self, z):
        # log1p(-z) is -inf at z = 1, which math.log1p refuses
        return 1.0 if z >= 1.0 else -math.expm1(self.k * math.log1p(-z))

    @property
    def mean(self):
        return float(self.k)

    def pmf(self, k):
        return 1.0 if k == self.k else 0.0

    def sample(self, rng, size):
        return np.full(size, self.k, dtype=np.int64)


@dataclass(frozen=True)
class Bernoulli(InitLaw):
    prob: float

    def __post_init__(self):
        object.__setattr__(self, "prob", _check_real("Bernoulli law's prob", self.prob, 0, 1, "(]"))
        object.__setattr__(self, "support_max", 1)

    def pgf(self, s):
        return 1.0 - self.prob * (1.0 - s)

    def cpgf(self, z):
        return self.prob * z

    @property
    def mean(self):
        return self.prob

    def pmf(self, k):
        if k == 0:
            return 1.0 - self.prob
        if k == 1:
            return self.prob
        return 0.0

    def sample(self, rng, size):
        return (rng.random(size) < self.prob).astype(np.int64)

    def draw(self, rng):
        return int(rng.random() < self.prob)


@dataclass(frozen=True)
class Poisson(InitLaw):
    mu: float

    def __post_init__(self):
        object.__setattr__(self, "mu", _check_real("Poisson law's mu", self.mu, 0,
                                                   _POISSON_MU_MAX, "(]"))

    def pgf(self, s):
        return math.exp(self.mu * (s - 1.0))

    def cpgf(self, z):
        return -math.expm1(-self.mu * z)

    @property
    def mean(self):
        return self.mu

    def pmf(self, k):
        if k < 0:
            return 0.0
        return math.exp(k * math.log(self.mu) - self.mu - math.lgamma(k + 1))

    def sample(self, rng, size):
        return rng.poisson(self.mu, size).astype(np.int64)

    def draw(self, rng):
        return int(rng.poisson(self.mu))


@dataclass(frozen=True)
class Geometric(InitLaw):
    """P[eta = k] = (1 - r) r^k on {0, 1, 2, ...}."""

    r: float

    def __post_init__(self):
        object.__setattr__(self, "r", _check_real("Geometric law's r", self.r, 0, 1, "()"))

    def pgf(self, s):
        return (1.0 - self.r) / (1.0 - self.r * s)

    def cpgf(self, z):
        return self.r * z / (1.0 - self.r + self.r * z)

    @property
    def mean(self):
        return self.r / (1.0 - self.r)

    def pmf(self, k):
        if k < 0:
            return 0.0
        return (1.0 - self.r) * self.r ** k

    def sample(self, rng, size):
        # numpy's geometric counts trials to first success on {1, 2, ...}
        return rng.geometric(1.0 - self.r, size).astype(np.int64) - 1

    def draw(self, rng):
        return int(rng.geometric(1.0 - self.r)) - 1


#: spec name -> (law class, argument type, parameter field)
_LAWS = {
    "const": (Constant, int, "k"),
    "bernoulli": (Bernoulli, float, "prob"),
    "poisson": (Poisson, float, "mu"),
    "geometric": (Geometric, float, "r"),
}
_LAW_NAMES = " | ".join(f"{name}:{field}" for name, (_, _, field) in _LAWS.items())


def parse_law(text: str) -> InitLaw:
    """Parse a law spec string such as 'const:2' or 'poisson:1.5'."""
    name, sep, arg = text.partition(":")
    if not sep or not arg:
        raise ValueError(f"malformed law spec {text!r}; expected one of {_LAW_NAMES}")
    name = name.strip().lower()
    if name not in _LAWS:
        raise ValueError(f"unknown law {name!r}; expected one of {_LAW_NAMES}")
    cls, kind, _ = _LAWS[name]
    try:
        return cls(kind(arg))
    except ValueError as exc:
        raise ValueError(f"bad law spec {text!r}: {exc}") from None


def describe_law(law: InitLaw) -> str:
    """The spec parse_law reads back as law: repr keeps every digit of a
    float, and an integral float keeps its short form ('poisson:2')."""
    for name, (cls, kind, field) in _LAWS.items():
        if isinstance(law, cls):
            return f"{name}:{repr(kind(getattr(law, field))).removesuffix('.0')}"
    return type(law).__name__
