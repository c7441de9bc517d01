"""The four initial laws' pgf in mpmath, from their definitions: the one
high-precision reference of test_hitting and test_pathprob."""

import mpmath

from bifrog.laws import Bernoulli, Constant, Poisson


def mp_pgf(law, s):
    """law's pgf at an mpmath s, at the working mpmath precision."""
    if isinstance(law, Constant):
        return s ** law.k
    if isinstance(law, Bernoulli):
        return 1 - law.prob * (1 - s)
    if isinstance(law, Poisson):
        return mpmath.exp(law.mu * (s - 1))
    r = mpmath.mpf(law.r)  # 1 - law.r would round in floats
    return (1 - r) / (1 - r * s)
