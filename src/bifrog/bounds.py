"""Bounds on the critical survival parameter of the frog model on T_{d1,d2}.

Lower bounds dominate the process by a two-type branching process whose
mean matrix has spectral radius p sqrt((1 + d1(E+1))(1 + d2(E+1)) / kappa)
with E the mean frog count; the process cannot survive while the radius
stays below 1, which pins p_c above

    lb = sqrt( (d1+1)(d2+1) / ((d1(E+1)+1)(d2(E+1)+1)) ).

The upper bound is the unique root in (0, 1) of the increasing function

    f(p) = alpha beta (1 + q(1-alpha)) (1 + q(1-beta)) - 1/(d1 d2),

with q the activation probability of the law.  Its finite-path refinement
f_n = phi_n^{1/n} - 1/(d1 d2), with
phi_n = q [alpha beta (1 + q(1-beta))]^n [1 + q(1-alpha)]^{n-1}, has the
closed form

    f_n(p) = alpha beta (1 + q(1-alpha)) (1 + q(1-beta)) (q / (1 + q(1-alpha)))^{1/n}
             - 1/(d1 d2).

The last factor is at most 1 and rises to 1 as n grows, so f_n <= f and
the root of f_n decreases to the root of f.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .hitting import _check_p, hitting_pair
from .laws import Constant, InitLaw, describe_law
from .tree import TreeParams, _check_int, _check_real

#: four-decimal reference values (lb_alves, lb_biregular, ub_root) per row
#: of the standard reference grid, all with eta == 1
TABLE_REFERENCE = {
    (1, 2): (0.6000, 0.6325, 0.8588),
    (1, 3): (0.5714, 0.6172, 0.8039),
    (1, 4): (0.5556, 0.6086, 0.7749),
    (2, 2): (0.6000, 0.6000, 0.7500),
    (2, 3): (0.5714, 0.5855, 0.7063),
    (2, 4): (0.5556, 0.5774, 0.6828),
    (3, 100): (0.5025, 0.5359, 0.5771),
    (3, 1000): (0.5002, 0.5347, 0.5743),
    (4, 10000): (0.5000, 0.5271, 0.5572),
}
TABLE_ROWS = tuple(TABLE_REFERENCE)
#: table1's comparison tolerance: half a unit in the references' fourth decimal
TABLE_TOL = 5e-5


#: bisection bracket width of ub_root, ub_root_n and bounds_report
ROOT_TOL = 1e-12
#: bisection bracket on (0, 1)
_BRACKET = (1e-9, 1.0 - 1e-9)
#: halvings that take the bracket width below ROOT_TOL
_BISECT_STEPS = math.ceil(math.log2((_BRACKET[1] - _BRACKET[0]) / ROOT_TOL))
#: disk_mean_offspring sums shells k <= _DISK_K_MAX
_DISK_K_MAX = 400


class NoRootError(ValueError):
    """The bracketing function does not change sign on (0, 1)."""


def _check_q(q: float) -> float:
    return _check_real("activation probability q", q, 0, 1, "(]")


def _check_not_11(t: TreeParams) -> None:
    if max(t.d1, t.d2) < 2:
        raise ValueError("T_{1,1} is the line; these bounds need d1 >= 2 or d2 >= 2")


def lb_biregular(t: TreeParams, mean_eta: float) -> float:
    """Lower bound on p_c from the two-type first-moment matrix."""
    _check_not_11(t)
    e = _check_real("mean frog count", mean_eta, 0, math.inf, "()")
    d1, d2 = t.d1, t.d2
    x1, x2 = d1 * (e + 1) + 1, d2 * (e + 1) + 1
    if math.isinf(x1 * x2):  # the product overflows past a mean near 1e154
        return math.sqrt((d1 + 1) / x1) * math.sqrt((d2 + 1) / x2)
    return math.sqrt((d1 + 1) * (d2 + 1) / (x1 * x2))


def lb_alves(big_d: int, mean_eta: float) -> float:
    """Single-type lower bound using only the maximum degree big_d + 1."""
    big_d = _check_int("max branching number big_d", big_d, 2, math.inf)
    e = _check_real("mean frog count", mean_eta, 0, math.inf, "()")
    return (big_d + 1) / (big_d * (e + 1) + 1)


def spectral_radius(t: TreeParams, mean_eta: float, p: float) -> float:
    """p sqrt((1 + d1(E+1))(1 + d2(E+1)) / kappa), the spectral radius
    sqrt(m12 m21) of the anti-diagonal two-type mean matrix; equals 1 at
    lb_biregular."""
    p = _check_p(p)
    e = _check_real("mean frog count", mean_eta, 0, math.inf, "()")
    m12 = p * (1.0 + t.d1 * (e + 1.0)) / (t.d1 + 1)
    m21 = p * (1.0 + t.d2 * (e + 1.0)) / (t.d2 + 1)
    return math.sqrt(m12 * m21)


def _gap(t: TreeParams, q: float, p: float, inv_n: float) -> float:
    """f_n at inv_n = 1/n, and f at inv_n = 0.0, where the last factor is 1.0."""
    a, b = hitting_pair(t, p)
    y = 1.0 + q * (1.0 - a)
    return a * b * y * (1.0 + q * (1.0 - b)) * (q / y) ** inv_n - 1.0 / (t.d1 * t.d2)


def f_value(t: TreeParams, q: float, p: float) -> float:
    """Criticality gap whose positive sign certifies survival is possible."""
    return _gap(t, _check_q(q), p, 0.0)


def _bisect_increasing(f, what: str) -> float:
    lo, hi = _BRACKET
    flo, fhi = f(lo), f(hi)
    if not (flo < 0.0 < fhi):
        raise NoRootError(f"{what} does not change sign on ({lo!r}, {hi!r}): "
                          f"endpoint values are {flo:.6g} and {fhi:.6g}")
    for _ in range(_BISECT_STEPS):
        mid = 0.5 * (lo + hi)
        if f(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def ub_root(t: TreeParams, q: float = 1.0) -> float:
    """Upper bound on p_c: the root of f(t, q, .) in (0, 1)."""
    _check_not_11(t)
    q = _check_q(q)
    return _bisect_increasing(lambda p: _gap(t, q, p, 0.0), what="f")


def ub_root_n(t: TreeParams, q: float, n: int) -> float:
    """Root of the finite-n refinement f_n; decreases toward ub_root in n.

    For small q and small n, f_n stays negative on all of (0, 1) and no
    root below 1 exists; a NoRootError names that condition rather than
    inventing a value.
    """
    _check_not_11(t)
    q = _check_q(q)
    inv_n = 1 / _check_int("n", n, 1, math.inf)
    return _bisect_increasing(lambda p: _gap(t, q, p, inv_n), what=f"f_n (q={q:g}, n={n})")


def ub_closed(t: TreeParams) -> float:
    """Closed-form upper bound (1/2) sqrt(kappa / (d1 d2)), valid for q = 1."""
    _check_not_11(t)
    return 0.5 * math.sqrt(t.kappa / (t.d1 * t.d2))


@dataclass(frozen=True)
class DiskSeries:
    """Truncated mean offspring of the activation-ball process.

    value is the partial sum over shell radii k <= _DISK_K_MAX; remainder
    is a certified upper bound on the shells cut off, so value + remainder
    brackets the true mean from above.
    """

    value: float
    remainder: float


def disk_mean_offspring(law: InitLaw, big_d: int, p: float) -> DiskSeries:
    """Mean number of vertices whose lifetime-ball covers a fixed vertex.

    The series sums (big_d+1) big_d^{k-1} P[ball radius >= k] over shells
    k >= 1, where P[ball radius >= k] = law.cpgf(p^k).  Since cpgf(z) <=
    mean * z, the shells past the last one summed add at most
    mean (big_d+1) p^{k+1} big_d^k / (1 - big_d p).
    Requires big_d * p < 1, otherwise the series diverges.
    """
    big_d = _check_int("big_d", big_d, 1, math.inf)
    p = _check_p(p)
    if big_d * p >= 1.0:
        raise ValueError(f"series needs p < 1/big_d = {1 / big_d:.6g}, got p = {p:g}")
    total = 0.0
    shell = float(big_d + 1)
    k_done = 0
    for k in range(1, _DISK_K_MAX + 1):
        pk = p ** k
        if pk == 0.0:
            break
        total += shell * law.cpgf(pk)
        shell *= big_d
        k_done = k
    geom = (big_d + 1) * p / (1.0 - big_d * p)
    return DiskSeries(value=total, remainder=law.mean * geom * (big_d * p) ** k_done)


@dataclass(frozen=True)
class BoundsReport:
    d1: int
    d2: int
    eta: str
    mean_eta: float
    q: float
    lb_alves: float
    lb_biregular: float
    ub_root: float
    ub_closed: float | None
    root_iterations: int
    tol: float


def bounds_report(t: TreeParams, law: InitLaw) -> BoundsReport:
    _check_not_11(t)
    return BoundsReport(
        d1=t.d1, d2=t.d2, eta=describe_law(law),
        mean_eta=law.mean, q=law.q,
        lb_alves=lb_alves(max(t.d1, t.d2), law.mean),
        lb_biregular=lb_biregular(t, law.mean),
        ub_root=ub_root(t, q=law.q),
        ub_closed=ub_closed(t) if law.q == 1.0 else None,
        root_iterations=_BISECT_STEPS, tol=ROOT_TOL)


def table1() -> list:
    """Bounds for the nine standard rows with eta == 1."""
    one = Constant(1)
    return [bounds_report(TreeParams(d1, d2), one) for d1, d2 in TABLE_ROWS]
