"""Bessel functions of the first kind, their roots, and pillbox frequencies.

Self-contained analytic reference for cavity benchmarks: J_m by ascending
power series (small arguments) or Miller's backward recurrence with the
normalization J_0 + 2 sum_k J_{2k} = 1 (everything else), roots chi_{mn} and
chi'_{mn} by a pi/8 bracketing scan plus bisection, and the closed-form TM/TE
angular frequencies of a right circular cylindrical cavity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

EPS0 = 8.8541878128e-12   # vacuum permittivity, F/m
MU0 = 4.0e-7 * math.pi    # vacuum permeability, H/m

_M_MAX = 60
_X_MAX = 200.0


class BesselError(ValueError):
    pass


def _bessel_series(m: int, x: float) -> float:
    """Ascending power series; accurate for small x (no cancellation issues)."""
    half = 0.5 * x
    term = half**m / math.factorial(m)
    total = term
    for j in range(1, 200):
        term *= -(half * half) / (j * (m + j))
        total += term
        if abs(term) < 1e-18 * max(abs(total), 1e-300):
            break
    return total


def _bessel_miller(m: int, x: float) -> float:
    """Backward recurrence from a high starting order, with renormalization."""
    start = int(max(m, x) + 16 + 12.0 * math.sqrt(max(m, x) + 1.0))
    if start % 2:
        start += 1
    fkp1 = 0.0           # unnormalized J_{k+1}
    fk = 1e-30           # unnormalized J_k, seeded at k = start
    even_sum = 0.0       # 2 * sum of unnormalized J_{2j}, j >= 1
    target = 0.0
    for k in range(start, 0, -1):
        fkm1 = (2.0 * k / x) * fk - fkp1
        fkp1, fk = fk, fkm1  # fk is now the unnormalized J_{k-1}
        if k - 1 == m:
            target = fk
        if (k - 1) > 0 and (k - 1) % 2 == 0:
            even_sum += 2.0 * fk
        if abs(fk) > 1e280:
            fk *= 1e-280
            fkp1 *= 1e-280
            even_sum *= 1e-280
            target *= 1e-280
    # normalization: J_0 + 2*(J_2 + J_4 + ...) = 1, fk holds unnormalized J_0
    return target / (fk + even_sum)


def bessel_j(m: int, x: float) -> float:
    """J_m(x) for integer 0 <= m <= 60 and 0 <= x <= 200 (rel. error ~1e-13)."""
    if not isinstance(m, (int,)) or m < 0 or m > _M_MAX:
        raise BesselError(f"order {m} outside supported range [0, {_M_MAX}]")
    if not (0.0 <= x <= _X_MAX):
        raise BesselError(f"argument {x} outside supported range [0, {_X_MAX}]")
    if x == 0.0:
        return 1.0 if m == 0 else 0.0
    if x <= 2.0 or x <= 0.5 * m:
        return _bessel_series(m, x)
    return _bessel_miller(m, x)


def bessel_j_prime(m: int, x: float) -> float:
    """J_m'(x) via the identity J_m' = (J_{m-1} - J_{m+1}) / 2."""
    if m == 0:
        return -bessel_j(1, x)
    return 0.5 * (bessel_j(m - 1, x) - bessel_j(m + 1, x))


@dataclass(frozen=True)
class BesselRoot:
    """n-th positive root of J_m (kind 'J') or J_m' (kind 'Jprime')."""

    m: int
    n: int
    kind: str
    value: float


def bessel_roots(m: int, count: int, kind: str = "J") -> list[float]:
    """The first ``count`` positive roots of J_m ('J') or J_m' ('Jprime'):
    one pi/8 scan, each sign change it passes bisected to 1e-13.

    The trivial root of J_m' at x = 0 (m >= 2, and J_m itself for m >= 1)
    is excluded: indexing starts from the first strictly positive root.
    """
    if count < 1:
        raise BesselError("root count (index n) must be >= 1")
    if kind not in ("J", "Jprime"):
        raise BesselError(f"unknown kind {kind!r}")
    f = (lambda x: bessel_j(m, x)) if kind == "J" else (lambda x: bessel_j_prime(m, x))
    step = math.pi / 8.0
    x_prev = 1e-6 if m == 0 else max(1e-6, 0.5 * m)
    f_prev = f(x_prev)
    roots = []
    x = x_prev
    while x < _X_MAX - step:
        x += step
        fx = f(x)
        if f_prev == 0.0:
            f_prev = fx
            x_prev = x
            continue
        if fx == 0.0 or (fx > 0) != (f_prev > 0):
            a, b, fa = x_prev, x, f_prev
            for _ in range(200):
                c = 0.5 * (a + b)
                fc = f(c)
                if fc == 0.0 or (b - a) < 1e-13:
                    a = b = c
                    break
                if (fc > 0) == (fa > 0):
                    a, fa = c, fc
                else:
                    b = c
            roots.append(0.5 * (a + b))
            if len(roots) == count:
                return roots
        x_prev, f_prev = x, fx
    raise BesselError(f"bracket for root {count} of order {m} not found below {_X_MAX}")


def bessel_root(m: int, n: int, kind: str = "J") -> BesselRoot:
    """chi_{mn} or chi'_{mn}: the last of ``bessel_roots(m, n, kind)``."""
    return BesselRoot(m, n, kind, bessel_roots(m, n, kind)[-1])


@dataclass(frozen=True)
class PillboxSpec:
    """Right circular cylindrical cavity: radius R and length L in meters."""

    radius: float
    length: float
    eps: float = EPS0
    mu: float = MU0

    def __post_init__(self):
        if not (0 < self.radius < math.inf and 0 < self.length < math.inf):
            raise BesselError("cavity radius and length must be positive "
                              "and finite")
        if not (0 < self.eps < math.inf and 0 < self.mu < math.inf):
            raise BesselError("material constants must be positive and finite")


def pillbox_frequency(kind: str, m: int, n: int, q: int, spec: PillboxSpec) -> float:
    """Analytic angular frequency omega (rad/s) of mode (m, n, q).

    TM modes use roots of J_m and allow q >= 0; TE modes use roots of J_m'
    and require q >= 1.
    """
    if kind == "TM":
        if q < 0:
            raise BesselError("TM modes need q >= 0")
        chi = bessel_root(m, n, "J").value
    elif kind == "TE":
        if q < 1:
            raise BesselError("TE modes need q >= 1")
        chi = bessel_root(m, n, "Jprime").value
    else:
        raise BesselError(f"unknown cavity mode kind {kind!r}")
    return _omega(chi, q, spec)


def _omega(chi: float, q: int, spec: PillboxSpec) -> float:
    """Angular frequency of the mode with radial root chi, axial index q."""
    c = 1.0 / math.sqrt(spec.eps * spec.mu)
    return c * math.sqrt((chi / spec.radius) ** 2 + (q * math.pi / spec.length) ** 2)


def pillbox_spectrum(spec: PillboxSpec, m: int, count: int,
                     n_max: int = 12, q_max: int = 40) -> list[dict]:
    """The ``count`` lowest angular frequencies of azimuthal order m, sorted.

    Returns dicts with keys kind, m, n, q, omega.  ``n_max``/``q_max`` bound
    the enumeration; a BesselError is raised if they truncate the list (the
    largest kept frequency must beat every excluded candidate).
    """
    chi = bessel_roots(m, n_max, "J")
    chi_prime = bessel_roots(m, n_max + 1, "Jprime")
    entries = []
    for n in range(1, n_max + 1):
        for kind, roots, q_min in (("TM", chi, 0), ("TE", chi_prime, 1)):
            for q in range(q_min, q_max + 1):
                entries.append({"kind": kind, "m": m, "n": n, "q": q,
                                "omega": _omega(roots[n - 1], q, spec)})
    entries.sort(key=lambda e: e["omega"])
    if len(entries) < count:
        raise BesselError("enumeration bounds too small for requested count")
    cutoff = entries[count - 1]["omega"]
    # smallest frequency any excluded (n > n_max or q > q_max) mode could have
    min_excluded = min(_omega(chi_prime[n_max], 0, spec),
                       _omega(0.0, q_max + 1, spec))
    if min_excluded < cutoff:
        raise BesselError("enumeration bounds truncate the spectrum; raise n_max/q_max")
    return entries[:count]
