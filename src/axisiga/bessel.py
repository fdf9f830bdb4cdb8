"""Bessel functions of the first kind, their roots, and pillbox frequencies.

Analytic reference for cavity benchmarks: J_m, J_m' and the roots chi_{mn}
and chi'_{mn} come from scipy.special, imported on first use, for any
integer order m >= 0 and finite argument; on top of them sit the
closed-form TM/TE angular frequencies of a right circular cylindrical
cavity and its sorted spectrum.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

EPS0 = 8.8541878128e-12   # vacuum permittivity, F/m
MU0 = 4.0e-7 * math.pi    # vacuum permeability, H/m


class BesselError(ValueError):
    pass


def _check(m, x=0.0) -> int:
    """The order m as an int, if it is an integer >= 0 and x is finite."""
    try:
        m_int = operator.index(m)
    except TypeError:
        raise BesselError(f"order {m} is not an integer") from None
    if m_int < 0:
        raise BesselError(f"order {m} is negative")
    if not math.isfinite(x):
        raise BesselError(f"argument {x} is not finite")
    return m_int


# scipy.special is imported where it is used: no other module needs it, and
# importing it (about 0.06 s) would land on every study and on import axisiga

def bessel_j(m: int, x: float) -> float:
    """J_m(x) for integer m >= 0 and finite x."""
    m = _check(m, x)
    from scipy.special import jv
    return float(jv(m, x))


def bessel_j_prime(m: int, x: float) -> float:
    """J_m'(x) for integer m >= 0 and finite x."""
    m = _check(m, x)
    from scipy.special import jvp
    return float(jvp(m, x))


@dataclass(frozen=True)
class BesselRoot:
    """n-th positive root of J_m (kind 'J') or J_m' (kind 'Jprime')."""

    m: int
    n: int
    kind: str
    value: float


def bessel_roots(m: int, count: int, kind: str = "J") -> list[float]:
    """The first ``count`` positive roots of J_m ('J') or J_m' ('Jprime');
    a root does not depend on how many are asked for.  The trivial root at
    x = 0 of J_m (m >= 1) and J_m' (m >= 2) is excluded."""
    m = _check(m)
    if count < 1:
        raise BesselError("root count (index n) must be >= 1")
    if kind not in ("J", "Jprime"):
        raise BesselError(f"unknown kind {kind!r}")
    from scipy.special import jn_zeros, jnp_zeros
    return (jn_zeros if kind == "J" else jnp_zeros)(m, count).tolist()


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
    chi = bessel_roots(m, n_max + 1, "J")
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
    # smallest frequency any excluded (n > n_max or q > q_max) mode could
    # have; roots grow with n, and chi' comes first for m >= 1, chi for m = 0
    min_excluded = min(_omega(min(chi[n_max], chi_prime[n_max]), 0, spec),
                       _omega(min(chi[0], chi_prime[0]), q_max + 1, spec))
    if min_excluded < cutoff:
        raise BesselError("enumeration bounds truncate the spectrum; raise n_max/q_max")
    return entries[:count]
