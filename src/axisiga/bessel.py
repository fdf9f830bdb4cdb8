"""Bessel functions of the first kind, their roots, and pillbox frequencies.

Self-contained analytic reference for cavity benchmarks: J_m by ascending
power series (small arguments) or Miller's backward recurrence with the
normalization J_0 + 2 sum_k J_{2k} = 1 (everything else), roots chi_{mn} and
chi'_{mn} by a pi/8 bracketing scan plus safeguarded Newton, and the
closed-form TM/TE angular frequencies of a right circular cylindrical cavity.
The root search runs on numpy arrays: one series/Miller sweep gives
J_{m-1}, J_m and J_{m+1} at all scan points, and all brackets are refined
together.  Each point runs its own recurrence and each root is frozen once
converged, so a root does not depend on how many are searched.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

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


def _check_order(m):
    if not isinstance(m, int) or m < 0 or m > _M_MAX:
        raise BesselError(f"order {m} outside supported range [0, {_M_MAX}]")


def bessel_j(m: int, x: float) -> float:
    """J_m(x) for integer 0 <= m <= 60 and 0 <= x <= 200 (rel. error ~1e-13)."""
    _check_order(m)
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


def _series_sweep(nu: int, x):
    """J_nu at the points x by the ascending series, each point stopped
    where the scalar series stops."""
    half = 0.5 * x
    # numpy's power can round differently from the scalar series' float **
    term = np.array([h**nu for h in half.tolist()]) / float(math.factorial(nu))
    total = term.copy()
    live = np.ones(len(x), dtype=bool)
    for j in range(1, 200):
        term = term * (-(half * half) / (j * (nu + j)))
        total = np.where(live, total + term, total)
        live &= ~(np.abs(term) < 1e-18 * np.maximum(np.abs(total), 1e-300))
        if not live.any():
            break
    return total


def _miller_sweep(m: int, x):
    """Rows J_{m-1}, J_m, J_{m+1} at the points x by Miller's backward
    recurrence; each point starts at the order the scalar recurrence
    starts J_m at and runs its arithmetic, so the J_m row equals
    bessel_j's."""
    top = np.maximum(m, x)
    start = (top + 16 + 12.0 * np.sqrt(top + 1.0)).astype(int)
    start += start % 2
    order = np.argsort(-start, kind="stable")
    x, start = x[order], start[order]
    ks = np.arange(start[0], 0, -1)
    started = np.searchsorted(-start, -ks, side="right").tolist()
    fkp1, fk = np.zeros(len(x)), np.zeros(len(x))   # J_{k+1}, J_k
    even_sum = np.zeros(len(x))   # sum of unnormalized J_{2j}, j >= 1
    rows = np.zeros((3, len(x)))
    seeded = 0
    for k, j in zip(ks.tolist(), started):
        if j > seeded:            # points whose start order is k
            fk[seeded:j] = 1e-30
            seeded = j
        # fkp1 becomes the unnormalized J_{k-1}, then the names swap
        np.subtract((2.0 * k / x[:j]) * fk[:j], fkp1[:j], out=fkp1[:j])
        fkp1, fk = fk, fkp1
        if 0 <= k - m <= 2:
            rows[k - m] = fk
        if k - 1 > 0 and (k - 1) % 2 == 0:
            even_sum[:j] += fk[:j]
        if np.abs(fk[:j]).max() > 1e280:
            scale = np.where(np.abs(fk[:j]) > 1e280, 1e-280, 1.0)
            for a in (fk, fkp1, even_sum):
                a[:j] *= scale
            rows[:, :j] *= scale
    out = np.empty_like(rows)
    out[:, order] = rows / (fk + 2.0 * even_sum)
    return out


def _bessel_triple(m: int, x):
    """J_{m-1}, J_m and J_{m+1} at the points 0 < x <= 200 (an array), by
    the series for each order where bessel_j uses it and one Miller sweep
    for the rest; J_{-1} = -J_1."""
    out = np.empty((3, len(x)))
    miller = (x > 2.0) & (x > 0.5 * (m - 1))
    if miller.any():
        out[:, miller] = _miller_sweep(m, x[miller])
    for row, nu in enumerate((m - 1, m, m + 1)):
        series = (x <= 2.0) | (x <= 0.5 * nu)
        if nu >= 0 and series.any():
            out[row, series] = _series_sweep(nu, x[series])
    if m == 0:
        out[0] = -out[2]
    return out


def _value_and_slope(m: int, kind: str, x):
    """J_m and J_m' (kind 'J') or J_m' and J_m'' (kind 'Jprime') at x."""
    below, j, above = _bessel_triple(m, x)
    jp = 0.5 * (below - above)
    if kind == "J":
        return j, jp
    return jp, -jp / x - (1.0 - (m / x) ** 2) * j


def bessel_roots(m: int, count: int, kind: str = "J") -> list[float]:
    """The first ``count`` positive roots of J_m ('J') or J_m' ('Jprime').

    A pi/8 scan brackets them, only as far as the count-th root can lie
    unless that falls short; safeguarded Newton (bisection where a step
    leaves its bracket) refines all brackets at once, each until its step
    is below 1e-10 x or its bracket below 1e-13.  The trivial root of J_m'
    at x = 0 (m >= 2, and J_m itself for m >= 1) is excluded: indexing
    starts from the first strictly positive root.
    """
    _check_order(m)
    if count < 1:
        raise BesselError("root count (index n) must be >= 1")
    if kind not in ("J", "Jprime"):
        raise BesselError(f"unknown kind {kind!r}")
    step = math.pi / 8.0
    grid = np.arange(1e-6 if m == 0 else max(1e-6, 0.5 * m), _X_MAX, step)
    # the n-th root of J_m lies near (n + m/2 - 1/4) pi (McMahon), and
    # that of J_m' below it: scan past (count + m/2 + 1) pi only if the
    # roots found fall short
    reach = np.searchsorted(grid, (count + 0.5 * m + 1.0) * math.pi) + 1
    f = np.empty(0)
    for end in (min(reach, len(grid)), len(grid)):
        f = np.concatenate([f, _value_and_slope(m, kind, grid[len(f):end])[0]])
        prev, cur = f[:-1], f[1:]   # a bracket ends at a sign change or 0
        lo = np.flatnonzero((prev != 0.0) & (
            (cur == 0.0) | ((cur > 0) != (prev > 0))))
        if len(lo) >= count:
            break
    else:
        raise BesselError(f"bracket for root {count} of order {m} not found "
                          f"below {_X_MAX}")
    lo = lo[:count]
    a, b, fa, fb = grid[lo], grid[lo + 1], f[lo], f[lo + 1]
    x = b - fb * (b - a) / (fb - fa)      # secant start
    roots = np.empty(count)
    live = np.arange(count)
    for _ in range(50):
        fx, slope = _value_and_slope(m, kind, x)
        left = (fx > 0) == (fa > 0)       # the root lies right of x
        a, fa = np.where(left, x, a), np.where(left, fx, fa)
        b = np.where(left, b, x)
        with np.errstate(divide="ignore", invalid="ignore"):
            new = x - fx / slope
        # x itself is a bracket end now: a converged step may land on it
        newton = (a <= new) & (new <= b)
        new[~newton] = 0.5 * (a + b)[~newton]
        new[fx == 0.0] = x[fx == 0.0]
        done = ((fx == 0.0) | (b - a <= 1e-13)
                | newton & (np.abs(new - x) <= 1e-10 * x))
        roots[live[done]] = new[done]
        keep = ~done
        live, x, a, b, fa = live[keep], new[keep], a[keep], b[keep], fa[keep]
        if not len(live):
            return roots.tolist()
    raise BesselError(f"root refinement of order {m} did not converge")


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
