"""Acceptance gate: six end-to-end criteria with pinned tolerances.

Each test prints exactly one ``CRITERION k ... PASS/FAIL`` line (to the real
stdout, so it survives pytest capture) and then asserts.  Tolerances and
runtime budgets are fixed; do not relax them here.
"""

import sys
import time

import numpy as np
import pytest

from axisiga.assembly import _element_rule
from axisiga.bessel import bessel_j, bessel_j_prime, bessel_root
from axisiga.derham import DeRhamComplex2D, eta_forward, eta_inverse, exactness_report
from axisiga.geometry import pullback, push_forward, quarter_annulus, rectangle
from axisiga.splines import KnotVector, SplineSpace1D
from axisiga.studies import (
    StudyConfig,
    run_pillbox_study,
    run_source_study,
)


def _verdict(num: int, label: str, ok: bool, detail: str):
    line = f"CRITERION {num} ({label}): {'PASS' if ok else 'FAIL'} — {detail}"
    print(line, file=sys.__stdout__, flush=True)
    assert ok, line


def _complex(p, nel):
    s = lambda: SplineSpace1D(KnotVector.uniform(p, nel))
    return DeRhamComplex2D(s(), s())


def test_criterion_1_exactness_suite():
    t0 = time.time()
    worst_norm = 0.0
    ranks_ok = True
    for p in (1, 2, 3):
        for nel in (1, 2, 4):
            for m in (1, 2, 26):
                rep = exactness_report(_complex(p, nel), m)
                worst_norm = max(worst_norm, rep["norm_CG"], rep["norm_DC"])
                ranks_ok &= (rep["dim_ker_G"] == 0
                             and rep["dim_ker_C"] == rep["rank_G"]
                             and rep["dim_ker_D"] == rep["rank_C"]
                             and rep["rank_D"] == rep["dim_Z3"])
    dt = time.time() - t0
    ok = worst_norm <= 1e-12 and ranks_ok and dt < 30
    _verdict(1, "discrete exactness", ok,
             f"max operator-composition norm {worst_norm:.2e} (tol 1e-12), "
             f"rank equalities {'hold' if ranks_ok else 'VIOLATED'}, "
             f"{dt:.1f} s (budget 30 s)")


def test_criterion_2_pillbox_frequencies():
    t0 = time.time()
    cfg = StudyConfig(study="pillbox", degrees=(3,), subdivisions=(32,),
                      modes=(26,), eigs=10)
    rep = run_pillbox_study(cfg)
    errs = [r["rel_error"] for r in rep.rows
            if str(r["quantity"]).startswith("omega_")]
    spurious = [r["value"] for r in rep.rows
                if r["quantity"] == "spurious_count"]
    dt = time.time() - t0
    ok = (len(errs) == 10 and max(errs) <= 1e-4
          and spurious == [0] and dt < 300)
    _verdict(2, "pillbox m=26 frequencies", ok,
             f"10 lowest frequencies, max rel err {max(errs):.2e} "
             f"(tol 1e-4), spurious below 11th analytic: {spurious[0]}, "
             f"{dt:.1f} s (budget 300 s)")


def test_criterion_3_eigenvalue_rate():
    t0 = time.time()
    cfg = StudyConfig(study="pillbox", degrees=(2, 3),
                      subdivisions=(4, 8, 16, 32), modes=(1,), eigs=1,
                      target="TE,3,4")
    rep = run_pillbox_study(cfg)
    rates = {r["p"]: r["value"] for r in rep.rows
             if r["quantity"] == "rate_target"}
    dt = time.time() - t0
    ok = all(rates[p] >= 2 * p - 0.3 for p in (2, 3)) and dt < 600
    _verdict(3, "TE(1,3,4) eigenvalue convergence", ok,
             f"fitted rates p=2: {rates[2]:.2f} (need >= 3.7), "
             f"p=3: {rates[3]:.2f} (need >= 5.7), "
             f"{dt:.1f} s (budget 600 s)")


def test_criterion_4_source_convergence():
    t0 = time.time()
    modes = (1, -1, 2, -2, 3, -3)
    cfg2 = StudyConfig(study="source", degrees=(2, 3),
                       subdivisions=(2, 4, 8, 16), modes=modes, gamma=2.0)
    rep2 = run_source_study(cfg2)
    cfg_h = StudyConfig(study="source", degrees=(2, 3),
                        subdivisions=(2, 4, 8, 16), modes=modes, gamma=0.5)
    rep_h = run_source_study(cfg_h)
    rates2 = {r["p"]: r["value"] for r in rep2.rows
              if r["quantity"] == "rate_B_error"}
    rates_h = {r["p"]: r["value"] for r in rep_h.rows
               if r["quantity"] == "rate_B_error"}
    gauge = max(r["value"] for rep in (rep2, rep_h) for r in rep.rows
                if r["quantity"] == "gauge_residual")
    dt = time.time() - t0
    smooth_ok = all(rates2[p] >= p - 0.25 for p in (2, 3))
    ceiling_ok = rates_h[3] <= rates_h[2] + 0.3
    ok = smooth_ok and ceiling_ok and gauge <= 1e-10 and dt < 900
    _verdict(4, "magnetostatic source convergence", ok,
             f"smooth rates p=2: {rates2[2]:.2f}, p=3: {rates2[3]:.2f} "
             f"(need >= p-0.25); low-regularity rates {rates_h[2]:.2f}/"
             f"{rates_h[3]:.2f} (ceiling gap {rates_h[3] - rates_h[2]:+.2f} "
             f"<= 0.3); max gauge residual {gauge:.1e} (tol 1e-10), "
             f"{dt:.1f} s (budget 900 s)")


def _j_integral(m, x, npts=2000):
    tau = np.linspace(0.0, np.pi, npts)
    return float(np.trapezoid(np.cos(m * tau - x * np.sin(tau)), tau) / np.pi)


def _jp_integral(m, x):
    if m == 0:
        return -_j_integral(1, x)
    return 0.5 * (_j_integral(m - 1, x) - _j_integral(m + 1, x))


def _oracle_root(m, n, kind, step=0.11):
    f = ((lambda x: _j_integral(m, x)) if kind == "J"
         else (lambda x: _jp_integral(m, x)))
    x_prev = 1e-6 if m == 0 else max(1e-6, 0.5 * m)
    f_prev, found, x = f(x_prev), 0, x_prev
    while x < 200:
        x += step
        fx = f(x)
        if (fx > 0) != (f_prev > 0):
            found += 1
            if found == n:
                a, b, fa = x_prev, x, f_prev
                while b - a > 1e-12:
                    c = 0.5 * (a + b)
                    if (f(c) > 0) == (fa > 0):
                        a, fa = c, f(c)
                    else:
                        b = c
                return 0.5 * (a + b)
        x_prev, f_prev = x, fx
    raise RuntimeError("oracle bracket not found")


def test_criterion_5_bessel_oracle():
    residual = 0.0
    oracle_gap = 0.0
    for m, n, kind in ((0, 1, "J"), (1, 1, "Jprime"), (1, 3, "Jprime"),
                       (26, 1, "Jprime")):
        chi = bessel_root(m, n, kind).value
        f = bessel_j if kind == "J" else bessel_j_prime
        residual = max(residual, abs(f(m, chi)))
        oracle_gap = max(oracle_gap, abs(chi - _oracle_root(m, n, kind)))
    value_gap = max(abs(bessel_j(m, float(x)) - _j_integral(m, float(x)))
                    for m in range(0, 31, 5)
                    for x in np.linspace(0.0, 60.0, 9))
    ok = residual <= 1e-12 and oracle_gap <= 1e-11 and value_gap <= 1e-9
    _verdict(5, "Bessel oracle", ok,
             f"max |f(chi)| {residual:.1e} (tol 1e-12), bisection-oracle gap "
             f"{oracle_gap:.1e} (tol 1e-11), integral-representation gap "
             f"{value_gap:.1e} (tol 1e-9)")


def test_criterion_6_property_suites():
    rng = np.random.default_rng(2024)
    # partition of unity: 1000 random (degree, mesh, point) triples
    pu = 0.0
    spaces = {(p, ne): SplineSpace1D(KnotVector.uniform(p, ne))
              for p in range(1, 6) for ne in range(1, 9)}
    for _ in range(1000):
        p, ne = int(rng.integers(1, 6)), int(rng.integers(1, 9))
        _, vals = spaces[(p, ne)].eval_basis(float(rng.uniform(0, 1)))
        pu = max(pu, abs(vals.sum() - 1.0))
    # derivative vs central finite difference (C^1 fields, h = 1e-6)
    dfd = 0.0
    h = 1e-6
    for _ in range(1000):
        p, ne = int(rng.integers(2, 5)), int(rng.integers(1, 9))
        s = spaces[(p, ne)]
        c = rng.standard_normal(s.num_basis)
        x = float(rng.uniform(2 * h, 1 - 2 * h))
        if min(abs(x - b) for b in np.linspace(0, 1, ne + 1)) < 1e-4:
            continue
        i, d = s.eval_basis_deriv(x)
        exact = float(c[i:i + p + 1] @ d)
        fd = (s.eval_field(c, np.array([x + h]))[0]
              - s.eval_field(c, np.array([x - h]))[0]) / (2 * h)
        dfd = max(dfd, abs(exact - fd) / max(1.0, abs(exact)))
    # Gauss exactness on degree-(2n-1) monomials over [0,1]
    gauss = 0.0
    for _ in range(1000):
        n = int(rng.integers(1, 25))
        k = int(rng.integers(0, 2 * n))
        xs, ws = _element_rule(np.array([0.0, 1.0]), n)
        gauss = max(gauss, abs(float(ws @ xs**k) - 1.0 / (k + 1)))
    # pullback/push-forward round-trips on a curved and an affine map
    geos = (quarter_annulus(1.0, 2.0), rectangle(0.0, 1.0, 4.0, 5.0))
    pb = 0.0
    for _ in range(1000):
        geo = geos[int(rng.integers(2))]
        kind = ("0", "1", "1*", "2")[int(rng.integers(4))]
        xi = rng.uniform(0.05, 0.95, 2)
        v = (float(rng.standard_normal()) if kind in ("0", "2")
             else rng.standard_normal(2))
        back = push_forward(kind, geo, xi, pullback(kind, geo, xi, v))
        pb = max(pb, float(np.abs(np.asarray(back) - np.asarray(v)).max()))
    # eta round-trips across all form degrees and signed modes
    eta = 0.0
    for _ in range(250):  # 250 draws x 4 degrees = 1000 cases
        m = int(rng.integers(1, 30)) * int(rng.choice([-1, 1]))
        rho = rng.uniform(0.05, 2.0, 4)
        for k in (0, 1, 2, 3):
            shape = (4,) if k in (0, 3) else (4, 3)
            tilde = rng.standard_normal(shape)
            back = eta_forward(m, k, rho, eta_inverse(m, k, rho, tilde))
            eta = max(eta, float(np.abs(back - tilde).max()
                                 / max(1.0, np.abs(tilde).max())))
    ok = (pu <= 1e-14 and dfd <= 1e-7 and gauss <= 1e-13
          and pb <= 1e-13 and eta <= 1e-13)
    _verdict(6, "randomized property suites", ok,
             f"partition of unity {pu:.1e} (tol 1e-14), derivative-vs-FD "
             f"{dfd:.1e} (tol 1e-7), Gauss exactness {gauss:.1e} (tol 1e-13), "
             f"pullback round-trip {pb:.1e} (tol 1e-13), eta round-trip "
             f"{eta:.1e} (tol 1e-13)")
