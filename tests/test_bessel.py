import math

import numpy as np
import pytest
from scipy.special import jn_zeros, jnp_zeros

from axisiga import bessel
from axisiga.bessel import (
    BesselError,
    PillboxSpec,
    bessel_j,
    bessel_j_prime,
    bessel_root,
    bessel_roots,
    pillbox_frequency,
    pillbox_spectrum,
)


def bessel_j_integral(m: int, x: float, npts: int = 2000) -> float:
    """Independent oracle: (1/pi) int_0^pi cos(m tau - x sin tau) d tau."""
    tau = np.linspace(0.0, np.pi, npts)
    f = np.cos(m * tau - x * np.sin(tau))
    return float(np.trapezoid(f, tau) / np.pi)


def bessel_jp_integral(m: int, x: float) -> float:
    if m == 0:
        return -bessel_j_integral(1, x)
    return 0.5 * (bessel_j_integral(m - 1, x) - bessel_j_integral(m + 1, x))


class TestValues:
    def test_at_zero(self):
        assert bessel_j(0, 0.0) == 1.0
        for m in (1, 2, 10, 60):
            assert bessel_j(m, 0.0) == 0.0

    def test_first_j0_zero(self):
        assert abs(bessel_j(0, 2.404825557695773)) <= 1e-12

    def test_recurrence_identity(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            m = int(rng.integers(1, 40))
            x = float(rng.uniform(0.5, 120.0))
            lhs = bessel_j(m - 1, x) + bessel_j(m + 1, x)
            rhs = 2 * m / x * bessel_j(m, x)
            scale = max(abs(lhs), abs(rhs), 1e-30)
            # the identity amplifies cancellation where J_m is near a zero
            assert abs(lhs - rhs) <= 1e-11 * max(scale, abs(bessel_j(m, x)) * 2 * m / x + 1e-15)

    def test_integral_representation_oracle(self):
        for m in range(0, 31, 3):
            for x in np.linspace(0.0, 60.0, 13):
                ref = bessel_j_integral(m, float(x))
                assert abs(bessel_j(m, float(x)) - ref) <= 1e-9

    def test_out_of_range(self):
        with pytest.raises(BesselError):
            bessel_j(61, 1.0)
        with pytest.raises(BesselError):
            bessel_j(2, 201.0)
        with pytest.raises(BesselError):
            bessel_j(2, -1.0)

    def test_derivative_identity_vs_finite_difference(self):
        h = 1e-7
        for m, x in ((0, 3.0), (1, 5.0), (7, 11.0), (26, 30.0)):
            fd = (bessel_j(m, x + h) - bessel_j(m, x - h)) / (2 * h)
            assert bessel_j_prime(m, x) == pytest.approx(fd, abs=1e-6)


def _oracle_root(m, n, kind, step=0.11):
    """Independent bisection using the integral-representation values."""
    f = (lambda x: bessel_j_integral(m, x)) if kind == "J" \
        else (lambda x: bessel_jp_integral(m, x))
    x_prev = 1e-6 if m == 0 else max(1e-6, 0.5 * m)
    f_prev = f(x_prev)
    found = 0
    x = x_prev
    while x < 200:
        x += step
        fx = f(x)
        if (fx > 0) != (f_prev > 0):
            found += 1
            if found == n:
                a, b, fa = x_prev, x, f_prev
                while b - a > 1e-12:
                    c = 0.5 * (a + b)
                    fc = f(c)
                    if (fc > 0) == (fa > 0):
                        a, fa = c, fc
                    else:
                        b = c
                return 0.5 * (a + b)
        x_prev, f_prev = x, fx
    raise RuntimeError("oracle bracket not found")


class TestRoots:
    @pytest.mark.parametrize("m,n,kind", [
        (0, 1, "J"), (1, 1, "Jprime"), (1, 3, "Jprime"), (26, 1, "Jprime")])
    def test_benchmark_roots(self, m, n, kind):
        root = bessel_root(m, n, kind)
        f = bessel_j if kind == "J" else bessel_j_prime
        assert abs(f(m, root.value)) <= 1e-12
        # sign change across a tight bracket
        assert f(m, root.value - 1e-10) * f(m, root.value + 1e-10) < 0
        # independent bisection-from-scan oracle
        assert abs(root.value - _oracle_root(m, n, kind)) <= 1e-11

    def test_reference_values(self):
        assert bessel_root(0, 1, "J").value == pytest.approx(
            2.404825557695773, abs=1e-12)
        assert bessel_root(1, 1, "Jprime").value == pytest.approx(
            1.841183781340659, abs=1e-12)
        assert bessel_root(1, 3, "Jprime").value == pytest.approx(
            8.536316, abs=1e-6)

    @pytest.mark.parametrize("m", [0, 5, 15, 30])
    @pytest.mark.parametrize("kind", ["J", "Jprime"])
    def test_monotone_in_n(self, m, kind):
        vals = [bessel_root(m, n, kind).value for n in range(1, 11)]
        assert all(a < b for a, b in zip(vals, vals[1:]))

    def test_bad_index(self):
        with pytest.raises(BesselError):
            bessel_root(1, 0, "J")


class TestRootSearch:
    """The vectorized scan and Newton refinement of ``bessel_roots``;
    scipy's zeros are a test-only oracle."""

    @pytest.mark.parametrize("m", [0, 1, 3, 26, 40, 60])
    @pytest.mark.parametrize("kind", ["J", "Jprime"])
    def test_roots_independent_of_count(self, m, kind):
        # each root is frozen once converged: fewer roots, same bits
        many = bessel_roots(m, 13, kind)
        for n in range(1, 13):
            assert bessel_roots(m, n, kind) == many[:n]

    @pytest.mark.parametrize("m", [0, 1, 2, 3, 7, 26, 40, 59, 60])
    @pytest.mark.parametrize("kind", ["J", "Jprime"])
    def test_match_scipy_zeros(self, m, kind):
        ref = (jn_zeros if kind == "J" else jnp_zeros)(m, 13)
        assert np.abs(np.array(bessel_roots(m, 13, kind)) / ref - 1).max() \
            <= 1e-12

    def test_few_sweeps_for_every_order(self, monkeypatch):
        sweeps, value_and_slope = [], bessel._value_and_slope

        def counting(*args):
            sweeps[-1] += 1
            return value_and_slope(*args)

        monkeypatch.setattr(bessel, "_value_and_slope", counting)
        for m in range(61):
            for kind in ("J", "Jprime"):
                sweeps.append(0)
                bessel_roots(m, 13, kind)
        # one scan, at most four Newton sweeps
        assert max(sweeps) <= 5

    def test_scan_values_equal_scalar_bessel_j(self):
        rng = np.random.default_rng(0)
        for m in (0, 1, 5, 26, 60):
            x = np.sort(np.r_[rng.uniform(1e-6, 200.0, 60),
                              rng.uniform(1e-6, max(2.0, m / 2), 20)])
            row = bessel._bessel_triple(m, x)[1]
            assert row.tolist() == [bessel_j(m, float(v)) for v in x]

    def test_root_beyond_range_rejected(self):
        # j_{0,63} ~ 197.1 and j_{0,64} ~ 200.3
        assert bessel_roots(0, 63)[-1] == pytest.approx(jn_zeros(0, 63)[-1],
                                                        rel=1e-12)
        with pytest.raises(BesselError, match="not found below"):
            bessel_roots(0, 64)
        with pytest.raises(BesselError, match="order"):
            bessel_roots(61, 1)


class TestPillbox:
    spec = PillboxSpec(0.035, 0.1)

    def test_monotone_in_n_and_q(self):
        for kind, q0 in (("TM", 0), ("TE", 1)):
            for n in (1, 2, 3):
                w1 = pillbox_frequency(kind, 2, n, q0, self.spec)
                assert pillbox_frequency(kind, 2, n + 1, q0, self.spec) > w1
                assert pillbox_frequency(kind, 2, n, q0 + 1, self.spec) > w1

    def test_scaling_homogeneity(self):
        big = PillboxSpec(0.07, 0.2)
        w = pillbox_frequency("TM", 3, 2, 1, self.spec)
        assert pillbox_frequency("TM", 3, 2, 1, big) == pytest.approx(
            w / 2, rel=1e-14)

    @pytest.mark.parametrize("args", [
        (float("nan"), 0.1), (0.1, float("inf")), (0.0, 0.1), (0.1, -1.0),
        (0.1, 0.1, float("nan"), 1.0), (0.1, 0.1, 1.0, float("inf")),
        (0.1, 0.1, -1.0, 1.0)])
    def test_bad_spec_rejected(self, args):
        with pytest.raises(BesselError):
            PillboxSpec(*args)

    def test_te_needs_axial_variation(self):
        with pytest.raises(BesselError):
            pillbox_frequency("TE", 1, 1, 0, self.spec)

    def test_te134_value(self):
        chi = bessel_root(1, 3, "Jprime").value
        c = 1 / math.sqrt(self.spec.eps * self.spec.mu)
        expect = c * math.sqrt((chi / 0.035) ** 2 + (4 * math.pi / 0.1) ** 2)
        assert pillbox_frequency("TE", 1, 3, 4, self.spec) == pytest.approx(
            expect, rel=1e-15)

    def test_spectrum_sorted_and_complete(self):
        sp = pillbox_spectrum(self.spec, 26, 11)
        omegas = [e["omega"] for e in sp]
        assert omegas == sorted(omegas)
        assert len(sp) == 11

    def test_truncation_guard(self):
        # one radial index suffices for the lowest m=1 mode (TE111) but not
        # for the lowest 30
        assert pillbox_spectrum(self.spec, 1, 1, n_max=1)[0]["kind"] == "TE"
        with pytest.raises(BesselError):
            pillbox_spectrum(self.spec, 1, 30, n_max=1)

    @pytest.mark.parametrize("m", [0, 26])
    def test_spectrum_entries_equal_frequencies(self, m):
        # the spectrum's one scan per root kind gives the same roots as the
        # per-mode lookup, bit for bit
        for e in pillbox_spectrum(self.spec, m, 30):
            assert e["omega"] == pillbox_frequency(e["kind"], m, e["n"],
                                                   e["q"], self.spec)
