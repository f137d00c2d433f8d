"""Special-function and quadrature primitives."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mptsu2.errors import DomainError, EvaluationError
from mptsu2.specfun import (
    QuadratureRule,
    _log_half_gamma_ratio,
    gauss_legendre,
    integrate,
    log_gamma,
)


class TestLogGamma:
    def test_at_one(self):
        assert log_gamma(1.0) == pytest.approx(0.0, abs=1e-15)

    def test_at_half(self):
        assert log_gamma(0.5) == pytest.approx(0.5 * math.log(math.pi), abs=1e-14)

    def test_factorial(self):
        # Gamma(5) = 4! by the recursion, accumulated independently.
        expected = sum(math.log(k) for k in (2, 3, 4))
        assert log_gamma(5.0) == pytest.approx(expected, abs=1e-13)

    def test_functional_equation(self):
        for x in np.arange(0.5, 51.0, 1.0):
            assert abs(log_gamma(x + 1.0) - log_gamma(x) - math.log(x)) < 1e-12

    def test_against_stdlib(self):
        # math.lgamma is itself within ~1 ulp, so allow two rounding widths.
        xs = np.concatenate([np.linspace(1e-3, 2.0, 200), np.linspace(2.0, 200.0, 800)])
        worst = max(abs(log_gamma(float(x)) - math.lgamma(float(x))) for x in xs)
        assert worst < 2.5e-13

    def test_absolute_accuracy_high_precision(self):
        mp_mod = pytest.importorskip("mpmath")
        mp_mod.mp.dps = 40
        xs = np.concatenate([np.linspace(1e-3, 12.0, 200),
                             np.linspace(12.0, 200.0, 600)])
        worst = max(
            abs(mp_mod.mpf(log_gamma(float(x))) - mp_mod.loggamma(mp_mod.mpf(float(x))))
            for x in xs)
        assert float(worst) < 1e-13

    def test_pole_rejected(self):
        with pytest.raises(DomainError):
            log_gamma(0.0)
        with pytest.raises(DomainError):
            log_gamma(-2.5)


class TestLogHalfGammaRatio:
    """ln(Gamma(x + 1/2) / Gamma(x)), the ground state's norm, at any depth."""

    def test_closed_forms(self):
        assert _log_half_gamma_ratio(0.5) == pytest.approx(-0.5 * math.log(math.pi), abs=5e-16)
        assert _log_half_gamma_ratio(1.0) == pytest.approx(
            0.5 * math.log(math.pi) - math.log(2.0), abs=5e-16)

    @pytest.mark.parametrize("x", [1e-3, 0.3, 2.0, 8.51, 11.9, 12.0, 12.1, 30.0, 150.0, 800.0,
                                   2000.0, 1e6, 8e6])
    def test_few_ulp_against_mpmath(self, x):
        # log_gamma(x + 1/2) - log_gamma(x) reads 1.3e-12 off at x = 1000.
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(40):
            ref = mpmath.loggamma(mpmath.mpf(x) + 0.5) - mpmath.loggamma(mpmath.mpf(x))
            assert abs(_log_half_gamma_ratio(x) - ref) < 5e-16 * max(1.0, abs(ref))


class TestGaussLegendre:
    def test_order_one(self):
        rule = gauss_legendre(1)
        assert rule.nodes == (0.0,)
        assert rule.weights == (2.0,)

    def test_order_two_quadratic(self):
        rule = gauss_legendre(2)
        assert integrate(lambda t: t * t, -1.0, 1.0, rule) == pytest.approx(
            2.0 / 3.0, abs=1e-14)

    def test_order_twenty_high_degree(self):
        rule = gauss_legendre(20)
        assert integrate(lambda t: t ** 38, -1.0, 1.0, rule) == pytest.approx(
            2.0 / 39.0, abs=1e-12)

    @pytest.mark.parametrize("order", [2, 5, 10, 20])
    def test_monomial_exactness(self, order):
        rule = gauss_legendre(order)
        for degree in range(2 * order):
            exact = 0.0 if degree % 2 else 2.0 / (degree + 1)
            got = integrate(lambda t, d=degree: t ** d, -1.0, 1.0, rule)
            assert abs(got - exact) < 1e-12

    @given(order=st.integers(1, 12), data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_random_polynomial_exactness(self, order, data):
        degree = data.draw(st.integers(0, 2 * order - 1))
        coeffs = data.draw(st.lists(st.floats(-2.0, 2.0),
                                    min_size=degree + 1, max_size=degree + 1))
        rule = gauss_legendre(order)
        exact = sum(c / (k + 1) * (1 - (-1) ** (k + 1))
                    for k, c in enumerate(coeffs))
        got = integrate(lambda t: sum(c * t ** k for k, c in enumerate(coeffs)),
                        -1.0, 1.0, rule)
        assert abs(got - exact) < 1e-11 * max(1.0, sum(abs(c) for c in coeffs))

    def test_rule_invariants(self):
        for order in (3, 8, 24):
            rule = gauss_legendre(order)
            nodes = np.asarray(rule.nodes)
            weights = np.asarray(rule.weights)
            assert abs(weights.sum() - 2.0) < 1e-13
            assert np.all(np.diff(nodes) > 0)
            assert np.max(np.abs(nodes + nodes[::-1])) < 1e-13

    @pytest.mark.parametrize("order", [5, 24, 48])
    def test_nodes_are_legendre_roots(self, order):
        from mptsu2.specfun import _legendre_and_derivative

        nodes = np.asarray(gauss_legendre(order).nodes)
        values, slopes = _legendre_and_derivative(order, nodes)
        # Newton residual: remaining distance to the true root.  The raw
        # polynomial value bottoms out at |P'| * eps near the endpoints.
        assert np.max(np.abs(values / slopes)) < 1e-14
        assert np.max(np.abs(values)) < 1e-12

    def test_zero_order_rejected(self):
        with pytest.raises(DomainError):
            gauss_legendre(0)

    def test_rule_validation(self):
        with pytest.raises(DomainError):
            QuadratureRule(nodes=(-0.5, 0.5), weights=(0.7, 0.7), order=2)


class TestIntegrate:
    def test_constant(self):
        assert integrate(lambda t: np.ones_like(t), 0.0, 1.0,
                         gauss_legendre(4)) == pytest.approx(1.0, abs=1e-15)

    def test_gaussian(self):
        got = integrate(lambda t: np.exp(-t * t), -8.0, 8.0,
                        gauss_legendre(20), panels=16)
        assert got == pytest.approx(math.sqrt(math.pi), abs=1e-12)

    def test_cosine(self):
        got = integrate(np.cos, 0.0, math.pi / 2.0, gauss_legendre(20))
        assert got == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("order", [52, 302])
    def test_one_panel_on_the_reference_interval_takes_the_nodes_as_they_are(self, order):
        # The oracle's rule in u: a node near +1 moved by an ulp once cost
        # q = 50 its cosh-d/dx matrix 3.0e-12 instead of 7.7e-13.
        rule, seen = gauss_legendre(order), []
        integrate(lambda t: seen.append(t) or np.ones_like(t), -1.0, 1.0, rule)
        assert np.array_equal(seen[0], rule.nodes)

    def test_reversed_bounds_rejected(self):
        with pytest.raises(DomainError):
            integrate(np.cos, 1.0, 0.0, gauss_legendre(4))

    def test_non_finite_integrand_reports_abscissa(self):
        with pytest.raises(EvaluationError) as err:
            integrate(lambda t: np.where(t > 0.5, np.inf, 1.0), 0.0, 1.0,
                      gauss_legendre(4))
        assert err.value.abscissa is not None
        assert 0.5 < err.value.abscissa < 1.0


class TestIntegratePairs:
    """A (bra, ket) integrand: every product bra[i] * ket[j] in one contraction."""

    @pytest.mark.parametrize("order", [3, 8, 24])
    def test_polynomial_factors_exact_to_degree_2_order_minus_1(self, order):
        rule = gauss_legendre(order)
        bra_degrees = np.arange(order)
        ket_degrees = np.arange(order)
        got = integrate(lambda t: (t[None, :] ** bra_degrees[:, None],
                                   t[None, :] ** ket_degrees[:, None]),
                        -1.0, 1.0, rule, panels=2)
        total = np.add.outer(bra_degrees, ket_degrees)
        exact = np.where(total % 2 == 1, 0.0, 2.0 / (total + 1))
        assert got.shape == (order, order)
        assert np.max(np.abs(got - exact)) < 1e-13

    def test_agrees_with_scalar_integrand(self):
        rule = gauss_legendre(20)
        got = integrate(lambda t: (np.stack([np.cos(t), t]), np.stack([np.exp(-t), t * t])),
                        0.0, 2.0, rule, panels=3)
        for i, bra in enumerate((np.cos, lambda t: t)):
            for j, ket in enumerate((lambda t: np.exp(-t), lambda t: t * t)):
                scalar = integrate(lambda t: bra(t) * ket(t), 0.0, 2.0, rule, panels=3)
                assert got[i, j] == pytest.approx(scalar, abs=1e-14)

    @pytest.mark.parametrize("side", [0, 1])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_factor_reports_abscissa(self, side, bad):
        def f(t):
            factors = [np.ones((2, t.size)), np.ones((3, t.size))]
            factors[side][-1] = np.where(t > 0.5, bad, 1.0)
            return tuple(factors)

        with pytest.raises(EvaluationError) as err:
            integrate(f, 0.0, 1.0, gauss_legendre(4))
        assert err.value.abscissa is not None
        assert 0.5 < err.value.abscissa < 1.0

    @pytest.mark.parametrize("side", [0, 1])
    def test_factor_without_node_last_axis_rejected(self, side):
        def f(t):
            factors = [np.ones((2, t.size)), np.ones((3, t.size))]
            factors[side] = factors[side].T
            return tuple(factors)

        with pytest.raises(EvaluationError):
            integrate(f, 0.0, 1.0, gauss_legendre(4))
