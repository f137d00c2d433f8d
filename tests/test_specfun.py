"""Special-function and quadrature primitives."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mptsu2.errors import DomainError, EvaluationError
from mptsu2.specfun import (
    QuadratureRule,
    gauss_legendre,
    gegenbauer,
    gegenbauer_derivative,
    integrate,
    log_gamma,
)


def explicit_gegenbauer(n, lam, t):
    """Closed-form low-degree polynomials, independent of the recurrence."""
    if n == 0:
        return 1.0
    if n == 1:
        return 2.0 * lam * t
    if n == 2:
        return 2.0 * lam * (lam + 1.0) * t * t - lam
    if n == 3:
        return 4.0 / 3.0 * lam * (lam + 1.0) * (lam + 2.0) * t ** 3 \
            - 2.0 * lam * (lam + 1.0) * t
    raise ValueError(n)


class TestGegenbauer:
    def test_constant(self):
        assert gegenbauer(0, 1.5, 0.3) == 1.0

    def test_linear(self):
        assert gegenbauer(1, 2.0, 0.5) == pytest.approx(2.0, abs=1e-15)

    def test_endpoint_binomial(self):
        # C_n^lam(1) = binom(n + 2 lam - 1, n), evaluated independently.
        assert gegenbauer(2, 1.0, 1.0) == pytest.approx(math.comb(3, 2), abs=1e-13)

    @pytest.mark.parametrize("lam", [0.5, 1.0, 2.5])
    @pytest.mark.parametrize("n", [0, 1, 2, 3])
    def test_recurrence_matches_explicit_forms(self, n, lam):
        for t in np.linspace(-1.0, 1.0, 21):
            assert gegenbauer(n, lam, float(t)) == pytest.approx(
                explicit_gegenbauer(n, lam, float(t)), abs=1e-12)

    @pytest.mark.parametrize("lam", [0.5, 1.0, 2.5])
    def test_parity(self, lam):
        t = np.linspace(-1.0, 1.0, 21)
        for n in range(31):
            left = gegenbauer(n, lam, -t)
            right = (-1) ** n * gegenbauer(n, lam, t)
            assert np.max(np.abs(left - right)) < 1e-12 * max(
                1.0, np.max(np.abs(right)))

    @given(n=st.integers(0, 25), lam=st.floats(0.1, 5.0),
           t=st.floats(-1.0, 1.0))
    @settings(max_examples=60, deadline=None)
    def test_parity_property(self, n, lam, t):
        scale = max(1.0, abs(gegenbauer(n, lam, t)))
        assert abs(gegenbauer(n, lam, -t)
                   - (-1) ** n * gegenbauer(n, lam, t)) < 1e-12 * scale

    def test_negative_degree_rejected(self):
        with pytest.raises(DomainError):
            gegenbauer(-1, 1.0, 0.0)

    def test_bad_parameter_rejected(self):
        with pytest.raises(DomainError):
            gegenbauer(2, -0.75, 0.0)


class TestGegenbauerDegreeArrays:
    """Degrees of shape (k, 1) give the rows of their lone calls, bit for bit."""

    T = np.linspace(-0.999, 0.999, 41)

    @staticmethod
    def lone_rows(f, degrees, lams, t):
        return np.array([f(int(n), float(lam), t) for n, lam in zip(degrees, lams)])

    @pytest.mark.parametrize("f", [gegenbauer, gegenbauer_derivative])
    @pytest.mark.parametrize("degrees", [[3, 0, 7, 1, 7, 2], [0], [1, 0], [0, 0, 1, 1],
                                         [12, 5, 40, 5, 0]])
    def test_unsorted_repeated_degrees(self, f, degrees):
        lams = np.linspace(0.5, 9.5, len(degrees))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rows = f(np.array(degrees)[:, None], lams[:, None], self.T)
            assert np.array_equal(rows, self.lone_rows(f, degrees, lams, self.T))
            scalar_t = f(np.array(degrees)[:, None], lams[:, None], 0.3)
        assert scalar_t.shape == (len(degrees), 1)
        assert np.array_equal(scalar_t[:, 0], self.lone_rows(f, degrees, lams, 0.3))

    @settings(max_examples=60, deadline=None)
    @given(degrees=st.lists(st.integers(0, 60), min_size=1, max_size=12),
           lam=st.floats(0.01, 80.0))
    def test_rows_match_lone_calls(self, degrees, lam):
        lams = lam + np.arange(len(degrees))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for f in (gegenbauer, gegenbauer_derivative):
                rows = f(np.array(degrees)[:, None], lams[:, None], self.T)
                assert np.array_equal(rows, self.lone_rows(f, degrees, lams, self.T))

    def test_rows_stop_at_their_own_degree(self):
        # Carried on to degree 200, the first row would overflow.
        degrees, lams = np.array([[3], [200]]), np.array([[1e50], [0.5]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rows = gegenbauer(degrees, lams, self.T)
        assert np.all(np.isfinite(rows))
        assert np.array_equal(rows[0], gegenbauer(3, 1e50, self.T))

    def test_a_bad_degree_or_parameter_in_the_array_is_named(self):
        with pytest.raises(DomainError, match="got 2.5"):
            gegenbauer(np.array([[1.0], [2.5]]), 1.0, self.T)
        with pytest.raises(DomainError, match="got -1"):
            gegenbauer_derivative(np.array([[2], [-1]]), 1.0, self.T)
        with pytest.raises(DomainError, match="got -0.75"):
            gegenbauer(np.array([[0], [2]]), np.array([[-0.9], [-0.75]]), self.T)


class TestGegenbauerDerivative:
    def test_constant_has_zero_derivative(self):
        assert gegenbauer_derivative(0, 2.0, 0.7) == 0.0

    def test_linear(self):
        assert gegenbauer_derivative(1, 2.0, 0.7) == pytest.approx(4.0, abs=1e-15)

    @pytest.mark.parametrize("n,lam,t", [(2, 1.0, 0.5), (5, 2.5, -0.3), (8, 0.5, 0.9)])
    def test_matches_finite_differences(self, n, lam, t):
        h = 1e-6
        fd = (gegenbauer(n, lam, t + h) - gegenbauer(n, lam, t - h)) / (2.0 * h)
        assert gegenbauer_derivative(n, lam, t) == pytest.approx(fd, abs=1e-7)


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
