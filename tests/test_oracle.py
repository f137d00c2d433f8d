"""Quadrature oracle against closed forms, symmetry patterns, and exactness."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mptsu2.errors import DomainError, EvaluationError
from mptsu2.ladder import cosh_ddx_matrix, sinh_matrix
from mptsu2.oracle import (
    COSH_DDX_OVER_ALPHA,
    DDX,
    IDENTITY,
    POSITION_X,
    POTENTIAL,
    SINH_ALPHA_X,
    Observable,
    OracleConfig,
    derivative_matrix,
    observable_matrix,
    position_from_derivative,
)
from mptsu2.states import (PotentialSpec, energy, wavefunction, wavefunction_derivative,
                           well_numbers)

Q3 = PotentialSpec.for_integer_q(3)


class TestMatrixElement:
    """Single entries of whole oracle matrices."""

    def test_normalization(self):
        for q in (2, 3, 5):
            spec = PotentialSpec.for_integer_q(q)
            gram = observable_matrix(spec, IDENTITY).entries
            assert gram[0, 0] == pytest.approx(1.0, abs=1e-10)

    def test_sinh_cross_element(self):
        assert observable_matrix(Q3, SINH_ALPHA_X).entries[0, 1] == pytest.approx(
            0.5, abs=1e-8)

    def test_position_diagonal_vanishes_by_parity(self):
        assert observable_matrix(Q3, POSITION_X).entries[0, 0] == pytest.approx(
            0.0, abs=1e-10)

    def test_potential_expectation_is_negative(self):
        assert observable_matrix(Q3, POTENTIAL).entries[0, 0] < -1.0

    def test_non_finite_custom_observable(self):
        bad = Observable("bad", lambda x, spec: np.where(np.abs(x) > 1.0, np.nan, 1.0))
        with pytest.raises(EvaluationError):
            observable_matrix(Q3, bad)

    def test_custom_derivative_observable(self):
        weighted = Observable("cosh_ddx", lambda x, spec: np.cosh(x),
                              acts_on_derivative=True, parity=-1)
        got = observable_matrix(Q3, weighted).entries[0, 1]
        assert got == pytest.approx(cosh_ddx_matrix(7).entries[0, 1], abs=1e-8)


class TestObservableMatrix:
    @pytest.mark.parametrize("q", [2, 3, 5, 10])
    def test_identity_matrix(self, q):
        spec = PotentialSpec.for_integer_q(q)
        gram = observable_matrix(spec, IDENTITY).entries
        assert np.max(np.abs(gram - np.eye(gram.shape[0]))) < 1e-9

    @pytest.mark.parametrize("q", [2, 3, 5, 10])
    def test_sinh_matches_closed_form(self, q):
        spec = PotentialSpec.for_integer_q(q)
        nu = int(well_numbers(spec).nu)
        dev = observable_matrix(spec, SINH_ALPHA_X).entries - sinh_matrix(nu).entries
        assert np.max(np.abs(dev)) < 1e-8

    @pytest.mark.parametrize("q", [2, 3, 5, 10])
    def test_cosh_ddx_matches_closed_form(self, q):
        spec = PotentialSpec.for_integer_q(q)
        nu = int(well_numbers(spec).nu)
        dev = (observable_matrix(spec, COSH_DDX_OVER_ALPHA).entries
               - cosh_ddx_matrix(nu).entries)
        assert np.max(np.abs(dev)) < 1e-8

    def test_parity_zeros_are_exact(self):
        x = observable_matrix(Q3, POSITION_X).entries
        for i in range(3):
            for j in range(3):
                if (i + j) % 2 == 0:
                    assert x[i, j] == 0.0

    def test_even_observable_zero_pattern(self):
        v = observable_matrix(Q3, POTENTIAL).entries
        for i in range(3):
            for j in range(3):
                if (i + j) % 2 == 1:
                    assert v[i, j] == 0.0

    def test_requires_integer_q_at_least_two(self):
        with pytest.raises(DomainError):
            observable_matrix(PotentialSpec(D=2.0, alpha=1.0), IDENTITY)
        with pytest.raises(DomainError):
            observable_matrix(PotentialSpec.for_integer_q(1), IDENTITY)


class TestOneEvaluationPerMatrix:
    """Every level comes from one states call, and one recurrence, per evaluator and matrix."""

    @pytest.mark.parametrize("obs, derivative_calls", [
        (IDENTITY, 0), (SINH_ALPHA_X, 0), (POTENTIAL, 0),
        (COSH_DDX_OVER_ALPHA, 1), (DDX, 1), (POSITION_X, 1),
    ], ids=lambda v: getattr(v, "name", v))
    def test_call_counts(self, monkeypatch, obs, derivative_calls):
        from mptsu2 import oracle, states

        calls = []
        for name in ("wavefunction", "wavefunction_derivative"):
            monkeypatch.setattr(oracle, name, lambda spec, n, x, f=getattr(oracle, name),
                                name=name: calls.append((name, np.shape(n))) or f(spec, n, x))
        runs, ladder = [], states._ladder
        monkeypatch.setattr(states, "_ladder", lambda spec, x, top, derivative=False: runs.append(
            (top, derivative)) or ladder(spec, x, top, derivative))
        norms, norm = [], states.normalization_constant
        monkeypatch.setattr(states, "normalization_constant",
                            lambda q, n, alpha: norms.append(n) or norm(q, n, alpha))
        observable_matrix(PotentialSpec.for_integer_q(10), obs)
        assert calls.count(("wavefunction", (10, 1))) == 1
        assert calls.count(("wavefunction_derivative", (10, 1))) == derivative_calls
        assert len(calls) == 1 + derivative_calls
        # One recurrence to the top level per call; no level's norm is evaluated.
        assert runs == [(9, False)] + [(9, True)] * derivative_calls
        assert norms == []


class TestDerivativeMatrix:
    def test_diagonal_zero(self):
        assert np.all(np.diag(derivative_matrix(Q3).entries) == 0.0)

    def test_antisymmetry(self):
        for q in (3, 10):
            r = derivative_matrix(PotentialSpec.for_integer_q(q)).entries
            assert np.max(np.abs(r + r.T)) < 1e-8

    def test_cross_element_pair(self):
        r = derivative_matrix(Q3).entries
        assert r[0, 1] == pytest.approx(-r[1, 0], abs=1e-8)

    def test_cosh_weighted_variant_matches_closed_form(self):
        got = observable_matrix(Q3, COSH_DDX_OVER_ALPHA).entries
        assert np.max(np.abs(got - cosh_ddx_matrix(7).entries)) < 1e-8


class TestPositionFromDerivative:
    @pytest.mark.parametrize("q", [2, 3, 10, 31])
    def test_is_the_oracle_x_bit_for_bit(self, q):
        spec = PotentialSpec.for_integer_q(q, alpha=1.3, mu=0.7, hbar=1.1)
        x = position_from_derivative(spec, derivative_matrix(spec).entries)
        assert x.tobytes() == observable_matrix(spec, POSITION_X).entries.tobytes()


class TestConvergence:
    @pytest.mark.parametrize("obs", [IDENTITY, SINH_ALPHA_X, POSITION_X, DDX],
                             ids=["identity", "sinh", "x", "ddx"])
    def test_node_count_doubling_is_invariant(self, obs):
        # q + 2 nodes are already exact; 2q nodes change only the rounding.
        q = 10
        spec = PotentialSpec.for_integer_q(q)
        base = observable_matrix(spec, obs, OracleConfig()).entries
        fine = observable_matrix(spec, obs, OracleConfig(rule_order=2 * q)).entries
        assert np.max(np.abs(base - fine)) < 1e-12

    def test_deep_well_with_finer_resolution(self):
        # The default q + 2 nodes grow with the well; no setting is needed.
        spec = PotentialSpec.for_integer_q(60)
        gram = observable_matrix(spec, IDENTITY).entries
        assert gram[59, 59] == pytest.approx(1.0, abs=1e-10)


class TestScalingLaws:
    @settings(max_examples=25, deadline=None)
    @given(alpha=st.floats(0.25, 4.0), mu=st.floats(0.1, 10.0),
           hbar=st.floats(0.1, 10.0), q=st.sampled_from([3, 10, 30]))
    def test_alpha_scaling_laws(self, alpha, mu, hbar, q):
        # In alpha x the states depend on q alone, so X scales as 1/alpha,
        # R as alpha, and sinh and cosh-d/dx do not move; mu and hbar drop out.
        # The energies scale as (alpha hbar)^2 / mu.
        spec = PotentialSpec.for_integer_q(q, alpha=alpha, mu=mu, hbar=hbar)
        unit = PotentialSpec.for_integer_q(q)
        got = np.array([energy(spec, n) for n in range(q)]) * mu / (alpha * hbar) ** 2
        ref = np.array([energy(unit, n) for n in range(q)])
        assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))
        for obs, scale in ((POSITION_X, alpha), (DDX, 1.0 / alpha),
                           (SINH_ALPHA_X, 1.0), (COSH_DDX_OVER_ALPHA, 1.0)):
            got = scale * observable_matrix(spec, obs).entries
            ref = observable_matrix(unit, obs).entries
            assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))


class TestDeepWellsUnderDefaults:
    @pytest.mark.parametrize("q", [30, 50, 99, 150])
    def test_gram_and_closed_forms(self, q):
        spec = PotentialSpec.for_integer_q(q)
        nu = int(well_numbers(spec).nu)
        gram = observable_matrix(spec, IDENTITY, OracleConfig()).entries
        sinh = observable_matrix(spec, SINH_ALPHA_X, OracleConfig()).entries
        coshd = observable_matrix(spec, COSH_DDX_OVER_ALPHA, OracleConfig()).entries
        assert np.max(np.abs(gram - np.eye(q))) < 1e-12
        assert np.max(np.abs(sinh - sinh_matrix(nu).entries)) < 1e-10
        assert np.max(np.abs(coshd - cosh_ddx_matrix(nu).entries)) < 1e-10


class TestMpmathReference:
    """x and d/dx against mpmath quadrature of the closed-form states, and the levels.

    The states are built from mpmath's own gamma and Gegenbauer functions
    and integrated with its tanh-sinh rule on the whole real line, so no
    code path is shared with the oracle.  The levels themselves are checked
    point by point against 60-digit values.
    """

    @staticmethod
    def closed_form_state(mp, q, n):
        """psi_n and d(psi_n)/dx for alpha = 1, in mpmath arithmetic."""
        eps = q - n
        lam = mp.mpf(eps) + mp.mpf(1) / 2
        norm = mp.sqrt(mp.factorial(n) * mp.gamma(lam) * mp.gamma(2 * eps + 1)
                       / (mp.sqrt(mp.pi) * mp.gamma(eps) * mp.gamma(2 * q - n + 1)))

        def psi(x):
            return norm * mp.sech(x) ** eps * mp.gegenbauer(n, lam, mp.tanh(x))

        def dpsi(x):
            u = mp.tanh(x)
            poly = 2 * lam * mp.gegenbauer(n - 1, lam + 1, u) if n else 0
            return norm * (mp.sech(x) ** (eps + 2) * poly
                           - eps * u * mp.sech(x) ** eps * mp.gegenbauer(n, lam, u))

        return psi, dpsi

    @pytest.mark.parametrize("q", [30, 50])
    def test_position_and_derivative(self, q):
        mpmath = pytest.importorskip("mpmath")
        mp = mpmath.mp
        spec = PotentialSpec.for_integer_q(q)
        x = observable_matrix(spec, POSITION_X).entries
        r = derivative_matrix(spec).entries
        breaks = [-mp.inf, -5, 0, 5, mp.inf]
        with mpmath.workdps(20):
            for n_prime, n in ((0, 1), (q - 2, q - 1)):
                bra, _ = self.closed_form_state(mp, q, n_prime)
                ket, dket = self.closed_form_state(mp, q, n)
                ref_x = mp.quad(lambda t: bra(t) * t * ket(t), breaks)
                ref_r = mp.quad(lambda t: bra(t) * dket(t), breaks)
                assert abs(x[n_prime, n] - float(ref_x)) < 1e-11
                assert abs(r[n_prime, n] - float(ref_r)) < 1e-11

    @staticmethod
    def reference_level(mp, q, n, t):
        """psi_n(t) and d(psi_n)/dt for alpha = 1, each C_n^lam by its degree recurrence."""
        u, sech = mp.tanh(t), mp.sech(t)

        def gegenbauer(degree, lam):
            prev, cur = mp.mpf(1), 2 * lam * u
            for k in range(2, degree + 1):
                prev, cur = cur, (2 * (k + lam - 1) * u * cur - (k + 2 * lam - 2) * prev) / k
            return cur if degree else prev

        eps = q - n
        lam = eps + mp.mpf(1) / 2
        norm = mp.sqrt(mp.factorial(n) * mp.gamma(lam) * mp.gamma(2 * eps + 1)
                       / (mp.sqrt(mp.pi) * mp.gamma(eps) * mp.gamma(2 * q - n + 1)))
        poly = gegenbauer(n, lam)
        lowered = gegenbauer(n - 1, lam + 1) if n else 0
        return (norm * sech ** eps * poly,
                norm * sech ** eps * (2 * lam * sech ** 2 * lowered - eps * u * poly))

    @pytest.mark.parametrize("spec", [PotentialSpec.for_integer_q(150),
                                      PotentialSpec.for_integer_q(800),
                                      PotentialSpec.for_integer_q(2000),
                                      PotentialSpec(D=40.45, alpha=1.0)],
                             ids=["q=150", "q=800", "q=2000", "q=8.51"])
    def test_levels_pointwise(self, spec):
        """Levels 0, 1, mid, top - 1 and top out to the far tails, relative to each value.

        The reference sums C_n^lam by its recurrence in the degree at fixed
        lam, in 60-digit arithmetic with mpmath's gamma for the norm; the
        levels under test come from the sinh ladder recurrence in n, with
        lam moving, and a norm from Stirling's series.  A reference below
        the normal float range must read below it too.  In the tails of the
        deeper wells the recurrence rescales its values up and then down.
        """
        mpmath = pytest.importorskip("mpmath")
        wn = well_numbers(spec)
        points = (0.0, 0.013, 0.37, 1.1, 2.9, -4.4, 8.0, 15.0, 30.0)
        tiny = 2.2250738585072014e-308
        with mpmath.workdps(60):
            for n in sorted({0, 1, wn.n_max // 2, wn.n_max - 1, wn.n_max}):
                got = zip(wavefunction(spec, n, np.array(points)),
                          wavefunction_derivative(spec, n, np.array(points)))
                for t, pair in zip(points, got):
                    ref = self.reference_level(mpmath.mp, mpmath.mpf(wn.q), n, mpmath.mpf(t))
                    for value, want in zip(pair, ref):
                        if abs(want) < tiny:
                            assert abs(value) < tiny, (n, t)
                        else:
                            assert abs(value - want) <= 1e-11 * abs(want), (n, t, value, want)
