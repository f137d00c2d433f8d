"""Quadrature oracle against closed forms, symmetry patterns, and convergence."""

import gc
import sys
import threading
import weakref

import numpy as np
import pytest

from mptsu2 import oracle
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
    clear_cache,
    derivative_matrix,
    matrix_element,
    observable_matrix,
)
from mptsu2.states import PotentialSpec, well_numbers

Q3 = PotentialSpec.for_integer_q(3)


class TestMatrixElement:
    def test_normalization(self):
        for q in (2, 3, 5):
            spec = PotentialSpec.for_integer_q(q)
            assert matrix_element(spec, 0, 0, IDENTITY) == pytest.approx(1.0, abs=1e-10)

    def test_sinh_cross_element(self):
        assert matrix_element(Q3, 0, 1, SINH_ALPHA_X) == pytest.approx(0.5, abs=1e-8)

    def test_position_diagonal_vanishes_by_parity(self):
        assert matrix_element(Q3, 0, 0, POSITION_X) == pytest.approx(0.0, abs=1e-10)

    def test_potential_expectation_is_negative(self):
        assert matrix_element(Q3, 0, 0, POTENTIAL) < -1.0

    def test_out_of_range_state(self):
        with pytest.raises(DomainError):
            matrix_element(Q3, 0, 7, IDENTITY)

    def test_non_finite_custom_observable(self):
        bad = Observable.custom(lambda x: np.where(np.abs(x) > 1.0, np.nan, 1.0))
        with pytest.raises(EvaluationError):
            matrix_element(Q3, 0, 0, bad)

    def test_non_finite_weight_reports_position(self):
        # The grid runs in s with alpha x = sinh(s); the error names x itself.
        bad = Observable.custom(lambda x: np.where(np.abs(x) > 3.0, np.nan, 1.0))
        with pytest.raises(EvaluationError) as err:
            matrix_element(Q3, 0, 0, bad)
        assert abs(err.value.abscissa) > 3.0

    def test_custom_derivative_observable(self):
        from mptsu2.ladder import cosh_ddx_matrix
        weighted = Observable.custom(np.cosh, acts_on_derivative=True, parity=-1,
                                     name="cosh_ddx")
        got = matrix_element(Q3, 0, 1, weighted)
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

    def test_cache_returns_same_object(self):
        clear_cache()
        first = observable_matrix(Q3, POSITION_X)
        assert observable_matrix(Q3, POSITION_X) is first
        clear_cache()
        assert observable_matrix(Q3, POSITION_X) is not first

    def test_cache_never_hands_a_matrix_to_a_new_observable(self):
        # A collected observable's id is reused by the next one created; a
        # cache keyed on id(obs) gave most of these weights a stale matrix.
        # The cache is bounded, so evicted observables are released.
        clear_cache()
        stale = 0
        largest = 0
        first = None
        for c in range(1, 201):
            weight = Observable.custom(lambda x, c=c: c * np.ones_like(x), parity=+1)
            if first is None:
                first = weakref.ref(weight)
            gram = observable_matrix(Q3, weight).entries
            stale += bool(np.max(np.abs(gram - c * np.eye(3))) > 1e-9 * c)
            largest = max(largest, len(oracle._cache))
        del weight
        gc.collect()
        evicted_alive = first() is not None
        clear_cache()
        assert stale == 0
        assert largest == oracle._CACHE_SIZE
        assert not evicted_alive

    def test_cache_keeps_recently_used_entries(self):
        clear_cache()
        kept = observable_matrix(Q3, POSITION_X)
        for _ in range(oracle._CACHE_SIZE + 5):
            observable_matrix(Q3, Observable.custom(np.cos, parity=+1))
            assert observable_matrix(Q3, POSITION_X) is kept
        clear_cache()

    def test_cache_under_concurrent_eviction(self, monkeypatch):
        # More threads than cores share three observables through a
        # two-entry cache, so a hit is often on the entry another thread
        # is about to evict.
        monkeypatch.setattr(oracle, "_CACHE_SIZE", 2)
        clear_cache()
        shared = [Observable.custom(lambda x, s=s: s * np.ones_like(x), parity=+1)
                  for s in (1.0, 2.0, 3.0)]
        errors = []

        def work(seed):
            rng = np.random.default_rng(seed)
            try:
                for k in rng.integers(0, 3, size=300):
                    gram = observable_matrix(Q3, shared[k]).entries
                    assert np.max(np.abs(gram - (k + 1) * np.eye(3))) <= 1e-9
            except Exception as err:  # a thread cannot fail the test itself
                errors.append(err)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(k,)) for k in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
            clear_cache()
        assert not any(t.is_alive() for t in threads)
        assert errors == []


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


class TestConvergence:
    @pytest.mark.parametrize("obs", [IDENTITY, SINH_ALPHA_X, POSITION_X, DDX],
                             ids=["identity", "sinh", "x", "ddx"])
    def test_panel_doubling_is_converged(self, obs):
        spec = PotentialSpec.for_integer_q(10)
        base = observable_matrix(spec, obs, OracleConfig()).entries
        fine = observable_matrix(spec, obs, OracleConfig(panels=64)).entries
        assert np.max(np.abs(base - fine)) < 1e-10

    def test_halfwidth_respects_cap(self):
        cfg = OracleConfig(max_halfwidth=5.0)
        assert cfg.halfwidth(Q3, 2.0) == 5.0

    def test_deep_well_with_finer_resolution(self):
        # Default panels resolve q <= 10; a q = 60 edge state needs more.
        spec = PotentialSpec.for_integer_q(60)
        cfg = OracleConfig(rule_order=48, panels=64)
        assert matrix_element(spec, 59, 59, IDENTITY, cfg) == pytest.approx(
            1.0, abs=1e-10)

    def test_halfwidth_rejects_nondecaying_integrand(self):
        with pytest.raises(DomainError):
            OracleConfig().halfwidth(Q3, 1.0, exp_growth=1)


class TestDeepWellsUnderDefaults:
    @pytest.mark.parametrize("q", [30, 50])
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
    """x and d/dx against mpmath quadrature of the closed-form states.

    The states are built from mpmath's own gamma and Gegenbauer functions
    and integrated with its tanh-sinh rule on the whole real line, so no
    code path is shared with the oracle.
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


class TestResolutionDiagnostic:
    def test_incomplete_basis_closure_gap(self):
        # Squaring the position matrix over the bound states alone cannot
        # reproduce <0|x^2|0>; the q=5 gap is small but clearly nonzero.
        spec = PotentialSpec.for_integer_q(5)
        x = observable_matrix(spec, POSITION_X).entries
        x_squared = Observable.custom(lambda t: t * t, parity=+1, name="x_squared")
        direct = observable_matrix(spec, x_squared).entries
        gap = abs((x @ x)[0, 0] - direct[0, 0])
        assert 1e-7 < gap < 5e-2
