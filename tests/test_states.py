"""Well numbers, energies, and wavefunctions of single wells."""

import math
import re
import warnings
from pathlib import Path

import numpy as np
import pytest

from mptsu2 import checks, expansion, ladder, oracle, vibron
from mptsu2.errors import DomainError, EvaluationError
from mptsu2.specfun import gauss_legendre, integrate
from mptsu2.states import (
    INTEGER_Q_TOL,
    MAX_Q,
    MIN_Q,
    PotentialSpec,
    StateLabel,
    _sinh_steps,
    bound_state_labels,
    depth_for_integer_q,
    energy,
    integer_q,
    normalization_constant,
    wavefunction,
    wavefunction_derivative,
    well_numbers,
)

RULE = gauss_legendre(24)


def overlap(spec, n1, n2, half=30.0, panels=40):
    """Quadrature oracle for <n1|n2>, positioned well past every tail."""
    return integrate(lambda x: wavefunction(spec, n1, x) * wavefunction(spec, n2, x),
                     -half / spec.alpha, half / spec.alpha, RULE, panels)


class TestWellNumbers:
    def test_depth_three(self):
        wn = well_numbers(PotentialSpec(D=3.0, alpha=1.0))
        assert wn.k == pytest.approx(2.5, abs=1e-14)
        assert wn.q == pytest.approx(2.0, abs=1e-14)
        assert wn.nu == pytest.approx(5.0, abs=1e-14)
        assert wn.n_max == 1

    def test_depth_six(self):
        wn = well_numbers(PotentialSpec(D=6.0, alpha=1.0))
        assert wn.q == pytest.approx(3.0, abs=1e-14)
        assert wn.nu == pytest.approx(7.0, abs=1e-14)
        assert wn.n_max == 2

    def test_deep_well_inversion(self):
        wn = well_numbers(PotentialSpec(D=10 * 11 / 2.0, alpha=1.0))
        assert wn.nu == pytest.approx(21.0, abs=1e-12)
        assert wn.n_max == 9

    def test_fractional_q_counts_positive_epsilon_states(self):
        wn = well_numbers(PotentialSpec(D=2.0, alpha=1.0))
        assert 1.0 < wn.q < 2.0
        assert wn.n_max == 1
        assert not wn.q_is_integer

    def test_shallow_well_keeps_one_state(self):
        wn = well_numbers(PotentialSpec(D=0.05, alpha=1.0))
        assert 0.0 < wn.q < 1.0
        assert wn.n_max == 0

    @pytest.mark.parametrize("D", [1e-320, 1e-20])
    def test_zero_q_well_has_no_level(self, D):
        spec = PotentialSpec(D=D, alpha=1.0)
        wn = well_numbers(spec)
        assert (wn.q, wn.n_max) == (0.0, -1)
        assert bound_state_labels(spec) == ()
        with pytest.raises(DomainError, match="not a bound state"):
            energy(spec, 0)

    def test_near_integer_q_snaps(self):
        # Depths within the detection tolerance of an integer-q well must not
        # pick up the spurious near-zero-energy level.
        wn = well_numbers(PotentialSpec(D=3.0 * (1.0 + 1e-12), alpha=1.0))
        assert wn.q_is_integer
        assert wn.n_max == 1

    @pytest.mark.parametrize("q", [1, 2, 3, 7, 25])
    def test_depth_round_trip(self, q):
        depth = depth_for_integer_q(q)
        assert well_numbers(PotentialSpec(D=depth, alpha=1.0)).q == pytest.approx(
            q, abs=1e-12)

    def test_depth_examples(self):
        assert depth_for_integer_q(2) == pytest.approx(3.0)
        assert depth_for_integer_q(1) == pytest.approx(1.0)
        assert depth_for_integer_q(3, alpha=2.0) == pytest.approx(24.0)

    def test_spec_validation(self):
        with pytest.raises(DomainError):
            PotentialSpec(D=-1.0, alpha=1.0)
        with pytest.raises(DomainError):
            PotentialSpec(D=1.0, alpha=0.0)
        with pytest.raises(DomainError):
            depth_for_integer_q(0)

    @pytest.mark.parametrize("name", ["alpha", "mu", "hbar"])
    @pytest.mark.parametrize("value", [math.inf, math.nan, 0.0])
    def test_scale_named_before_the_depth_derived_from_it(self, name, value):
        # A scale of inf, nan or 0 also spoils D = depth_for_integer_q(...).
        with pytest.raises(DomainError, match=f"PotentialSpec.{name} must be"):
            PotentialSpec(D=value, **{"alpha": 1.0, name: value})

    @pytest.mark.parametrize("D, alpha", [(1e308, 1.0), (1.0, 1e-200)])
    def test_non_finite_depth_ratio_rejected(self, D, alpha):
        with pytest.raises(DomainError, match=r"2 mu D / \(alpha hbar\)\^2 = inf"):
            well_numbers(PotentialSpec(D=D, alpha=alpha))

    def test_depth_bound_is_where_float_spacing_passes_the_integer_tolerance(self):
        assert MAX_Q == 2.0 ** 23
        assert math.ulp(MAX_Q) > INTEGER_Q_TOL >= math.ulp(math.nextafter(MAX_Q, 0.0))

    def test_deepest_testable_integer_well_accepted(self):
        wn = well_numbers(PotentialSpec.for_integer_q(2 ** 22))
        assert wn.q_is_integer and wn.n_max == 2 ** 22 - 1

    @pytest.mark.parametrize("q", [10 ** 200, 2 ** 600 + 1])
    def test_too_deep_to_form_the_depth_rejected(self, q):
        # q (q + 1) is past the float range, so no depth can be formed.
        with pytest.raises(DomainError, match=r"too deep: q = \d+ is not below 8388608"):
            PotentialSpec.for_integer_q(q)

    @pytest.mark.parametrize("scale, value", [("hbar", 1e-320), ("alpha", 1e-170),
                                              ("mu", 1e-320), ("alpha", 1e200)])
    def test_derived_depth_out_of_range_names_the_scales(self, scale, value):
        with pytest.raises(DomainError, match=rf"derived from q = 3, .*{scale} = {re.escape(repr(value))}"):
            PotentialSpec.for_integer_q(3, **{scale: value})

    @pytest.mark.parametrize("spec", [PotentialSpec.for_integer_q(2 ** 23),
                                      PotentialSpec(D=1e200, alpha=1.0)],
                             ids=["q=2^23", "D=1e200"])
    def test_too_deep_to_count_rejected(self, spec):
        with pytest.raises(DomainError, match=r"q = .* not below 8388608"):
            well_numbers(spec)


class TestDomainTable:
    """``integer_q`` is the one check of each computation's domain, ``MIN_Q``."""

    SHALLOW = PotentialSpec(D=3.3, alpha=1.0)  # q = 2.117...
    MESSAGE = re.compile(r"(.+) requires q >= (\d+), an integer; this well has q = (\S+)")
    ENTRIES = {
        "observable_matrix": lambda s: oracle.observable_matrix(s, oracle.IDENTITY),
        "position_from_derivative": lambda s: oracle.position_from_derivative(s, np.eye(3)),
        "exact_interaction": lambda s: vibron.exact_interaction(s, vibron.pair_basis(3), 0.02),
        "coupling": lambda s: vibron.coupling(s, "crude", 0.02),
        "coupled_model": lambda s: vibron.coupled_model(s, "su2", 0.02),
        "compare_models": lambda s: vibron.compare_models(s, 0.02),
        "states_checks": checks.states_checks,
        "matelem_checks": checks.matelem_checks,
        "expansion_checks": checks.expansion_checks,
        "vibron_checks": checks.vibron_checks,
        "suite_for": lambda s: checks.suite_for("all", s, None),
        "hamiltonian_diagonal": ladder.hamiltonian_diagonal,
        "apply_lowering": lambda s: ladder.apply_lowering(s, 0, 0.5),
        "physical_boson_ops": expansion.physical_boson_ops,
    }

    def test_table_holds_each_smallest_q(self):
        assert MIN_Q == {
            "the quadrature oracle": 2, "the closed-form matrix": 2,
            "the series expansion": 3, "the algebra suite": 1, "the ladder action": 1,
            "the algebraic Hamiltonian": 1, "the physical boson pair": 3,
            "the su2 model": 1, "the crude model": 2, "the exact coupling": 2,
            "the exact model": 3, "the zA-zB model": 3, "the model comparison": 3}

    @pytest.mark.parametrize("name", sorted(ENTRIES))
    def test_non_integer_well_gets_the_one_message(self, name):
        with pytest.raises(DomainError) as info:
            self.ENTRIES[name](self.SHALLOW)
        subject, minimum, q = self.MESSAGE.fullmatch(str(info.value)).groups()
        assert MIN_Q[subject] == int(minimum)
        assert float(q) == well_numbers(self.SHALLOW).q
        assert "nu" not in str(info.value)
        assert info.traceback[-1].name == "integer_q"  # raised by the one check

    @pytest.mark.parametrize("subject, minimum", sorted(MIN_Q.items()))
    def test_integer_q_from_the_minimum_on(self, subject, minimum):
        assert integer_q(PotentialSpec.for_integer_q(minimum), subject) == minimum
        assert type(integer_q(PotentialSpec.for_integer_q(minimum + 7), subject)) is int
        if minimum > 1:
            with pytest.raises(DomainError, match=f"^{subject} requires q >= {minimum}, "
                                                  f"an integer; this well has q = {minimum - 1}$"):
                integer_q(PotentialSpec.for_integer_q(minimum - 1), subject)

    def test_unknown_computation(self):
        with pytest.raises(DomainError, match="unknown computation 'the bogus model'"):
            vibron.coupled_model(PotentialSpec.for_integer_q(3), "bogus", 0.02)

    def test_no_other_module_tests_integer_q(self):
        # Outside states.py only the states suite's dissociation row reads
        # q_is_integer, and no other module states a q requirement.
        src = Path(checks.__file__).parent
        for path in src.glob("*.py"):
            if path.name != "states.py":
                text = path.read_text(encoding="utf-8")
                assert text.count("q_is_integer") == (path.name == "checks.py"), path.name
                assert "requires q >=" not in text and "min_q" not in text, path.name


class TestEnergy:
    def test_q2_levels(self):
        spec = PotentialSpec.for_integer_q(2)
        assert energy(spec, 0) == pytest.approx(-2.0, abs=1e-14)
        assert energy(spec, 1) == pytest.approx(-0.5, abs=1e-14)

    def test_q3_last_level(self):
        spec = PotentialSpec.for_integer_q(3)
        assert energy(spec, 2) == pytest.approx(-0.5, abs=1e-14)

    def test_monotone_and_negative(self):
        spec = PotentialSpec.for_integer_q(6)
        levels = [energy(spec, n) for n in range(6)]
        assert all(e < 0.0 for e in levels)
        assert all(a < b for a, b in zip(levels, levels[1:]))

    def test_unbound_rejected(self):
        spec = PotentialSpec.for_integer_q(2)
        with pytest.raises(DomainError):
            energy(spec, 2)

    def test_matches_label_epsilon(self):
        spec = PotentialSpec(D=4.7, alpha=1.3, mu=0.8, hbar=1.1)
        wn = well_numbers(spec)
        scale = (spec.alpha * spec.hbar) ** 2 / (2.0 * spec.mu)
        for label in bound_state_labels(spec):
            assert energy(spec, label.n) == -scale * label.epsilon ** 2

    def test_dissociation_gap_for_integer_q(self):
        for q in (2, 3, 5):
            spec = PotentialSpec.for_integer_q(q)
            wn = well_numbers(spec)
            assert abs(energy(spec, wn.n_max)) == pytest.approx(0.5, abs=1e-12)


class TestStateLabel:
    def test_fields(self):
        label = StateLabel.from_nu_n(5.0, 1)
        assert label.epsilon == 1.0
        assert label.j == 2.0
        assert label.m == -1.0

    @pytest.mark.parametrize("q", [2, 3, 5, 10])
    def test_physical_branch_constraints(self, q):
        spec = PotentialSpec.for_integer_q(q)
        for label in bound_state_labels(spec):
            assert 2.0 * label.epsilon == pytest.approx(
                label.nu - 2 * label.n - 1, abs=1e-12)
            assert label.m <= -1.0
            assert label.epsilon >= 1.0


class TestNormalization:
    def test_closed_form_q2(self):
        assert normalization_constant(2.0, 0, 1.0) == pytest.approx(
            math.sqrt(0.75), abs=1e-12)

    def test_unit_norm_by_quadrature(self):
        spec = PotentialSpec.for_integer_q(3)
        assert overlap(spec, 0, 0) == pytest.approx(1.0, abs=1e-10)

    def test_alpha_scaling(self):
        for q, n in [(2, 0), (3, 1), (5, 4)]:
            ratio = normalization_constant(q, n, 2.0) / normalization_constant(q, n, 1.0)
            assert ratio == pytest.approx(math.sqrt(2.0), abs=1e-13)

    def test_dissociation_edge_rejected(self):
        with pytest.raises(DomainError):
            normalization_constant(2.0, 2, 1.0)

    @pytest.mark.parametrize("n", [493, 539, 540])
    def test_norm_below_the_normal_range_is_an_error(self, n):
        # Subnormal from n = 493, once read as 5e-324 at n = 539 and 0.0 at n = 540.
        with pytest.raises(EvaluationError, match=f"level n = {n} of a q = 2000 well"):
            normalization_constant(2000, n, 1.0)
        assert normalization_constant(2000, 492, 1.0) > 2.2250738585072014e-308


class TestSinhSteps:
    """The recurrence's coefficients, derived in ``states``, are the closed-form sinh matrix."""

    @pytest.mark.parametrize("q", [2, 3, 10, 30, 150, 1000])
    def test_match_the_sinh_matrix_off_diagonals(self, q):
        m = ladder.sinh_matrix(2 * q + 1).entries
        steps = _sinh_steps(float(q), q - 1)
        np.testing.assert_allclose(steps, np.diag(m, 1), rtol=4e-16, atol=0.0)
        np.testing.assert_allclose(steps, np.diag(m, -1), rtol=4e-16, atol=0.0)

    @pytest.mark.parametrize("spec", [PotentialSpec.for_integer_q(12),
                                      PotentialSpec(D=40.45, alpha=1.3)], ids=["q=12", "D=40.45"])
    def test_ladder_relation_holds_pointwise(self, spec):
        # sinh(alpha x) psi_n = s_(n-1) psi_(n-1) + s_n psi_(n+1) for every level pair.
        top = well_numbers(spec).n_max
        x = np.linspace(-9.0, 9.0, 181) / spec.alpha
        psi = wavefunction(spec, np.arange(top + 1)[:, None], x)
        steps = _sinh_steps(well_numbers(spec).q, top)
        left = np.sinh(spec.alpha * x) * psi[:-1]
        right = steps[:, None] * psi[1:]
        right[1:] += steps[:-1, None] * psi[:-2]
        assert np.max(np.abs(left - right)) < 1e-12 * np.max(np.abs(left))


class TestWavefunction:
    @pytest.mark.parametrize("q", [2, 3, 5])
    def test_parity(self, q):
        spec = PotentialSpec.for_integer_q(q)
        grid = np.linspace(-4.0, 4.0, 11)
        for n in range(well_numbers(spec).n_max + 1):
            mirrored = wavefunction(spec, n, -grid)
            assert np.max(np.abs(mirrored - (-1) ** n * wavefunction(spec, n, grid))) \
                < 1e-12

    @pytest.mark.parametrize("q", [2, 3, 5])
    def test_normalized(self, q):
        spec = PotentialSpec.for_integer_q(q)
        for n in range(well_numbers(spec).n_max + 1):
            assert overlap(spec, n, n) == pytest.approx(1.0, abs=1e-10)

    def test_orthogonal(self):
        spec = PotentialSpec.for_integer_q(3)
        assert overlap(spec, 0, 1) == pytest.approx(0.0, abs=1e-10)
        assert overlap(spec, 0, 2) == pytest.approx(0.0, abs=1e-10)

    @pytest.mark.parametrize("q", [2, 3, 5, 10])
    def test_gram_identity(self, q):
        spec = PotentialSpec.for_integer_q(q)
        count = well_numbers(spec).n_max + 1
        gram = np.array([[overlap(spec, i, j) for j in range(count)]
                         for i in range(count)])
        assert np.max(np.abs(gram - np.eye(count))) < 1e-9

    def test_fractional_q_normalized(self):
        spec = PotentialSpec(D=2.0, alpha=1.0)
        for n in range(well_numbers(spec).n_max + 1):
            assert overlap(spec, n, n, half=60.0, panels=80) == pytest.approx(
                1.0, abs=1e-9)

    @pytest.mark.parametrize("q", [2, 3, 4, 5])
    def test_node_count(self, q):
        spec = PotentialSpec.for_integer_q(q)
        grid = np.linspace(-12.0, 12.0, 4801)
        for n in range(well_numbers(spec).n_max + 1):
            values = wavefunction(spec, n, grid)
            signs = np.sign(values[np.abs(values) > 1e-12])
            assert int(np.sum(signs[1:] != signs[:-1])) == n

    def test_unbound_rejected(self):
        with pytest.raises(DomainError):
            wavefunction(PotentialSpec.for_integer_q(2), 5, 0.1)


class TestLevelArrays:
    """Levels of shape (k, 1) give the rows of their lone calls, bit for bit."""

    @pytest.mark.parametrize("spec", [
        *(PotentialSpec.for_integer_q(q) for q in (2, 3, 10, 30, 50, 150, 300)),
        PotentialSpec(D=3.3, alpha=1.0),
        PotentialSpec(D=12.7, alpha=1.0),
        PotentialSpec(D=20000.0, alpha=1.0),
        PotentialSpec.for_integer_q(10, alpha=0.7, mu=1.9, hbar=1.3),
    ], ids=["q=2", "q=3", "q=10", "q=30", "q=50", "q=150", "q=300", "D=3.3", "D=12.7",
            "D=20000", "scaled"])
    @pytest.mark.parametrize("f", [wavefunction, wavefunction_derivative])
    def test_rows_are_the_lone_calls(self, spec, f):
        n_max = well_numbers(spec).n_max
        rng = np.random.default_rng(n_max)
        levels = rng.permutation(np.r_[np.arange(n_max + 1), 0, n_max, n_max // 2])
        nodes = np.asarray(gauss_legendre(n_max + 3).nodes)
        x = np.r_[np.arctanh(nodes), np.linspace(-40.0, 40.0, 81)] / spec.alpha
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rows = f(spec, levels[:, None], x)
            lone = np.array([f(spec, int(n), x) for n in levels])
        assert rows.shape == (len(levels), len(x))
        assert np.array_equal(rows, lone)

    def test_rows_are_the_lone_calls_across_rescalings(self):
        # In the tails of a q = 2000 well the recurrence's values pass 2^400
        # and are rescaled; a level must not depend on how far the run goes.
        spec = PotentialSpec.for_integer_q(2000)
        levels, x = np.array([1999, 0, 1000, 15, 16, 1000]), np.linspace(-30.0, 30.0, 61)
        for f in (wavefunction, wavefunction_derivative):
            rows = f(spec, levels[:, None], x)
            assert np.array_equal(rows, [f(spec, int(n), x) for n in levels])

    @pytest.mark.parametrize("spec", [
        PotentialSpec.for_integer_q(3), PotentialSpec(D=40.45, alpha=1.0),
        PotentialSpec.for_integer_q(2000)], ids=["q=3", "D=40.45", "q=2000"])
    def test_far_tails_are_tiny_and_finite(self, spec):
        levels = np.arange(well_numbers(spec).n_max + 1)[:, None]
        x = np.array([-np.inf, -1e300, -1e3, 1e3, 1e300, np.inf])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for f in (wavefunction, wavefunction_derivative):
                values = f(spec, levels, x)
                assert np.all(np.abs(values) < 1e-200)  # e^(-1000 eps) at x = 1e3
                assert np.array_equal(values[:, [0, 1, 4, 5]], np.zeros((len(levels), 4)))

    def test_scalar_point(self):
        spec = PotentialSpec.for_integer_q(5)
        levels = np.array([[4], [0], [2]])
        rows = wavefunction_derivative(spec, levels, 0.7)
        assert rows.shape == (3, 1)
        assert rows[:, 0].tolist() == [wavefunction_derivative(spec, n, 0.7) for n in (4, 0, 2)]

    @pytest.mark.parametrize("f", [wavefunction, wavefunction_derivative])
    @pytest.mark.parametrize("bad", [5, -1, 1.5])
    def test_every_level_must_be_bound(self, f, bad):
        with pytest.raises(DomainError, match=f"n = {bad} is not a bound state"):
            f(PotentialSpec.for_integer_q(5), np.array([[0], [bad], [4]]), np.zeros(3))


class TestWavefunctionDerivative:
    @pytest.mark.parametrize("q,n,x", [
        (2, 0, -1.0), (2, 0, 0.3), (2, 0, 2.0),
        (3, 2, -1.0), (3, 2, 0.3), (3, 2, 2.0),
        (5, 3, 0.7),
    ])
    def test_matches_finite_differences(self, q, n, x):
        spec = PotentialSpec.for_integer_q(q)
        h = 1e-5
        fd = (wavefunction(spec, n, x + h) - wavefunction(spec, n, x - h)) / (2.0 * h)
        assert wavefunction_derivative(spec, n, x) == pytest.approx(fd, abs=1e-7)

    def test_even_states_flat_at_origin(self):
        for q, n in [(3, 0), (3, 2), (5, 4)]:
            spec = PotentialSpec.for_integer_q(q)
            assert wavefunction_derivative(spec, n, 0.0) == pytest.approx(0.0, abs=1e-14)

    def test_scaled_well(self):
        spec = PotentialSpec(D=24.0, alpha=2.0, mu=1.0, hbar=1.0)
        h = 1e-6
        for n in range(3):
            fd = (wavefunction(spec, n, 0.4 + h) - wavefunction(spec, n, 0.4 - h)) / (2 * h)
            assert wavefunction_derivative(spec, n, 0.4) == pytest.approx(fd, abs=1e-6)
