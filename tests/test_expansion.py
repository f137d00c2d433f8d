"""Generator expansions of x and momentum, and the approximate boson pairs."""

import math
import warnings

import numpy as np
import pytest

from mptsu2.errors import DomainError
from mptsu2.expansion import (
    APPROX_BOSON,
    CONSISTENT_BOSON,
    PHYSICAL_BOSON,
    RENORMALIZED_SU2,
    approx_boson_ops,
    boson_map_weights,
    channel_coefficient,
    consistent_boson_ops,
    expansion_weights,
    interaction_frequency,
    momentum_matrix_expansion,
    physical_boson_ops,
    position_matrix_expansion,
    renormalized_generators,
)
from mptsu2.ladder import build_su2_matrices, cosh_ddx_matrix, raising_coefficient, sinh_matrix
from mptsu2.oracle import (
    POSITION_X,
    OracleConfig,
    derivative_matrix,
    observable_matrix,
)
from mptsu2.states import PotentialSpec


def spec_for(nu):
    return PotentialSpec.for_integer_q((nu - 1) // 2)


class TestChannelCoefficients:
    def test_interior_values(self):
        # nu = 7, n = 0 has eps = 3; all four channels open.
        assert channel_coefficient(7, 0, "x-raise") == pytest.approx(
            math.sqrt(7.0 / 6.0), abs=1e-12)
        assert channel_coefficient(7, 0, "x-lower") == pytest.approx(
            math.sqrt(7.0 / 12.0), abs=1e-12)
        assert channel_coefficient(7, 0, "p-raise") == pytest.approx(
            math.sqrt(21.0 / 2.0), abs=1e-12)
        assert channel_coefficient(7, 0, "p-lower") == pytest.approx(
            math.sqrt(21.0 / 4.0), abs=1e-12)

    def test_edge_raising_channels_closed(self):
        for channel in ("x-raise", "p-raise"):
            with pytest.raises(DomainError, match="raising channel closed"):
                channel_coefficient(7, 2, channel)

    def test_edge_lowering_channels_open(self):
        assert channel_coefficient(7, 2, "x-lower") == pytest.approx(
            math.sqrt(3.5), abs=1e-12)
        assert channel_coefficient(7, 2, "p-lower") == pytest.approx(
            math.sqrt(3.5), abs=1e-12)

    @pytest.mark.parametrize("nu", [7, 21, 41])
    def test_product_identities(self, nu):
        for n in range((nu - 3) // 2):
            eps = (nu - 2 * n - 1) / 2.0
            x_up = channel_coefficient(nu, n, "x-raise")
            p_up = channel_coefficient(nu, n, "p-raise")
            x_dn = channel_coefficient(nu, n, "x-lower")
            p_dn = channel_coefficient(nu, n, "p-lower")
            assert x_up * p_up == pytest.approx(nu / (eps - 1.0), rel=1e-12)
            assert x_dn * p_dn == pytest.approx(nu / (eps + 1.0), rel=1e-12)

    def test_weight_table_marks_closed_channels(self):
        w = expansion_weights(7)
        assert math.isinf(w.x_raise[2]) and math.isinf(w.p_raise[2])
        assert all(math.isfinite(v) for v in w.x_lower + w.p_lower)


class TestRenormalizedGenerators:
    def test_first_transition(self):
        pair = renormalized_generators(5)
        assert pair.kind == RENORMALIZED_SU2
        assert pair.create.entries[1, 0] == pytest.approx(2.0 / math.sqrt(5.0),
                                                          abs=1e-14)

    def test_harmonic_limit_of_first_transition(self):
        pair = renormalized_generators(4001)
        assert pair.create.entries[1, 0] == pytest.approx(1.0, abs=1e-3)

    def test_commutator_ground_entry(self):
        for nu in (5, 21, 401):
            pair = renormalized_generators(nu)
            comm = (pair.annihilate.entries @ pair.create.entries
                    - pair.create.entries @ pair.annihilate.entries)
            assert comm[0, 0] == pytest.approx((nu - 1.0) / nu, abs=1e-12)

    def test_adjoint_pair(self):
        pair = renormalized_generators(21)
        assert np.array_equal(pair.annihilate.entries, pair.create.entries.T)


class TestPositionExpansion:
    @pytest.mark.parametrize("nu", [7, 21, 41])
    def test_order_one_is_sinh_matrix(self, nu):
        dev = position_matrix_expansion(nu, 1.0, 1).entries - sinh_matrix(nu).entries
        assert np.max(np.abs(dev)) < 1e-12

    def test_order_one_scales_with_alpha(self):
        assert np.allclose(position_matrix_expansion(21, 2.0, 3).entries,
                           position_matrix_expansion(21, 1.0, 3).entries / 2.0)

    @pytest.mark.parametrize("nu", [21, 41])
    def test_monotone_convergence_toward_oracle(self, nu):
        x_oracle = observable_matrix(spec_for(nu), POSITION_X).entries
        sub = np.s_[:3, :3]
        devs = [np.max(np.abs(position_matrix_expansion(nu, 1.0, order).entries[sub]
                              - x_oracle[sub]))
                for order in (1, 3, 5)]
        assert devs[1] <= devs[0]
        assert devs[2] <= devs[1]

    def test_harmonic_ratio_at_large_nu(self):
        oracle = observable_matrix(spec_for(101), POSITION_X).entries[1, 0]
        entry = position_matrix_expansion(101, 1.0, 1).entries[1, 0]
        assert entry / oracle == pytest.approx(1.0, abs=0.02)

    def test_parity_zeros(self):
        x5 = position_matrix_expansion(21, 1.0, 5).entries
        for i in range(x5.shape[0]):
            for j in range(x5.shape[0]):
                if (i + j) % 2 == 0:
                    assert x5[i, j] == 0.0

    def test_order_validation(self):
        with pytest.raises(DomainError):
            position_matrix_expansion(21, 1.0, 2)
        with pytest.raises(DomainError):
            position_matrix_expansion(5, 1.0, 1)


class TestMomentumExpansion:
    @pytest.mark.parametrize("nu", [7, 21, 41])
    def test_order_one_is_cosh_ddx_matrix(self, nu):
        dev = (momentum_matrix_expansion(nu, 1.0, 1).entries
               - cosh_ddx_matrix(nu).entries)
        assert np.max(np.abs(dev)) < 1e-12

    def test_order_one_against_oracle_lowest_transitions(self):
        r_oracle = derivative_matrix(spec_for(41)).entries
        r1 = momentum_matrix_expansion(41, 1.0, 1).entries
        for i, j in ((0, 1), (1, 0)):
            assert abs((r1[i, j] - r_oracle[i, j]) / r_oracle[i, j]) < 0.05

    @pytest.mark.parametrize("nu", [21, 41])
    def test_order_three_reduces_antisymmetry_defect_low_levels(self, nu):
        sub = np.s_[:3, :3]
        r1 = momentum_matrix_expansion(nu, 1.0, 1).entries
        r3 = momentum_matrix_expansion(nu, 1.0, 3).entries
        defect1 = np.linalg.norm((r1 + r1.T)[sub])
        defect3 = np.linalg.norm((r3 + r3.T)[sub])
        assert defect3 < defect1

    @pytest.mark.parametrize("nu", [21, 41])
    def test_order_three_improves_oracle_agreement(self, nu):
        r_oracle = derivative_matrix(spec_for(nu)).entries
        sub = np.s_[:3, :3]
        dev1 = np.max(np.abs(momentum_matrix_expansion(nu, 1.0, 1).entries[sub]
                             - r_oracle[sub]))
        dev3 = np.max(np.abs(momentum_matrix_expansion(nu, 1.0, 3).entries[sub]
                             - r_oracle[sub]))
        assert dev3 < dev1

    def test_harmonic_ratio_at_large_nu(self):
        # <1|d/dx|0> tends to -sqrt(mu omega / 2 hbar) in the harmonic limit.
        entry = momentum_matrix_expansion(101, 1.0, 1).entries[1, 0]
        harmonic = -math.sqrt(101.0 / 4.0)
        assert entry / harmonic == pytest.approx(1.0, abs=0.02)

    def test_parity_zeros(self):
        r3 = momentum_matrix_expansion(21, 1.0, 3).entries
        for i in range(r3.shape[0]):
            for j in range(r3.shape[0]):
                if (i + j) % 2 == 0:
                    assert r3[i, j] == 0.0

    def test_order_validation(self):
        with pytest.raises(DomainError):
            momentum_matrix_expansion(21, 1.0, 5)
        with pytest.raises(DomainError):
            momentum_matrix_expansion(5, 1.0, 1)


class TestBosonMapWeights:
    def test_values_at_seven(self):
        direct, cross = boson_map_weights(7, 0)
        assert direct == pytest.approx(0.5 * (math.sqrt(49.0 / 24.0)
                                              + math.sqrt(1.5)), abs=1e-12)
        assert cross == pytest.approx(0.5 * (math.sqrt(49.0 / 48.0)
                                             - math.sqrt(0.75)), abs=1e-12)
        assert direct == pytest.approx(1.3268, abs=1e-4)
        assert cross == pytest.approx(0.0722, abs=1e-4)

    def test_harmonic_limits(self):
        direct, cross = boson_map_weights(100001, 3)
        assert direct == pytest.approx(1.0, abs=1e-3)
        assert cross == pytest.approx(0.0, abs=1e-3)

    def test_one_over_nu_decay_rates(self):
        nus = np.arange(21, 402, 20)
        direct_dev = [abs(boson_map_weights(int(nu), 0)[0] - 1.0) for nu in nus]
        cross_dev = [abs(boson_map_weights(int(nu), 0)[1]) for nu in nus]
        slope_direct = np.polyfit(np.log(nus), np.log(direct_dev), 1)[0]
        slope_cross = np.polyfit(np.log(nus), np.log(cross_dev), 1)[0]
        assert slope_direct == pytest.approx(-1.0, abs=0.1)
        assert slope_cross == pytest.approx(-1.0, abs=0.1)

    def test_edge_divergence_reported_distinctly(self):
        with pytest.raises(DomainError, match="edge state"):
            boson_map_weights(7, 2)

    def test_range_check(self):
        with pytest.raises(DomainError):
            boson_map_weights(7, 3)


class TestApproxBosonOps:
    def test_first_transition_value(self):
        pair = approx_boson_ops(7)
        assert pair.kind == APPROX_BOSON
        direct, _ = boson_map_weights(7, 0)
        assert pair.create.entries[1, 0] == pytest.approx(
            direct * math.sqrt(6.0 / 7.0), abs=1e-12)

    def test_adjoint_by_construction(self):
        pair = approx_boson_ops(41)
        assert np.array_equal(pair.annihilate.entries, pair.create.entries.T)

    def test_tends_to_renormalized_generators(self):
        approx = approx_boson_ops(2001).create.entries[:4, :4]
        plain = renormalized_generators(2001).create.entries[:4, :4]
        assert np.max(np.abs(approx - plain)) < 4e-3

    def test_edge_column_uses_cross_channel_only(self):
        pair = approx_boson_ops(7)
        # Column of the last bound state: no divergent direct-channel entry.
        assert np.all(np.isfinite(pair.create.entries))
        assert pair.create.entries[1, 2] != 0.0


def _one_step_deviation(create, reference, nu):
    """nu * max |create - reference| over the n -> n +- 1 channels with n <= 3."""
    steps = [(n + 1, n) for n in range(4)] + [(n - 1, n) for n in range(1, 4)]
    return nu * max(abs(create[i, j] - reference[i, j]) for i, j in steps)


class TestConsistentBosonOps:
    def test_channel_elements(self):
        nu = 41
        pair = consistent_boson_ops(nu)
        assert pair.kind == CONSISTENT_BOSON
        create = pair.create.entries
        d = create.shape[0]
        expected = np.zeros((d, d))
        for n in range(d):
            if n + 1 < d:
                expected[n + 1, n] = math.sqrt(n + 1)
            if n > 0:
                expected[n - 1, n] = n ** 1.5 / nu
        assert np.max(np.abs(create - expected)) <= 1e-12
        assert np.array_equal(pair.annihilate.entries, create.T)

    def test_one_step_channels_agree_with_oracle_bosons_to_order_one_over_nu(self):
        # Correct to order 1/nu means nu * |error| is itself O(1/nu): it must
        # roughly halve from nu = 21 to nu = 41.  The first-order map keeps
        # an O(1) remainder there.
        consistent, first_order = {}, {}
        for q in (10, 20):
            nu = 2 * q + 1
            phys = physical_boson_ops(PotentialSpec.for_integer_q(q),
                                      OracleConfig()).create.entries
            consistent[q] = _one_step_deviation(
                consistent_boson_ops(nu).create.entries, phys, nu)
            first_order[q] = _one_step_deviation(
                approx_boson_ops(nu).create.entries, phys, nu)
        assert consistent[20] < 0.6 * consistent[10]
        assert first_order[20] > 0.6 * first_order[10]
        assert consistent[20] < first_order[20]

    def test_first_order_direct_elements_keep_their_one_over_nu_offset(self):
        # <n+1|create|n> = sqrt(n+1) (1 + (1 + n/2)/nu + O(1/nu^2)) under the
        # first-order map, where the x/p bosons have no 1/nu term.
        offsets = {}
        for nu in (201, 801):
            create = approx_boson_ops(nu).create.entries
            offsets[nu] = [nu * (create[n + 1, n] / math.sqrt(n + 1) - 1.0)
                           - (1.0 + n / 2.0) for n in range(4)]
        for n in range(4):
            assert abs(offsets[801][n]) < abs(offsets[201][n])
            assert abs(offsets[801][n]) < 0.05


class TestPhysicalBosonOps:
    def test_harmonic_sanity_large_well(self):
        pair = physical_boson_ops(spec_for(101))
        assert pair.kind == PHYSICAL_BOSON
        assert pair.create.entries[1, 0] == pytest.approx(1.0, abs=0.03)

    def test_commutator_ground_entry(self):
        pair = physical_boson_ops(spec_for(41))
        comm = (pair.annihilate.entries @ pair.create.entries
                - pair.create.entries @ pair.annihilate.entries)
        assert comm[0, 0] == pytest.approx(1.0, abs=0.05)

    def test_close_to_approx_pair_on_low_levels(self):
        phys = physical_boson_ops(spec_for(41)).create.entries
        approx = approx_boson_ops(41).create.entries
        # Tight bound on the lowest block; the next level sits at 0.058
        # (frozen from measurement; the mixing weights overshoot there).
        assert np.max(np.abs((phys - approx)[:2, :2])) <= 0.05
        assert np.max(np.abs((phys - approx)[:3, :3])) <= 0.06

    def test_requires_q_at_least_three(self):
        with pytest.raises(DomainError):
            physical_boson_ops(PotentialSpec.for_integer_q(2))


class TestInteractionFrequency:
    def test_matches_spectroscopic_frequency(self):
        spec = spec_for(7)
        assert interaction_frequency(spec) == pytest.approx(3.5, abs=1e-13)

    def test_alpha_scaling(self):
        base = PotentialSpec.for_integer_q(3)
        scaled = PotentialSpec.for_integer_q(3, alpha=2.0)
        assert interaction_frequency(scaled) == pytest.approx(
            4.0 * interaction_frequency(base), rel=1e-12)


class TestScalarViewsMatchMatrices:
    """The per-level functions and the branch matrices read one set of weights.

    Every comparison is bit for bit, and every builder runs with warnings as
    errors: the closed raising channels divide by zero at the edge level
    (eps = 1), which must be silenced where it happens, not leak out.
    """

    NUS = [5, 7, 21, 61, 201]
    CHANNELS = ["x-raise", "x-lower", "p-raise", "p-lower"]

    @pytest.fixture(autouse=True)
    def warnings_are_errors(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            yield

    @pytest.mark.parametrize("nu", NUS)
    def test_su2_subdiagonal_is_the_raising_coefficient(self, nu):
        found = np.diagonal(build_su2_matrices(nu).plus.entries, -1)
        want = np.array([raising_coefficient(nu, n) for n in range(nu - 1)])
        assert found.tobytes() == want.tobytes()

    @pytest.mark.parametrize("nu", NUS)
    @pytest.mark.parametrize("channel", CHANNELS)
    def test_expansion_weights_are_the_channel_coefficients(self, nu, channel):
        found = np.array(getattr(expansion_weights(nu), channel.replace("-", "_")))
        edge = (nu - 3) // 2
        want = [channel_coefficient(nu, n, channel) for n in range(edge)]
        if channel.endswith("raise"):
            with pytest.raises(DomainError, match="channel closed"):
                channel_coefficient(nu, edge, channel)
            want.append(math.inf)
        else:
            want.append(channel_coefficient(nu, edge, channel))
        assert found.tobytes() == np.array(want).tobytes()

    @pytest.mark.parametrize("nu", NUS[1:])
    def test_approx_direct_entries_are_the_map_weights(self, nu):
        found = np.diagonal(approx_boson_ops(nu).create.entries, -1)
        want = np.array([(1.0 / math.sqrt(nu))
                         * (raising_coefficient(nu, n) * boson_map_weights(nu, n)[0])
                         for n in range((nu - 3) // 2)])
        assert found.tobytes() == want.tobytes()
        with pytest.raises(DomainError, match="edge state"):
            boson_map_weights(nu, (nu - 3) // 2)

    @pytest.mark.parametrize("nu", NUS[1:])
    def test_branch_builders_warn_nothing(self, nu):
        built = [sinh_matrix(nu), cosh_ddx_matrix(nu),
                 position_matrix_expansion(nu, 1.0, 5), momentum_matrix_expansion(nu, 1.0, 3)]
        for build in (renormalized_generators, approx_boson_ops, consistent_boson_ops):
            built += build(nu)[:2]
        assert all(np.all(np.isfinite(m.entries)) for m in built)
