"""Contract of the package's value types: immutable, validated, equal by value."""

import dataclasses
import importlib
import pkgutil

import numpy as np
import pytest

import mptsu2
from mptsu2.checks import CheckResult
from mptsu2.errors import DomainError
from mptsu2.expansion import expansion_weights, renormalized_generators
from mptsu2.ladder import build_su2_matrices, sinh_matrix
from mptsu2.oracle import SINH_ALPHA_X, Observable, OracleConfig
from mptsu2.specfun import QuadratureRule, gauss_legendre
from mptsu2.states import (
    FULL_KIND,
    PHYSICAL_KIND,
    TWO_OSC_KIND,
    OperatorMatrix,
    PotentialSpec,
    StateLabel,
    well_numbers,
)
from mptsu2.vibron import (
    SpectroParams,
    VibronParams,
    compare_models,
    pair_basis,
)

# Per value type: a factory that builds a fresh instance, and one field.
CASES = {
    "QuadratureRule": (lambda: gauss_legendre(4), "order"),
    "PotentialSpec": (lambda: PotentialSpec(D=6.0, alpha=1.0), "D"),
    "WellNumbers": (lambda: well_numbers(PotentialSpec.for_integer_q(3)), "q"),
    "StateLabel": (lambda: StateLabel.from_nu_n(7.0, 1), "n"),
    "OperatorMatrix": (lambda: sinh_matrix(7), "entries"),
    "LadderTriple": (lambda: build_su2_matrices(5), "plus"),
    "Observable": (lambda: SINH_ALPHA_X, "name"),
    "OracleConfig": (lambda: OracleConfig(), "rule_order"),
    "ExpansionWeights": (lambda: expansion_weights(9), "x_raise"),
    "BosonPair": (lambda: renormalized_generators(7), "create"),
    "SpectroParams": (lambda: SpectroParams(3.5, 0.5), "omega_e"),
    "VibronParams": (lambda: VibronParams(N=4, omega0=1.0), "N"),
    "TwoOscBasis": (lambda: pair_basis(3), "pairs"),
    "ComparisonReport": (lambda: compare_models(PotentialSpec.for_integer_q(3), 0.02),
                         "eigenvalues"),
    "CheckResult": (lambda: CheckResult("check", 1.0, 2.0), "measured"),
}

# Types whose fields hold no arrays, so == is defined between fresh instances.
# Observable is left out: code tells observables apart by identity
# (``obs is POSITION_X``), so its equality is not part of the contract.
BY_VALUE = sorted(set(CASES) - {"OperatorMatrix", "LadderTriple", "BosonPair",
                                    "Observable"})


def _package_modules():
    names = ["mptsu2"] + [f"mptsu2.{m.name}" for m in pkgutil.iter_modules(mptsu2.__path__)]
    return [importlib.import_module(name) for name in names]


def test_no_class_is_a_dataclass():
    found = [f"{mod.__name__}.{name}" for mod in _package_modules()
             for name, obj in vars(mod).items()
             if isinstance(obj, type) and dataclasses.is_dataclass(obj)]
    assert found == []


def test_every_case_builds_its_type():
    assert all(type(make()).__name__ == name for name, (make, _) in CASES.items())


@pytest.mark.parametrize("name", sorted(CASES))
def test_fields_cannot_be_assigned(name):
    make, field = CASES[name]
    obj = make()
    before = getattr(obj, field)
    with pytest.raises(AttributeError):
        setattr(obj, field, 0)
    with pytest.raises(AttributeError):
        obj.not_a_field = 0
    assert getattr(obj, field) is before


@pytest.mark.parametrize("name", BY_VALUE)
def test_equal_constructions_compare_equal(name):
    make = CASES[name][0]
    assert make() == make()


def test_repr_names_type_and_fields():
    assert repr(PotentialSpec(D=6.0, alpha=1.0)) == \
        "PotentialSpec(D=6.0, alpha=1.0, mu=1.0, hbar=1.0)"
    assert repr(OracleConfig(5)) == "OracleConfig(rule_order=5)"
    assert repr(CheckResult("c", 1.0, 2.0)) == \
        "CheckResult(name='c', measured=1.0, tolerance=2.0)"


class TestConstruction:
    def test_keyword_defaults(self):
        spec = PotentialSpec(D=6.0, alpha=1.0)
        assert (spec.mu, spec.hbar) == (1.0, 1.0)
        assert OracleConfig().rule_order is None
        vp = VibronParams(N=4, omega0=1.0)
        assert (vp.lam, vp.hbar) == (0.0, 1.0)
        obs = Observable("o", SINH_ALPHA_X.weight)
        assert obs.acts_on_derivative is False and obs.parity == 0

    def test_positional_order(self):
        spec = PotentialSpec(6.0, 2.0, 3.0, 4.0)
        assert (spec.D, spec.alpha, spec.mu, spec.hbar) == (6.0, 2.0, 3.0, 4.0)
        vp = VibronParams(4, 2.0, 0.1, 3.0)
        assert (vp.N, vp.omega0, vp.lam, vp.hbar) == (4, 2.0, 0.1, 3.0)
        sp = SpectroParams(3.5, 0.5)
        assert (sp.omega_e, sp.xe_omega_e) == (3.5, 0.5)
        rule = gauss_legendre(3)
        assert QuadratureRule(rule.nodes, rule.weights, 3) == rule
        assert OracleConfig(7).rule_order == 7
        label = StateLabel(7.0, 1, 2.0, 3.0, -2.0)
        assert (label.nu, label.n, label.epsilon, label.j, label.m) == \
            (7.0, 1, 2.0, 3.0, -2.0)
        assert CheckResult("c", 1.0, 2.0).passed

    def test_properties_and_classmethods(self):
        assert PotentialSpec.for_integer_q(3).D == 6.0
        assert well_numbers(PotentialSpec.for_integer_q(3)).q_is_integer
        assert build_su2_matrices(5).j == 2.0
        assert sinh_matrix(7).dim == 3
        assert pair_basis(3).dim == 9
        assert VibronParams(N=4, omega0=2.0, hbar=0.5).energy_quantum == 1.0
        assert not CheckResult("c", 2.0, 1.0).passed


class TestValidation:
    @pytest.mark.parametrize("kwargs, message", [
        ({"D": 0.0, "alpha": 1.0}, "PotentialSpec.D must be strictly positive"),
        ({"D": -1.0, "alpha": 1.0}, "PotentialSpec.D must be strictly positive"),
        ({"D": 1.0, "alpha": -1.0}, "PotentialSpec.alpha must be strictly positive"),
        ({"D": 1.0, "alpha": 1.0, "mu": 0.0}, "PotentialSpec.mu must be strictly positive"),
        ({"D": 1.0, "alpha": 1.0, "hbar": -2.0},
         "PotentialSpec.hbar must be strictly positive"),
    ])
    def test_potential_spec(self, kwargs, message):
        with pytest.raises(DomainError, match=message):
            PotentialSpec(**kwargs)

    @pytest.mark.parametrize("args, message", [
        (((0.0,), (2.0,), 2), "quadrature order must be a positive integer"),
        (((), (), 0), "quadrature order must be a positive integer"),
        (((-0.5, 0.5), (-1.0, 3.0), 2), "quadrature weights must be positive"),
        (((-0.5, 0.5), (1.0, 0.5), 2), "quadrature weights must sum to 2"),
        (((0.5, -0.5), (1.0, 1.0), 2), "nodes must be increasing and symmetric about 0"),
        (((-0.5, 0.6), (1.0, 1.0), 2), "nodes must be increasing and symmetric about 0"),
    ])
    def test_quadrature_rule(self, args, message):
        with pytest.raises(DomainError, match=message):
            QuadratureRule(*args)

    @pytest.mark.parametrize("entries, basis, kind, message", [
        (np.ones((2, 3)), ((0, 0), (0, 1)), TWO_OSC_KIND, "operator matrix must be square"),
        (np.ones((2, 2)), ((0, 0),), TWO_OSC_KIND, "basis length must match"),
        (np.ones((2, 2)), (StateLabel.from_nu_n(5.0, 0), StateLabel.from_nu_n(5.0, 1)),
         FULL_KIND, "full spin-j matrices must have dimension nu"),
        (np.ones((1, 1)), (StateLabel.from_nu_n(7.0, 0),), PHYSICAL_KIND,
         r"physical matrices must cover the \(nu - 1\)/2 bound states"),
    ])
    def test_operator_matrix(self, entries, basis, kind, message):
        with pytest.raises(DomainError, match=message):
            OperatorMatrix(entries, basis, kind)

    @pytest.mark.parametrize("order", [0, -3])
    def test_oracle_config(self, order):
        with pytest.raises(DomainError, match="rule_order must be at least 1"):
            OracleConfig(rule_order=order)

    @pytest.mark.parametrize("args", [(0.0, 0.5), (3.5, 0.0), (-1.0, -1.0)])
    def test_spectro_params(self, args):
        with pytest.raises(DomainError, match="spectroscopic constants must be positive"):
            SpectroParams(*args)

    @pytest.mark.parametrize("kwargs, message", [
        ({"N": 0, "omega0": 1.0}, "boson number N must be a positive integer"),
        ({"N": 2.5, "omega0": 1.0}, "boson number N must be a positive integer"),
        ({"N": 4, "omega0": 0.0}, "omega0 must be positive"),
    ])
    def test_vibron_params(self, kwargs, message):
        with pytest.raises(DomainError, match=message):
            VibronParams(**kwargs)
