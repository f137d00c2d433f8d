"""Modified Poschl-Teller oscillator toolkit.

Bound states of the well V(x) = -D / cosh^2(alpha x), the su(2) ladder
algebra they carry, closed-form and quadrature matrix elements, generator
expansions of position and momentum, and coupled two-oscillator models.

Each public name below resolves on first access by importing its home
module (PEP 562), so ``import mptsu2`` loads no submodule and a CLI command
compiles only the modules it runs.
"""

__version__ = "0.1.0"

_EXPORTS = {
    "errors": ("DomainError", "EvaluationError"),
    "specfun": ("QuadratureRule", "gauss_legendre", "integrate", "log_gamma"),
    "states": ("OperatorMatrix", "PotentialSpec", "StateLabel", "WellNumbers",
               "bound_state_labels", "depth_for_integer_q", "energy", "normalization_constant",
               "wavefunction", "wavefunction_derivative", "well_numbers"),
    "ladder": ("LadderTriple", "apply_lowering", "apply_raising", "build_su2_matrices",
               "casimir", "cosh_ddx_matrix", "hamiltonian_diagonal",
               "lowering_coefficient", "normalization_chain", "project_physical",
               "raising_coefficient", "sinh_matrix"),
    "oracle": ("COSH_DDX_OVER_ALPHA", "DDX", "IDENTITY", "POSITION_X", "POTENTIAL",
               "SINH_ALPHA_X", "Observable", "OracleConfig", "derivative_matrix",
               "observable_matrix"),
    "expansion": ("BosonPair", "ExpansionWeights", "approx_boson_ops", "boson_map_weights",
                  "channel_coefficient", "consistent_boson_ops", "expansion_weights",
                  "interaction_frequency", "momentum_matrix_expansion",
                  "physical_boson_ops", "position_matrix_expansion",
                  "renormalized_generators"),
    "pairs": ("PairModel", "TwoOscBasis", "pair_basis", "spectrum"),
    "vibron": ("ComparisonReport", "SpectroParams", "VibronParams", "approx_interaction",
               "compare_models", "coupled_model", "coupling", "diagonal_energies",
               "exact_interaction", "harmonic_model", "polyad_operator",
               "spectro_from_potential", "spectro_from_vibron", "su2_hamiltonian",
               "vibron_params_from_spectro"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = list(_HOME)


def __getattr__(name: str):
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_HOME})
