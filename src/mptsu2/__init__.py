"""Modified Poschl-Teller oscillator toolkit.

Bound states of the well V(x) = -D / cosh^2(alpha x), the su(2) ladder
algebra they carry, closed-form and quadrature matrix elements, generator
expansions of position and momentum, and coupled two-oscillator models.
"""

__version__ = "0.1.0"

from .errors import DomainError, EvaluationError
from .specfun import (
    QuadratureRule,
    gauss_legendre,
    gegenbauer,
    gegenbauer_derivative,
    integrate,
    log_gamma,
)
from .states import (
    PotentialSpec,
    StateLabel,
    WellNumbers,
    bound_state_labels,
    depth_for_integer_q,
    energy,
    normalization_constant,
    wavefunction,
    wavefunction_derivative,
    well_numbers,
)
from .ladder import (
    LadderTriple,
    OperatorMatrix,
    apply_lowering,
    apply_raising,
    build_su2_matrices,
    casimir,
    cosh_ddx_matrix,
    hamiltonian_diagonal,
    lowering_coefficient,
    normalization_chain,
    project_physical,
    raising_coefficient,
    sinh_matrix,
)
from .oracle import (
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
)
from .expansion import (
    BosonPair,
    ExpansionWeights,
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
from .vibron import (
    ComparisonReport,
    PairModel,
    SpectroParams,
    TwoOscBasis,
    VibronParams,
    approx_interaction,
    compare_models,
    coupled_model,
    coupling,
    diagonal_energies,
    exact_interaction,
    harmonic_model,
    pair_basis,
    polyad_operator,
    spectro_from_potential,
    spectro_from_vibron,
    spectrum,
    su2_hamiltonian,
    vibron_params_from_spectro,
)
