"""Exact symbolic toolkit for multiparameter Poisson/quantum symplectic and
Euclidean algebras, their admissible-set strata, and the stratum maps
relating the two sides."""

from .admissible import (
    AdmissibleSet,
    derived_sets,
    enumerate_admissible,
    eta_injectivity,
    stratum_label,
    stratum_poset,
)
from .algebra_an import (
    PoissonParams,
    build_an,
    consistency_check,
    iterated_presentation,
    k_basis,
    level_eigen_elements,
    quotient_system,
    verify_omega_identities,
)
from .algebra_kn import (
    NCElement,
    QuantumParams,
    QuantumTorus,
    nc_multiply,
)
from .correspondence import (
    AdditiveCharacter,
    GroupContainsMinusOne,
    group_character,
    poisson_stratum_map,
    quantum_stratum_map,
    stratification_report,
    verify_poisson_stratum_map,
    verify_quantum_stratum_map,
)
from .exact_poly import (
    LaurentPoly,
    ReductionSystem,
    VarSpec,
    format_poly,
    group_analysis,
    reduce_poly,
)
from .poisson_core import (
    DoubleExtensionSpec,
    PoissonDerivation,
    PoissonStructure,
    derivation_residuals,
    double_extend,
    ore_extend,
)

__version__ = "0.1.0"
