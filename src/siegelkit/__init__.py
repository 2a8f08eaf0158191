"""siegelkit: symplectic period-domain geometry, Siegel modular forms, and
general-type certificates for Siegel varieties.

The package is organized around exact arithmetic wherever the mathematics is
exact (symplectic identities, lattice theta coefficients, cone combinatorics)
and tolerance-tiered numerics for the metric and curvature verifications.
"""

from .symplectic import (
    SymplecticForm,
    SymplecticMatrix,
    pairing,
    is_symplectic,
    congruence_membership,
    random_symplectic,
)
from .siegelspace import (
    SiegelPoint,
    PeriodPoint,
    TangentDirection,
    moebius_act,
    cocycle,
    borel_embed,
    bergman_metric,
    bergman_volume_density,
    boundary_growth_probe,
)
from .hodge import (
    HodgeStructureW1,
    HiggsElement,
    hodge_inner,
    kodaira_spencer,
    hodge_metric_tangent,
    kahler_einstein_check,
    higgs_curvature_identity_check,
)
from .fourier import (
    HalfIntegralMatrix,
    FourierExpansion,
    SlashContext,
    evaluate,
    symmetry_check,
    siegel_phi,
    is_cusp_level1,
    decay_check,
)
from .thetaforms import (
    ThetaCharacteristic,
    TruncationParams,
    LatticeGram,
    even_characteristics,
    theta_constant,
    lattice_theta_coefficients,
    named_lattice,
    chi10,
    chi18,
    schottky_chi8_coefficients,
)
from .toroidal import (
    ConeSigma,
    MonomialChartMap,
    principal_cone,
    principal_cone_fixture,
    dual_monoid_generators,
    monomial_map,
    verify_divisor_pullback,
)
from .generaltype import (
    CuspFormEvidence,
    GeneralTypeCertificate,
    weight_to_power,
    certify,
    reproduce_example_table,
)

__version__ = "0.1.0"
