"""Exact genus-two hyperelliptic identity verification with numeric harnesses.

Layers:

* curvering / flows: exact arithmetic in the function field of a genus-two
  curve and the two commuting flow derivations;
* identities / sweep: the identity catalog reduced to exact zero tests over
  seeded random curves;
* elliptic / jets / transforms: genus-one Jacobi and Weierstrass functions
  plus the profile-map factorization identities;
* pde / akns: pseudo-spectral KdV and generalized modified-flow evolution,
  the Miura pipeline, and the zero-curvature compatibility check.
"""

__version__ = "0.1.0"

from .akns import AKNSParams, JetPoint, akns_commutator_residual, gmkdv_jet_residual, signed_mkdv_residual
from .curvering import (
    CurveParams,
    CurveRingError,
    DivisionByZero,
    Fld,
    Poly,
    PoleAtPoint,
    Rat,
)
from .elliptic import (
    DegenerateRoots,
    EllipticError,
    PoleArgument,
    SingularDenominator,
    WeierstrassRoots,
    agm,
    cn,
    dn,
    halfperiod_residual_g1,
    quarter_period,
    sn,
    sncndn,
    weierstrass_p,
    weierstrass_p_prime,
)
from .flows import FLOW_U1, FLOW_U2, flow_derivative
from .identities import (
    G2Functions,
    IDENTITY_SETS,
    IdentityId,
    MissingConstraint,
    VerifyReport,
    identity_ids,
    residuals,
    verify_all,
)
from .jets import Jet, sn_jet, sn_jet_triple, trig_jet
from .pde import (
    BlowUp,
    Field1D,
    Grid1D,
    InsufficientSnapshots,
    UnstableStep,
    cnoidal_wave,
    conserved_quantities,
    evolve_trajectory,
    exact_soliton,
    gmkdv_residual,
    kdv_residual,
    miura_map,
    one_soliton,
    soliton_peak_travel,
)
from .sweep import SweepConfig, run_sweep, sample_curves, summarize
from .transforms import (
    TRANSFORMATIONS,
    paired_profile_jet,
    sn_pair_check,
    sn_profile_jet,
    source_residual_jet,
    static_transformation_residuals,
    transformed_profile,
)
