"""Metric projections on weighted p-norm spaces: closed-form derivatives and
coderivative fibers, cross-checked by finite differences and a sampled
quotient oracle."""

from .coderivative import (
    CoderivResult,
    ConditionReport,
    EmptyFiber,
    OrderInterval,
    Singleton,
    ThetaMembership,
    Verdict,
    coderiv_ball,
    coderiv_cylinder,
    cone_interval_at_origin,
    cone_jf_member,
    cone_theta_member,
    cylinder_theta_member,
    interval_contains,
    sphere_theta_member,
)
from .decomposition import Anchor, a_coef, a_star, in_O, o_part, o_star
from .derivatives import (
    DirectionClass,
    DirectionKind,
    FDEstimate,
    FDSchedule,
    Witness,
    classify_direction,
    frechet_apply,
    gateaux_fd,
    nonsmoothness_witness,
)
from .errors import (
    DegenerateInputError,
    DimensionMismatchError,
    NoDerivativeError,
    NonFiniteError,
    NotOnBoundaryError,
    PreconditionError,
    ProjcalcError,
    UnsupportedSetError,
)
from .instances import gen_instance, sample_in_set
from .oracle import (
    NotRejected,
    OracleConfig,
    OracleVerdict,
    RejectedWithWitness,
    coderiv_quotient,
    quotient_denominator_pair,
    test_membership,
)
from .report import CaseResult, Report, render_csv, render_json
from .suites import SuiteSpec, run_suite
from .projections import (
    Ball,
    ConvexSet,
    CoordSubspace,
    Cylinder,
    PositiveCone,
    RegionKind,
    RegionTag,
    classify_region,
    mask_complement,
    mask_restrict,
    neg_part,
    pos_part,
    project,
    set_contains,
    variational_residual,
)
from .space import (
    DualPoint,
    PrimalPoint,
    SpaceConfig,
    duality_map,
    duality_map_inv,
    is_theta,
    norm_dual,
    norm_primal,
    pair,
    smoothness,
)

__version__ = "0.1.0"
