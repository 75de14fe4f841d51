"""Metric projections on weighted p-norm spaces: closed-form derivatives and
coderivative fibers, cross-checked by finite differences and a sampled
quotient oracle."""

from .coderivative import (
    Box,
    CoderivResult,
    ConditionReport,
    EmptyFiber,
    Singleton,
    ThetaMembership,
    Verdict,
    coderiv_ball,
    coderiv_cylinder,
    cone_fiber,
    cone_theta_member,
    contains,
)
from .decomposition import Anchor, a_coef, a_star, in_O, o_part, o_star
from .derivatives import (
    DirectionClass,
    DirectionKind,
    FDEstimate,
    Witness,
    classify_direction,
    frechet_apply,
    gateaux_fd,
    nonsmoothness_witness,
)
from .errors import (
    DegenerateInputError,
    DimensionMismatchError,
    InvalidSetError,
    InvalidSpaceError,
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
