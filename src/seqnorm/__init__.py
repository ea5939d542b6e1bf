"""Multistage hypothesis tests for the mean of a normal distribution.

Design multistage plans with hard error guarantees (known or unknown
variance), calibrate the risk tuning parameter, evaluate certified
operating-characteristic and sample-number bounds through closed-form
Gaussian geometry, simulate plans on synthetic data, and run tests stage by
stage over real data with auditable persistence.
"""

from .calibrate import CalibrationResult, calibrate_known, calibrate_unknown
from .errors import (
    CalibrationError,
    DegenerateSampleError,
    DomainError,
    InconsistentBoundaryError,
    IntegrityError,
    PlanCertificationError,
    SeqnormError,
    SessionFormatError,
    StateError,
)
from .geometry import (
    ConeRegion,
    HyperbolaConeRegion,
    classify_branch,
    cone_prob,
    hyperbola_cone_prob,
)
from .plan_known import (
    Decision,
    KnownVarPlan,
    Plan,
    Stage,
    build_known_plan,
    decision_code,
    decision_masks,
    oc_upper_phi,
)
from .plan_unknown import (
    UnknownVarPlan,
    build_unknown_plan,
    min_stage_size,
    mirror_unknown_plan,
    oc_upper_P,
)
from .runner import (
    HistoryEntry,
    SessionStatus,
    TestSession,
    feed,
    load_plan,
    load_session,
    new_session,
    plan_from_dict,
    plan_to_dict,
    save_plan,
    save_session,
)
from .simulate import SimReport, TransitionSums, mc_transition_sums, simulate_plan
from .special import (
    chi_square_cdf,
    chi_square_quantile,
    noncentral_t_cdf,
    std_normal_cdf,
    std_normal_critical,
    student_t_critical,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
