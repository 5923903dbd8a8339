"""Information loss of continuous random vectors through piecewise maps.

The package models a deterministic map assembled from bijective pieces
(plus declared collapsing pieces), an absolutely continuous input
density, and computes how much information about the input the output
destroys: exact-integrand Monte Carlo and quadrature estimates, a
differential-entropy decomposition, the branch-posterior route, upper
bounds, and a structural finite/infinite classification.

Typical use::

    from infoloss import load_config_file, preset_path, loss_eq5_mc

    setup = load_config_file(preset_path("ex1_fold_square"))
    report = loss_eq5_mc(setup.pmap, setup.density, n=1_000_000, seed=1)
    print(report.loss_bits)
"""

from .bounds import BoundsReport, bounds_report
from .classify import Classification, atom_scan, classify
from .config import (
    AnalysisParams,
    ModelSetup,
    list_presets,
    load_config,
    load_config_file,
    preset_path,
    triangle_abs_config,
)
from .errors import (
    AmbiguousBranchError,
    BoundViolationError,
    ConfigError,
    DimensionTooHighError,
    InfiniteLossError,
    InfoLossError,
    NoBranchError,
    SingularJacobianError,
    ZeroDensityError,
)
from .exprlang import (
    Expr,
    ExprSyntaxError,
    UnboundVariableError,
    UnknownFunctionError,
    eval_array,
    evaluate,
    free_vars,
    parse,
    substitute,
    to_string,
)
from .geometry import Box, Region, box_volume
from .loss import (
    LossReport,
    PartitionSweep,
    differential_entropy_mc,
    expected_log_jacdet,
    loss_branch_posterior,
    loss_corollary1,
    loss_eq5_mc,
    loss_eq5_quadrature,
    partition_sweep,
)
from .model import (
    Branch,
    BranchFamily,
    InputDensity,
    PartRef,
    PiecewiseMap,
    ValidationReport,
    forward_eval,
    jac_abs_det_at,
    postcompose_affine,
    validate,
)
from .numerics import MCResult, tensor_quadrature
from .transform import (
    BranchPosterior,
    PreimageElement,
    PreimageSet,
    branch_posterior,
    build_candidates,
    output_density,
    preimage,
)

__version__ = "0.1.0"
