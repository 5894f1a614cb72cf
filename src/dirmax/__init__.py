"""Directional maximal operators over structured direction sets.

Lacunary direction-set machinery (stage-wise decompositions, completions,
bisection constructions), summability kernels, discrete maximal and
smoothing operators on planar grids, frequency-strip geometry with bounded
overlap, and an empirical operator-norm scaling harness.
"""

from .errors import (
    DirmaxError,
    InvalidArgument,
    PreconditionViolation,
    TruncationError,
    ValidationFailure,
)
from .grid_ops import (
    ChainReport,
    Grid2D,
    OperatorConfig,
    chain_check,
    gamma_op,
    m0,
    m1,
    m2,
    strong_maximal,
)
from .harness import (
    SweepResult,
    TestFunctionSpec,
    fit_growth,
    generate,
    measure_ratio,
    sweep_N,
    sweep_mu,
)
from .kernels import (
    bump_eval,
    fejer_eval,
    fejer_from_vp,
    vp_eval,
    vp_transform,
    zeta_eval,
)
from .lacunary import (
    DirectionSet,
    LacunaryDecomposition,
    RankInterval,
    binary_decomposition,
    build_decomposition,
    check_lacunary,
    complete_decomposition,
    complete_one_sided,
    infer_pole,
    perpendicular,
    random_complete_decomposition,
)
from .sectors import (
    FrequencyBand,
    Sector,
    Strip,
    domination_ratio,
    max_overlap,
    sector_multiplier,
    support_containment_check,
)

__version__ = "0.1.0"
