"""morandim: dimension estimators and attractor sampling for level-dependent
affine contraction systems."""

__version__ = "0.1.0"

from .attractor import (
    BoxCountCurve,
    PointCloud,
    box_count,
    boxdim_fit,
    project,
    render,
    sample_cloud,
)
from .dims import (
    DimensionReport,
    NetMeasureTable,
    estimate_sA,
    estimate_sstar,
    moran_dims,
    moran_dk,
    net_measure,
    pressure_root,
)
from .linalg import Matrix, SingularValues, mat_mul, op_norm, singular_values
from .svf import LogPhi, log_phi, phi
from .symbolic import CutSet, Word, cutset, cutset_sum, product
from .system import (
    AlphaBounds,
    LevelSpec,
    Schedule,
    SystemSpec,
    TranslationScheme,
    alpha_bounds,
    fixture,
    fixture_names,
    parse_spec,
    parse_structure,
    validate,
)

__all__ = [
    "AlphaBounds", "BoxCountCurve", "CutSet", "DimensionReport", "LevelSpec",
    "LogPhi", "Matrix", "NetMeasureTable", "PointCloud", "Schedule",
    "SingularValues", "SystemSpec", "TranslationScheme", "Word",
    "alpha_bounds", "box_count", "boxdim_fit", "cutset",
    "cutset_sum", "estimate_sA", "estimate_sstar", "fixture", "fixture_names",
    "log_phi", "mat_mul", "moran_dims", "moran_dk", "net_measure", "op_norm",
    "parse_spec", "parse_structure", "phi", "pressure_root", "product",
    "project", "render", "sample_cloud", "singular_values", "validate",
]
