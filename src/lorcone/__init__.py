"""lorcone: generalized cones I x_f X over metric length spaces.

Causal relations, time separation, maximizing geodesics, Lorentzian model
planes, triangle-comparison curvature certification and singularity-theorem
criteria, plus a finite model of abstract Lorentzian length structures.
"""

from .errors import (
    LorconeError, DomainError, RangeError, QuadratureError, RootFindError,
    NotCausalError, IndeterminateRelationError, NonGeodesicFiberError,
    AmbiguousGeodesicError, TriangleError, SizeBoundsError, RealizationError,
    LiftError, SamplingExhaustedError, CatalogError, ConfigError,
)
from .warp import (
    WarpSpec, NullTransport, ConcavityReport, SingularityReport,
    concavity_check, singularity_report,
)
from .fiber import (
    FiberSpace, RealLine, EuclideanN, Circle, Sphere2, Hyperbolic2,
    MetricGraph, CallbackFiber, model_surface, realize_metric_triangle,
)
from .cone import (
    GeneralizedCone, ConePoint, CausalPath, RelationVerdict,
    VariationalLength, DiamondBox,
)
from .lorentz_model import (
    ModelPoint, ModelTriangle, model_tau, realize_timelike_triangle,
    corresponding_point, modified_distance, model_cone, size_bounds,
)
from .comparison import (
    TimelikeTriangle, CurvatureReport, PairRecord, SamplingSpec,
    lift_fiber_triangle, compare_corresponding_points, certify_bound,
    fiber_bound_from_cone,
)
from .llstructure import (
    CurveCatalog, RelationTable, TauTable, LLVerdict,
    derived_relations, derived_tau, check_bare_llspace,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
