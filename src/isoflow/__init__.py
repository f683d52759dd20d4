"""Mean curvature flow of isoparametric hypersurfaces in the three space forms.

The flow of an isoparametric hypersurface moves it through its own parallel
hypersurfaces; the offset xi(t) solves a scalar ODE whose right-hand side is
the evolved mean curvature.  This package carries the curvature catalog of
every family, exact closed-form profiles, an independent numerical ODE
engine, collapse-time and focal-submanifold analysis, ambient point-cloud
export, and a CLI tying them together.
"""

from .catalog import (
    Block,
    FlowState,
    IsoparametricSurface,
    flow_state,
    make_euclidean_cylinder,
    make_horosphere,
    make_hyperbolic_cylinder,
    make_hyperbolic_umbilic,
    make_minimal,
    make_sphere_product,
    make_sphere_umbilic,
    mean_curvature,
    sphere_curvatures_from_g,
    sphere_family_from_kappa1,
    surface_from_dict,
    surface_from_json,
)
from .closed_form import ClosedFormProfile, resolve_profile
from .collapse import CollapseReport, analyze, focal_dimension_expected
from .embedding import (
    Embedding,
    SampledSurface,
    export_csv,
    export_metadata,
    get_embedding,
    sample,
    snapshots,
)
from .errors import (
    AnalysisIncompleteError,
    FamilyMismatchError,
    IntegrationFailureError,
    InvalidFrameError,
    InvalidInputError,
    IsoflowError,
    NumericalRangeError,
    SingularParallelError,
    UnsupportedEmbeddingError,
)
from .flow_ode import (
    DEFAULT_OPTIONS,
    NumericProfile,
    OdeOptions,
    estimate_tstar,
    integrate,
)
from .spaceform import (
    EUCLIDEAN,
    HYPERBOLIC,
    SPHERE,
    SpaceForm,
    cs_eval,
    focal_offset,
    inner,
    parallel_curvature,
    parallel_metric_factor,
    parallel_point,
)

__version__ = "0.1.0"
