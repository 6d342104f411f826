"""ratgrowth: exact counting of bounded-height rational points on plane
curves and affine hypersurfaces over Q and F_q(t), with the
interpolation-determinant covering machinery behind the growth bounds."""

from .algebra import (
    CoeffDomain,
    ExactMatrix,
    FqPoly,
    FqRational,
    MultiPoly,
    ParseError,
    PrimeIdealDesc,
    det_exact,
    kernel_basis,
    kernel_vector,
    poly_parse,
    primes_in_range,
)
from .detmethod import (
    CoverParams,
    ValuationCertificate,
    cover_high_mult,
    cover_pipeline,
    cover_pipeline_affine,
    interp_det_certificate,
    monomial_basis,
    regime_check,
)
from .enumeration import (
    EnumOptions,
    PointQuery,
    PointSetResult,
    enum_affine_hypersurface,
    enum_curve_points_proj,
    enum_proj_points,
    run_query,
)
from .globalfield import (
    GlobalField,
    Place,
    ProjPoint,
    abs_value,
    height_proj,
    primitive_normalize,
    product_formula_check,
    reduce_point_mod_p,
)
from .harness import BoundSpec, FamilySpec, bound_value, exponent_fit, run_experiment
from .reduction import (
    FactoredCycle,
    cycle_A,
    cycle_mult,
    fulton_intersection_number,
    high_mult_locus,
    mult_at_point,
    reduce_curve_mod_p,
    silly_arithmetic_check,
)

__version__ = "0.1.0"
