"""Exact toolkit for structure-constant Lie algebras.

Everything is computed over exact rationals, optionally with named
parameters; no floating point is used anywhere.  Parametric computations
track the polynomial conditions under which a generic answer changes.
"""

from types import ModuleType as _ModuleType

from .errors import (
    AlgebraMismatch,
    ArityMismatch,
    DenominatorVanishes,
    DivisionByZero,
    DuplicateName,
    ExcludedParameterValue,
    IncompatibleQuantifier,
    JacobiViolation,
    LieDoubleError,
    NotADerivation,
    NotClosed,
    NotIndependent,
    NotNilpotent,
    NotUnivariate,
    ParseError,
    UnknownName,
)
from .scalars import (
    Poly,
    RootReport,
    Scalar,
    parse_scalar,
    parse_scalar_with_names,
    poly_gcd_univariate,
    poly_normalize,
    rational_roots,
)
from .linalg import (
    ExceptionalSet,
    Matrix,
    NullspaceResult,
    RankResult,
    SolveResult,
    nullspace,
    rank,
    solve_affine,
    solve_columns,
)
from .lie_core import (
    BilinearAlgebra,
    Element,
    LieAlgebra,
    LinearMap,
    Subspace,
    abelian_algebra,
    center,
    derivations_of_bilinear,
    derived_series,
    direct_sum,
    from_matrices,
    is_abelian,
    is_center_by_metabelian,
    is_metabelian,
    is_nilpotent,
    is_solvable,
    lower_central_series,
    nilpotency_class,
    parse_element,
    second_derived,
    solvability_class,
)
from .derivations import (
    DerivationSpace,
    derivation_space,
    generalized_derivation_space,
    inner_derivations,
    is_characteristically_nilpotent,
    is_derivation,
)
from .rmatrix import (
    MYBESolution,
    RMatrixReport,
    ad_cube_is_derivation,
    b_r,
    build_double,
    extremal_functional,
    is_classical_rmatrix,
    is_extremal,
    is_sandwich,
    mybe_solve,
    r_bracket,
    recognize_r31,
    rmatrix_obstruction,
)
from .identities import (
    ALL_DERIVATIONS,
    ALL_ELEMENTS,
    ALL_INNER_DERIVATIONS,
    AuditReport,
    Fixed,
    IdentityReport,
    canonical_identity,
    cbm_implies_id34_audit,
    check_quantified,
    eval_identity,
    id6_from_id3_audit,
    implication_audit,
    metabelian_equivalences,
    nilpotent_witness_derivation,
    quantifier_from_name,
)
from .catalog import (
    CatalogEntry,
    ParamSpec,
    Table1Row,
    check_no_builtin_collision,
    dumps,
    entry,
    get,
    load_file,
    loads,
    names,
    octonion_algebra,
    quaternion_algebra,
    save_file,
    shipped_example,
    table1,
)

# every public name imported above; the submodules themselves stay out
__all__ = sorted(
    name for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _ModuleType)
)

__version__ = "0.1.0"
