"""Exact arithmetic for decorated partition diagram monoids and algebras.

Strands of a partition diagram may carry handle dots and crosscap
(Moebius) dots; closed components evaluate to coefficients of three
rational power series.  The package provides the linear calculus, the
sandwiched monoid and its wreath products, cell combinatorics,
simple-module counts, and exact Gram-matrix ranks.
"""

from .errors import (
    InternalCheckError,
    MoebiusError,
    ParseError,
    PreconditionError,
    ResourceGuardError,
)
from .families import Family, admissible_lambdas, family_from_name
from .params import (
    MonoidParams,
    ParamSet,
    handle_reduce_monoid,
    monoid_params_of,
    params_from_json,
    series_coeff,
    validate_params,
)
from .diagram import (
    Diagram,
    Factorization,
    factorize,
    identity,
    is_member,
    normalize_handles,
    normalize_mob,
    parse_diagram,
    recompose,
    render_diagram,
    star,
    tensor,
    through_strands,
)
from .algebra import (
    LinComb,
    compose,
    compose_diagrams,
    evaluate_closed,
    monoid_compose,
)
from .msmall import (
    CayleyMonoid,
    MElem,
    WreathElem,
    generalized_conjugacy_classes,
    greens_cells_bruteforce,
    m_cell_structure,
    m_mul,
    omega_power,
    wreath_mul,
    wreath_type,
)
from .cells import (
    ApexSet,
    CellCoords,
    ZeroPattern,
    apex_set,
    cell_of,
    checked_dims,
    enumerate_half_diagrams,
    strict_idempotent,
)
from .repcount import (
    CHAR0_ALG_CLOSED,
    RATIONALS,
    FieldSpec,
    count_simples,
    count_types,
    deligne_parameters,
    dim_left_cell,
    dims_table,
    m_of_k,
    n_irreducible_factors,
    partition_count,
    prime_field,
    s_value,
)
from .gram import (
    GramMatrix,
    RankReport,
    exact_rank,
    gram_det_closed_form_rook0,
    gram_matrix,
    gramcond_check,
)

__version__ = "0.1.0"
