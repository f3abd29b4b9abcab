"""Exact toolkit for line arrangements with many triple points in PG(2, q)."""

__version__ = "0.1.0"

from .bounds import BoundRow, bound_table, naive_bound, schoenheim_u3
from .certificates import (
    CERTIFICATE_NAMES,
    Certificate,
    VerifyReport,
    builtin,
    dual_hesse_from_pg23,
    instantiate,
    verify,
)
from .constraints import (
    CONSEQUENCES,
    DEFAULT_BATTERY_ORDERS,
    SCENARIO_NAMES,
    ConstraintSystem,
    build_system,
    consequence_check,
    default_battery,
    realize,
    solve_over,
)
from .errors import TripleLinesError
from .field import (
    FieldElement,
    FieldSpec,
    make_field,
    parse_field,
    roots_of,
)
from .incidence import (
    AbstractIncidence,
    Arrangement,
    IncidenceTable,
    IntersectionProfile,
    abstract,
    arrangement_from_json,
    arrangement_to_json,
    check_identity,
    isomorphic,
    load_arrangement,
    parity_check,
    profile,
    remove_line,
    save_arrangement,
    table,
)
from .polynomial import IntPolynomial
from .projective import (
    ProjLine,
    ProjPoint,
    collinear,
    concurrent,
    enumerate_lines,
    enumerate_points,
    incident,
    join,
    meet,
)
from .search import SearchConfig, SearchReport, dual_search_seed, max_triple_search
from .torsion import (
    TorsionDualCounts,
    TorsionModel,
    torsion_dual,
    torsion_dual_counts,
    torsion_model,
)
