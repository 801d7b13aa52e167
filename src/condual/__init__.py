"""Constrained utility maximization and its duality on finite event trees.

The library solves and cross-verifies both sides of the constrained
expected-utility problem on finite discrete-time markets: the portfolio
side (projected gradient over per-node convex holding constraints, with
projected Newton steps when every set is a box and there is no floor) and the
measure side (dual value function, attainable-claim support function,
superhedging prices, critical initial wealth), together with certificates
for the sufficient no-arbitrage-type conditions.

Markets and holdings can be specified with exact rational numbers, in
which case every LP-based quantity (support values, superhedging prices,
critical wealth, polar cones) is computed exactly.
"""

from .convex import (
    AffineFixed,
    Ball,
    Box,
    Cone,
    ConvexSet,
    CrossFixed,
    Intersection,
    Polyhedron,
    ProjectionMatrix,
    Singleton,
    contains,
    polar_cone,
    predictable_range_projection,
    projected_set_closed,
    recession_cone,
    set_from_json,
    set_to_json,
    support_function,
)
from .conditions import (
    check_convex_compactness,
    check_nonempty,
    check_projected_closedness,
    check_supermartingale_condition,
)
from .dual import (
    DualMeasure,
    DualSolution,
    dual_objective,
    measure_from_weights,
    min_support,
    solve_dual,
    superhedge_price,
    support_alpha,
)
from .market import (
    EventTree,
    MarketModel,
    PortfolioProcess,
    WealthProcess,
    build_market,
    embed_endowment,
    is_admissible,
    market_to_json,
    parse_market_file,
    validate_market,
    wealth_process,
)
from .primal import (
    PrimalSolution,
    brute_force_primal,
    primal_value_grid,
    solve_primal,
)
from .properties import run_property_suite
from .scalars import INF, NEG_INF, SchemaError
from .utility import (
    LogUtility,
    PiecewiseLinearUtility,
    PowerUtility,
    TabulatedUtility,
    UtilityFunction,
    check_inada_zero,
    check_rae,
    conjugate,
    eval_utility,
    marginal,
    parse_utility,
)
from .verify import verify_conjugacy, verify_primal_dual_link, verify_xbar

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
