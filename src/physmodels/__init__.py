"""physmodels: a workbench for integer-coded physical models.

The library treats a model as a recursively enumerable space of states with
named observable maps into the nonnegative integers.  On top of that it offers
exact codecs for pairs/rationals/intervals/rectangles, budgeted faithfulness
checks against observation logs, a model algebra (reduct, restriction, derived
observables, strength comparison, merging), neighborhood-code enumeration for
computable real functions, and exact binomial branching-ratio statistics with
algebraic interval estimates.
"""

from .encodings import (
    Interval,
    int_code,
    int_decode,
    interval_code,
    interval_decode,
    pair,
    rat_code,
    rat_decode,
    rect_code,
    rect_decode,
    seg_code,
    seg_decode,
    sing_code,
    unpair,
)
from .exact_arith import AlgebraicNumber, isolate_roots, squarefree
from .model_core import (
    Budget,
    FAILED,
    Model,
    ObservationLog,
    builtin,
    check_faithful,
    check_maximally_faithful,
    compare_strength,
    derive,
    enumerate_range,
    merge_expansions,
    reduct,
    restrict,
)
from .neighborhoods import (
    GraphRangeRequest,
    NestedOracle,
    OracleMachine,
    enumerate_graph_range,
    membership_probe,
    neighborhood_model,
)
from .spec_lang import eval_int, eval_interval, parse_model, parse_real_fn
from .stats import (
    binom_pmf,
    bounds,
    build_piecewise,
    decay_restriction,
    interval_estimate,
    max_alpha,
    reject,
    tail_prob,
)

__version__ = "0.1.0"

__all__ = [
    "AlgebraicNumber", "Budget", "FAILED", "GraphRangeRequest", "Interval",
    "Model", "NestedOracle", "ObservationLog", "OracleMachine",
    "binom_pmf", "bounds", "build_piecewise", "builtin",
    "check_faithful", "check_maximally_faithful", "compare_strength",
    "decay_restriction", "derive", "enumerate_graph_range", "enumerate_range",
    "eval_int", "eval_interval", "int_code", "int_decode", "interval_code",
    "interval_decode", "interval_estimate", "isolate_roots",
    "max_alpha", "membership_probe", "merge_expansions", "neighborhood_model",
    "pair", "parse_model", "parse_real_fn", "rat_code", "rat_decode",
    "rect_code", "rect_decode", "reduct", "reject", "restrict",
    "seg_code", "seg_decode", "sing_code",
    "squarefree", "tail_prob", "unpair",
]
