"""Collective computing — the paper's contribution.

**Role.** Computation (a map/reduce operator) is packaged with the I/O
region into an :class:`ObjectIO` and executed *inside* the two-phase
collective I/O pipeline: aggregators map each collective-buffer window
right after reading it and shuffle only small partial results.

**Paper mapping.** §III in full — object I/O (§III-A), the logical map
(§III-B, via :mod:`repro.dataspace`), the read/map/shuffle pipeline of
Figure 7, and the all-to-one / all-to-all results reduce with result
construction (§III-C) — plus the §VI future-work item of iterative
sweeps with plan reuse (:mod:`.iterative`, :mod:`.plan_cache`).  The
other future-work item, fault tolerance, is :mod:`repro.faults`.
"""

from .api import (local_read_compute, locate, object_get,
                  traditional_read_compute)
from .iterative import (IterativeAnalysis, IterativeStats, sliding_windows,
                        translation_delta)
from .map_engine import linear_indices_of_runs, map_pieces
from .metadata import CCStats, PartialResult
from .object_io import MODES, REDUCE_MODES, ObjectIO
from .plan_cache import PlanMemo
from .ops import (COUNT_OP, MAX_OP, MAXLOC_OP, MEAN_OP, MIN_OP, MINLOC_OP,
                  MOMENTS_OP, SUM_OP, CountOp, HistogramOp, MapReduceOp,
                  MaxLocOp, MaxOp, MeanOp, MinLocOp, MinOp, MomentsOp, SumOp,
                  UserOp)
from .reduction import (BLOCK_PARSE_COST, COMBINE_ELEMENT_COST,
                        combine_partials,
                        construct_per_rank, global_reduce, make_reduce_op)
from .runtime import CCResult, cc_read_compute

__all__ = [
    "local_read_compute", "locate", "object_get",
    "traditional_read_compute",
    "linear_indices_of_runs", "map_pieces",
    "CCStats", "PartialResult",
    "MODES", "REDUCE_MODES", "ObjectIO", "PlanMemo",
    "COUNT_OP", "MAX_OP", "MAXLOC_OP", "MEAN_OP", "MIN_OP", "MINLOC_OP",
    "MOMENTS_OP", "SUM_OP",
    "CountOp", "HistogramOp", "MapReduceOp", "MaxLocOp", "MaxOp", "MeanOp",
    "MinLocOp", "MinOp", "MomentsOp", "SumOp", "UserOp",
    "BLOCK_PARSE_COST", "COMBINE_ELEMENT_COST", "combine_partials",
    "construct_per_rank",
    "global_reduce", "make_reduce_op",
    "CCResult", "cc_read_compute",
    "IterativeAnalysis", "IterativeStats", "sliding_windows",
    "translation_delta",
]
