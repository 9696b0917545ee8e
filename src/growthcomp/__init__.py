"""growthcomp: growth comparison of weight sequences, weight functions, and
the weighted spaces of entire functions they generate.

Everything that answers a mathematical question returns a tri-state Verdict
(Holds / Fails / Inconclusive) carrying witnesses or counterexample evidence;
nothing decisive is ever reported without them.
"""

from .associated_weight import (AssociatedWeight, check_om1_omega,
                                check_om6_omega, counting, legendre_recover,
                                omega_eval)
from .battery import is_q_dominated, standard_battery
from .config import RunConfig
from .grids import Grid, default_grid
from .relations import (bridge_pow_seq, bridge_triangle_seq, mg_transfer_check,
                        omega_little_o, pow_routes, tildestrong_check,
                        triangle_routes)
from .sequence_core import (WeightSequence, check_56_alternative, check_mg,
                            check_mg_diag, check_om1_index, check_strong_2j,
                            from_file, from_log_quotients, from_quotients,
                            from_values, gevrey, is_LC, is_log_convex,
                            log_convex_minorant, log_factorials, mixture,
                            product, q_gevrey, scale_pow, seq_approx,
                            seq_preceq, seq_triangle, tilde)
from .spaces import (FLAVORS, InclusionVerdict, PowerSeries, RoutingError,
                     SpaceSpec, decide_inclusion, log_series_eval, membership,
                     norm_estimate, system_equiv, system_equiv_weight)
from .special_functions import (ThetaFunction, bounds_check, monomial,
                                theta_eval, theta_series)
from .trend import Trend, TrendPolicy, TrendReport, classify
from .verdicts import (State, Verdict, fails, fuse_conjunction,
                       fuse_unanimous, holds, inconclusive)
from .weight_functions import (Weight, associated_sequence, check_om1_weight,
                               check_om6_weight, from_sequence, from_table,
                               is_convex_weight, normalize, rapidly_decreasing,
                               sandwich_check, strong_ratio_check,
                               weight_preceq, weight_preceq_all_dila,
                               weight_preceq_dila, weight_preceq_pow,
                               weight_triangle, weight_triangle_dila,
                               weight_triangle_pow)

__version__ = "0.1.0"

__all__ = [
    "AssociatedWeight", "FLAVORS", "Grid", "InclusionVerdict", "PowerSeries",
    "RoutingError", "RunConfig", "SpaceSpec", "State", "ThetaFunction",
    "Trend", "TrendPolicy", "TrendReport", "Verdict",
    "Weight", "WeightSequence", "associated_sequence", "bounds_check",
    "bridge_pow_seq", "bridge_triangle_seq", "check_56_alternative",
    "check_mg", "check_mg_diag", "check_om1_index", "check_om1_omega",
    "check_om1_weight", "check_om6_omega", "check_om6_weight",
    "check_strong_2j", "classify", "counting", "decide_inclusion",
    "default_grid", "fails", "from_file", "from_log_quotients",
    "from_quotients", "from_sequence", "from_table", "from_values",
    "fuse_conjunction", "fuse_unanimous", "gevrey", "holds", "inconclusive",
    "is_LC", "is_convex_weight", "is_log_convex", "is_q_dominated",
    "legendre_recover", "log_convex_minorant", "log_factorials",
    "log_series_eval", "membership", "mg_transfer_check", "mixture",
    "monomial", "norm_estimate", "normalize", "omega_eval", "omega_little_o",
    "pow_routes", "product", "q_gevrey", "rapidly_decreasing",
    "sandwich_check", "scale_pow", "seq_approx", "seq_preceq", "seq_triangle",
    "standard_battery", "strong_ratio_check", "system_equiv",
    "system_equiv_weight", "theta_eval", "theta_series", "tilde",
    "tildestrong_check", "triangle_routes", "weight_preceq",
    "weight_preceq_all_dila", "weight_preceq_dila", "weight_preceq_pow",
    "weight_triangle", "weight_triangle_dila", "weight_triangle_pow",
]
