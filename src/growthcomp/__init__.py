"""growthcomp: growth comparison of weight sequences, weight functions, and
the weighted spaces of entire functions they generate.

Everything that answers a mathematical question returns a tri-state Verdict
(Holds / Fails / Inconclusive) carrying witnesses or counterexample evidence;
nothing decisive is ever reported without them.
"""

from types import ModuleType as _ModuleType

from .associated_weight import (AssociatedWeight, check_om1_omega,
                                check_om6_omega, legendre_recover)
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
                               is_convex_weight, is_normalized, normalize,
                               rapidly_decreasing, sandwich_check,
                               strong_ratio_check, weight_preceq,
                               weight_preceq_all_dila, weight_preceq_dila,
                               weight_preceq_pow, weight_triangle,
                               weight_triangle_dila, weight_triangle_pow)

__version__ = "0.1.0"

# every name imported above, and nothing else
__all__ = sorted(name for name, obj in globals().items()
                 if not (name.startswith("_") or isinstance(obj, _ModuleType)))
