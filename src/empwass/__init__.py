"""empwass: exact empirical transport distances, multiscale upper bounds,
samplers with closed-form tails, a catalog of concentration bounds, and
seeded Monte Carlo experiments confronting the two.
"""

__version__ = "0.1.0"

from ._kernels import backend
from .metric_core import (FiniteMetricSpace, MetricError, ValidationReport,
                          diameter, validate_metric)
from .measures import (DiscreteMeasure, MeasureError, SyntheticSampler, mix,
                       restrict, sampler_from_string)
from .ot_exact import (OTError, TransportPlan, WppValue, wpp_1d,
                       wpp_1d_vs_quantile, wpp_mcf, wpp_rows_vs_quantile,
                       wpp_to_point)
from .multiscale import (CoveringEstimate, DimensionFit, MultiscaleError,
                         PartitionTree, build_partition_tree,
                         dyadic_wpp_bound, fit_dimension, greedy_cover)
from .decomposition import (MixtureBound, RingDecomposition, mixture_bound,
                            ring_decompose, verify_mixture_convexity,
                            verify_reconstruction)
from .bound_catalog import (BoundResult, as_rate_normalizer, bernstein_bound,
                            classify_regime, fuk_nagaev_bound,
                            hoeffding_bound, main_term_bound,
                            moderate_deviation_bound, moment_bound)
from .mc_harness import (ConstantFit, ExperimentReport, ExperimentSpec,
                         fit_bound_constant, run_as_trajectory,
                         run_rate_experiment, run_tail_experiment,
                         verify_appendix_inequalities, wilson_interval)
