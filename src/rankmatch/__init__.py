"""Vertex-weighted online bipartite matching under random arrivals.

A library for simulating the weighted ranking rule with a two-dimensional
gain-sharing function, auditing its dual accounting and threshold
structure on concrete instances, and reproducing the worst-case
competitive-ratio constants numerically.
"""

from .analysis import (MATCHED_BEFORE, MATCHED_TO_U, UNMATCHED_AFTER,
                       AnalysisError, PairGainEstimate, PairSweep,
                       SweepResult, ThreeIntervalError, ThresholdProfile,
                       compute_thresholds, edge_status, pair_gain,
                       vary_two_ranks)
from .bounds import (BoundPoint, Piecewise, ProfileError, StepProfiles,
                     SurfaceDomainError, heatmap_rows, improved_bound,
                     integral_bound, minimize_bound, profiles_from_json,
                     simple_bound, solve_curve_equals_two_t, stationary_tau)
from .core import (DualShares, Instance, InstanceError, MatchingResult,
                   RankAssignment, RankError, build_instance,
                   check_dual_shares, matching_result, sample_ranks,
                   validate_instance, validate_rank_assignment)
from .experiments import (ConfigError, DegenerateInstanceError,
                          ExperimentConfig, PropertyReport, RatioReport,
                          run_property_suite, run_ratio_experiment)
from .gains import (LN2, GainSpec, GainSpecError, adversarial_baseline,
                    gain_spec_from_json, half_exp, named_spec,
                    piecewise_table, simple_exp)
from .generators import GeneratorError, generate_instance, random_instance
from .offline import OptResult, brute_force_opt, solve_opt
from .ranking import (ArrivalRecord, SimulationTrace, assign_duals,
                      run_ranking)

__all__ = [name for name in dir() if not name.startswith("_")]
