"""Linear-quadratic mean-field stochastic control toolkit.

Solves the backward Riccati system of the LQ McKean-Vlasov control
problem, synthesizes the optimal mean-field feedback law, and
cross-validates value and control against closed forms, a deterministic
moment-flow oracle, and an interacting-particle Monte Carlo simulator.
"""

from .errors import (CovarianceInstabilityError, MflqError,
                     ModelDocumentError, OutOfDomainError,
                     RiccatiBreakdownError, ShapeError,
                     SimulationDivergedError)
from .model import (AffineFeedback, Dimensions, LqCost, LqDynamics, LqModel,
                    MomentState, load_model, lq_model, model_from_document,
                    model_to_document)
from .moments import (MomentTrajectory, cost_from_moments, dpp_check,
                      propagate_moments)
from .particles import (CandidateResult, FeedbackPerturbation, GapReport,
                        SimConfig, SimResult, canonical_perturbations,
                        optimality_gap, result_to_csv, simulate)
from .presets import (MeanVarianceParams, SystemicParams, build_preset,
                      mean_variance_closed_form, mean_variance_mean_trajectory,
                      mean_variance_model, mean_variance_optimal_control,
                      systemic_delta, systemic_lambda_reference, systemic_model,
                      systemic_optimal_control)
from .riccati import (ConditionReport, RiccatiSolution, RiccatiState,
                      check_standard_conditions, default_step_count,
                      solution_to_csv, solve_riccati, terminal_state,
                      with_scaled_lambda)
from .schedules import Schedule, as_schedule
from .value import (bellman_residual, g_hat, optimal_feedback, optimal_gains,
                    value)

__version__ = "0.1.0"
