"""Gradient estimation for degenerate diffusions.

Monte Carlo estimators for directional derivatives grad_v P_T f of the
semigroup of an SDE whose noise enters only the second block of
coordinates, built on an explicit bridge control; plus numerical
verification of the structural hypotheses (drift domination, Gramian
floors, Kalman condition) and their consequences (gradient decay rates,
Harnack inequalities).
"""

from .analysis import (HarnackReport, KalmanResult, RateFit,
                       entropy_gradient_check, gradient_rate_sweep,
                       gramian_scaling, harnack_check, kalman_index)
from .control import (WeightProfile, build_alpha, build_bridge, gramian_M,
                      gramian_Q, phi_parabolic, q_inverse_bound_ratio, xi_case1,
                      xi_case2)
from .errors import (ConfigurationError, HypogradError, MethodMisuseError,
                     NotApplicableError, RunDegenerateError)
from .estimator import (EstimatorConfig, GradientEstimate, TestFunction,
                        bismut_gradient, closed_form_gradient, default_weights,
                        duality_gap, fd_gradient, gaussian_bump_f, indicator_f,
                        ito_delta, linear_f, pathwise_gradient, quadratic_f,
                        skorokhod_delta)
from .flow import (TimeGrid, directional_jacobian, refine_noise, sample_noise,
                   simulate_path, terminal_flow)
from .model import (HypothesisData, ModelSpec, ValidationReport, builtin_model,
                    builtin_schemas, drift_split, validate_model)

__version__ = "0.1.0"
