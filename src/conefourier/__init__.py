"""Orthogonal bases on the ball and cone, their closed-form Fourier
transforms, the two Parseval-derived orthogonal function families, and a
quadrature oracle plus check engine that certifies every identity the
library claims.
"""

from .kernel import (ConvergenceError, Cx, DomainError, HyperParams,
                     PoleError, beta_cx, gamma_cx, log_gamma_cx, pochhammer,
                     phyper_convergent, phyper_terminating)
from .multivariate import (BallPoint, ConePoint, JacobiConeParams,
                           LaguerreConeParams, MultiIndex, ball_norm, ball_op,
                           ball_weight, cone_basis,
                           cone_inner_product_separated, jacobi_cone,
                           laguerre_cone, space_dimension)
from .quadrature import (IntegralResult, NonConvergenceError,
                         QuadratureConfig, fourier_num, integrate_1d,
                         integrate_tensor, parseval_lhs)
from .transforms import (FreqVector, ParsevalParams, TransformParamsJacobi,
                         TransformParamsLaguerre, a_family,
                         a_family_factors, a_norm_rhs, b_family,
                         b_family_factors, b_norm_rhs, f_d, f_d_via_g1,
                         f_d_via_g2, ft_f_closed, ft_g_jacobi_closed,
                         ft_g_laguerre_closed, g_jacobi, g_laguerre,
                         lambda_factor, theta_hahn, theta_hyper, xi_factor)
from .univariate import (GegenbauerSpec, HahnSpec, continuous_hahn,
                         gegenbauer, gegenbauer_norm, jacobi, jacobi_norm,
                         laguerre, laguerre_norm)
from .verify import (IDENTITY_IDS, CheckReport, SuiteResult, check_identity,
                     default_grids, run_suite)

__version__ = "0.1.0"

__all__ = [
    "ConvergenceError", "Cx", "DomainError", "HyperParams", "PoleError",
    "beta_cx", "gamma_cx", "log_gamma_cx", "pochhammer",
    "phyper_convergent", "phyper_terminating",
    "BallPoint", "ConePoint", "JacobiConeParams", "LaguerreConeParams",
    "MultiIndex", "ball_norm", "ball_op", "ball_weight", "cone_basis",
    "cone_inner_product_separated", "jacobi_cone", "laguerre_cone",
    "space_dimension",
    "IntegralResult", "NonConvergenceError", "QuadratureConfig",
    "fourier_num", "integrate_1d", "integrate_tensor", "parseval_lhs",
    "FreqVector", "ParsevalParams", "TransformParamsJacobi",
    "TransformParamsLaguerre", "a_family", "a_family_factors", "a_norm_rhs",
    "b_family", "b_family_factors", "b_norm_rhs", "f_d", "f_d_via_g1", "f_d_via_g2", "ft_f_closed",
    "ft_g_jacobi_closed", "ft_g_laguerre_closed", "g_jacobi", "g_laguerre",
    "lambda_factor", "theta_hahn", "theta_hyper", "xi_factor",
    "GegenbauerSpec", "HahnSpec", "continuous_hahn", "gegenbauer",
    "gegenbauer_norm", "jacobi", "jacobi_norm", "laguerre", "laguerre_norm",
    "IDENTITY_IDS", "CheckReport", "SuiteResult", "check_identity",
    "default_grids", "run_suite",
    "__version__",
]
