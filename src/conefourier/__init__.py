"""Orthogonal bases on the ball and cone, their closed-form Fourier
transforms, the two Parseval-derived orthogonal function families, and a
quadrature oracle plus check engine that certifies every identity the
library claims.
"""

from .kernel import (Cx, DomainError, PoleError, gamma_cx, log_gamma_cx,
                     pochhammer)
from .multivariate import (JacobiConeParams, LaguerreConeParams, MultiIndex,
                           ball_norm, ball_op, cone_norm, jacobi_cone,
                           laguerre_cone)
from .quadrature import (IntegralResult, NonConvergenceError,
                         QuadratureConfig, fourier_num, integrate_1d)
from .transforms import (FreqVector, ParsevalParams, TransformParamsJacobi,
                         TransformParamsLaguerre, a_family, a_norm_rhs,
                         b_family, b_norm_rhs, f_d, f_d_via_g2,
                         ft_f_closed, ft_g_jacobi_closed,
                         ft_g_laguerre_closed, g_jacobi, g_laguerre,
                         theta_hahn, theta_hyper)
from .univariate import (continuous_hahn, gegenbauer, gegenbauer_norm, jacobi,
                         jacobi_norm, laguerre, laguerre_norm)
from .verify import (IDENTITY_IDS, CheckReport, SuiteResult, check_identity,
                     default_grids, run_suite)

__version__ = "0.1.0"

__all__ = [
    "Cx", "DomainError", "PoleError",
    "gamma_cx", "log_gamma_cx", "pochhammer",
    "JacobiConeParams", "LaguerreConeParams", "MultiIndex", "ball_norm", "ball_op",
    "cone_norm", "jacobi_cone", "laguerre_cone",
    "IntegralResult", "NonConvergenceError", "QuadratureConfig",
    "fourier_num", "integrate_1d",
    "FreqVector", "ParsevalParams", "TransformParamsJacobi",
    "TransformParamsLaguerre", "a_family", "a_norm_rhs",
    "b_family", "b_norm_rhs", "f_d", "f_d_via_g2", "ft_f_closed",
    "ft_g_jacobi_closed", "ft_g_laguerre_closed", "g_jacobi", "g_laguerre",
    "theta_hahn", "theta_hyper",
    "continuous_hahn", "gegenbauer",
    "gegenbauer_norm", "jacobi", "jacobi_norm", "laguerre", "laguerre_norm",
    "IDENTITY_IDS", "CheckReport", "SuiteResult", "check_identity",
    "default_grids", "run_suite",
    "__version__",
]
