"""parcyl: parabolic cylinder and Weber functions for large parameter.

Uniform asymptotic evaluation (exponent-form Liouville-Green, Airy and
Scorer turning-point expansions) with certified truncation-error bounds,
plus an independent quadrature/ODE oracle for validation.
"""

from .airy import AiryValue, airy, env_airy, scorer_hi, scorer_hi_prime, wi, wi_prime
from .coeffs import (CoeffTables, gen_airy_seq, gen_E, gen_Ebar, gen_Etilde,
                     gen_G, analytic_part_G, get_tables, modified_coeff)
from .errors import (AccuracyError, ArgumentError, ConsistencyError, CutError,
                     DomainError, NoPath, OrderError, PairError, ParcylError,
                     PoleError, StiffnessError, TraceStalled,
                     TurningPointError)
from .inhom import (ConnectionConstant, alpha_R, c0_const, c3_const,
                    connect_inhom, connect_inhom_pcfm, gamma_mR, gamma_W_mR,
                    hyp_terminating, inhom_scorer, inhom_series, lambda_R)
from .lg import (CertifiedValue, chi_m, lg_W, pcf_U_pos, pcf_Uprime_pos,
                 weber_neg_real, weber_neg_Wj)
from .oracle import (OracleValue, UContour, oracle_inhom, oracle_ode,
                     oracle_U, oracle_U_prime, oracle_V_neg, weber_ode_real,
                     weber_origin_data, weber_quad_real)
from .plane import (DomainId, PathPolyline, beta_map, domain_contains,
                    export_boundaries, monotone_path, trace_level_curve,
                    xi_bar, xi_zeta)
from .ratpoly import RationalFunc, RationalPoly
from .scaled import ScaledComplex
from .tp import (TPCoeffs, WeberConstants, lambda_pm, pcf_left_extension,
                 pcf_U_neg, pcf_U_rotated, pcf_V_neg, tp_coeff_funcs,
                 weber_constants, weber_W_real)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
