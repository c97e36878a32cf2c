"""parcyl: parabolic cylinder and Weber functions for large parameter.

Uniform asymptotic evaluation (exponent-form Liouville-Green, Airy and
Scorer turning-point expansions) with certified truncation-error bounds,
plus an independent quadrature/ODE oracle for validation.  The oracle is
imported on first use of one of its names.
"""

import importlib as _importlib

from .airy import AiryValue, airy, env_airy, scorer_hi, scorer_hi_prime, wi, wi_prime
from .coeffs import (CoeffTables, gen_airy_seq, gen_E, gen_Ebar, gen_Etilde,
                     gen_G, analytic_part_G, get_tables, modified_coeff)
from .constants import WeberConstants, chi_m, lambda_pm, weber_constants
from .errors import (AccuracyError, ArgumentError, ConsistencyError, CutError,
                     DomainError, NoPath, OrderError, PairError, ParcylError,
                     PoleError, StiffnessError, TraceStalled,
                     TurningPointError)
from .inhom import (ConnectionConstant, alpha_R, c0_const, c3_const,
                    connect_inhom_pcfm, gamma_mR, gamma_W_mR, hyp_terminating,
                    inhom_scorer, inhom_series, lambda_R)
from .lg import (CertifiedValue, lg_W, pcf_U_pos, pcf_Uprime_pos,
                 weber_neg_real, weber_neg_Wj)
from .plane import (DomainId, PathPolyline, beta_map, domain_contains,
                    export_boundaries, monotone_path, trace_level_curve,
                    xi_bar, xi_zeta)
from .ratpoly import RationalFunc, RationalPoly
from .scaled import ScaledComplex
from .tp import (TPCoeffs, pcf_U_neg, pcf_U_rotated, pcf_V_neg, tp_coeff_funcs,
                 weber_W_real)

__version__ = "0.1.0"

_ORACLE_NAMES = ("OracleValue", "UContour", "oracle_inhom", "oracle_ode",
                 "oracle_U", "oracle_U_prime", "oracle_V_neg", "weber_ode_real",
                 "weber_origin_data")

# the helper module gamma stays out: its name would shadow math.gamma
# under a star import
__all__ = sorted({name for name in dir() if not name.startswith("_")} - {"gamma"}
                 | {"oracle", *_ORACLE_NAMES})


def __getattr__(name: str):
    """The oracle module and its names, imported on first access (PEP 562)."""
    if name == "oracle" or name in _ORACLE_NAMES:
        oracle = _importlib.import_module(".oracle", __name__)
        return oracle if name == "oracle" else getattr(oracle, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
