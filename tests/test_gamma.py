"""Complex log-gamma and reciprocal gamma against mpmath, and the import
hygiene they allow: scipy stays out of the library and its oracle."""

import json
import math
import subprocess
import sys

import mpmath
import numpy as np
import pytest

import parcyl
from parcyl import gamma


def test_loggamma_on_the_weber_lines():
    # Im ln Gamma(1/2 +- iu/2) is phi2 of the Weber connection; the figure
    # is absolute up to |Im| = 1 and relative beyond, where one ulp of the
    # value already exceeds 2e-15
    with mpmath.workdps(40):
        for u in np.geomspace(5.0, 400.0, 80):
            for sign in (1.0, -1.0):
                z = complex(0.5, sign * u / 2.0)
                ref = float(mpmath.loggamma(mpmath.mpc(z.real, z.imag)).imag)
                err = abs(gamma.loggamma(z).imag - ref)
                assert err <= 2e-15 * max(1.0, abs(ref)), (u, sign, err)


def test_binet_remainder_after_leading_terms():
    # mu(z) less b_1/z, summed without the leading term, keeps full relative
    # accuracy where no shift is needed (the eps_m of the Weber constants)
    with mpmath.workdps(50):
        for t in (10.0, 37.5, 80.0, 200.0):
            zm = mpmath.mpc(0.5, t)
            mu = mpmath.loggamma(zm) - (zm - 0.5) * mpmath.log(zm) + zm \
                - mpmath.log(2 * mpmath.pi) / 2
            ref = complex(mu - 1 / (12 * zm))
            got = gamma.binet(complex(0.5, t), 1)
            assert abs(got - ref) <= 1e-15 * abs(ref), t
            assert abs(gamma.binet(complex(0.5, t)) - complex(mu)) <= 4e-16 * abs(mu)


@pytest.mark.parametrize("x", [-5.7, -2.2, -1.5, -0.8, -0.2, 0.2, 0.7, 1.2, 3.6,
                               25.5])
def test_loggamma_on_the_real_line(x):
    # principal branch: on the negative axis Im = -pi * (poles passed), so
    # exp(i Im) is the sign of Gamma
    with mpmath.workdps(30):
        ref = complex(mpmath.loggamma(x))
    got = gamma.loggamma(complex(x))
    assert got.real == pytest.approx(ref.real, rel=1e-14, abs=1e-15)
    assert got.imag == pytest.approx(ref.imag, abs=1e-14)
    if x > 0:
        assert got.real == pytest.approx(math.lgamma(x), rel=1e-14, abs=1e-15)


def test_rgamma_on_the_hypergeometric_arguments():
    # the arguments c + s of inhom.hyp_terminating: c = a/2 - R/2 + 3/4 at
    # real a (Lambda_R), at a = u/2 (gamma_mR) and at a = +-iu/2 (gamma_W_mR
    # and alpha_R), R <= 16
    avals = [-2.0, -1.3, -0.7, 0.7, 3.1]
    for u in np.geomspace(5.0, 200.0, 12):
        avals += [0.5 * u, 0.5j * u, -0.5j * u]
    worst = 0.0
    with mpmath.workdps(40):
        for R in range(17):
            for a in avals:
                c = 0.5 * a - 0.5 * R + 0.75
                for s in range(R // 2 + 1):
                    z = complex(c + s)
                    ref = mpmath.rgamma(mpmath.mpc(z.real, z.imag))
                    if ref == 0:
                        continue
                    err = abs(gamma.rgamma(z) - complex(ref)) / float(abs(ref))
                    worst = max(worst, err)
    assert worst <= 1e-13


def test_rgamma_vanishes_at_the_poles():
    for n in range(0, 30):
        assert gamma.rgamma(complex(-n)) == 0
    assert gamma.rgamma(1.0) == pytest.approx(1.0, rel=1e-15)
    assert gamma.rgamma(0.5) == pytest.approx(1.0 / math.sqrt(math.pi), rel=1e-15)


#: calls whose upward shift never ended (a NaN never reaches |z| >= 10,
#: and at Re z <= -2^53 the step w += 1 leaves w unchanged), and calls that
#: answered nan or raised ZeroDivisionError; each with the typed error due
STUCK_CALLS = [
    ("inhom.lambda_R(nan, 2)", "ArgumentError"),
    ("inhom.lambda_R(-1e20, 2)", "DomainError"),
    ("inhom.hyp_terminating(2, nan)", "ArgumentError"),
    ("constants.weber_constants(nan, 2)", "ArgumentError"),
    ("inhom.gamma_mR(nan, 2, 2)", "ArgumentError"),
    ("inhom.alpha_R(nan, 2)", "ArgumentError"),
    ("inhom.c3_const(nan)", "ArgumentError"),
    ("gamma.loggamma(complex(nan, 1.0))", "ArgumentError"),
    ("gamma.binet(-1e20)", "DomainError"),
    ("gamma.rgamma(-1e6 + 0.5)", "DomainError"),
    ("gamma.rgamma(1000j)", "DomainError"),
    ("inhom.gamma_mR(0.0, 2, 2)", "DomainError"),
]


def test_gamma_shifts_end_in_a_typed_error():
    # in a child process with a timeout, since a regression would hang
    code = ("import json\nfrom math import nan\n"
            "from parcyl import constants, gamma, inhom\nout = []\n"
            f"for call, _ in {STUCK_CALLS!r}:\n"
            "    try:\n        eval(call)\n        out.append('value')\n"
            "    except Exception as exc:\n        out.append(type(exc).__name__)\n"
            "print(json.dumps(out))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [exc for _, exc in STUCK_CALLS]


def test_gamma_keeps_the_arguments_near_its_shift_limit():
    # the last argument the bounded shift still reaches, against mpmath
    x = -gamma.SHIFT_LIMIT + gamma.SHIFT_RADIUS + 0.5
    with mpmath.workdps(30):
        ref = complex(mpmath.loggamma(x))
    got = gamma.loggamma(complex(x))
    assert abs(got - ref) <= 1e-15 * abs(ref)
    with pytest.raises(parcyl.DomainError):
        gamma.loggamma(complex(x - 1.0))


# ----------------------------------------------------------------------
# import hygiene
# ----------------------------------------------------------------------

SCIPY_KEYS = ("import json, sys; print(json.dumps(sorted(k for k in sys.modules "
              "if k == 'scipy' or k.startswith('scipy.'))))")


def _scipy_keys_after(code: str) -> list:
    proc = subprocess.run([sys.executable, "-c", code + "\n" + SCIPY_KEYS],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_import_loads_no_scipy():
    assert _scipy_keys_after("import parcyl") == []


def test_cli_eval_loads_no_scipy():
    code = ("import runpy, sys\n"
            "sys.argv = ['parcyl', 'eval', '--function=U+', '--u=20', '--z=0.5+0.5j']\n"
            "try:\n"
            "    runpy.run_module('parcyl.cli', run_name='__main__', alter_sys=True)\n"
            "except SystemExit as exc:\n"
            "    assert exc.code == 0, exc.code\n")
    assert _scipy_keys_after(code) == []


def test_oracle_loads_no_ode_solver():
    # the oracle's sweeps are its own Taylor series and its lnGamma is its
    # own: no scipy at all
    assert _scipy_keys_after("import parcyl.oracle") == []


def test_cli_oracle_loads_no_scipy():
    code = ("import runpy, sys\n"
            "sys.argv = ['parcyl', 'oracle', '--function=U+', '--u=20', '--z=2.0']\n"
            "try:\n"
            "    runpy.run_module('parcyl.cli', run_name='__main__', alter_sys=True)\n"
            "except SystemExit as exc:\n"
            "    assert exc.code == 0, exc.code\n")
    assert _scipy_keys_after(code) == []


def test_oracle_is_reachable_from_the_package():
    from parcyl import oracle
    assert parcyl.oracle is oracle
    assert parcyl.oracle_U is oracle.oracle_U
    assert parcyl.OracleValue is oracle.OracleValue
    with pytest.raises(AttributeError):
        parcyl.no_such_name


#: the public names of the package, the lazily loaded oracle's among them
PUBLIC_NAMES = {
    "AccuracyError", "AiryValue", "ArgumentError", "CertifiedValue",
    "CoeffTables", "ConnectionConstant", "ConsistencyError", "CutError",
    "DomainError", "DomainId", "NoPath", "OracleValue", "OrderError",
    "PairError", "ParcylError", "PathPolyline", "PoleError", "RationalFunc",
    "RationalPoly", "ScaledComplex", "StiffnessError", "TPCoeffs",
    "TraceStalled", "TurningPointError", "UContour", "WeberConstants",
    "airy", "alpha_R", "analytic_part_G", "beta_map", "c0_const", "c3_const",
    "chi_m", "coeffs", "connect_inhom_pcfm", "constants",
    "domain_contains", "env_airy", "errors", "export_boundaries",
    "gamma_W_mR", "gamma_mR", "gen_E", "gen_Ebar", "gen_Etilde", "gen_G",
    "gen_airy_seq", "get_tables", "hyp_terminating", "inhom",
    "inhom_scorer", "inhom_series", "lambda_R", "lambda_pm", "lg", "lg_W",
    "modified_coeff", "monotone_path", "oracle", "oracle_U",
    "oracle_U_prime", "oracle_V_neg", "oracle_inhom", "oracle_ode",
    "pcf_U_neg", "pcf_U_pos", "pcf_U_rotated", "pcf_Uprime_pos",
    "pcf_V_neg", "plane", "quadrature", "ratpoly",
    "scaled", "scorer_hi", "scorer_hi_prime", "tp", "tp_coeff_funcs",
    "trace_level_curve", "weber_W_real", "weber_constants", "weber_neg_Wj",
    "weber_neg_real", "weber_ode_real", "weber_origin_data",
    "wi", "wi_prime", "xi_bar", "xi_zeta",
}


def test_public_names_are_unchanged():
    assert set(parcyl.__all__) == PUBLIC_NAMES
    for name in parcyl.__all__:
        assert getattr(parcyl, name) is not None
