"""Executing one benchmark op and classifying its outcome.

An op is one request of a workload: a family name from the CLI
``FUNCTIONS`` list (or one of the Scorer-side families) with its inputs.
The families are dispatched through the public ``parcyl`` API, looked up
by name at call time so that timing wrappers installed on the package
namespace see every call.

Outcomes:

* ``ok``      -- a value and a bound, both finite;
* ``refused`` -- a typed ``ParcylError`` (the library declined the input);
* ``failed``  -- any other exception, or a non-finite value or bound, or
  (verify only) an oracle-measured error above the returned bound, or
  (cli only) an exit code other than 0/2 or output that is not one JSON
  object;
* ``oracle_refused`` -- verify only: the oracle raised ``AccuracyError``;
  counted apart from library failures.
"""

from __future__ import annotations

import json
import math

OK = "ok"
REFUSED = "refused"
FAILED = "failed"
ORACLE_REFUSED = "oracle_refused"

def call_family(pc, op: dict):
    """Evaluate op['family'] with the public API of the package ``pc``."""
    fam, u, n = op["family"], op["u"], op["order"]
    z = complex(op["z"][0], op["z"][1])
    if fam == "U+":
        return pc.pcf_U_pos(u, z, n, "+z")
    if fam == "U+'":
        return pc.pcf_Uprime_pos(u, z, n, "+z")
    if fam == "U-":
        return pc.pcf_U_neg(u, z, n)
    if fam == "V-":
        return pc.pcf_V_neg(u, z, n)
    if fam == "U+i":
        return pc.pcf_U_rotated(u, z, n, "+i")
    if fam == "U-i":
        return pc.pcf_U_rotated(u, z, n, "-i")
    if fam == "W+x":
        return pc.weber_W_real(u, z.real, n, "+x")
    if fam == "W-x":
        return pc.weber_W_real(u, z.real, n, "-x")
    if fam == "W0":
        return pc.weber_neg_Wj(u, z, n, 0)
    if fam == "W3":
        return pc.weber_neg_Wj(u, z, n, 3)
    if fam == "UR":
        return pc.inhom_series(u, z, n, op["R"], "plus", tuple(op["pair"]))
    if fam == "WR":
        return pc.inhom_series(u, z, n, op["R"], "weber-", tuple(op["pair"]))
    if fam == "inhom_scorer":
        return pc.inhom_scorer(u, z, n, op["R"], "PCF-", tuple(op["pair"]))
    if fam == "connect_inhom_pcfm":
        return pc.connect_inhom_pcfm(u, z, n, op["R"])
    raise ValueError(f"unknown family {fam}")


def call_oracle(pc, op: dict):
    """The independent reference for an op of an oracle family
    (``workloads.ORACLE_FAMILIES``)."""
    fam, u = op["family"], op["u"]
    z = complex(op["z"][0], op["z"][1])
    Z = math.sqrt(2.0 * u) * z
    if fam == "U+":
        return pc.oracle_U(u / 2.0, Z)
    if fam == "U+'":
        return pc.oracle_U_prime(u / 2.0, Z)
    if fam == "U-":
        return pc.oracle_U(-u / 2.0, Z)
    if fam == "V-":
        return pc.oracle_V_neg(u / 2.0, Z)
    if fam == "UR":
        return pc.oracle_inhom(u / 2.0, Z, op["R"], tuple(op["pair"]))
    raise ValueError(f"no oracle route for {fam}")


def _finite_value(cv) -> bool:
    v = cv.value
    return (math.isfinite(v.mantissa.real) and math.isfinite(v.mantissa.imag)
            and math.isfinite(v.log_scale))


def classify_value(cv) -> str:
    """OK for a finite value with a finite nonnegative bound, else FAILED."""
    if not _finite_value(cv):
        return FAILED
    b = cv.rel_bound
    if not (isinstance(b, (int, float)) and math.isfinite(b) and b >= 0.0):
        return FAILED
    return OK


def classify_exception(exc: BaseException, parcyl_error: type) -> str:
    """A typed library refusal, or a failure for anything else."""
    return REFUSED if isinstance(exc, parcyl_error) else FAILED


def verify_error(cv, ov) -> float:
    """Relative error of the expansion against the oracle value."""
    return abs((cv.value / ov.value).to_complex() - 1.0)


def classify_verified(cv, ov) -> tuple[str, float]:
    """Outcome of an expansion checked against its oracle.

    The check allows the oracle's own estimated accuracy on top of the
    returned bound: err <= rel_bound + est_acc.
    """
    state = classify_value(cv)
    if state != OK:
        return state, math.nan
    err = verify_error(cv, ov)
    if not math.isfinite(err) or err > cv.rel_bound + ov.est_acc:
        return FAILED, err
    return OK, err


def classify_cli(returncode: int, stdout: str) -> tuple[str, dict | None]:
    """Outcome of one ``parcyl eval`` process.

    Exit 0 with one JSON result object is OK (if its value and bound are
    finite); exit 2 with one JSON error object is a typed refusal; anything
    else (tracebacks, other exit codes, extra output) is a failure.
    """
    text = stdout.strip()
    try:
        payload = json.loads(text) if text else None
    except ValueError:
        payload = None
    if not isinstance(payload, dict):
        return FAILED, None
    if returncode == 2 and "error" in payload:
        return REFUSED, payload
    if returncode != 0 or "rel_bound" not in payload:
        return FAILED, payload
    try:
        nums = [float(payload[k]) for k in ("value_mantissa_re",
                                             "value_mantissa_im",
                                             "log_scale", "rel_bound")]
    except (KeyError, TypeError, ValueError):
        return FAILED, payload
    if not all(math.isfinite(x) for x in nums) or nums[3] < 0.0:
        return FAILED, payload
    return OK, payload
