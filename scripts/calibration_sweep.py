"""Calibrates the empirical error-margin constants against the oracle.

Two families of remainders have no closed-form majorant and are absorbed
into reported error estimates with calibrated constants:

  * EPS_CONST_MARGIN (parcyl.tp): the dropped scalar constants in the
    turning-point identifications, measured as  |relative error| * u^{2m+2}
    worst-case over a grid at u = 10;
  * SCORER_MARGIN (parcyl.inhom): the dropped contour remainder of the
    Scorer expansions, measured as |relative error| * (u/10)^{2m+4}
    worst-case over a 40-point grid at u = 10.

Run:  python scripts/calibration_sweep.py
"""

import math

import numpy as np

from parcyl import inhom, oracle, tp


def tp_margin():
    # measured where the coefficient functions are Cauchy-resolved, so the
    # residual is the scalar-constant effect rather than series truncation
    u = 10.0
    worst = 0.0
    for m in (1, 2, 3):
        for z in (0.85, 0.95, 1.0, 1.08, 1.15):
            cv = tp.pcf_U_neg(u, float(z), m)
            try:
                ov = oracle.oracle_U(-u / 2.0, math.sqrt(2 * u) * float(z))
            except Exception:
                continue
            err = abs((cv.value / ov.value).to_complex() - 1.0)
            worst = max(worst, err * u ** (2 * m + 2))
    return worst


def scorer_margin():
    u = 10.0
    worst = 0.0
    for m in (1, 2):
        for R in (0, 1):
            for z in np.linspace(0.4, 2.0, 10):
                cv = inhom.inhom_scorer(u, float(z), m, R, "PCF-", (0, 1))
                try:
                    ov = oracle.oracle_inhom(-u / 2.0,
                                             math.sqrt(2 * u) * float(z), R,
                                             (0, 1))
                except Exception:
                    continue
                err = abs((cv.value / ov.value).to_complex() - 1.0)
                worst = max(worst, err * (u / 10.0) ** (2 * m + 4))
    return worst


def main():
    t = tp_margin()
    print(f"turning-point margin calibration (u=10): worst err*u^(2m+2) = {t:.3f}")
    print(f"  pinned EPS_CONST_MARGIN = {tp.EPS_CONST_MARGIN}")
    s = scorer_margin()
    print(f"Scorer margin calibration (u=10): worst err*(u/10)^(2m+4) = {s:.3f}")
    print(f"  pinned SCORER_MARGIN = {inhom.SCORER_MARGIN}")


if __name__ == "__main__":
    main()
