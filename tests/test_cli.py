"""CLI contract: JSON schema, exit codes, round-trips."""

import cmath
import json
import math
import subprocess
import sys
from pathlib import Path

import mpmath
import pytest

from parcyl import cli
from parcyl.errors import ParcylError
from parcyl.scaled import ScaledComplex

DATA = Path(__file__).parent / "data"


def run_cli(*args):
    proc = subprocess.run([sys.executable, "-m", "parcyl.cli", *args],
                          capture_output=True, text=True, timeout=300)
    return proc.returncode, proc.stdout


def test_eval_json_roundtrip():
    code, out = run_cli("eval", "--function", "U+", "--u", "20", "--z", "2.0",
                        "--order", "4")
    assert code == 0
    payload = json.loads(out)
    assert payload["domain_ok"] is True
    # bit-exact round trip of the scaled value
    from parcyl.scaled import ScaledComplex
    v = ScaledComplex(complex(float(payload["value_mantissa_re"]),
                              float(payload["value_mantissa_im"])),
                      float(payload["log_scale"]))
    from parcyl import lg
    direct = lg.pcf_U_pos(20.0, 2.0, 4).value
    assert v.mantissa == direct.mantissa
    assert v.log_scale == direct.log_scale


def test_empty_pair_exit_code():
    code, out = run_cli("eval", "--function", "UR", "--u", "20", "--z", "1.0",
                        "--R", "0", "--pair", "1,3")
    assert code == 2
    assert json.loads(out)["error"] == "EMPTY_PAIR"


def test_real_output_at_origin():
    code, out = run_cli("eval", "--function", "U+", "--u", "20", "--z", "0.0",
                        "--order", "4")
    payload = json.loads(out)
    assert code == 0
    assert float(payload["value_mantissa_im"]) == 0.0


def test_turning_point_eval():
    code, out = run_cli("eval", "--function", "U-", "--u", "20", "--z", "1.0",
                        "--order", "3")
    payload = json.loads(out)
    assert code == 0
    assert math.isfinite(float(payload["value_mantissa_re"]))


def test_domain_subcommand():
    code, out = run_cli("domain", "--tag", "Z02", "--z", "0.5")
    assert code == 0 and json.loads(out)["contains"] is True
    code, out = run_cli("domain", "--tag", "Z", "--z", "-1.0")
    assert code == 0 and json.loads(out)["contains"] is False


def test_coeff_dump():
    code, out = run_cli("coeff-dump", "--family", "Ebar", "--smax", "3")
    rows = json.loads(out)
    assert code == 0
    assert rows[0]["s"] == 1
    # Ebar_1 = b(6 - 5 b^2)/24
    assert rows[0]["coefficients"] == ["0", "1/4", "0", "-5/24"]
    # the scalar sequences and both variants of G_{s,2}, byte for byte as
    # recorded when the tables were built on Fraction coefficients
    for args, name in ((("airy",), "airy"),
                       (("G", "--R", "2", "--variant", "plus"), "G_R2_plus"),
                       (("G", "--R", "2", "--variant", "minus"), "G_R2_minus")):
        code, out = run_cli("coeff-dump", "--family", *args)
        assert code == 0
        assert out.encode() == (DATA / f"coeff_dump_{name}.json").read_bytes(), name


@pytest.mark.parametrize("order", ["0", "3"])
def test_estimate_without_a_path_is_refused(order):
    # within plane.TP_CLEARANCE of -1 no estimate path leaves z: exit 2,
    # not a value with a constant stand-in for its estimate
    code, out = run_cli("eval", "--function=U-", "--u=20",
                        "--z=-0.9995-0.0001j", "--order", order)
    assert code == 2
    assert json.loads(out)["error"] == "DOMAIN"


def test_bound_beyond_the_double_range_is_refused():
    # the eta bound's exponent leaves the double range at this point: exit 2
    # with a JSON error, not a traceback
    code, out = run_cli("eval", "--function=U+", "--u=20", "--z=-1-0.9989j",
                        "--order=6")
    assert code == 2
    assert json.loads(out)["error"] == "DOMAIN"


def test_oracle_subcommand():
    code, out = run_cli("oracle", "--function", "U+", "--u", "20", "--z", "2.0")
    payload = json.loads(out)
    assert code == 0
    assert payload["method"] == "quadrature"
    assert float(payload["est_acc"]) < 1e-8


@pytest.mark.parametrize("function", ["U+", "U+'"])
def test_oracle_left_half_plane_is_quadrature(function):
    # Re Z < 0: the saddle-path quadrature, not an ODE continuation
    code, out = run_cli("oracle", "--function", function, "--u", "20",
                        "--z=-2-2j")
    payload = json.loads(out)
    assert code == 0
    assert payload["method"] == "quadrature"
    assert float(payload["est_acc"]) < 1e-8


def test_region_between_critical_curve_and_cut_is_no_path():
    # U+ there has no progressive path yet: exit 2 with a JSON error
    code, out = run_cli("eval", "--function", "U+", "--u", "20",
                        "--z=-0.5-2.5j")
    assert code == 2
    assert json.loads(out)["error"] == "NO_PATH"


def test_map_artifact():
    code, out = run_cli("map", "--u", "15", "--order", "3",
                        "--grid-re", "0.5:2.0:3", "--grid-im", "0.0:0.4:2")
    lines = out.strip().splitlines()
    assert lines[0].startswith("u,re_z,im_z,order")
    assert code == 0  # zero bound violations
    for row in lines[1:]:
        assert row.endswith(",1")


def test_map_overflowing_ratio_is_a_miss(monkeypatch, capsys):
    # an oracle value e^800 below the expansion makes the ratio overflow a
    # float; the row is written as a miss instead of aborting the map
    from parcyl import oracle
    exact = oracle.oracle_U

    def far_off(a, z):
        ov = exact(a, z)
        return oracle.OracleValue(ScaledComplex(ov.value.mantissa,
                                                ov.value.log_scale - 800.0),
                                  ov.est_acc, ov.method)

    monkeypatch.setattr(oracle, "oracle_U", far_off)
    code = cli.main(["map", "--u", "15", "--order", "3",
                     "--grid-re", "1.0:2.0:2", "--grid-im", "0.0:0.0:1"])
    lines = capsys.readouterr().out.strip().splitlines()
    assert code == 1
    assert len(lines) == 3
    for row in lines[1:]:
        cols = row.split(",")
        assert cols[-2] == "inf" and cols[-1] == "0"


def run_main(capsys, *args):
    """The CLI in this process: exit code and the JSON it printed."""
    code = cli.main(list(args))
    return code, json.loads(capsys.readouterr().out)


def _error_classes(cls=ParcylError):
    yield cls
    for sub in cls.__subclasses__():
        yield from _error_classes(sub)


def test_every_error_class_has_its_own_code(capsys):
    classes = list(_error_classes())
    codes = [cls.code for cls in classes]
    assert len(set(codes)) == len(codes)
    for cls in classes:
        assert cli._error_exit(cls("why")) == 2
        assert json.loads(capsys.readouterr().out) == \
            {"error": cls.code, "detail": "why"}


def _value(p):
    """The scaled value of an eval or oracle JSON payload."""
    return ScaledComplex(complex(float(p["value_mantissa_re"]),
                                 float(p["value_mantissa_im"])),
                         float(p["log_scale"]))


@pytest.mark.parametrize("function", ["U+", "U+'", "U-", "V-", "UR"])
def test_eval_agrees_with_oracle(capsys, function):
    args = ("--function", function, "--u", "20", "--z", "1.5+0.5j")
    code, cv = run_main(capsys, "eval", *args)
    assert code == 0
    code, ov = run_main(capsys, "oracle", *args)
    assert code == 0

    err = abs((_value(cv) / _value(ov)).to_complex() - 1.0)
    assert err <= float(cv["rel_bound"]) + float(ov["est_acc"])


@pytest.mark.parametrize("function, rot", [("U+i", 1j), ("U-i", -1j)])
def test_oracle_rotated_against_mpmath(function, rot):
    # U+-i is U(u/2, +-i sqrt(2u) z), the functions tp.pcf_U_rotated
    # computes for its "+i" and "-i"
    code, out = run_cli("oracle", "--function", function, "--u", "20",
                        "--z", "0.5+0.3j")
    assert code == 0, out
    payload = json.loads(out)
    with mpmath.workdps(40):
        Z = rot * math.sqrt(40.0) * (0.5 + 0.3j)
        ref = mpmath.pcfu(10, mpmath.mpc(Z.real, Z.imag))
        v = _value(payload)
        got = mpmath.mpc(v.mantissa.real, v.mantissa.imag) * mpmath.exp(v.log_scale)
        err = float(abs(got / ref - 1))
    assert err <= float(payload["est_acc"])


@pytest.mark.parametrize("function", ["U+i", "U-i"])
@pytest.mark.parametrize("z", ["0.5+0.5j", "1.5-0.5j", "2.5+1.5j", "-1.5-1.5j"])
def test_rotated_eval_agrees_with_oracle_on_grid_points(capsys, function, z):
    # cell centres of the benchmark's grid lattice at u = 20, both half planes
    args = ("--function", function, "--u", "20", f"--z={z}")
    code, cv = run_main(capsys, "eval", *args)
    assert code == 0
    code, ov = run_main(capsys, "oracle", *args)
    assert code == 0
    err = abs((_value(cv) / _value(ov)).to_complex() - 1.0)
    assert err <= float(cv["rel_bound"]) + float(ov["est_acc"])


def test_oracle_answers_a_real_point_far_out():
    # the moments' panels follow the integrand, which peaks near z: equal
    # panels on the whole line gave a self-estimate of 8.3e-8 here
    args = ("--function", "UR", "--u", "20", "--z", "12")
    code, out = run_cli("oracle", *args)
    assert code == 0, out
    ov = json.loads(out)
    code, out = run_cli("eval", *args)
    assert code == 0
    cv = json.loads(out)

    err = abs((_value(cv) / _value(ov)).to_complex() - 1.0)
    assert err <= float(cv["rel_bound"]) + float(ov["est_acc"])


@pytest.mark.parametrize("args, error", [
    (("eval", "--function", "U+", "--u", "0", "--z", "2.0"), "DOMAIN"),
    (("eval", "--function", "U+", "--u=-5", "--z", "2.0"), "DOMAIN"),
    (("oracle", "--function", "U+", "--u=-5", "--z", "2.0"), "DOMAIN"),
    (("eval", "--function", "U-", "--u", "20", "--z", "nan"), "ARGUMENT"),
    (("eval", "--function", "W+x", "--u", "20", "--x", "inf"), "ARGUMENT"),
    (("eval", "--function", "U+", "--u", "20"), "ARGUMENT"),
    (("eval", "--function", "U+", "--u", "20", "--z", "2.0+abc"), "ARGUMENT"),
    (("eval", "--function", "UR", "--u", "20", "--z", "2.0", "--pair", "0;2"),
     "ARGUMENT"),
    (("domain", "--tag", "Z02", "--z", "0.5+abc"), "ARGUMENT"),
    (("eval", "--function", "V-", "--u", "2", "--z", "1.5"), "DOMAIN"),
    (("eval", "--function", "W+x", "--u", "20", "--z", "1+1j"), "ARGUMENT"),
    (("eval", "--function", "W-x", "--u", "20", "--z", "1+1j"), "ARGUMENT"),
    (("eval", "--function", "W+x", "--u", "20", "--z", "1", "--x", "5"),
     "ARGUMENT"),
    (("map", "--u", "15", "--grid-re", "1:2:0"), "ARGUMENT"),
    (("map", "--u", "15", "--grid-im", "0:0:-1"), "ARGUMENT"),
])
def test_malformed_input_is_a_typed_error(capsys, args, error):
    code, payload = run_main(capsys, *args)
    assert code == 2
    assert payload["error"] == error


@pytest.mark.parametrize("args, error", [
    # a line sweep seeded near e^-900
    (("--u", "20", "--z", "8"), None),
    (("--u", "20", "--z", "1.5", "--pair", "1,2"), "DOMAIN"),
    (("--u", "20", "--z", "1.5", "--R=-1"), "ORDER"),
])
def test_oracle_inhom_answers_or_refuses_in_json(capsys, args, error):
    code, payload = run_main(capsys, "oracle", "--function", "UR", *args)
    assert (code, payload.get("error")) == ((2, error) if error else (0, None))


#: points whose estimate paths collapse to z on the truncation box, and
#: points far beyond it, up to where z^2 leaves the double range
FAR_POINTS = ("50", "1+50j", "0.15+50j", "3e15", "1e20", "1e100", "1.3e154",
              "1e200", "1e300")


@pytest.mark.parametrize("function, point", [
    (f, p) for f in cli.FUNCTIONS for p in FAR_POINTS
    if f not in ("W+x", "W-x") or "j" not in p])
def test_far_points_give_a_value_or_a_refusal(capsys, function, point):
    where = "--x" if function in ("W+x", "W-x") else "--z"
    code, payload = run_main(capsys, "eval", "--function", function, "--u",
                             "20", where, point, "--R", "2", "--pair",
                             "0,3" if function == "WR" else "0,2")
    if code == 0:
        assert all(math.isfinite(float(payload[k])) for k in (
            "value_mantissa_re", "value_mantissa_im", "log_scale", "rel_bound"))
    else:
        # the input is finite: a refusal is about the expansion, not it
        assert code == 2 and payload["error"] != "ARGUMENT"


#: |z| = 1e8 in the eight directions e^{i k pi/4}: on the left, z +
#: sqrt(z^2+1) rounds to 0 there unless xi_bar takes its odd symmetry
FAR_DIRECTIONS = [repr(1e8 * cmath.exp(1j * math.pi * k / 4)).strip("()")
                  for k in range(8)]


@pytest.mark.parametrize("function", ["U+", "U+'", "UR"])
@pytest.mark.parametrize("point", FAR_DIRECTIONS)
def test_far_directions_give_a_value_or_a_region_refusal(capsys, function, point):
    # a refusal is the region's: DOMAIN, or NO_PATH between a critical
    # curve and the cut, as inside the box
    code, payload = run_main(capsys, "eval", "--function", function, "--u", "20",
                             f"--z={point}")
    if code == 0:
        assert all(math.isfinite(float(payload[k])) for k in (
            "value_mantissa_re", "value_mantissa_im", "log_scale", "rel_bound"))
    else:
        assert code == 2 and payload["error"] in ("DOMAIN", "NO_PATH")


@pytest.mark.parametrize("point", FAR_DIRECTIONS)
def test_domain_subcommand_far_out(capsys, point):
    for tag in ("Z01", "Z02", "Z03", "Z12", "Z23", "Z", "Zb", "Zb0", "Zb03"):
        code, payload = run_main(capsys, "domain", "--tag", tag, f"--z={point}")
        assert code == 0 and payload["contains"] in (True, False)


@pytest.mark.parametrize("cmd", ["eval", "oracle"])
def test_parameter_above_u_max_is_a_domain_error(capsys, cmd):
    code, payload = run_main(capsys, cmd, "--function=U+", "--u=1e308",
                             "--z=1.5")
    assert code == 2
    assert payload["error"] == "DOMAIN"


def test_parameter_above_u_max_in_a_fresh_process():
    code, out = run_cli("eval", "--function=U+", "--u=1e308", "--z=1.5")
    assert code == 2
    assert json.loads(out)["error"] == "DOMAIN"
