"""One-line mutants of the bounds, estimates, margins and validity regions,
run against tier-1.

Each mutant is (file, old text, new text, reason): the old text must occur
exactly once in the file.  For each mutant the script copies src/ and
tests/ (and pyproject.toml) into a temporary directory, replaces the old
text there, runs tier-1 on the copy with -x (less tests/test_mutants.py,
which checks this list against the unmutated tree) and prints one line:

    killed    the first failing test
    survived  every test passed
    stale     the old text is not found exactly once

and then the table as Markdown.  The working tree is never modified.  Each
mutant costs one tier-1 run (about a minute on two cores), so this is not
part of tier-1.

Run:  python scripts/mutants.py            # every mutant
      python scripts/mutants.py 3 10       # mutants 3 and 10 (1-based)
"""

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

MUTANTS = [
    ("src/parcyl/lg.py", "BOUND_SAFETY = 1.05", "BOUND_SAFETY = 0.5",
     "the LG eta bound's safety factor below 1"),
    ("src/parcyl/quadrature.py", "SEGMENT_NODES = 32", "SEGMENT_NODES = 6",
     "bound integrals on 6 Gauss nodes a segment"),
    ("src/parcyl/tp.py", "EPS_CONST_MARGIN = 2.0", "EPS_CONST_MARGIN = 0.0",
     "no margin for the dropped identification constants"),
    ("src/parcyl/airy.py", "m = math.hypot(v.ai.real, v.bi.real)",
     "m = 0.5 * math.hypot(v.ai.real, v.bi.real)",
     "the oscillatory side of the Airy envelope halved"),
    ("src/parcyl/scaled.py",
     "return total, sum(math.exp(d) * r for d, r in logs)",
     "return total, 0.5 * sum(math.exp(d) * r for d, r in logs)",
     "sum_rel's error figure halved"),
    ("src/parcyl/scaled.py",
     "return total, sum(math.exp(d) * r for d, r in logs)",
     "return total, max(r for _, r in logs)",
     "sum_rel's figure blind to cancellation: the largest term's error"),
    ("src/parcyl/inhom.py", "SCORER_MARGIN = 0.5", "SCORER_MARGIN = 0.0",
     "no margin for the truncated Scorer series"),
    ("src/parcyl/inhom.py",
     "est = SCORER_MARGIN * (10.0 / u) ** (2 * m + 4) + co.est_err",
     "est = SCORER_MARGIN * (10.0 / u) ** (2 * m + 4)",
     "inhom_scorer's estimate without the coefficient functions' error"),
    ("src/parcyl/lg.py",
     "bound = u ** (-n) * omega * math.exp(varpi / u + omega * u ** (-n))",
     "bound = u ** (-n) * omega * 1.0",
     "eta bound without its factor exp(varpi/u + omega u^-n)"),
    ("src/parcyl/tp.py", "bound = u ** (-n) * env * (",
     "bound = 0.1 * u ** (-n) * env * (",
     "the turning-point estimate's majorant times 0.1"),
    ("src/parcyl/tp.py", "zip(paths, (0.0, delta_n_pm(u, n)))",
     "zip(paths, (0.0, 0.0))",
     "the connection term delta_n+- of the estimate set to 0"),
    ("src/parcyl/tp.py",
     "+ gm * math.exp(min(bt / u + gm * u ** (-n), 60.0))",
     "+ (dlt == 0.0) * gm * math.exp(min(bt / u + gm * u ** (-n), 60.0))",
     "the second estimate path's (Gamma, B) term dropped"),
    ("src/parcyl/tp.py",
     "est_abs = abs(f * co.A) * co.est_err + abs(fp * co.B) * co.est_err",
     "est_abs = abs(f * co.A) * co.est_err",
     "the turning-point value's estimate without its B term"),
    ("src/parcyl/plane.py",
     "lambda u, z: abs(z - 1j) < TP_REFUSAL or abs(z + 1j) < TP_REFUSAL,",
     "lambda u, z: False,",
     "the region table without its TP_REFUSAL discs about +-i"),
    ("src/parcyl/plane.py", "_WEBM = (_DISC, _RIGHT_HALF)", "_WEBM = (_DISC,)",
     "W0 and W3 without their right-half-plane restriction"),
    ("src/parcyl/plane.py", "(_Z, _UPPER)", "(_Z,)",
     "the minus series' (0,1) pair without its upper-half-plane test"),
    ("src/parcyl/plane.py", "_FLOOR = (lambda u, z: u < 5,",
     "_FLOOR = (lambda u, z: u < 1,",
     "the u >= 5 floor of the turning-point expansions lowered to 1"),
    ("src/parcyl/airy.py",
     "_W_LD.imag = np.array([0, 1, -1]) * (np.sqrt(np.longdouble(3)) / 2)",
     "_W_LD.imag = np.array([0, 1, -1]) * (math.sqrt(3.0) / 2)",
     "the Maclaurin layer's rotation constant w rounded to double"),
    ("src/parcyl/airy.py",
     "    if r <= MACLAURIN_RADIUS:\n        hi, hip = _series_hi",
     "    if r <= 2.0 * MACLAURIN_RADIUS:\n        hi, hip = _series_hi",
     "Hi's series used out to radius 9, past the disc its terms are counted for"),
    ("src/parcyl/airy.py", "_MACLAURIN_TOL = 2.0 ** -64",
     "_MACLAURIN_TOL = 2.0 ** -24",
     "the Ai and Hi series cut at a tail of 2^-24 of their first term"),
    ("src/parcyl/plane.py",
     "return z.real < 0 and abs(z.imag) >= 1.0 - TP_CLEARANCE and xi_bar(z).real > 0",
     "return False",
     "no sheet refusal between a critical curve and the cut (U+, UR)"),
    ("src/parcyl/plane.py", "_SCORER = (lambda u, z: abs(z - 1.0) > 1.15,",
     "_SCORER = (lambda u, z: abs(z - 1.0) > 1.6,",
     "the Scorer forms out to |z-1| = 1.6, past the ring of radius 1.4"),
    ("src/parcyl/plane.py", 'Region("reflection", (_ZB03, _DISC),',
     'Region("reflection", (_ZB03,),',
     "WR's reflection without the discs of its terms W0 and W3 at -z"),
    ("src/parcyl/oracle.py", "w[0], w[1, 0], w[2, 0] = p2, p1, p0",
     "w[0], w[1, 0], w[2, 0] = 0.0, p1, p0",
     "the oracle sweep's basis recurrence without its q2 term"),
    ("src/parcyl/oracle.py", "yv, dv = yv + r * f[0], dv + r * f[1]",
     "yv, dv = yv + f[0], dv + f[1]",
     "the oracle sweep's forcing vector without its scale r = e^-l"),
]


def _first_failure(output: str) -> str:
    for line in output.splitlines():
        if line.startswith(("FAILED ", "ERROR ")):
            return line.split()[1]
    return "(no test named; see the pytest output)"


def run(index: int) -> tuple[str, str]:
    """(outcome, detail) of the mutant at `index` (0-based)."""
    path, old, new, _ = MUTANTS[index]
    if (ROOT / path).read_text().count(old) != 1:
        return "stale", f"{old!r} not found exactly once in {path}"
    with tempfile.TemporaryDirectory(prefix="parcyl-mutant-") as tmp:
        tmp = Path(tmp)
        for name in ("src", "tests"):
            shutil.copytree(ROOT / name, tmp / name,
                            ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "pyproject.toml", tmp)
        target = tmp / path
        target.write_text(target.read_text().replace(old, new))
        env = dict(os.environ, PYTHONPATH=str(tmp / "src"),
                   PYTHONDONTWRITEBYTECODE="1")
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-x", "-rfE",
             "--continue-on-collection-errors", "-p", "no:cacheprovider",
             "--ignore=tests/test_mutants.py"],
            cwd=tmp, env=env, capture_output=True, text=True)
    if proc.returncode == 0:
        return "survived", "every test passed"
    return "killed", _first_failure(proc.stdout)


def main(argv: list[str]) -> None:
    picks = [int(a) - 1 for a in argv] or range(len(MUTANTS))
    rows = []
    for i in picks:
        outcome, detail = run(i)
        rows.append((i + 1, outcome, detail))
        print(f"{i + 1:2d} {outcome:8s} {detail}", flush=True)
    print("\n| # | file | mutant | outcome | first failing test |")
    print("|---|---|---|---|---|")
    for k, outcome, detail in rows:
        path, _, _, reason = MUTANTS[k - 1]
        print(f"| {k} | `{Path(path).name}` | {reason} | {outcome} | "
              f"{detail if outcome == 'killed' else ''} |")


if __name__ == "__main__":
    main(sys.argv[1:])
