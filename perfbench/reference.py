"""Reference checks for the output of one CLI task.

Every expectation is computed here from the task's own argv, never read
from the report under test:

* steady, and the last point of evolve: <x^2> = b + d/(2 omega0) and
  <p^2> = b, the exact moments of the stationary Gaussian;
* evolve: one CSV row per time point, and |trace - 1| within the
  program's own 1e-8 budget at every point;
* domain: agree is true and each numeric boundary lies within NUMERIC_TOL
  of the derived closed form;
* verify: exit 0 with every check passing.

A failed check also says whether it is one of the program's known
defects.  Those still count as failures; any other failure means the
program's output is wrong.
"""

import csv
import json
import math

STEADY_RTOL = 1e-5   # truncation at n >= 19 moves the moments by < 5e-7
EVOLVE_RTOL = 1e-2   # t = 50 leaves the moments within 1e-3 of stationary
TRACE_BUDGET = 1e-8  # the budget evolve itself checks against
NUMERIC_TOL = 1e-3   # the agreement window domain itself reports

# Where the known defects are drawn: steady on the ladder's lowest rungs,
# the thermal-high-b domain slot, and verify at its two largest cutoffs.
KNOWN_DEFECT_STEADY_MAX_N = 18
KNOWN_DEFECT_THERMAL_MIN_B = 1.5
KNOWN_DEFECT_VERIFY_MIN_N = 18
KNOWN_VERIFY_FAILURES = {"adjoint-symmetry[exp(0.5*L1+)]",
                         "adjoint-symmetry[exp(0.5*L2+)]"}


def options(argv):
    """The --flag value pairs of an argv list, as a dict."""
    return {argv[i][2:]: argv[i + 1] for i in range(1, len(argv) - 1, 2)}


def stationary_moments(opts):
    b = float(opts.get("b", 1.0))
    d = float(opts.get("d", 0.0))
    omega0 = float(opts.get("omega0", 1.0))
    return b + d / (2 * omega0), b


def derived_bounds(opts):
    """Closed-form positivity boundaries of a domain task, from the
    parameter flow of each family."""
    b = float(opts.get("b", 1.0))
    d = float(opts.get("d", 0.0))
    omega0 = float(opts.get("omega0", 1.0))
    phi = float(opts.get("phi", 0.0))
    w = 2 * b + d / omega0
    kind = opts["kind"]
    if kind == "thermal":
        return {"boundary": -0.5 * math.log(2 * b * w)}
    if kind == "translate":
        return {"boundary": -(2 * b - 1)}
    if kind == "hpz":
        return {"boundary": 1 / (2 * w) - b * math.exp(2 * phi)}
    if kind == "kl2cl":
        return {"boundary": math.acosh(2 * b)}
    bound = math.sqrt(4 * b * b - 1)
    return {"upper": bound, "lower": -bound}


def _close(got, want, rtol):
    return abs(got - want) <= rtol * abs(want)


def _check_moments(x2, p2, opts, rtol):
    x2_ref, p2_ref = stationary_moments(opts)
    if not _close(x2, x2_ref, rtol):
        return f"<x^2> = {x2:.12g}, reference {x2_ref:.12g} (rtol {rtol:g})"
    if not _close(p2, p2_ref, rtol):
        return f"<p^2> = {p2:.12g}, reference {p2_ref:.12g} (rtol {rtol:g})"
    return None


def _steady(opts, out):
    m = json.loads(out)["moments"]
    return _check_moments(m["x2"], m["p2"], opts, STEADY_RTOL)


def _evolve(opts, out):
    rows = list(csv.reader(out.splitlines()))
    header, rows = rows[0], [[float(v) for v in r] for r in rows[1:]]
    steps = int(opts.get("steps", 100))
    if len(rows) != steps + 1:
        return f"{len(rows)} time points, expected {steps + 1}"
    col = {name: i for i, name in enumerate(header)}
    worst = max(abs(r[col["trace"]] - 1) for r in rows)
    if not worst <= TRACE_BUDGET:
        return f"|trace - 1| reaches {worst:.3g} > {TRACE_BUDGET:g}"
    last = rows[-1]
    return _check_moments(last[col["x2"]], last[col["p2"]], opts,
                          EVOLVE_RTOL)


def _domain(opts, out):
    report = json.loads(out)
    if report["agree"] is not True:
        return "report says the numeric scan and closed form disagree"
    for key, want in derived_bounds(opts).items():
        got = report["numeric"][key]
        if not abs(got - want) <= NUMERIC_TOL:
            return (f"numeric {key} boundary {got:.12g} is off the derived "
                    f"closed form {want:.12g} by more than {NUMERIC_TOL:g}")
    return None


def _verify(opts, out):
    report = json.loads(out)
    bad = [c["check"] for c in report["checks"] if not c["pass"]]
    if bad or report["failed"]:
        return "failed checks: " + ", ".join(bad)
    return None


CHECKS = {"steady": _steady, "evolve": _evolve, "domain": _domain,
          "verify": _verify}


def _known_defect(argv, code, out, err):
    """Name of the known defect this failure shows, or None.  Each defect
    is known only where the workloads draw it (see KNOWN_DEFECT_*); the
    same failure anywhere else is a new one."""
    cmd, opts = argv[0], options(argv)
    n = int(opts.get("fock-dim", 0))
    if (cmd == "steady" and 0 < n <= KNOWN_DEFECT_STEADY_MAX_N and code == 3
            and "0-dimensional" in err):
        return "kernel-misdiagnosis"
    if (cmd == "domain" and opts["kind"] == "thermal"
            and float(opts.get("b", 1.0)) >= KNOWN_DEFECT_THERMAL_MIN_B
            and code == 2
            and "no sign change" in err and "negative at both ends" in err):
        return "thermal-scan"
    if cmd == "verify" and n >= KNOWN_DEFECT_VERIFY_MIN_N and code == 1:
        try:
            bad = {c["check"] for c in json.loads(out)["checks"]
                   if not c["pass"]}
        except (ValueError, KeyError, TypeError):
            return None
        if bad and bad <= KNOWN_VERIFY_FAILURES:
            return "adjoint-threshold"
    return None


def check(argv, code, out, err):
    """Judge one task.  Returns (reason, known): reason is None when the
    output matches the reference; known names the known defect a failure
    shows, or is None."""
    if code != 0:
        last = err.strip().splitlines()[-1] if err.strip() else ""
        return (f"exit {code}: {last}".strip(),
                _known_defect(argv, code, out, err))
    try:
        reason = CHECKS[argv[0]](options(argv), out)
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        reason = f"unreadable output: {type(exc).__name__}: {exc}"
    return reason, None
