"""End-to-end checks of the command-line interface.

Every test drives cli.main() in-process and reads back the JSON or CSV
it writes, including the exit-code contract (0 ok, 1 failed checks,
2 bad configuration, 3 degenerate kernel).
"""

import csv
import json
import math
import sys

import pytest

import liosym.generators
from liosym import StationaryGaussian, exact_edges
from liosym.cli import main


def run_json(tmp_path, argv, name="out.json"):
    path = tmp_path / name
    code = main(argv + ["--out", str(path)])
    return code, (json.loads(path.read_text()) if path.exists() else None)


def read_csv(path):
    with open(path, newline="") as f:
        rows = list(csv.reader(f))
    return rows[0], rows[1:]


def test_verify_passes_and_reports_every_check(tmp_path):
    code, report = run_json(tmp_path, ["verify", "--fock-dim", "10"])
    assert code == 0
    assert report["failed"] == 0
    assert report["passed"] == len(report["checks"])
    for c in report["checks"]:
        assert set(c) == {"check", "residual", "threshold", "pass"}
        assert c["pass"]
    names = [c["check"] for c in report["checks"]]
    assert "table-4d" in names
    assert sum(1 for s in names if s.startswith("commutator[")) == 45
    assert any(s.startswith("symplectic[") for s in names)
    # the deliberate counterexample is reported as a passing check with
    # an above-threshold residual
    non = next(c for c in report["checks"]
               if c["check"].startswith("non-symmetry"))
    assert non["residual"] > non["threshold"]


def test_verify_passes_at_a_cutoff_of_20(tmp_path):
    # exp(0.5 L1+) has entries near 1e5 at n = 20; its symmetry residual is
    # measured relative to them, and the counterexample must stay far out
    code, report = run_json(tmp_path, ["verify", "--fock-dim", "20"])
    assert code == 0
    assert report["failed"] == 0
    assert all(c["pass"] for c in report["checks"])
    exp_threshold = max(c["threshold"] for c in report["checks"]
                        if c["check"].startswith("adjoint-symmetry[exp("))
    non = next(c for c in report["checks"]
               if c["check"] == "non-symmetry[exp(0.5i*O+)]")
    assert non["residual"] > 1e10 * exp_threshold


def test_verify_builds_the_generator_set_once(tmp_path, monkeypatch):
    original = liosym.generators.ten_generators
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for name, mod in list(sys.modules.items()):
        if (name.split(".")[0] == "liosym"
                and getattr(mod, "ten_generators", None) is original):
            monkeypatch.setattr(mod, "ten_generators", counted)
    code, _ = run_json(tmp_path, ["verify", "--fock-dim", "10"])
    assert code == 0
    assert len(calls) == 1


def test_verify_rejects_a_tiny_cutoff(tmp_path):
    code, _ = run_json(tmp_path, ["verify", "--fock-dim", "3"])
    assert code == 2


def test_verify_exit_1_when_checks_fail(tmp_path):
    code, report = run_json(
        tmp_path, ["verify", "--fock-dim", "8", "--tol", "1e-30"])
    assert code == 1
    assert report["failed"] > 0


def test_evolve_writes_a_trajectory_csv(tmp_path):
    path = tmp_path / "traj.csv"
    code = main(["evolve", "--model", "kl", "--gamma", "0.1",
                 "--init", "fock:1", "--t-max", "100", "--steps", "200",
                 "--out", str(path)])
    assert code == 0
    header, rows = read_csv(path)
    assert header == ["t", "re_x", "re_p", "x2", "p2", "purity", "trace",
                      "min_eig"]
    assert len(rows) == 201
    assert float(rows[1][0]) == pytest.approx(0.5, abs=1e-12)
    # b = 1 steady state has <x^2> = 1 and the fock:1 start is traceless
    # in x, so re_x stays 0
    last = dict(zip(header, map(float, rows[-1])))
    assert abs(last["x2"] - 1.0) < 1e-4
    assert abs(last["trace"] - 1.0) < 1e-8
    assert abs(last["re_x"]) < 1e-12


def test_evolve_rejects_bad_configurations(tmp_path):
    out = str(tmp_path / "x.csv")
    assert main(["evolve", "--model", "kl", "--t-max", "-1",
                 "--out", out]) == 2
    assert main(["evolve", "--model", "kl", "--steps", "0",
                 "--out", out]) == 2
    assert main(["evolve", "--model", "kl", "--init", "fock:30",
                 "--out", out]) == 2
    assert main(["evolve", "--model", "kl", "--init", "bananas",
                 "--out", out]) == 2
    assert main(["evolve", "--model", "kl", "--b", "-1",
                 "--out", out]) == 2


def test_evolve_documents_negative_eigenvalues_below_the_domain(tmp_path):
    # 2b < 1: the CL stationary Gaussian is not a density matrix, and the
    # trajectory's min_eig shows it without any crash
    path = tmp_path / "traj.csv"
    code = main(["evolve", "--model", "cl", "--b", "0.4", "--gamma", "0.4",
                 "--out", str(path)])
    assert code == 0
    header, rows = read_csv(path)
    idx = header.index("min_eig")
    assert min(float(r[idx]) for r in rows) < -0.05


def test_map_thermal_invariance(tmp_path):
    code, report = run_json(
        tmp_path, ["map", "--invariance", "thermal", "--model", "kl",
                   "--b", "1", "--alpha", "0.405"])
    assert code == 0
    assert report["mode"] == "invariance:thermal"
    assert report["pass"]
    # the report carries 12 significant digits
    assert report["target"]["b"] == pytest.approx(math.exp(0.405),
                                                  abs=1e-11)
    assert report["conjugation_residual"] <= 1e-8
    assert report["coefficient_flow_residual"] <= 1e-8


def test_map_kl_to_cl(tmp_path):
    code, report = run_json(
        tmp_path, ["map", "--from", "kl", "--to", "cl", "--b", "1",
                   "--gamma", "0.6"])
    assert code == 0
    assert report["mode"] == "kl->cl"
    assert report["pass"]
    ch = math.sqrt(1.09)
    assert report["target"]["omega0"] == pytest.approx(ch, abs=1e-11)
    assert report["target"]["b"] == pytest.approx(1 / ch, abs=1e-11)
    assert report["target"]["gamma"] == 0.6


def test_map_cl_to_hpz(tmp_path):
    code, report = run_json(
        tmp_path, ["map", "--from", "cl", "--to", "hpz", "--b", "1",
                   "--zeta", "0.5"])
    assert code == 0
    assert report["pass"]
    assert report["target"]["b"] == pytest.approx(1.25, abs=1e-12)
    assert report["target"]["d"] == pytest.approx(-1.0, abs=1e-12)


def test_map_usage_errors(tmp_path):
    out = str(tmp_path / "x.json")
    assert main(["map", "--out", out]) == 2
    assert main(["map", "--invariance", "thermal", "--from", "kl",
                 "--to", "cl", "--out", out]) == 2
    assert main(["map", "--from", "kl", "--to", "hpz", "--out", out]) == 2


def test_domain_translate(tmp_path):
    code, report = run_json(
        tmp_path, ["domain", "--kind", "translate", "--b", "1"])
    assert code == 0
    assert report["agree"]
    assert report["exact"]["boundary"] == pytest.approx(-1.0)
    assert report["numeric"]["boundary"] == pytest.approx(-1.0, abs=1e-3)


def test_domain_thermal_reports_both_closed_forms(tmp_path):
    code, report = run_json(
        tmp_path, ["domain", "--kind", "thermal", "--b", "1"])
    assert code == 0
    assert report["printed"] == pytest.approx(math.log(2))
    assert report["exact"]["boundary"] == pytest.approx(-math.log(2))
    # the numeric scan sides with the exact edge
    assert report["numeric"]["boundary"] == pytest.approx(-math.log(2),
                                                          abs=1e-3)
    assert report["agree"]


def test_domain_thermal_at_high_b(tmp_path):
    # applying exp(alpha O0) to the truncated Fock state went negative at
    # both ends of the bracket here; the parameter flow does not
    b, d = 1.8, 0.3
    code, report = run_json(
        tmp_path, ["domain", "--kind", "thermal", "--b", str(b),
                   "--d", str(d), "--fock-dim", "24"])
    assert code == 0
    assert report["agree"] is True
    derived = -0.5 * math.log(2 * b * (2 * b + d))
    assert report["numeric"]["boundary"] == pytest.approx(derived, abs=1e-3)


def test_domain_cl2hpz_scans_both_edges(tmp_path):
    code, report = run_json(
        tmp_path, ["domain", "--kind", "cl2hpz", "--b", "1"])
    assert code == 0
    r3 = math.sqrt(3)
    assert report["numeric"]["upper"] == pytest.approx(r3, abs=1e-3)
    assert report["numeric"]["lower"] == pytest.approx(-r3, abs=1e-3)
    assert report["agree"]


def test_domain_edges_of_a_base_with_d(tmp_path):
    # b = 1, d = 0.3, omega0 = 1, so w = 2.3: each edge is a root of
    # 2b'w' = 1 along the kind's flow
    w = 2.3
    want = {
        "thermal": {"boundary": -0.5 * math.log(2 * w)},
        # (2 + beta)(2.3 + beta) = 1
        "translate": {"boundary": (-4.3 + math.sqrt(4.3 ** 2 - 4 * 3.6))
                      / 2},
        "hpz": {"boundary": 1 / (2 * w) - 1},
        # cosh^2 theta = 2bw
        "kl2cl": {"boundary": math.acosh(math.sqrt(2 * w))},
        # (2 + zeta)(2.3 - zeta) = 1
        "cl2hpz": {"lower": (0.3 - math.sqrt(0.09 + 14.4)) / 2,
                   "upper": (0.3 + math.sqrt(0.09 + 14.4)) / 2},
    }
    for kind, edges in want.items():
        code, report = run_json(
            tmp_path, ["domain", "--kind", kind, "--b", "1", "--d", "0.3",
                       "--fock-dim", "30"], name=f"{kind}.json")
        assert code == 0, kind
        assert report["agree"] is True, kind
        assert report["exact"].keys() == edges.keys() == \
            report["numeric"].keys()
        exact = exact_edges(kind, StationaryGaussian(1.0, 0.3))
        for key, edge in edges.items():
            assert abs(exact[key] - edge) <= 1e-12, (kind, key)
            # the report carries 12 significant digits
            assert abs(report["exact"][key] - edge) <= 1e-11, (kind, key)
            assert abs(report["numeric"][key] - edge) <= 1e-3, (kind, key)


def test_domain_hpz_starts_inside_the_domain(tmp_path):
    # phi = 0.5 puts xi = 0 outside the domain of a b = 0.3 base
    code, report = run_json(
        tmp_path, ["domain", "--kind", "hpz", "--b", "0.3", "--phi", "0.5"])
    assert code == 0
    assert report["exact"]["boundary"] == pytest.approx(
        1 / 1.2 - 0.3 * math.exp(1.0), abs=1e-11)
    assert report["agree"]


def test_domain_rejects_a_base_with_no_positive_point(tmp_path, capsys):
    for b in ("-1", "0"):
        code, _ = run_json(tmp_path, ["domain", "--kind", "thermal",
                                      "--b", b])
        assert code == 2
        err = capsys.readouterr().err
        assert "no positive point" in err and f"base b = {b}" in err


@pytest.mark.parametrize("command", [
    ["steady", "--model", "kl"], ["evolve", "--model", "kl"],
    ["domain", "--kind", "thermal"]])
@pytest.mark.parametrize("cutoff", ["0", "-3"])
def test_cutoff_below_one_is_rejected(tmp_path, capsys, command, cutoff):
    code, _ = run_json(tmp_path, command + ["--fock-dim", cutoff])
    assert code == 2
    assert "--fock-dim" in capsys.readouterr().err


@pytest.mark.parametrize("argv, option", [
    (["steady", "--model", "cl", "--b", "inf"], "--b"),
    (["steady", "--model", "cl", "--gamma", "nan"], "--gamma"),
    (["steady", "--model", "cl", "--omega0", "inf"], "--omega0"),
    (["verify", "--fock-dim", "8", "--tol", "nan"], "--tol"),
    (["map", "--invariance", "thermal", "--model", "kl", "--alpha", "nan"],
     "--alpha"),
    (["map", "--from", "kl", "--to", "cl", "--gamma", "inf"], "--gamma"),
    (["domain", "--kind", "hpz", "--phi", "nan"], "--phi"),
    (["evolve", "--model", "kl", "--t-max", "inf"], "--t-max"),
    (["domain", "--kind", "thermal", "--b", "inf"], "--b"),
    (["evolve", "--model", "kl", "--init", "gibbs:nan"], "--init"),
    (["evolve", "--model", "kl", "--init", "coherent:inf"], "--init")])
def test_non_finite_inputs_are_rejected(tmp_path, capsys, argv, option):
    code, report = run_json(tmp_path, argv)
    assert code == 2 and report is None
    err = capsys.readouterr().err
    assert err.startswith(f"error: {option} ") and "finite" in err


def test_steady_hpz_report(tmp_path):
    code, report = run_json(
        tmp_path, ["steady", "--model", "hpz", "--b", "1", "--d", "0.5",
                   "--gamma", "0.4"])
    assert code == 0
    m = report["moments"]
    assert m["x2"] == pytest.approx(1.25, abs=1e-6)
    assert m["p2"] == pytest.approx(1.0, abs=1e-6)
    assert m["x2_expected"] == 1.25
    assert report["kernel_residual"] < 1e-10
    g = report["gaussian"]
    assert g["nu"] == pytest.approx(0.8, abs=1e-12)
    assert g["positive"] and not g["on_boundary"]
    assert len(report["populations"]) == 16


def test_steady_flags_the_purity_boundary(tmp_path):
    code, report = run_json(
        tmp_path, ["steady", "--model", "cl", "--b", "0.5",
                   "--gamma", "0.4", "--fock-dim", "24"])
    assert code == 0
    assert report["gaussian"]["on_boundary"]
    assert abs(report["gaussian"]["nu"]) <= 1e-9


def test_steady_hpz_at_a_large_cutoff(tmp_path):
    # n = 150: the dense K alone would take 8 GB
    code, report = run_json(
        tmp_path, ["steady", "--model", "hpz", "--b", "1", "--d", "0.2",
                   "--fock-dim", "150"])
    assert code == 0
    m = report["moments"]
    assert abs(m["x2"] - 1.1) <= 1e-8
    assert abs(m["p2"] - 1.0) <= 1e-8


def test_steady_populations_csv(tmp_path):
    pops_path = tmp_path / "pops.csv"
    code, report = run_json(
        tmp_path, ["steady", "--model", "kl", "--b", "1", "--gamma", "0.4",
                   "--fock-dim", "24", "--populations", str(pops_path)])
    assert code == 0
    header, rows = read_csv(pops_path)
    assert header == ["level", "population"]
    assert len(rows) == 24
    lam = 1.0 / 3.0
    for k in range(6):
        assert float(rows[k][1]) == pytest.approx(
            (1 - lam) * lam ** k, abs=1e-9)


def test_steady_degenerate_kernel_exit_code(tmp_path):
    code, _ = run_json(
        tmp_path, ["steady", "--model", "kl", "--gamma", "1e-12",
                   "--fock-dim", "12"])
    assert code == 3


def test_reports_are_deterministic(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for path in (a, b):
        assert main(["verify", "--fock-dim", "10",
                     "--out", str(path)]) == 0
    assert a.read_bytes() == b.read_bytes()
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for path in (a, b):
        assert main(["evolve", "--model", "hpz", "--d", "0.1",
                     "--b", "0.9", "--gamma", "0.4", "--t-max", "10",
                     "--steps", "20", "--out", str(path)]) == 0
    assert a.read_bytes() == b.read_bytes()
