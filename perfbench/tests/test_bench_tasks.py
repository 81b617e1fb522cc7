import json
import sys

import pytest

import liosym.cli
from perfbench import reference, run, workloads


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_same_seed_gives_same_argv_lists(workload):
    tasks = workloads.tasks(workload, 7, 20)
    assert tasks == workloads.tasks(workload, 7, 20)
    assert tasks != workloads.tasks(workload, 8, 20)
    for argv in tasks:
        assert all(isinstance(a, str) for a in argv)
        assert liosym.cli.build_parser().parse_args(argv)


def test_task_counts_depend_on_seconds_only_in_whole_rounds():
    counts = {w: len(workloads.tasks(w, 1, 20)) for w in workloads.WORKLOADS}
    assert counts == {"sweep": 20, "ladder": 20, "domain": 150, "verify": 20}
    assert len(workloads.tasks("verify", 1, 60)) == 60
    assert len(workloads.tasks("sweep", 1, 1)) == 20
    assert workloads.tasks("ladder", 1, 60) == workloads.tasks("ladder", 1, 20)
    assert workloads.tasks("domain", 1, 60) == workloads.tasks("domain", 1, 20)


def test_ladder_never_repeats_a_cutoff():
    cutoffs = [argv[-1] for argv in workloads.tasks("ladder", 3, 20)]
    assert len(cutoffs) == len(set(cutoffs)) == len(workloads.LADDER_CUTOFFS)


def test_domain_tail_lies_beyond_the_misses_and_cold_tasks():
    tasks = workloads.tasks("domain", 3, 20)
    thermal = [a[-1] for a in tasks if a[2] == "thermal"]
    first_seen = [n for i, n in enumerate(thermal) if n not in thermal[:i]]
    assert first_seen == [str(n) for n in workloads.THERMAL_MISS_CUTOFFS]
    assert len(thermal) > len(first_seen)
    # p90 has more samples beyond it than there are cache misses plus
    # the first (cold) task of each of the five kinds
    value, p, beyond = run.tail(list(range(len(tasks))))
    assert p == 90 and beyond >= len(first_seen) + 5 + 5


def test_sweep_has_one_cutoff_and_both_step_counts():
    tasks = workloads.tasks("sweep", 1, 20)
    assert {a[-1] for a in tasks} == {"24"}
    assert [a[0] for a in tasks[:4]] == ["steady", "evolve"] * 2
    steps = [a[a.index("--steps") + 1] for a in tasks if a[0] == "evolve"]
    assert set(steps) == {"100", "1000"}


class FakeCli:
    """Stands in for liosym.cli: prints a fixed output."""

    def __init__(self, text, code=0):
        self.text, self.code = text, code

    def main(self, argv):
        print(self.text, end="")
        return self.code


STEADY = ["steady", "--model", "hpz", "--omega0", "0.8", "--gamma", "0.4",
          "--b", "1.0", "--d", "0.4", "--fock-dim", "24"]


def steady_report(x2, p2):
    return json.dumps({"moments": {"x2": x2, "p2": p2}})


def test_exact_output_passes_and_wrong_output_fails():
    x2 = 1.0 + 0.4 / 1.6
    code, out, err = run.run_task(FakeCli(steady_report(x2, 1.0)), STEADY)
    assert reference.check(STEADY, code, out, err) == (None, None)

    wrong = FakeCli(steady_report(x2 * (1 + 1e-3), 1.0))
    records, _ = run.measure(wrong, [STEADY] * 3)
    assert len(records) == 3
    assert not any(r["ok"] for r in records)
    assert all("<x^2>" in r["reason"] for r in records)
    assert all(r["known_defect"] is None for r in records)
    metrics, extra = run.end_to_end(records, 1.0, 0.5)
    assert metrics["pass_frac"] == 0 and extra["fail_frac"] == 1


def test_wrong_exit_code_and_raised_errors_fail():
    code, out, err = run.run_task(FakeCli("", code=2), STEADY)
    reason, known = reference.check(STEADY, code, out, err)
    assert reason.startswith("exit 2") and known is None

    class Raises:
        def main(self, argv):
            raise RuntimeError("boom")

    code, out, err = run.run_task(Raises(), STEADY)
    reason, known = reference.check(STEADY, code, out, err)
    assert code is None and "boom" in reason and known is None


def test_known_defects_are_recognised_but_still_fail():
    err = "error: kernel is 0-dimensional within 1e-8 (undamped ...)\n"
    reason, known = reference.check(STEADY[:-1] + ["18"], 3, "", err)
    assert reason and known == "kernel-misdiagnosis"

    report = {"checks": [
        {"check": "adjoint-symmetry[exp(0.5*L1+)]", "pass": False},
        {"check": "table-4d", "pass": True}], "failed": 1}
    argv = ["verify", "--fock-dim", "20", "--seed", "1"]
    reason, known = reference.check(argv, 1, json.dumps(report), "")
    assert reason and known == "adjoint-threshold"
    report["checks"][1]["pass"] = False
    reason, known = reference.check(argv, 1, json.dumps(report), "")
    assert reason and known is None

    thermal = ["domain", "--kind", "thermal", "--b", "1.7", "--d", "0.2",
               "--fock-dim", "24"]
    err = "error: no sign change in [0, 1]: min-eig negative at both ends\n"
    assert reference.check(thermal, 2, "", err)[1] == "thermal-scan"


def test_known_failures_outside_their_draws_are_new_defects():
    # The same failure where no workload draws the defect makes the run
    # incorrect: steady on the sweep's n = 24, small-n verify, and the
    # thermal slot that is meant to pass.
    err = "error: kernel is 0-dimensional within 1e-8 (undamped ...)\n"
    assert reference.check(STEADY, 3, "", err)[1] is None

    report = {"checks": [
        {"check": "adjoint-symmetry[exp(0.5*L1+)]", "pass": False}],
        "failed": 1}
    argv = ["verify", "--fock-dim", "12", "--seed", "1"]
    assert reference.check(argv, 1, json.dumps(report), "")[1] is None

    thermal = ["domain", "--kind", "thermal", "--b", "0.7", "--d", "0.05",
               "--fock-dim", "24"]
    err = "error: no sign change in [0, 1]: min-eig negative at both ends\n"
    assert reference.check(thermal, 2, "", err)[1] is None

    class Fails:
        def main(self, argv):
            print("error: kernel is 0-dimensional", file=sys.stderr)
            return 3

    records, _ = run.measure(Fails(), [STEADY])
    assert not records[0]["ok"] and records[0]["known_defect"] is None


def test_evolve_trace_budget_and_row_count():
    argv = ["evolve", "--model", "cl", "--b", "1.0", "--steps", "2"]
    rows = ["t,re_x,re_p,x2,p2,purity,trace,min_eig",
            "0,0,0,0.5,0.5,1,1,0", "1,0,0,0.9,0.9,1,1,0",
            "2,0,0,1,1,1,1,0"]
    assert reference.check(argv, 0, "\n".join(rows), "")[0] is None
    leaky = rows[:2] + ["1,0,0,0.9,0.9,1,1.00000002,0"] + rows[3:]
    assert "trace" in reference.check(argv, 0, "\n".join(leaky), "")[0]
    assert "time points" in reference.check(argv, 0, "\n".join(rows[:3]),
                                            "")[0]


def test_real_tasks_pass_their_references():
    cli = liosym.cli
    for argv in (["domain", "--kind", "translate", "--b", "0.9", "--d", "0",
                  "--fock-dim", "24"],
                 ["verify", "--fock-dim", "8", "--seed", "5"],
                 ["evolve", "--model", "kl", "--gamma", "0.5", "--b", "0.9",
                  "--t-max", "50", "--steps", "10", "--fock-dim", "24"]):
        code, out, err = run.run_task(cli, argv)
        assert reference.check(argv, code, out, err) == (None, None), argv


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    assert run.tail(list(range(20))) == (9.5, 50, 10)
    value, p, beyond = run.tail(list(range(150)))
    assert p == 90 and beyond >= 10
    assert run.tail(list(range(90)))[1] == 50
