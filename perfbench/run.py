"""liosym benchmark: one workload, one process, one closed-loop client.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 20 --trace 0

Run from the root of a liosym checkout; the package is imported from its
``src`` directory.  Tasks are CLI subcommands called in-process through
``liosym.cli.main(argv)``, back to back, with no warm-up: like a CLI user,
the first tasks pay the cold costs.  Each run does its workload's whole
task list (perfbench/workloads.py), sized by --seconds but independent of
how fast the program is, so every commit is measured on the same tasks.

Every task's output is checked against a reference (perfbench/reference.py).
With --trace 0 the last stdout line carries the end-to-end metrics; with
--trace 1 the public functions of each layer are wrapped and the line
carries the per-layer metrics, and the spans are written to
``.perfbench_out/<workload>-seed<seed>-spans.json``.  A full record of
each run, with machine notes and the reason for every failed task, goes
to ``.perfbench_out/<workload>-seed<seed>-trace<t>.json``.
"""

import argparse
import contextlib
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
import warnings

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")

HARD_STOP_S = 120.0  # no task starts later than this, so a run ends in time
SETUP_PROBES = 7     # fresh processes timed for setup_s
TAIL_PERCENTILES = (99.9, 99, 90, 50)

END_TO_END_UNITS = {"task_p50_s": "s", "task_tail_s": "s",
                    "tasks_per_s": "1/s", "setup_s": "s",
                    "peak_rss_mb": "MB", "pass_frac": "frac"}
PER_LAYER_UNITS = {
    "generators.ten_generators.self_s": "s",
    "generators.ten_generators.calls": "count",
    "generators.ten_generators.bytes": "B",
    "generators.ten_generators.distinct_frac": "frac",
    "generators.build_generator.self_s": "s",
    "generators.commutation_residuals.self_s": "s",
    "generators.trace_residuals.self_s": "s",
    "models.model_generator.self_s": "s",
    "models.steady_state.self_s": "s",
    "models.steady_state.calls": "count",
    "models.evolve.self_s": "s",
    "models.evolve.points": "count",
    "models.K_nnz_frac": "frac",
    "transforms.apply_sequence_to_vec.self_s": "s",
    "transforms.gibbs_from_vacuum.self_s": "s",
    "transforms.coefficient_map.calls": "count",
    "gaussian.fock_from_gaussian.self_s": "s",
    "gaussian.fock_from_gaussian.calls": "count",
    "gaussian.numeric_positivity_boundary.self_s": "s",
    "gaussian.positivity_boundary.self_s": "s",
    "fourdim.self_s": "s",
    "fourdim.ladder_action_residual.self_s": "s",
    "cli.self_s": "s",
    "trace.overhead_frac": "frac",
}


def pin_blas(threads):
    """Fix the BLAS thread count; must run before numpy is imported."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                "MKL_NUM_THREADS"):
        os.environ[var] = str(threads)


def require_checkout():
    if not os.path.isfile(os.path.join(SRC, "liosym", "__init__.py")):
        sys.exit(f"error: no liosym package under {SRC}; run from the root "
                 "of a liosym checkout")


def setup(workload, seed, seconds):
    """What every run pays before its first task: import the package
    (numpy and scipy with it) and build the task list."""
    require_checkout()
    sys.path.insert(0, SRC)
    import liosym.cli
    if not os.path.abspath(liosym.cli.__file__).startswith(SRC + os.sep):
        sys.exit(f"error: imported liosym from {liosym.cli.__file__}, "
                 f"not from {SRC}")
    from perfbench import workloads
    return liosym.cli, workloads.tasks(workload, seed, seconds)


def time_setup(args):
    """Median wall time from starting a fresh process to the end of its
    setup, over SETUP_PROBES processes."""
    samples = []
    cmd = [sys.executable, os.path.abspath(__file__), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds),
           "--blas-threads", str(args.blas_threads)]
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                                text=True)
        try:
            line = proc.stdout.readline()
            samples.append(time.perf_counter() - t0)
            proc.stdout.read()
        finally:
            proc.stdout.close()
            code = proc.wait()
        if line.strip() != "ready" or code != 0:
            sys.exit(f"error: setup probe exited {code}")
    return statistics.median(samples), samples


def run_task(cli, argv):
    """Call the CLI once; return (exit code, stdout, stderr).  A raised
    exception gives code None with its traceback as stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            warnings.catch_warnings():
        warnings.simplefilter("always")
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception:
            code = None
            err.write(traceback.format_exc())
    return code, out.getvalue(), err.getvalue()


def tail(times):
    """The highest of TAIL_PERCENTILES with at least ten samples above
    it, as (value, percentile, samples above)."""
    s = sorted(times)
    for p in TAIL_PERCENTILES:
        pos = (len(s) - 1) * p / 100
        lo = int(pos)
        hi = min(lo + 1, len(s) - 1)
        value = s[lo] + (s[hi] - s[lo]) * (pos - lo)
        beyond = sum(t > value for t in s)
        if beyond >= 10 or p == TAIL_PERCENTILES[-1]:
            return value, p, beyond


def measure(cli, tasks, tracer=None):
    """Run the tasks back to back and judge each; returns the task records
    and the wall time of the timed phase.  Only a program slow enough to
    pass HARD_STOP_S leaves tasks undone."""
    from perfbench import reference
    records = []
    t_start = time.perf_counter()
    for i, argv in enumerate(tasks):
        if time.perf_counter() - t_start >= HARD_STOP_S:
            break
        if tracer is None:
            t0 = time.perf_counter()
            code, out, err = run_task(cli, argv)
            dt = time.perf_counter() - t0
        else:
            tracer.task = i
            with tracer.span("task") as rec:
                code, out, err = run_task(cli, argv)
            dt = rec[2] - rec[1]
        reason, known = reference.check(argv, code, out, err)
        records.append({"task": i, "argv": argv, "seconds": dt,
                        "exit": code, "ok": reason is None,
                        "reason": reason, "known_defect": known})
    return records, time.perf_counter() - t_start


def end_to_end(records, timed_s, setup_s):
    times = [r["seconds"] for r in records]
    correct = sum(r["ok"] for r in records)
    tail_s, tail_p, beyond = tail(times)
    metrics = {
        "task_p50_s": statistics.median(times),
        "task_tail_s": tail_s,
        "tasks_per_s": correct / timed_s,
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024,
        "pass_frac": correct / len(records),
    }
    extra = {"fail_frac": 1 - correct / len(records),
             "task_tail_percentile": tail_p,
             "task_tail_samples_beyond": beyond,
             "samples": len(times)}
    return metrics, extra


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=["sweep", "ladder", "domain", "verify"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    nproc = len(os.sched_getaffinity(0))
    ap.add_argument("--blas-threads", type=int, default=nproc,
                    help=f"BLAS threads, 1 to nproc (default {nproc})")
    ap.add_argument("--setup-probe", action="store_true",
                    help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if not 1 <= args.blas_threads <= nproc:
        ap.error(f"--blas-threads must be between 1 and {nproc}")
    pin_blas(args.blas_threads)
    sys.path.insert(0, ROOT)

    if args.setup_probe:
        setup(args.workload, args.seed, args.seconds)
        print("ready", flush=True)
        return 0

    require_checkout()
    setup_s, setup_samples = time_setup(args)
    cli, tasks = setup(args.workload, args.seed, args.seconds)
    from perfbench import machine
    notes = machine.notes(args.workload, args.seed, args.blas_threads)
    tracer = None
    if args.trace:
        from perfbench import tracing
        tracer = tracing.Tracer()
        tracer.install()
    records, timed_s = measure(cli, tasks, tracer)
    if tracer is not None:
        tracer.uninstall()

    metrics, extra = end_to_end(records, timed_s, setup_s)
    extra.update(setup_samples_s=setup_samples, timed_s=timed_s,
                 tasks_listed=len(tasks))
    failed = [r for r in records if not r["ok"]]
    unexpected = [r for r in failed if r["known_defect"] is None]
    result = {"workload": args.workload, "seed": args.seed,
              "trace": args.trace, "notes": notes, "metrics": metrics,
              "extra": extra, "tasks": records}
    os.makedirs(OUT_DIR, exist_ok=True)
    stem = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}")
    if tracer is not None:
        layers = tracing.layer_metrics(tracer, timed_s, PER_LAYER_UNITS)
        result["per_layer"] = layers
        with open(f"{stem}-spans.json", "w") as f:
            json.dump(tracing.spans_as_records(tracer, tracer.spans[0][1]),
                      f)
        reported = {k: (v, PER_LAYER_UNITS[k]) for k, v in layers.items()}
    else:
        reported = {k: (metrics[k], END_TO_END_UNITS[k])
                    for k in END_TO_END_UNITS}
    with open(f"{stem}-trace{args.trace}.json", "w") as f:
        json.dump(result, f, indent=1)

    print(f"# liosym benchmark: workload {args.workload}, seed {args.seed}, "
          f"trace {args.trace}, {timed_s:.2f} s timed")
    print("# notes " + json.dumps(notes))
    if len(records) < len(tasks):
        print(f"# stopped at {HARD_STOP_S:g} s: {len(tasks) - len(records)} "
              f"of {len(tasks)} tasks not run")
    print(f"# tasks: {len(records)} attempted, {len(failed)} failed "
          f"({len(failed) - len(unexpected)} known defects, "
          f"{len(unexpected)} unexpected); fail_frac {extra['fail_frac']:.4f}")
    for name in sorted({r["known_defect"] for r in failed} - {None}):
        count = sum(r["known_defect"] == name for r in failed)
        print(f"#   known defect {name}: {count} tasks")
    for r in unexpected:
        print(f"#   FAILED task {r['task']} ({' '.join(r['argv'])}): "
              f"{r['reason']}")
    print(f"# task_tail_s is p{extra['task_tail_percentile']:g} of "
          f"{extra['samples']} samples, {extra['task_tail_samples_beyond']} "
          "beyond it")
    for name, (value, unit) in reported.items():
        print(f"{name:45s} {value:.6g} {unit}")
    print(json.dumps({
        "correct": not unexpected,
        "attempted": len(records),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in reported.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
