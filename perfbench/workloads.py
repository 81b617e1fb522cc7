"""Seeded task lists for the four workloads.

Each workload is a finite list of argv lists for ``liosym.cli.main``,
built only from the workload seed and --seconds: the same arguments give
the same list.  Every run does the whole list, however fast the program
is, so every commit is measured on the same tasks.

``sweep`` and ``verify`` repeat a fixed round, as many times as fit
--seconds at the speed of the code that defined the benchmark
(ROUND_SECONDS).  ``ladder`` and ``domain`` are one round whatever
--seconds says: repeating the ladder would build its generator sets
twice, and a second domain round would find every cache entry warm.

Where a known defect depends on a drawn parameter, the draw is stratified
(each list position has a fixed range), so that every seed shows the
defect on the same number of tasks.
"""

import cmath
import itertools
import math
import random

MODELS = ("kl", "cl", "hpz")


def _rng(workload, seed):
    return random.Random(f"{workload}:{seed}")


def _f(x):
    return f"{x:.4f}"


SWEEP_ROUND = 20


def sweep(seed, rounds):
    """Parameter sweep at n = 24: steady and evolve alternate, each
    rotating the three models; a round is SWEEP_ROUND tasks.  The last
    evolve of each round (every tenth) runs 1000 steps, whose
    unequal float time steps fill the propagator cache with ~11 entries.
    Draws follow the README and the acceptance tests: omega0 in
    [0.8, 1.2], gamma in [0.3, 0.6], b in [0.8, 1.0]; d in [0.1, 0.5] for
    steady HPZ and [0.05, 0.15] for evolve HPZ, as in the dynamics test."""
    rng = _rng("sweep", seed)
    inits = itertools.cycle(("vacuum", "fock", "gibbs", "coherent"))
    for i in range(SWEEP_ROUND * rounds):
        j = i // 2
        model = MODELS[j % 3]
        argv = ["steady" if i % 2 == 0 else "evolve", "--model", model,
                "--omega0", _f(rng.uniform(0.8, 1.2)),
                "--gamma", _f(rng.uniform(0.3, 0.6)),
                "--b", _f(rng.uniform(0.8, 1.0))]
        if i % 2 == 0:
            if model == "hpz":
                argv += ["--d", _f(rng.uniform(0.1, 0.5))]
        else:
            if model == "hpz":
                argv += ["--d", _f(rng.uniform(0.05, 0.15))]
            init = next(inits)
            if init == "fock":
                init = f"fock:{rng.randint(1, 3)}"
            elif init == "gibbs":
                init = f"gibbs:{_f(rng.uniform(0.3, 0.9))}"
            elif init == "coherent":
                z = cmath.rect(rng.uniform(0.5, 1.5),
                               rng.uniform(0, 2 * math.pi))
                init = f"coherent:{z.real:.4f}{z.imag:+.4f}j"
            argv += ["--init", init, "--t-max", "50",
                     "--steps", "1000" if j % 10 == 9 else "100"]
        yield argv + ["--fock-dim", "24"]


# Twenty rungs, so that the tail has ten samples beyond p50.
LADDER_CUTOFFS = range(12, 32)


def ladder(seed):
    """steady at rising cutoffs 12, 13, ..., 31, one task per cutoff, so
    no generator set is built twice.  The physical point is the README's
    (gamma = 0.4, b = 1) with omega0 drawn in [0.8, 1.2] and, for HPZ, d
    in [0.1, 0.5].  Every model reports a 0-dimensional kernel for n <= 18
    at any such draw; the rotation starts at HPZ, so n = 19 and 20, where
    the outcome depends on the draw, fall on KL and CL."""
    rng = _rng("ladder", seed)
    for i, n in enumerate(LADDER_CUTOFFS):
        model = ("hpz", "kl", "cl")[i % 3]
        argv = ["steady", "--model", model,
                "--omega0", _f(rng.uniform(0.8, 1.2)),
                "--gamma", "0.4", "--b", "1.0"]
        if model == "hpz":
            argv += ["--d", _f(rng.uniform(0.1, 0.5))]
        yield argv + ["--fock-dim", str(n)]


DOMAIN_CUTOFFS = (24, 27, 30)
# Largest first, so that the first thermal task's one-off cold cost lands
# on the slowest miss.
THERMAL_MISS_CUTOFFS = (30, 28, 26, 24, 22)
DOMAIN_CYCLES = 25


def domain(seed):
    """DOMAIN_CYCLES cycles of domain tasks over the five kinds.  The
    thermal kind appears twice per cycle: once at b in [0.6, 0.75],
    d <= 0.1, where the scan succeeds at every cutoff from 20 to 32, and
    then at b in [1.5, 2.0] on the same cutoff, where it exits 2.  The
    quadrature kinds draw --fock-dim from DOMAIN_CUTOFFS.

    The first thermal slots take THERMAL_MISS_CUTOFFS in order, so each
    misses the per-cutoff eigendecomposition cache (0.5-3.5 s, together
    over 40 % of the run's time); the remaining thermal slots hit it
    (0.02-0.06 s).  The misses show in tasks_per_s, not in the tail: with
    150 tasks the tail is p90, with fifteen samples beyond it, more than
    the misses and each kind's first, cold, task together, so p90 lies
    among many warm quadrature tasks of like cost (0.1-0.2 s).  Resting
    the tail on the misses would rest it on two single tasks of different
    cutoffs, whose run-to-run spread on a shared host exceeded the
    bound."""
    rng = _rng("domain", seed)
    draws = {"translate": ((0.8, 1.2), (0.0, 0.0)),
             "hpz": ((0.8, 1.2), (0.0, 0.5)),
             "kl2cl": ((0.8, 1.2), (0.0, 0.0)),
             "cl2hpz": ((0.8, 1.2), (0.0, 0.0)),
             "thermal": ((0.6, 0.75), (0.0, 0.1)),
             "thermal-high-b": ((1.5, 2.0), (0.0, 0.5))}
    for cycle in range(DOMAIN_CYCLES):
        if cycle < len(THERMAL_MISS_CUTOFFS):
            thermal_n = THERMAL_MISS_CUTOFFS[cycle]
        else:
            thermal_n = rng.choice(THERMAL_MISS_CUTOFFS)
        for slot, (b_range, d_range) in draws.items():
            kind = slot.split("-")[0]
            argv = ["domain", "--kind", kind,
                    "--b", _f(rng.uniform(*b_range)),
                    "--d", _f(rng.uniform(*d_range))]
            if kind == "hpz":
                argv += ["--phi", _f(rng.uniform(-0.3, 0.3))]
            n = thermal_n if kind == "thermal" else rng.choice(DOMAIN_CUTOFFS)
            yield argv + ["--fock-dim", str(n)]


# Half of every round is n = 12, so the median task is a median over many
# n = 12 runs rather than the boundary between two cutoffs.
VERIFY_CUTOFFS = (8, 10, 12, 12, 12, 12, 12, 14, 18, 20)


def verify(seed, rounds):
    """The identity suite over VERIFY_CUTOFFS, each round in a seeded
    order with a seeded --seed.  n = 18 and 20 fail the absolute adjoint-
    symmetry threshold, two tasks in every round."""
    rng = _rng("verify", seed)
    for _ in range(rounds):
        cutoffs = list(VERIFY_CUTOFFS)
        rng.shuffle(cutoffs)
        for n in cutoffs:
            yield ["verify", "--fock-dim", str(n),
                   "--seed", str(rng.randrange(1, 2 ** 31))]


# Seconds one round takes on the code that defined the benchmark (2 vCPUs,
# two BLAS threads); sets how many rounds of sweep and verify fit
# --seconds.
ROUND_SECONDS = {"sweep": 27.0, "verify": 10.0}

WORKLOADS = {"sweep": sweep, "ladder": ladder, "domain": domain,
             "verify": verify}


def tasks(workload, seed, seconds):
    """The workload's task list for this seed and run length."""
    if workload in ROUND_SECONDS:
        rounds = max(1, round(seconds / ROUND_SECONDS[workload]))
        return list(WORKLOADS[workload](seed, rounds))
    return list(WORKLOADS[workload](seed))
