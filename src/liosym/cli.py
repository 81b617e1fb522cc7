"""Command-line front end.

Subcommands:

  verify   identity suite (commutation tables, adjoint symmetry,
           symplectic condition, trace identities, coefficient maps),
           the ordered table of checks.SUITE
  evolve   trajectory CSV for one of the three models
  map      cross-model maps and form-invariance transformations
  domain   exact and Fock-scanned positivity edges
  steady   stationary state, moments, kernel residual

Exit codes: 0 success, 1 verification failure, 2 invalid configuration,
3 degenerate kernel.  Reports are JSON (checks as {check, residual,
threshold, pass}), time series are RFC-4180 CSV; all numbers carry 12
significant digits.  Output is deterministic for a fixed configuration
and seed.
"""

import argparse
import csv
import io
import json
import sys

import numpy as np

from . import fourdim, gaussian
from .checks import SUITE
from .fock import coherent_projector, fock_projector
from .generators import ten_generators
from .models import (DegenerateKernelError, ModelParams, evolve,
                     model_coefficients, model_generator, observables,
                     steady_state)
from .transforms import apply_sequence, gibbs_from_vacuum

DEFAULT_SEED = 20240915


def _sig(x):
    """Round to 12 significant digits for stable, diffable output."""
    if isinstance(x, float):
        return float(f"{x:.12g}")
    if isinstance(x, complex):
        return {"re": _sig(x.real), "im": _sig(x.imag)}
    if isinstance(x, dict):
        return {k: _sig(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_sig(v) for v in x]
    return x


def _write(text, path):
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", newline="") as f:
            f.write(text)


def _emit_json(obj, path):
    _write(json.dumps(_sig(obj), indent=2) + "\n", path)


# ------------------------------------------------------------------ verify
def cmd_verify(args):
    n, tol = args.fock_dim, args.tol
    if n < 8:
        raise ValueError("fock-dim must be at least 8 for the safe-block "
                         "identity checks")
    rng = np.random.default_rng(args.seed)
    gens = ten_generators(n, dense=False)
    checks = [{"check": name, "residual": float(res), "threshold": thr,
               "pass": bool(res > thr if must_exceed else res <= thr)}
              for group in SUITE
              for name, res, thr, must_exceed in group(n, tol, rng, gens)]
    failed = [c for c in checks if not c["pass"]]
    report = {
        "fock_dim": n, "tol": tol, "seed": args.seed,
        "checks": checks,
        "passed": len(checks) - len(failed),
        "failed": len(failed),
    }
    _emit_json(report, args.out)
    return 0 if not failed else 1


# ------------------------------------------------------------------ evolve
def _initial_state(spec, n):
    kind, _, arg = spec.partition(":")
    if kind == "vacuum":
        return fock_projector(0, n)
    if kind == "fock":
        k = int(arg)
        if not 0 <= k < n:
            raise ValueError(f"fock level {k} outside cutoff {n}")
        return fock_projector(k, n)
    if kind in ("gibbs", "coherent"):
        z = float(arg) if kind == "gibbs" else complex(arg)
        if not np.isfinite(z):
            raise ValueError(f"--init {spec}: the argument must be finite")
        return (gibbs_from_vacuum(z, n)[0] if kind == "gibbs"
                else coherent_projector(z, n))
    raise ValueError(f"unknown initial state {spec!r}")


def _model_params(args):
    return ModelParams(args.model.upper(), args.omega0, args.gamma, args.b,
                       getattr(args, "d", 0.0))


def cmd_evolve(args):
    p = _model_params(args)
    n = args.fock_dim
    rho0 = _initial_state(args.init, n)
    traj = evolve(model_generator(p, n), rho0, args.t_max, args.steps)

    buf = io.StringIO()
    w = csv.writer(buf)
    w.writerow(["t", "re_x", "re_p", "x2", "p2", "purity", "trace",
                "min_eig"])
    cols = ("x", "p", "x2", "p2", "purity", "trace", "min_eig")
    for row in zip(traj.times, *(traj.moments[k] for k in cols)):
        w.writerow([f"{v:.12g}" for v in row])
    _write(buf.getvalue(), args.out)
    return 0


# --------------------------------------------------------------------- map
def _params_dict(p):
    return {"model": p.model, "omega0": p.omega0, "gamma": p.gamma,
            "b": p.b, "d": p.d}


def _map_report(p, p2, seq):
    residual = fourdim.conjugation_residual(
        seq.rep4(), seq.inverse().rep4(), model_coefficients(p),
        model_coefficients(p2))
    flow = apply_sequence(seq, model_coefficients(p))
    flow_res = float(max(abs(a - b) for a, b in
                         zip(flow, model_coefficients(p2))))
    return {
        "steps": [{"generator": s.generator, "parameter": s.parameter}
                  for s in seq],
        "source": {**_params_dict(p),
                   "coefficients": list(model_coefficients(p))},
        "target": {**_params_dict(p2),
                   "coefficients": list(model_coefficients(p2))},
        "conjugation_residual": residual,
        "coefficient_flow_residual": flow_res,
        "threshold": 1e-8,
        "pass": bool(residual <= 1e-8 and flow_res <= 1e-8),
    }


def cmd_map(args):
    from .models import form_invariance, map_cl_to_hpz, map_kl_to_cl
    if args.invariance:
        p = _model_params(args)
        if args.invariance == "thermal":
            pprime, seq = form_invariance("thermal", p, args.alpha)
        elif args.invariance == "translate":
            pprime, seq = form_invariance("translate", p, args.beta)
        else:
            pprime, seq = form_invariance("hpz", p, (args.phi, args.xi))
        report = {"mode": f"invariance:{args.invariance}",
                  **_map_report(p, pprime, seq)}
    else:
        args.model = args.src
        if (args.src, args.dst) == ("kl", "cl"):
            p = _model_params(args)
            pprime, seq = map_kl_to_cl(p)
        elif (args.src, args.dst) == ("cl", "hpz"):
            p = _model_params(args)
            pprime, seq = map_cl_to_hpz(p, args.zeta)
        else:
            raise ValueError(f"no map from {args.src!r} to {args.dst!r}; "
                             "available: kl->cl, cl->hpz")
        report = {"mode": f"{args.src}->{args.dst}",
                  **_map_report(p, pprime, seq)}
    _emit_json(report, args.out)
    return 0


# ------------------------------------------------------------------ domain
def cmd_domain(args):
    s = gaussian.StationaryGaussian(args.b, args.d, args.omega0)
    exact = gaussian.exact_edges(args.kind, s, phi=args.phi)
    numeric = gaussian.positivity_boundary(args.kind, s, n=args.fock_dim,
                                           phi=args.phi)
    report = {
        "kind": args.kind,
        "base": {"b": s.b, "d": s.d, "omega0": s.omega0},
        "exact": exact,
        "numeric": numeric,
        "numeric_tol": 1e-3,
        "agree": all(abs(numeric[k] - exact[k]) <= 1e-3 for k in exact),
        **gaussian.printed_forms(args.kind, s, exact, phi=args.phi,
                                 gamma=args.gamma),
    }
    if args.kind == "hpz":
        report["phi"] = args.phi
    _emit_json(report, args.out)
    return 0


# ------------------------------------------------------------------ steady
def cmd_steady(args):
    p = _model_params(args)
    n = args.fock_dim
    K = model_generator(p, n)
    rho, info = steady_state(K, return_info=True)

    m = observables(rho[None])
    s = gaussian.StationaryGaussian(p.b, p.d, p.omega0)
    g = gaussian.gaussian_from_bd(s)
    pops = np.diag(rho).real
    report = {
        "model": p.model,
        "params": _params_dict(p),
        "fock_dim": n,
        "kernel_residual": info["residual"],
        "kernel_eigenvalue": complex(info["eigenvalue"]),
        "min_eig": info["min_eig"],
        "moments": {
            "x2": float(m["x2"][0]),
            "p2": float(m["p2"][0]),
            "x2_expected": s.x2,
            "p2_expected": s.p2,
        },
        "gaussian": {
            "mu": g.mu, "kappa": g.kappa, "nu": g.nu,
            "positive": bool(gaussian.is_positive(g)),
            "on_boundary": bool(abs(g.nu) <= 1e-9),
        },
        "populations": [float(v) for v in pops[:min(n, 16)]],
    }
    _emit_json(report, args.out)
    if args.populations:
        buf = io.StringIO()
        w = csv.writer(buf)
        w.writerow(["level", "population"])
        for k, v in enumerate(pops):
            w.writerow([k, f"{v:.12g}"])
        _write(buf.getvalue(), args.populations)
    return 0


# ------------------------------------------------------------------- wiring
def _add_model_args(sub, d_default=0.0):
    sub.add_argument("--model", choices=["kl", "cl", "hpz"], required=True)
    sub.add_argument("--omega0", type=float, default=1.0)
    sub.add_argument("--gamma", type=float, default=0.1)
    sub.add_argument("--b", type=float, default=1.0)
    sub.add_argument("--d", type=float, default=d_default)


def build_parser():
    ap = argparse.ArgumentParser(
        prog="liosym",
        description="Superoperator algebra and symmetry maps for "
                    "damped-oscillator master equations")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", default=None,
                        help="output path (default stdout)")
    common.add_argument("--seed", type=int, default=DEFAULT_SEED)
    sub = ap.add_subparsers(dest="command", required=True)

    v = sub.add_parser("verify", help="run the identity suite",
                       parents=[common])
    v.add_argument("--fock-dim", type=int, default=12)
    v.add_argument("--tol", type=float, default=1e-10)
    v.set_defaults(func=cmd_verify)

    e = sub.add_parser("evolve", help="integrate a trajectory, emit CSV",
                       parents=[common])
    _add_model_args(e)
    e.add_argument("--init", default="vacuum",
                   help="vacuum | fock:n | gibbs:alpha | coherent:z")
    e.add_argument("--t-max", type=float, default=50.0)
    e.add_argument("--steps", type=int, default=100)
    e.add_argument("--fock-dim", type=int, default=24)
    e.set_defaults(func=cmd_evolve)

    m = sub.add_parser("map", help="cross-model maps and form invariance",
                       parents=[common])
    m.add_argument("--from", dest="src", choices=["kl", "cl"])
    m.add_argument("--to", dest="dst", choices=["cl", "hpz"])
    m.add_argument("--invariance", choices=["thermal", "translate", "hpz"])
    m.add_argument("--model", choices=["kl", "cl", "hpz"], default="kl")
    m.add_argument("--omega0", type=float, default=1.0)
    m.add_argument("--gamma", type=float, default=0.1)
    m.add_argument("--b", type=float, default=1.0)
    m.add_argument("--d", type=float, default=0.0)
    m.add_argument("--alpha", type=float, default=0.0)
    m.add_argument("--beta", type=float, default=0.0)
    m.add_argument("--phi", type=float, default=0.0)
    m.add_argument("--xi", type=float, default=0.0)
    m.add_argument("--zeta", type=float, default=0.0)
    m.set_defaults(func=cmd_map)

    d = sub.add_parser("domain", help="positivity edges, exact and "
                       "Fock-scanned", parents=[common])
    d.add_argument("--kind", required=True,
                   choices=["thermal", "translate", "hpz", "kl2cl",
                            "cl2hpz"])
    d.add_argument("--b", type=float, default=1.0)
    d.add_argument("--d", type=float, default=0.0)
    d.add_argument("--omega0", type=float, default=1.0)
    d.add_argument("--phi", type=float, default=0.0)
    d.add_argument("--gamma", type=float, default=None)
    d.add_argument("--fock-dim", type=int, default=30)
    d.set_defaults(func=cmd_domain)

    st = sub.add_parser("steady", help="stationary state report",
                        parents=[common])
    _add_model_args(st)
    st.add_argument("--fock-dim", type=int, default=30)
    st.add_argument("--populations", default=None,
                    help="also write a level,population CSV here")
    st.set_defaults(func=cmd_steady)
    return ap


def main(argv=None):
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        if getattr(args, "fock_dim", 1) < 1:
            raise ValueError(f"--fock-dim must be at least 1, got "
                             f"{args.fock_dim}")
        for dest, value in vars(args).items():
            if isinstance(value, float) and not np.isfinite(value):
                raise ValueError(f"--{dest.replace('_', '-')} must be "
                                 f"finite, got {value}")
        if args.command == "map" and bool(args.invariance) == bool(args.src):
            raise ValueError("map needs either --invariance or --from/--to")
        return args.func(args)
    except DegenerateKernelError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
