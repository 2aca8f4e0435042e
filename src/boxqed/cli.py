"""Configuration-driven study runner.

Every subcommand reads one plain-text ``key = value`` configuration file,
writes CSV tables plus a JSON run manifest into the output directory, and
returns a process exit code: 0 on success, 2 for configuration errors, 3 for
exhausted numerical budgets, 4 for violated invariants.  Outputs carry no
timestamps and all randomness is seeded, so a manifest pins its CSV bytes.
"""

import argparse
import hashlib
import json
import math
import sys
import time
from pathlib import Path

import numpy as np
from scipy.special import erf

from . import __version__
from .coulomb import (
    inverse_quartic_summand,
    mollified_coulomb,
    riemann_sum,
    screened_inverse_square_summand,
)
from .errors import BudgetError, ConfigError, InvariantViolation
from .field import ModelContext
from .fock import (
    OscillatorBasis,
    StateVector,
    assemble_hamiltonian,
    h_rad,
    reference_evolve,
)
from .lattice import (
    ModeSet,
    SimulationConfig,
    build_mode_set,
    build_polarization,
)
from .action import segment_action
from .propagator import (
    StepBackend,
    convergence_study,
    fundamental_step,
    g_epsilon_extrapolated,
    g_epsilon_levels,
    g_epsilon_step,
    residual_study,
    rho_star_search,
    sample_endpoints,
)


def _floats(text):
    return [float(tok) for tok in str(text).split(",") if tok.strip()]


def _ints(text):
    return [int(tok) for tok in str(text).split(",") if tok.strip()]


def _listed(values, flag):
    """The values parsed from ``flag``, which a study needs at least one of."""
    if not values:
        raise ConfigError(f"{flag} needs at least one value")
    return values


def _fmt(value):
    if isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return "%.17g" % float(value)


def _write_csv(path, header, rows):
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(header + "\n")
        for row in rows:
            handle.write(",".join(_fmt(v) for v in row) + "\n")


def _sha256(path):
    digest = hashlib.sha256()
    digest.update(Path(path).read_bytes())
    return digest.hexdigest()


def _mode_set(triple, config):
    return ModeSet.from_s_triples([tuple(triple)], config.L)


def _empty_modes(config):
    return ModeSet.from_s_triples([], config.L)


def _field_state(basis, seed):
    rng = np.random.default_rng(seed)
    vec = rng.normal(size=basis.dim) + 1j * rng.normal(size=basis.dim)
    return StateVector(vec, basis).normalized()


def _exact_spectrum_reference(basis, f, horizon, hbar):
    diag = h_rad(basis).matrix.diagonal().real
    return np.exp(-1j * diag * horizon / hbar) * f.coefficients


# ---------------------------------------------------------------------------
# Subcommand handlers: params dict in, ({file name: (header, rows)}, summary)
# out; _execute writes every table
# ---------------------------------------------------------------------------

def _run_modes(params, config, seed):
    modes = build_mode_set(config, 3)
    frame = build_polarization(modes)
    rows = []
    for wv in modes.lam:
        e1, e2 = frame.e(wv)
        rows.append((*wv.s, *wv.k, *e1, *e2, int(modes.contains_prime(wv.s))))
    counts = {f"N{i}": build_mode_set(config, i).N for i in (1, 2, 3)}
    return {"modes.csv": (
        "s1,s2,s3,k1,k2,k3,e1x,e1y,e1z,e2x,e2y,e2z,in_prime", rows)}, counts


def _run_coulomb_limit(params, config, seed):
    d = np.asarray(params["separation"], dtype=float)
    dist = float(np.linalg.norm(d))
    if dist == 0.0:
        raise ConfigError("the charge separation must be nonzero")
    positions = np.array([[0.0, 0.0, 0.0], d])
    rows = []
    for box in params["box_levels"]:
        for eps in params["eps_levels"]:
            value = mollified_coulomb(positions, (1.0, 1.0), float(box),
                                      float(eps))
            target = float(erf(dist / (2.0 * eps))) / dist
            rows.append((box, eps, value, target, abs(value - target)))
    return {"coulomb_limit.csv": (
        "box_L,eps,lattice_sum,screened_target,abs_error", rows)}, {
        "rows": len(rows), "final_abs_error": rows[-1][4]}


def _run_riemann(params, config, seed):
    summand = inverse_quartic_summand()
    rows = []
    for edge in params["box_levels"]:
        result = riemann_sum(summand, float(edge))
        rows.append((edge, edge, edge, result.value, result.tail_bound,
                     result.n_points,
                     abs(result.value - summand.analytic_limit)))
    # anisotropic boxes L = (l^2, l, l) keep a positive excess over the
    # integral however large l grows
    screened = screened_inverse_square_summand()
    for ell in params["anisotropic_ells"]:
        box = (float(ell * ell), float(ell), float(ell))
        result = riemann_sum(screened, box)
        rows.append((box[0], box[1], box[2], result.value, result.tail_bound,
                     result.n_points,
                     result.value - screened.analytic_limit))
    return {"riemann.csv": (
        "L1,L2,L3,lattice_sum,tail_bound,n_points,error_vs_integral", rows)}, {
        "cube_limit": summand.analytic_limit,
        "anisotropic_limit": screened.analytic_limit,
        "final_cube_error": rows[len(params["box_levels"]) - 1][6],
    }


def _run_fock_spectrum(params, config, seed):
    modes = _mode_set(params["mode"], config)
    basis = OscillatorBasis.from_config(config, modes, params["cap"])
    energies = h_rad(basis).matrix.diagonal().real
    levels, counts = np.unique(energies, return_counts=True)
    rows = [(energy, int(count)) for energy, count in zip(levels, counts)]
    return {"fock_spectrum.csv": ("energy,multiplicity", rows)}, {
        "dim": basis.dim, "levels": len(rows)}


def _run_action_eval(params, config, seed):
    ctx = ModelContext.from_config(config)
    rng = np.random.default_rng(seed)
    t, s = params["t"], params["s"]
    rows = []
    for index in range(params["samples"]):
        (x, y), (X, Y) = sample_endpoints(rng, ctx, 2)
        rows.append((index, t, s, segment_action(t, s, x, y, X, Y, ctx)))
    return {"action_eval.csv": ("sample,t,s,action", rows)}, {
        "samples": len(rows)}


def _propagate_backend(params, config):
    modes = _mode_set(params["mode"], config)
    empty = _empty_modes(config)
    basis = OscillatorBasis.from_config(config, modes, params["cap"])
    if params["backend"] == "galerkin":
        ctx = ModelContext.custom(config, empty, modes, modes)
        return StepBackend("galerkin", basis, ctx), basis, ctx
    if config.n_particles != 0:
        raise ConfigError(
            "the analytic-quadratic propagate study is field-only; set "
            "n_particles = 0 or choose the galerkin backend"
        )
    ctx = ModelContext.custom(config, empty, empty, modes)
    return StepBackend("analytic-quadratic", basis, ctx), basis, ctx


def _run_propagate(params, config, seed):
    backend, basis, ctx = _propagate_backend(params, config)
    horizon = params["horizon"]
    if params["backend"] == "galerkin":
        start = np.zeros(backend.state_dim, dtype=complex)
        start[backend.wave_cutoff] = 1.0    # field vacuum, zero momentum
        f = StateVector(start)
        waves = np.array([(0, 0, m) for m in
                          range(-backend.wave_cutoff, backend.wave_cutoff + 1)])
        hamiltonian = assemble_hamiltonian(config, basis,
                                           particle_rep="planewave", ctx=ctx,
                                           wave_indices=waves)
        reference = reference_evolve(hamiltonian, f, horizon)
    else:
        f = _field_state(basis, seed)
        reference = _exact_spectrum_reference(basis, f, horizon, config.hbar)
    study = convergence_study(f, backend, horizon, params["segments"],
                              reference)
    return {"propagate.csv": ("segments,relative_error", study.rows)}, {
        "monotone": study.monotone,
        "orders": list(study.orders),
        "final_relative_error": study.final_error,
        "growth_rate": study.growth_rate,
    }


def _run_residual(params, config, seed):
    if config.n_particles != 0:
        raise ConfigError("the residual study runs on field-only "
                          "configurations; set n_particles = 0")
    modes = _mode_set(params["mode"], config)
    empty = _empty_modes(config)
    basis = OscillatorBasis.from_config(config, modes, params["cap"])
    ctx = ModelContext.custom(config, empty, empty, modes)
    backend = StepBackend("analytic-quadratic", basis, ctx)
    study = residual_study(_field_state(basis, seed), backend,
                           params["rho_list"], dt_factor=params["dt_factor"])
    return {"residual.csv": ("rho,delta,residual", study.rows)}, {
        "slope": study.slope}


def _run_rho_star(params, config, seed):
    modes = _mode_set(params["mode"], config)
    ctx = ModelContext.custom(config, _empty_modes(config), modes, modes)
    result = rho_star_search(config, params["sample_budget"],
                             ceiling=params["ceiling"], seed=seed, ctx=ctx,
                             bisect_iters=params["bisect_iters"])
    rows = [(rho, det, int(ok)) for rho, det, ok in result.probes]
    return {"rho_star.csv": ("rho,min_det,passed", rows)}, {
        "rho_star": result.value,
        "ceiling_hit": result.ceiling_hit,
        "min_det_at_value": result.min_det_at_value,
    }


def _run_g_equivalence(params, config, seed):
    if config.n_particles != 0:
        raise ConfigError("the offset-step comparison runs on field-only "
                          "configurations; set n_particles = 0")
    modes = _mode_set(params["mode"], config)
    empty = _empty_modes(config)
    basis = OscillatorBasis.from_config(config, modes, params["cap"])
    ctx = ModelContext.custom(config, modes, empty, modes)
    backend = StepBackend("analytic-quadratic", basis, ctx)
    f = _field_state(basis, seed)
    t = params["t"]
    plain = fundamental_step(f, t, 0.0, backend).coefficients
    rows = []
    for eps in g_epsilon_levels(t, backend):
        damped = g_epsilon_step(f, t, 0.0, eps, backend).coefficients
        rows.append(("damped", eps, float(np.abs(damped - plain).max())))
    extrap = g_epsilon_extrapolated(f, t, 0.0, backend).coefficients
    deviation = float(np.abs(extrap - plain).max())
    rows.append(("extrapolated", 0.0, deviation))
    return {"g_equivalence.csv": ("stage,eps,max_deviation", rows)}, {
        "extrapolated_deviation": deviation}


_HANDLERS = {
    "modes": _run_modes,
    "coulomb-limit": _run_coulomb_limit,
    "riemann": _run_riemann,
    "fock-spectrum": _run_fock_spectrum,
    "action-eval": _run_action_eval,
    "propagate": _run_propagate,
    "residual": _run_residual,
    "rho-star": _run_rho_star,
    "g-equivalence": _run_g_equivalence,
}


def _execute(subcommand, params, config, out_dir, seed):
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    started = time.perf_counter()
    tables, summary = _HANDLERS[subcommand](params, config, seed)
    for name, (header, rows) in tables.items():
        _write_csv(out / name, header, rows)
    manifest = {
        "tool": "boxqed",
        "version": __version__,
        "subcommand": subcommand,
        "seed": seed,
        "config": config.as_dict(),
        "params": params,
        "outputs": {name: _sha256(out / name) for name in tables},
        "summary": summary,
        "elapsed_seconds": time.perf_counter() - started,
    }
    with open(out / "manifest.json", "w", encoding="utf-8",
              newline="\n") as handle:
        json.dump(manifest, handle, indent=2, sort_keys=True, allow_nan=False)
        handle.write("\n")
    return manifest


def _run_rerun(args):
    with open(args.manifest, "r", encoding="utf-8") as handle:
        recorded = json.load(handle)
    for key in ("subcommand", "config", "params", "outputs", "seed"):
        if key not in recorded:
            raise ConfigError(f"manifest lacks the {key!r} field")
    if recorded["subcommand"] not in _HANDLERS:
        raise ConfigError(
            f"manifest names unknown subcommand {recorded['subcommand']!r}")
    config = SimulationConfig.from_mapping(recorded["config"])
    manifest = _execute(recorded["subcommand"], recorded["params"], config,
                        args.out, recorded["seed"])
    mismatched = [
        name for name, digest in recorded["outputs"].items()
        if manifest["outputs"].get(name) != digest
    ]
    missing = [name for name in recorded["outputs"]
               if name not in manifest["outputs"]]
    if mismatched or missing:
        raise InvariantViolation(
            "rerun outputs differ from the manifest: "
            + ", ".join(sorted(set(mismatched + missing)))
        )
    print(f"rerun of {recorded['subcommand']!r} reproduced "
          f"{len(recorded['outputs'])} file(s) byte-identically in {args.out}")
    return 0


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------

def _add_common(sub):
    sub.add_argument("--config", default=None,
                     help="plain-text key = value configuration file")
    sub.add_argument("--out", required=True, help="output directory")
    sub.add_argument("--seed", type=int, default=0)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="boxqed",
        description="finite-mode QED studies on a periodic box",
    )
    parser.add_argument("--version", action="version",
                        version=f"boxqed {__version__}")
    subs = parser.add_subparsers(dest="subcommand", required=True)

    _add_common(subs.add_parser(
        "modes", help="tabulate the halved mode lattice and its frame"))

    coulomb = subs.add_parser(
        "coulomb-limit", help="mollified lattice Coulomb sums vs erf targets")
    _add_common(coulomb)
    coulomb.add_argument("--separation", default="0,0,1")
    coulomb.add_argument("--eps-levels", default="0.5,0.25")
    coulomb.add_argument("--box-levels", default="20,40")

    riemann = subs.add_parser(
        "riemann", help="lattice sums vs integrals, cube and anisotropic")
    _add_common(riemann)
    riemann.add_argument("--box-levels", default="15,30,60")
    riemann.add_argument("--anisotropic-ells", default="4,8,16")

    fock = subs.add_parser(
        "fock-spectrum", help="free-field energies with multiplicities")
    _add_common(fock)
    fock.add_argument("--mode", default="0,0,1",
                      help="integer s-triple of the single mode")
    fock.add_argument("--cap", type=int, default=2)

    action = subs.add_parser(
        "action-eval", help="segment actions at seeded random endpoints")
    _add_common(action)
    action.add_argument("--samples", type=int, default=5)
    action.add_argument("--t", type=float, default=0.5)
    action.add_argument("--s", type=float, default=0.0)

    propagate = subs.add_parser(
        "propagate", help="composed-step convergence study")
    _add_common(propagate)
    propagate.add_argument("--backend", default="analytic-quadratic",
                           choices=["analytic-quadratic", "galerkin"])
    propagate.add_argument("--mode", default="0,0,1")
    propagate.add_argument("--cap", type=int, default=None,
                           help="occupation cap (default 4, galerkin 2)")
    propagate.add_argument("--horizon", type=float, default=None,
                           help="default pi/2, galerkin 0.5")
    propagate.add_argument("--segments", default=None,
                           help="default 4,8,16,32,64; galerkin 1,2,4,8")

    residual = subs.add_parser(
        "residual", help="generator residuals of single steps")
    _add_common(residual)
    residual.add_argument("--mode", default="0,0,1")
    residual.add_argument("--cap", type=int, default=4)
    residual.add_argument("--rho-list",
                          default=",".join(_fmt(2.0**-k) for k in range(3, 10)))
    residual.add_argument("--dt-factor", type=float, default=0.125)

    rho_star = subs.add_parser(
        "rho-star", help="largest step with sampled Jacobian dets >= 1/2")
    _add_common(rho_star)
    rho_star.add_argument("--mode", default="0,0,1")
    rho_star.add_argument("--sample-budget", type=int, default=3)
    rho_star.add_argument("--bisect-iters", type=int, default=6)
    rho_star.add_argument("--ceiling", type=float, default=1.0)

    geq = subs.add_parser(
        "g-equivalence", help="offset-damped step vs the plain step")
    _add_common(geq)
    geq.add_argument("--mode", default="0,0,1")
    geq.add_argument("--cap", type=int, default=4)
    geq.add_argument("--t", type=float, default=0.5)

    rerun = subs.add_parser(
        "rerun", help="re-execute a manifest and verify identical bytes")
    rerun.add_argument("--manifest", required=True)
    rerun.add_argument("--out", required=True)

    return parser


def _params_from_args(args):
    name = args.subcommand
    if name == "modes":
        return {}
    if name == "coulomb-limit":
        return {
            "separation": _floats(args.separation),
            "eps_levels": _listed(_floats(args.eps_levels), "--eps-levels"),
            "box_levels": _listed(_floats(args.box_levels), "--box-levels"),
        }
    if name == "riemann":
        return {
            "box_levels": _listed(_floats(args.box_levels), "--box-levels"),
            "anisotropic_ells": _ints(args.anisotropic_ells),
        }
    if name == "fock-spectrum":
        return {"mode": _ints(args.mode), "cap": args.cap}
    if name == "action-eval":
        return {"samples": args.samples, "t": args.t, "s": args.s}
    if name == "propagate":
        galerkin = args.backend == "galerkin"
        segments = [1, 2, 4, 8] if galerkin else [4, 8, 16, 32, 64]
        if args.segments:
            segments = _listed(_ints(args.segments), "--segments")
        return {
            "backend": args.backend,
            "mode": _ints(args.mode),
            "cap": args.cap if args.cap is not None else (2 if galerkin else 4),
            "horizon": args.horizon if args.horizon is not None
            else (0.5 if galerkin else math.pi / 2.0),
            "segments": segments,
        }
    if name == "residual":
        return {
            "mode": _ints(args.mode),
            "cap": args.cap,
            "rho_list": _listed(_floats(args.rho_list), "--rho-list"),
            "dt_factor": args.dt_factor,
        }
    if name == "rho-star":
        return {
            "mode": _ints(args.mode),
            "sample_budget": args.sample_budget,
            "bisect_iters": args.bisect_iters,
            "ceiling": args.ceiling,
        }
    if name == "g-equivalence":
        return {"mode": _ints(args.mode), "cap": args.cap, "t": args.t}
    raise ConfigError(f"unknown subcommand {name!r}")


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.subcommand == "rerun":
            return _run_rerun(args)
        config = SimulationConfig.from_file(args.config) if args.config \
            else SimulationConfig()
        manifest = _execute(args.subcommand, _params_from_args(args), config,
                            args.out, args.seed)
        names = ", ".join(sorted(manifest["outputs"]))
        print(f"{args.subcommand}: wrote {names} and manifest.json "
              f"to {args.out}")
        return 0
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except BudgetError as exc:
        print(f"budget exhausted: {exc}", file=sys.stderr)
        return 3
    except InvariantViolation as exc:
        print(f"invariant violated: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
