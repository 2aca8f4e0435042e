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
from typing import Callable, NamedTuple, Optional

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


def _list(convert, may_be_empty=False):
    """A parser of comma lists of ``convert``-ed values."""
    def parse(text):
        values = [convert(tok) for tok in text.split(",") if tok.strip()]
        if not (values or may_be_empty):
            raise ValueError("needs at least one value")
        return values
    return parse


_floats, _ints = _list(float), _list(int)


def _s_triple(text):
    values = _ints(text)
    if len(values) != 3:
        raise ValueError(f"needs three integers, got {len(values)}")
    return values


def _count(text):
    value = int(text)
    if value < 1:
        raise ValueError(f"must be at least 1, got {value}")
    return value


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
    return StateVector(vec).normalized()


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


def _run_propagate(params, config, seed):
    modes = _mode_set(params["mode"], config)
    empty = _empty_modes(config)
    basis = OscillatorBasis.from_config(config, modes, params["cap"])
    horizon = params["horizon"]
    if params["backend"] == "galerkin":
        ctx = ModelContext.custom(config, empty, modes, modes)
        backend = StepBackend("galerkin", basis, ctx)
        start = np.zeros(backend.state_dim, dtype=complex)
        start[backend.wave_cutoff] = 1.0    # field vacuum, zero momentum
        f = StateVector(start)
        waves = np.array([(0, 0, m) for m in
                          range(-backend.wave_cutoff, backend.wave_cutoff + 1)])
        hamiltonian = assemble_hamiltonian(config, basis, ctx=ctx,
                                           wave_indices=waves)
        reference = reference_evolve(hamiltonian, f, horizon, config.hbar)
    else:
        if config.n_particles != 0:
            raise ConfigError(
                "the analytic-quadratic propagate study is field-only; set "
                "n_particles = 0 or choose the galerkin backend"
            )
        ctx = ModelContext.custom(config, empty, empty, modes)
        backend = StepBackend("analytic-quadratic", basis, ctx)
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
        "undecided_probes": list(result.undecided),
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


def _execute(subcommand, params, config, out_dir, seed):
    started = time.perf_counter()
    tables, summary = _SUBCOMMANDS[subcommand][0](params, config, seed)
    # only a run its handler accepted leaves a directory behind
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
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
    try:
        with open(args.manifest, "r", encoding="utf-8") as handle:
            recorded = json.load(handle)
    except (OSError, ValueError) as exc:     # bad JSON or UTF-8 is a ValueError
        raise ConfigError(f"cannot read manifest {args.manifest}: {exc}") from exc
    if not isinstance(recorded, dict):
        raise ConfigError("a manifest holds one JSON object")
    for key in ("subcommand", "config", "params", "outputs", "seed"):
        if key not in recorded:
            raise ConfigError(f"manifest lacks the {key!r} field")
    subcommand = recorded["subcommand"]
    if not isinstance(subcommand, str) or subcommand not in _SUBCOMMANDS:
        raise ConfigError(f"manifest names unknown subcommand {subcommand!r}")
    if not isinstance(recorded["outputs"], dict):
        raise ConfigError("manifest outputs must be a JSON object")
    config = SimulationConfig.from_mapping(recorded["config"])
    raw = recorded["params"]
    dests = {flag.dest for flag in _SUBCOMMANDS[subcommand][2]}
    if not isinstance(raw, dict) or set(raw) != dests:
        raise ConfigError(f"manifest params of {subcommand!r} must name exactly "
                          f"{sorted(dests)}")
    params = _parse_params(subcommand, {dest: _text(v) for dest, v in raw.items()})
    try:
        seed = int(_text(recorded["seed"]))
    except ValueError as exc:
        raise ConfigError(f"manifest seed {exc}") from exc
    manifest = _execute(subcommand, params, config, args.out, seed)
    # a missing output reads as None, so it counts as mismatched
    mismatched = [
        name for name, digest in recorded["outputs"].items()
        if manifest["outputs"].get(name) != digest
    ]
    if mismatched:
        raise InvariantViolation(
            "rerun outputs differ from the manifest: "
            + ", ".join(sorted(mismatched))
        )
    print(f"rerun of {subcommand!r} reproduced "
          f"{len(recorded['outputs'])} file(s) byte-identically in {args.out}")
    return 0


# ---------------------------------------------------------------------------
# The subcommand table, name -> (handler, help, study flags), which the
# parser, the params and the dispatch all read
# ---------------------------------------------------------------------------

class _Flag(NamedTuple):
    """A study flag ``--dest``: its text parsed, else its default used.

    ``default`` is a value, or a function of the params parsed before it.
    """

    dest: str
    parse: Callable[[str], object]
    default: object
    help: Optional[str] = None
    choices: Optional[tuple] = None


def _by_backend(analytic, galerkin):
    """A propagate default that depends on the parsed ``--backend``."""
    return lambda params: galerkin if params["backend"] == "galerkin" \
        else analytic


_MODE = _Flag("mode", _s_triple, (0, 0, 1))

_SUBCOMMANDS = {
    "modes": (
        _run_modes, "tabulate the halved mode lattice and its frame", ()),
    "coulomb-limit": (
        _run_coulomb_limit, "mollified lattice Coulomb sums vs erf targets",
        (_Flag("separation", _floats, (0.0, 0.0, 1.0)),
         _Flag("eps_levels", _floats, (0.5, 0.25)),
         _Flag("box_levels", _floats, (20.0, 40.0)))),
    "riemann": (
        _run_riemann, "lattice sums vs integrals, cube and anisotropic",
        (_Flag("box_levels", _floats, (15.0, 30.0, 60.0)),
         _Flag("anisotropic_ells", _list(int, may_be_empty=True),
               (4, 8, 16)))),
    "fock-spectrum": (
        _run_fock_spectrum, "free-field energies with multiplicities",
        (_MODE._replace(help="integer s-triple of the single mode"),
         _Flag("cap", int, 2))),
    "action-eval": (
        _run_action_eval, "segment actions at seeded random endpoints",
        (_Flag("samples", _count, 5), _Flag("t", float, 0.5),
         _Flag("s", float, 0.0))),
    "propagate": (
        _run_propagate, "composed-step convergence study",
        (_Flag("backend", str, "analytic-quadratic",
               choices=("analytic-quadratic", "galerkin")),
         _MODE,
         _Flag("cap", int, _by_backend(4, 2),
               "occupation cap (default 4, galerkin 2)"),
         _Flag("horizon", float, _by_backend(math.pi / 2.0, 0.5),
               "default pi/2, galerkin 0.5"),
         _Flag("segments", _ints,
               _by_backend((4, 8, 16, 32, 64), (1, 2, 4, 8)),
               "default 4,8,16,32,64; galerkin 1,2,4,8"))),
    "residual": (
        _run_residual, "generator residuals of single steps",
        (_MODE, _Flag("cap", int, 4),
         _Flag("rho_list", _floats, tuple(2.0**-k for k in range(3, 10))),
         _Flag("dt_factor", float, 0.125))),
    "rho-star": (
        _run_rho_star, "largest step with sampled Jacobian dets >= 1/2",
        (_MODE, _Flag("sample_budget", int, 3), _Flag("bisect_iters", int, 6),
         _Flag("ceiling", float, 1.0))),
    "g-equivalence": (
        _run_g_equivalence, "offset-damped step vs the plain step",
        (_MODE, _Flag("cap", int, 4), _Flag("t", float, 0.5))),
}


def _option(dest):
    return "--" + dest.replace("_", "-")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="boxqed",
        description="finite-mode QED studies on a periodic box",
    )
    parser.add_argument("--version", action="version",
                        version=f"boxqed {__version__}")
    subs = parser.add_subparsers(dest="subcommand", required=True)
    for name, (_, help_text, flags) in _SUBCOMMANDS.items():
        sub = subs.add_parser(name, help=help_text)
        sub.add_argument("--config", default=None,
                         help="plain-text key = value configuration file")
        sub.add_argument("--out", required=True, help="output directory")
        sub.add_argument("--seed", type=int, default=0)
        for flag in flags:
            sub.add_argument(_option(flag.dest), help=flag.help,
                             choices=flag.choices)
    rerun = subs.add_parser(
        "rerun", help="re-execute a manifest and verify identical bytes")
    rerun.add_argument("--manifest", required=True)
    rerun.add_argument("--out", required=True)
    return parser


def _text(value):
    """A manifest value as the text its flag parses: a JSON list comma-joined."""
    if isinstance(value, list):
        return ",".join(str(item) for item in value)
    return str(value)


def _parse_params(subcommand, texts):
    """The study params: each flag's text in ``texts`` parsed, else its default.

    ``texts`` maps a flag's dest to its text, or to None for the default;
    the command line and ``rerun`` both come through here.  Parsing waits
    until after ``parse_args`` so that a malformed or empty value exits
    through ``ConfigError`` like any other configuration error.
    """
    params = {}
    for flag in _SUBCOMMANDS[subcommand][2]:
        text = texts.get(flag.dest)
        if text is None:
            params[flag.dest] = flag.default(params) \
                if callable(flag.default) else flag.default
            continue
        try:
            params[flag.dest] = flag.parse(text)
        except ValueError as exc:
            raise ConfigError(f"{_option(flag.dest)} {exc}") from exc
        if flag.choices and params[flag.dest] not in flag.choices:
            raise ConfigError(f"{_option(flag.dest)} must be one of {flag.choices}")
    return params


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.subcommand == "rerun":
            return _run_rerun(args)
        config = SimulationConfig.from_file(args.config) if args.config \
            else SimulationConfig()
        manifest = _execute(args.subcommand,
                            _parse_params(args.subcommand, vars(args)), config,
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
