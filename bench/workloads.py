"""The four benchmark workloads: seeded inputs, traced calls, oracle checks.

Each workload has a ``setup`` that draws its inputs from the seed and builds
the configurations, contexts and backends, and a ``run`` that makes the
timed calls into boxqed and checks every output against an oracle.  A run is
a list of studies; a study that raises or misses its oracle is recorded as
failed and the remaining studies still run.

Spans wrap the benchmark's own calls into each module's public functions;
nothing inside ``src/`` is instrumented.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import shutil
import tempfile
import traceback
from pathlib import Path

import numpy as np

from boxqed import cli, coulomb, field, fock, propagator
from boxqed.lattice import ModeSet, SimulationConfig

from catalog import CLI_SUBCOMMANDS, PER_LAYER

TWO_PI = 2.0 * math.pi
BOX = (TWO_PI, TWO_PI, TWO_PI)
OUT_DIR = Path(__file__).resolve().parent / ".out"

# Endpoint seeds for the step-bound search.  The search bisects only when
# the sampled determinant at the ceiling fails.  These are the seeds in
# 0..39 whose determinant at the ceiling is below 0.4 and whose determinant
# at the returned step is at least 0.6, so the search always bisects and
# its checks hold with margin.  Of the other nine, four stop at the ceiling,
# one finds no step and four end below 0.6.
ENDPOINT_SEEDS = (0, 1, 2, 4, 5, 6, 7, 8, 10, 12, 14, 15, 16, 17, 18, 19, 20,
                  21, 22, 23, 24, 26, 27, 28, 30, 33, 34, 35, 36, 37, 39)

# Inputs per size.  "full" is the benchmark; "toy" only serves the
# benchmark's self-test.  Each band keeps its workload's checks true for
# every draw: the cube bands also keep the number of radius doublings, and
# so the shell-count work, the same across the band.
SIZES = {
    "full": {
        # criterion 3: the final cube error is 0.049 of the limit at L = 60
        # and 0.050 at L = 58; L = 78 exceeds the radial shell budget.
        "cube_bands": ((13.0, 16.0), (26.0, 34.0), (60.0, 70.0)),
        "cube_final_rel": 0.05,
        # criterion 3: the excess is barely positive at ell = 3.5 and stays
        # above the single-site bound for ell >= 7.
        "ell_bands": ((3.75, 4.5), (7.5, 8.5), (15.0, 17.0)),
        "meshes": (1, 2, 4, 8),
        "bisect_iters": 3,
        "endpoint_seeds": ENDPOINT_SEEDS,
        "action_samples": 20,
        "cli_cap": 6,
        "propagate_segments": "4,16,64,256,1024",
        "modes_cutoff": 4,
    },
    "toy": {
        "cube_bands": ((3.5, 4.5), (7.0, 9.0), (13.0, 16.0)),
        "cube_final_rel": 0.25,
        "ell_bands": ((3.75, 4.5), (7.5, 8.5), (15.0, 17.0)),
        "meshes": (1, 2),
        # one bisection: endpoint seed 0 passes at half the ceiling
        "bisect_iters": 1,
        "endpoint_seeds": (0,),
        "action_samples": 2,
        "cli_cap": 2,
        "propagate_segments": "4,16,64",
        "modes_cutoff": 2,
    },
}


class Checks:
    """Failed-check messages of one study."""

    def __init__(self):
        self.problems: list[str] = []

    def require(self, condition, message: str) -> None:
        if not condition:
            self.problems.append(message)


def run_study(name: str, body, outcomes: list) -> None:
    """Run one study; a raised error or a missed oracle marks it failed."""
    checks = Checks()
    try:
        body(checks)
    except Exception as exc:  # the remaining studies must still run
        checks.problems.append(
            f"raised {type(exc).__name__}: {exc}\n{traceback.format_exc()}")
    outcomes.append({"study": name, "ok": not checks.problems,
                     "problems": checks.problems})


# ---------------------------------------------------------------------------
# lattice-sums
# ---------------------------------------------------------------------------

def _inverse_quartic_summand():
    def radial(r):
        r = np.asarray(r, dtype=float)
        return 1.0 / (r * r * (1.0 + r * r))

    return coulomb.LatticeSummand(
        phi_fn=lambda K: radial(np.linalg.norm(K, axis=-1)),
        bound_fn=lambda r: float(radial(r)),
        radial_fn=radial,
        name="inverse-quartic",
        analytic_limit=2.0 * math.pi ** 2,
    )


def _screened_inverse_square_summand():
    def phi(K):
        n2 = np.einsum("...i,...i->...", K, K)
        return np.exp(-n2) / n2

    return coulomb.LatticeSummand(
        phi_fn=phi,
        bound_fn=lambda r: math.exp(-min(r * r, 700.0)) / (r * r),
        name="screened-inverse-square",
    )


def setup_lattice_sums(rng, size, tracer):
    cubes = [float(rng.uniform(lo, hi)) for lo, hi in size["cube_bands"]]
    ells = [float(rng.uniform(lo, hi)) for lo, hi in size["ell_bands"]]
    return {
        "drawn": {"cube_edges": cubes, "anisotropic_ells": ells},
        "cubes": cubes,
        "ells": ells,
        "cube_final_rel": size["cube_final_rel"],
        "quartic": _inverse_quartic_summand(),
        "screened": _screened_inverse_square_summand(),
    }


def run_lattice_sums(inp, tracer):
    outcomes = []

    def cube_family(checks):
        summand = inp["quartic"]
        target = summand.analytic_limit
        errors = []
        for edge in inp["cubes"]:
            with tracer.span("coulomb.riemann_sum.radial"):
                result = coulomb.riemann_sum(summand, edge)
            step = TWO_PI / edge
            doublings = round(math.log2(result.radius / (8.0 * step)))
            tracer.count("coulomb.riemann_sum.radial.doublings", doublings)
            tracer.count("coulomb.riemann_sum.radial.max_shells",
                         int((result.radius / step) ** 2), how="max")
            errors.append(abs(result.value - target))
        checks.require(errors[0] > errors[1] > errors[2],
                       f"cube errors do not shrink: {errors}")
        checks.require(errors[2] / target <= inp["cube_final_rel"],
                       f"final cube error {errors[2] / target:.4f} of the "
                       f"limit exceeds {inp['cube_final_rel']}")

    def anisotropic_family(checks):
        integral = 2.0 * math.pi ** 1.5
        excesses = []
        for index, ell in enumerate(inp["ells"]):
            box = (ell * ell, ell, ell)
            with tracer.span("coulomb.riemann_sum.slab"):
                result = coulomb.riemann_sum(inp["screened"], box)
            tracer.count("coulomb.riemann_sum.slab.points", result.n_points)
            excess = result.value - integral
            excesses.append(excess)
            cellvol = TWO_PI ** 3 / (box[0] * box[1] * box[2])
            k1 = TWO_PI / box[0]
            site_bound = cellvol * math.exp(-k1 * k1) / (k1 * k1)
            if index >= 1:
                checks.require(excess >= site_bound,
                               f"excess {excess:.4f} at ell = {ell:.3f} is "
                               f"below the single-site bound {site_bound:.4f}")
        checks.require(0.0 < excesses[0] < excesses[1] < excesses[2],
                       f"excesses are not positive and increasing: {excesses}")

    run_study("cube-family", cube_family, outcomes)
    run_study("anisotropic-family", anisotropic_family, outcomes)
    return outcomes


# ---------------------------------------------------------------------------
# coupled-step
# ---------------------------------------------------------------------------

WAVE_CUTOFF = 3
HORIZON = 0.5


def _one_mode_context(charge, tracer):
    one = ModeSet.from_s_triples([(0, 0, 1)], BOX)
    empty = ModeSet.from_s_triples([], BOX)
    config = SimulationConfig(L=BOX, n_particles=1, masses=(1.0,),
                              charges=(charge,), sigma_psi=1e6)
    with tracer.span("field.ModelContext"):
        ctx = field.ModelContext.custom(config, empty, one, one)
    return config, one, ctx


def setup_coupled_step(rng, size, tracer):
    config, one, ctx = _one_mode_context(0.9, tracer)
    basis = fock.OscillatorBasis(one, cap=2, volume=config.volume)
    with tracer.span("propagator.StepBackend"):
        backend = propagator.StepBackend("galerkin", basis, ctx,
                                         wave_cutoff=WAVE_CUTOFF)
    # field vacuum in a superposition of the particle momenta -1, 0, 1;
    # wider momentum or field content leaves the galerkin cutoff's range
    amplitudes = rng.normal(size=3) + 1j * rng.normal(size=3)
    amplitudes /= np.linalg.norm(amplitudes)
    start = np.zeros(backend.state_dim, dtype=complex)
    start[WAVE_CUTOFF - 1:WAVE_CUTOFF + 2] = amplitudes
    return {
        "drawn": {"momentum_amplitudes": [[z.real, z.imag]
                                          for z in amplitudes]},
        "config": config,
        "basis": basis,
        "ctx": ctx,
        "backend": backend,
        "state": fock.StateVector(start),
        "meshes": size["meshes"],
    }


def run_coupled_step(inp, tracer):
    outcomes = []
    backend = inp["backend"]
    dim = backend.state_dim

    def step_operators(checks):
        for mesh in inp["meshes"]:
            with tracer.span("propagator.step_operator"):
                op = backend.step_operator(HORIZON / mesh)
            matrix = op.matrix
            checks.require(matrix.shape == (dim, dim),
                           f"mesh {mesh}: operator shape {matrix.shape}")
            checks.require(bool(np.all(np.isfinite(matrix))),
                           f"mesh {mesh}: operator is not finite")

    def convergence(checks):
        waves = np.array([(0, 0, m)
                          for m in range(-WAVE_CUTOFF, WAVE_CUTOFF + 1)])
        with tracer.span("fock.assemble_hamiltonian"):
            hamiltonian = fock.assemble_hamiltonian(
                inp["config"], inp["basis"], particle_rep="planewave",
                ctx=inp["ctx"], wave_indices=waves)
        with tracer.span("fock.reference_evolve"):
            reference = fock.reference_evolve(hamiltonian, inp["state"],
                                              HORIZON)
        with tracer.span("propagator.convergence_study"):
            study = propagator.convergence_study(
                inp["state"], backend, HORIZON, inp["meshes"], reference)
        checks.require(study.monotone,
                       f"errors do not fall with the mesh: {study.rows}")
        checks.require(min(study.orders) >= 0.9,
                       f"observed orders {study.orders} fall below 0.9")
        checks.require(study.final_error < 5e-2,
                       f"final error {study.final_error:.3e} is not < 5e-2")

    run_study("step-operators", step_operators, outcomes)
    run_study("convergence", convergence, outcomes)
    return outcomes


# ---------------------------------------------------------------------------
# step-bound
# ---------------------------------------------------------------------------

def setup_step_bound(rng, size, tracer):
    config, _, ctx = _one_mode_context(20.0, tracer)
    seeds = size["endpoint_seeds"]
    endpoint_seed = int(seeds[rng.integers(len(seeds))])
    # the same endpoints rho_star_search samples for this seed
    draw = np.random.default_rng(endpoint_seed)
    box = np.asarray(config.L, dtype=float)
    omegas = np.repeat([config.c_light * wv.norm
                        for wv in ctx.modes3.lam_prime], 4)
    a_scale = np.sqrt(config.hbar * config.volume / omegas)
    points = [draw.uniform(-0.5 * box, 0.5 * box, size=(1, 3))
              for _ in range(3)]
    fields = [draw.normal(scale=a_scale) for _ in range(3)]
    return {
        "drawn": {"endpoint_seed": endpoint_seed},
        "config": config,
        "ctx": ctx,
        "endpoint_seed": endpoint_seed,
        "points": points,
        "fields": fields,
        "bisect_iters": size["bisect_iters"],
    }


def run_step_bound(inp, tracer):
    outcomes = []
    found = {}

    def rho_star(checks):
        with tracer.span("propagator.rho_star_search"):
            result = propagator.rho_star_search(
                inp["config"], sample_budget=1, ctx=inp["ctx"],
                bisect_iters=inp["bisect_iters"], seed=inp["endpoint_seed"])
        tracer.count("propagator.rho_star_search.probes", len(result.probes))
        found["rho"] = result.value
        checks.require(not result.ceiling_hit,
                       "the search stopped at its ceiling")
        checks.require(result.min_det_at_value >= 0.5,
                       f"min det {result.min_det_at_value:.4f} < 0.5")

    def phi_map(checks):
        checks.require("rho" in found, "no step bound to evaluate at")
        if "rho" not in found:
            return
        (x, y, z), (X, Y, Z) = inp["points"], inp["fields"]
        with tracer.span("propagator.phi_maps"):
            point = propagator.phi_maps(found["rho"], 0.0, x, y, z, X, Y, Z,
                                        inp["ctx"], jacobian=False,
                                        verify=True)
        checks.require(point.identity_residual is not None
                       and point.identity_residual <= 1e-6,
                       f"identity residual {point.identity_residual}")
        checks.require(bool(np.all(np.isfinite(point.phi))
                            and np.all(np.isfinite(point.phi1))),
                       "phi maps are not finite")

    run_study("rho-star", rho_star, outcomes)
    run_study("phi-map", phi_map, outcomes)
    return outcomes


# ---------------------------------------------------------------------------
# cli-roundtrip
# ---------------------------------------------------------------------------

def _write_config(path, entries):
    path.write_text("".join(f"{key} = {value}\n"
                            for key, value in entries.items()),
                    encoding="utf-8")


def setup_cli_roundtrip(rng, size, tracer):
    OUT_DIR.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="cli-", dir=OUT_DIR))
    # criterion 5's two-charge configuration
    action_cfg = work / "action.cfg"
    _write_config(action_cfg, {"M1": 1, "M2": 1, "M3": 1, "n_particles": 2,
                               "masses": "1.0, 2.0", "charges": "1.0, -0.5",
                               "sigma_psi": 0.8, "width_g": 2.0})
    modes_cfg = work / "modes.cfg"
    cutoff = size["modes_cutoff"]
    _write_config(modes_cfg, {"M1": cutoff, "M2": cutoff, "M3": cutoff})
    cli_seed = int(rng.integers(2 ** 31))
    cap = str(size["cli_cap"])
    argv = {
        "action-eval": ["--config", str(action_cfg),
                        "--samples", str(size["action_samples"])],
        "coulomb-limit": [],
        "propagate": ["--backend", "analytic-quadratic", "--cap", cap,
                      "--segments", size["propagate_segments"]],
        "residual": ["--cap", cap],
        "g-equivalence": ["--cap", cap],
        "fock-spectrum": ["--cap", cap],
        "modes": ["--config", str(modes_cfg)],
    }
    return {
        "drawn": {"cli_seed": cli_seed},
        "work": work,
        "argv": {sub: [sub, *args, "--seed", str(cli_seed)]
                 for sub, args in argv.items()},
        "cap": size["cli_cap"],
        "modes_cutoff": cutoff,
        "samples": size["action_samples"],
        "cleanup": lambda: shutil.rmtree(work, ignore_errors=True),
    }


def _read_rows(path):
    lines = path.read_text(encoding="utf-8").splitlines()
    return [line.split(",") for line in lines[1:]]


def _summary_checks(sub, inp, out, summary, checks):
    """Each subcommand's output against its oracle."""
    if sub == "action-eval":
        rows = _read_rows(out / "action_eval.csv")
        checks.require(len(rows) == inp["samples"],
                       f"{len(rows)} action rows for {inp['samples']} samples")
        checks.require(all(math.isfinite(float(row[3])) for row in rows),
                       "an action value is not finite")
    elif sub == "coulomb-limit":
        # criterion 2: the Richardson step over the two boxes lands within
        # one percent of the screened target at every eps level
        by_eps = {}
        for box, eps, value, target, _ in _read_rows(out / "coulomb_limit.csv"):
            by_eps.setdefault(float(eps), []).append(
                (float(box), float(value), float(target)))
        for eps, rows in by_eps.items():
            (_, coarse, target), (_, fine, _) = sorted(rows)
            rel = abs(coulomb.richardson_limit(fine, coarse) - target) / target
            checks.require(rel <= 0.01,
                           f"Richardson estimate at eps {eps} is off by {rel:.3e}")
    elif sub == "propagate":
        checks.require(summary["monotone"] is True,
                       "propagate errors do not fall monotonically")
    elif sub == "residual":
        checks.require(summary["slope"] >= 0.5,
                       f"residual slope {summary['slope']:.3f} < 0.5")
    elif sub == "g-equivalence":
        dev = summary["extrapolated_deviation"]
        checks.require(dev <= 1e-6, f"g-equivalence deviation {dev:.3e}")
    elif sub == "fock-spectrum":
        # one mode has four variables of cap c: level n has as many states
        # as there are ways to write n as four occupations in 0..c
        cap = inp["cap"]
        levels = np.arange(4 * cap + 1)
        ways = np.ones(1)
        for _ in range(4):
            ways = np.convolve(ways, np.ones(cap + 1))
        expected = [(float(n), int(w)) for n, w in zip(levels, ways)]
        got = [(float(e), int(m)) for e, m in _read_rows(out / "fock_spectrum.csv")]
        checks.require(len(got) == len(expected) and all(
            abs(e - ee) <= 1e-12 and m == mm
            for (e, m), (ee, mm) in zip(got, expected)),
            "fock spectrum differs from the occupation count")
    elif sub == "modes":
        # the cube of side 2M + 1 without its origin, halved by parity
        full = (2 * inp["modes_cutoff"] + 1) ** 3 - 1
        rows = _read_rows(out / "modes.csv")
        primed = sum(row[-1] == "1" for row in rows)
        checks.require(summary["N3"] == full // 2 and primed == full // 2
                       and len(rows) == full,
                       f"{summary['N3']} modes, {len(rows)} rows with "
                       f"{primed} primed; the cube has {full} nonzero sites")


def run_cli_roundtrip(inp, tracer):
    outcomes = []
    work = inp["work"]

    def roundtrip(sub):
        def body(checks):
            out, replay = work / sub, work / f"{sub}-rerun"
            with contextlib.redirect_stdout(io.StringIO()):
                with tracer.span(f"cli.{sub}"):
                    code = cli.main([*inp["argv"][sub], "--out", str(out)])
                checks.require(code == 0, f"{sub} exited with {code}")
                if code != 0:
                    return
                manifest = json.loads((out / "manifest.json").read_text())
                tracer.count(f"cli.{sub}.compute_s",
                             manifest["elapsed_seconds"])
                if sub == "modes":
                    tracer.count("lattice.modes.N", manifest["summary"]["N3"])
                if sub == "action-eval":
                    tracer.count("action.segment_action.ms",
                                 1000.0 * manifest["elapsed_seconds"]
                                 / manifest["summary"]["samples"])
                with tracer.span("cli.rerun"):
                    code = cli.main(["rerun", "--manifest",
                                     str(out / "manifest.json"),
                                     "--out", str(replay)])
            checks.require(code == 0, f"rerun of {sub} exited with {code}")
            for name in manifest["outputs"]:
                checks.require(
                    (replay / name).read_bytes() == (out / name).read_bytes(),
                    f"rerun of {sub} changed the bytes of {name}")
            _summary_checks(sub, inp, out, manifest["summary"], checks)
        return body

    try:
        for sub in CLI_SUBCOMMANDS:
            run_study(sub, roundtrip(sub), outcomes)
    finally:
        inp["cleanup"]()
    return outcomes


WORKLOADS = {
    "lattice-sums": (setup_lattice_sums, run_lattice_sums),
    "coupled-step": (setup_coupled_step, run_coupled_step),
    "step-bound": (setup_step_bound, run_step_bound),
    "cli-roundtrip": (setup_cli_roundtrip, run_cli_roundtrip),
}


def layer_metrics(tracer, import_s: float, cpu_s: float) -> dict:
    """Every per-layer metric from one traced pass.  A layer this workload
    does not call reads 0."""
    values = {name: 0.0 for name, _ in PER_LAYER}
    for name in values:
        if name.endswith(".s"):
            values[name] = tracer.total(name[:-2])
    values.update({name: float(value)
                   for name, value in tracer.counters.items()})
    steps = tracer.durations("propagator.step_operator")
    values["propagator.step_operator.max_s"] = max(steps, default=0.0)
    probes = values["propagator.rho_star_search.probes"]
    if probes:
        values["propagator.rho_star_search.s_per_probe"] = \
            values["propagator.rho_star_search.s"] / probes
    values["cli.overhead_s"] = sum(
        (values[f"cli.{sub}.s"] - values[f"cli.{sub}.compute_s"]
         for sub in CLI_SUBCOMMANDS if values[f"cli.{sub}.compute_s"]), 0.0)
    values["proc.import_s"] = import_s
    values["proc.cpu_s"] = cpu_s
    return values
