"""Names shared by `run.py` and its workers: workloads, studies
and metrics with their units.  Importing this module loads nothing heavy, so
`run.py` stays a small process while the workers do the work."""

WORKLOADS = ("lattice-sums", "coupled-step", "step-bound", "cli-roundtrip")

# The CLI subcommands that cli-roundtrip runs, each followed by a rerun.
CLI_SUBCOMMANDS = ("action-eval", "coulomb-limit", "propagate", "residual",
                   "g-equivalence", "fock-spectrum", "modes")

# Studies per workload: the unit that failed_frac counts.
STUDIES = {
    "lattice-sums": ("cube-family", "anisotropic-family"),
    "coupled-step": ("step-operators", "convergence"),
    "step-bound": ("rho-star", "phi-map"),
    "cli-roundtrip": CLI_SUBCOMMANDS,
}

END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("peak_rss_mb", "MB"))

PER_LAYER = (
    ("coulomb.riemann_sum.radial.s", "s"),
    ("coulomb.riemann_sum.radial.doublings", "count"),
    ("coulomb.riemann_sum.radial.max_shells", "count"),
    ("coulomb.riemann_sum.slab.s", "s"),
    ("coulomb.riemann_sum.slab.points", "count"),
    ("propagator.step_operator.s", "s"),
    ("propagator.step_operator.max_s", "s"),
    ("propagator.convergence_study.s", "s"),
    ("fock.assemble_hamiltonian.s", "s"),
    ("fock.reference_evolve.s", "s"),
    ("propagator.StepBackend.s", "s"),
    ("field.ModelContext.s", "s"),
    ("propagator.rho_star_search.s", "s"),
    ("propagator.rho_star_search.probes", "count"),
    ("propagator.rho_star_search.s_per_probe", "s"),
    ("propagator.phi_maps.s", "s"),
    *((f"cli.{sub}.{kind}", "s") for sub in CLI_SUBCOMMANDS
      for kind in ("s", "compute_s")),
    ("cli.rerun.s", "s"),
    ("cli.overhead_s", "s"),
    ("action.segment_action.ms", "ms"),
    ("lattice.modes.N", "count"),
    ("proc.import_s", "s"),
    ("proc.cpu_s", "s"),
    ("trace.overhead_s", "s"),
)
