"""boxqed benchmark: four study workloads, end-to-end and per-layer metrics.

Run from the root of a checkout:

    python3 bench/run.py --workload lattice-sums --seed 1 --seconds 8 --trace 0

Every pass runs in a fresh interpreter (``bench/worker.py``), one after
another, never two at once.  With ``--trace 0`` the run launches several
interpreters that only set up, to time set-up, then full passes until
``--seconds`` of pass time is measured; it reports set-up time, pass time and
peak memory.  With ``--trace 1`` it runs one untraced and one traced pass
and reports every per-layer metric plus the tracing overhead.  Every output
is checked against its oracle; the last stdout line is one JSON object with
``correct``, ``attempted``, ``failed`` (studies) and ``metrics``.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from catalog import END_TO_END, PER_LAYER, STUDIES, WORKLOADS

BENCH_DIR = Path(__file__).resolve().parent
SETUP_SAMPLES = 5           # set-ups timed per run, the full passes included
RUN_LIMIT_S = 170.0         # a run ends within 180 s
LATTICE_MEMORY_MB = 2500    # the L ~ 60 shell count peaks near 2.3 GB


def _mem_available_mb():
    with open("/proc/meminfo", encoding="utf-8") as handle:
        for line in handle:
            if line.startswith("MemAvailable:"):
                return int(line.split()[1]) / 1024.0
    return None


def _git_sha(root: Path):
    """The checked-out commit, read from .git without running git."""
    git = root / ".git"
    head = git / "HEAD"
    if not head.is_file():
        return None
    text = head.read_text(encoding="utf-8").strip()
    if not text.startswith("ref: "):
        return text
    ref = text[5:]
    loose = git / ref
    if loose.is_file():
        return loose.read_text(encoding="utf-8").strip()
    packed = git / "packed-refs"
    if packed.is_file():
        for line in packed.read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def _spawn(root: Path, args, deadline: float, *, setup_only=False, trace=0):
    """Run one worker to completion; return (result, error)."""
    command = [sys.executable, str(BENCH_DIR / "worker.py"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--size", args.size, "--trace", str(trace)]
    if setup_only:
        command.append("--setup-only")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(root / "src"), env.get("PYTHONPATH")) if p)
    launched = time.monotonic()
    try:
        proc = subprocess.run(command, cwd=root, env=env, capture_output=True,
                              text=True, timeout=max(1.0, deadline - launched))
    except subprocess.TimeoutExpired:
        return None, "worker ran past the run's time limit"
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return None, (f"worker exited with {proc.returncode}: "
                      + proc.stderr.strip()[-2000:])
    try:
        result = json.loads(lines[-1])
    except ValueError:
        return None, "worker printed no result: " + lines[-1][:200]
    result["setup_s"] = result["ready"] - launched
    result["elapsed_s"] = time.monotonic() - launched
    return result, None


def _describe(samples, unit):
    """Median and the highest percentile with ten samples beyond it."""
    ordered = sorted(samples)
    n = len(ordered)
    text = f"median {statistics.median(ordered):.6g} {unit} over {n} sample(s)"
    if n >= 11:
        k = n - 11
        return text + f", p{100.0 * (k + 1) / n:.0f} {ordered[k]:.6g} {unit}"
    return text + "; no percentile has ten samples beyond it"


class Tally:
    """Studies attempted and failed across the run's passes."""

    def __init__(self, workload):
        self.studies = STUDIES[workload]
        self.attempted = 0
        self.failed = 0

    def add(self, result, error):
        if error is not None:
            print(f"pass FAILED: {error}")
            self.attempted += len(self.studies)
            self.failed += len(self.studies)
            return
        for outcome in result["outcomes"]:
            self.attempted += 1
            if outcome["ok"]:
                print(f"study {outcome['study']}: ok")
            else:
                self.failed += 1
                print(f"study {outcome['study']}: FAILED")
                for problem in outcome["problems"]:
                    print("    " + problem.replace("\n", "\n    "))


def _setups(root, args, deadline, count):
    """Set-up times of interpreters that only set up."""
    times = []
    for _ in range(count):
        result, error = _spawn(root, args, deadline, setup_only=True)
        if error is not None:
            print(f"set-up FAILED: {error}")
        else:
            times.append(result["setup_s"])
    return times


def _timed(root, args, deadline, tally, env):
    # set-up is timed before and after the passes, so its median spans the
    # whole run rather than one stretch of it
    before = (SETUP_SAMPLES - 1) // 2
    setups = _setups(root, args, deadline, before)
    passes = []
    while True:
        env["mem_available_mb"].append(_mem_available_mb())
        result, error = _spawn(root, args, deadline)
        tally.add(result, error)
        if error is not None:
            break
        passes.append(result)
        setups.append(result["setup_s"])
        spent = sum(p["wall_s"] for p in passes)
        if spent >= args.seconds \
                or time.monotonic() + 1.5 * result["elapsed_s"] > deadline:
            break
    setups += _setups(root, args, deadline, SETUP_SAMPLES - 1 - before)
    walls = [p["wall_s"] for p in passes]
    print(f"setup_s: {_describe(setups, 's')}" if setups else "setup_s: none")
    print(f"wall_s: {_describe(walls, 's')}" if walls else "wall_s: none")
    metrics = {
        "setup_s": statistics.median(setups) if setups else 0.0,
        "wall_s": statistics.median(walls) if walls else 0.0,
        "peak_rss_mb": max((p["peak_rss_mb"] for p in passes), default=0.0),
    }
    print(f"peak_rss_mb: {metrics['peak_rss_mb']:.6g} MB "
          f"(highest of {len(passes)} pass(es))")
    return passes, metrics, dict(END_TO_END)


def _traced(root, args, deadline, tally, env):
    env["mem_available_mb"].append(_mem_available_mb())
    plain, error = _spawn(root, args, deadline)
    tally.add(plain, error)
    env["mem_available_mb"].append(_mem_available_mb())
    traced, traced_error = _spawn(root, args, deadline, trace=1)
    tally.add(traced, traced_error)
    metrics = {name: 0.0 for name, _ in PER_LAYER}
    passes = [p for p in (plain, traced) if p is not None]
    if traced is not None:
        metrics.update(traced["layers"])
        print(f"spans written to {traced['spans_file']}")
    if plain is not None and traced is not None:
        metrics["trace.overhead_s"] = traced["wall_s"] - plain["wall_s"]
        print(f"tracing overhead: traced wall_s {traced['wall_s']:.6g} s - "
              f"untraced wall_s {plain['wall_s']:.6g} s = "
              f"{metrics['trace.overhead_s']:.6g} s")
    units = dict(PER_LAYER)
    for name, value in metrics.items():
        print(f"{name}: {value:.6g} {units[name]}")
    return passes, metrics, units


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=8.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "toy"), default="full",
                        help="toy sizes serve the benchmark's self-test")
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "boxqed" / "__init__.py").is_file():
        print("bench: run from the root of a boxqed checkout "
              "(src/boxqed not found)", file=sys.stderr)
        return 2
    deadline = time.monotonic() + RUN_LIMIT_S
    print(f"run: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace} size={args.size}")
    env = {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "blas_env": {key: os.environ.get(key) for key in
                     ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
        "git_sha": _git_sha(root),
        "mem_available_mb": [],
    }
    if args.workload == "lattice-sums":
        available = _mem_available_mb()
        if available is not None and available < LATTICE_MEMORY_MB:
            print(f"bench: warning: {available:.0f} MB available, "
                  f"lattice-sums needs about 2300 MB", file=sys.stderr)

    tally = Tally(args.workload)
    measure = _traced if args.trace else _timed
    passes, metrics, units = measure(root, args, deadline, tally, env)

    if passes:
        last = passes[-1]
        env.update(versions=last["versions"], blas_threads=last["blas_threads"])
        print("inputs: " + json.dumps({"seed": args.seed, **last["drawn"]}))
    print("env: " + json.dumps(env))
    # every pass, failed or not, adds its studies, so attempted >= 1
    print(f"failed_frac: {tally.failed / tally.attempted:.6g} "
          f"({tally.failed} of {tally.attempted} studies)")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
