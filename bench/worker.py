"""One benchmark pass in a fresh interpreter.

Imports boxqed, builds the workload's inputs from the seed, and (unless
``--setup-only``) runs the workload once and checks its outputs.  The last
line on stdout is one JSON object for ``run.py``.  Times on the
system-wide monotonic clock let ``run.py`` measure set-up from the moment it
launched this interpreter.
"""

import argparse
import ctypes
import json
import os
import resource
import sys
import time


def _blas_threads():
    """Threads the loaded OpenBLAS will use, or None if it is not found."""
    with open("/proc/self/maps", encoding="utf-8") as handle:
        paths = {line.split()[-1] for line in handle
                 if "openblas" in line.lower() and "/" in line}
    for path in sorted(paths):
        library = ctypes.CDLL(path)
        for symbol in ("openblas_get_num_threads",
                       "scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_"):
            getter = getattr(library, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                return int(getter())
    return None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--size", default="full")
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    started = time.perf_counter()
    import boxqed  # timed: every start-up pays for it
    import_s = time.perf_counter() - started

    import numpy as np
    import scipy

    from tracer import Tracer
    from workloads import OUT_DIR, SIZES, WORKLOADS, layer_metrics

    tracer = Tracer(enabled=bool(args.trace))
    setup, run = WORKLOADS[args.workload]
    inputs = setup(np.random.default_rng(args.seed), SIZES[args.size], tracer)
    ready = time.monotonic()
    result = {"ready": ready, "import_s": import_s, "drawn": inputs["drawn"]}
    if args.setup_only:
        inputs.get("cleanup", lambda: None)()
        print(json.dumps(result))
        return 0

    started = time.perf_counter()
    outcomes = run(inputs, tracer)
    wall_s = time.perf_counter() - started
    times = os.times()
    cpu_s = times.user + times.system
    result.update({
        "wall_s": wall_s,
        "cpu_s": cpu_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
        "outcomes": outcomes,
        "versions": {"python": sys.version.split()[0],
                     "numpy": np.__version__, "scipy": scipy.__version__,
                     "boxqed": boxqed.__version__},
        "blas_threads": _blas_threads(),
    })
    if args.trace:
        OUT_DIR.mkdir(exist_ok=True)
        spans_path = OUT_DIR / f"spans-{args.workload}.json"
        tracer.write(spans_path)
        result["spans_file"] = str(spans_path)
        result["layers"] = layer_metrics(tracer, import_s, cpu_s)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
