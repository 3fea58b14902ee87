"""Run one heatflow benchmark workload for one seed.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a heatflow checkout. The set-up clock starts once
numpy and scipy are imported, so `setup_s` is heatflow's import plus the
workload's set-up, paid once in a fresh process. Rounds of the workload's
identical operations then repeat until `--seconds` have passed (at least one
round), and every round's outputs are checked. The last line of standard
output is one JSON object: `correct`, `attempted`, `failed` and `metrics`.
With `--trace 0` the metrics are round_s, setup_s and peak_rss_mb; with
`--trace 1` they are the per-layer metrics, and the spans go to bench/out/.
"""

import argparse
import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path

# single-threaded numerics; must be set before numpy loads
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
# heatflow lets this variable override a config's seed
os.environ.pop("HEATFLOW_SEED", None)

# the third-party modules heatflow imports; they are not heatflow's set-up
import numpy  # noqa: E402,F401
import scipy.sparse  # noqa: E402,F401
import scipy.sparse.linalg  # noqa: E402,F401
import scipy.spatial  # noqa: E402,F401

_START = time.perf_counter()

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

END_TO_END_UNITS = {"round_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be non-negative")
    return args


def _import_heatflow():
    """Import heatflow from this checkout's src/, never an installed copy."""
    init = SRC / "heatflow" / "__init__.py"
    if not init.is_file():
        sys.exit(f"bench: {init} is missing; run from the root of a heatflow checkout")
    sys.path.insert(0, str(SRC))
    import heatflow
    if Path(heatflow.__file__).resolve() != init.resolve():
        sys.exit(f"bench: heatflow imports from {heatflow.__file__}, not {init}")
    return heatflow


def _layer_unit(name):
    if name.endswith("_s"):
        return "s"
    return "ratio" if name == "flow.step_acceptance" else "count"


def main(argv=None):
    args = _parse(argv)
    _import_heatflow()
    import selftest
    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        sys.exit(f"bench: unknown workload {args.workload!r}; "
                 f"choose from {', '.join(workloads.WORKLOADS)}")
    OUT.mkdir(exist_ok=True)
    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracer.install()

    wl = workloads.WORKLOADS[args.workload](args.seed, OUT)
    try:
        wl.setup()
        setup_s = time.perf_counter() - _START

        round_times, problems = [], []
        attempted = failed = 0
        loop_start = time.perf_counter()
        while not round_times or time.perf_counter() - loop_start < args.seconds:
            if tracer is not None:
                tracer.mark_round()
            t = time.perf_counter()
            results = wl.round()
            round_times.append(time.perf_counter() - t)
            # read before the checks, so the oracles' memory is not counted
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            attempted += len(results)
            failed += sum(isinstance(r, workloads.OpFailed) for r in results.values())
            spans = len(tracer.spans) if tracer is not None else 0
            problems += wl.check(results)
            if tracer is not None and len(tracer.spans) != spans:
                raise RuntimeError("a check called into heatflow")
            del results     # the next round's peak memory is its own
        problems += [f"oracle self-test: {p}" for p in selftest.run()]
    finally:
        wl.cleanup()

    for p in problems:
        print(f"bench: check failed: {p}", file=sys.stderr)
    round_s = statistics.median(round_times)
    print(f"rounds: {len(round_times)}  round_times: "
          f"{' '.join(f'{t:.4f}' for t in round_times)}  setup_s: {setup_s:.4f}  "
          f"work: {json.dumps(wl.work(), sort_keys=True)}")
    if tracer is not None:
        path = OUT / f"trace-{args.workload}-seed{args.seed}.json"
        tracer.write(path)
        print(f"traced run: spans written to {path.relative_to(ROOT)}")
        metrics = {k: {"value": v, "unit": _layer_unit(k)}
                   for k, v in tracer.layer_metrics().items()}
    else:
        values = {"round_s": round_s, "setup_s": setup_s, "peak_rss_mb": peak_rss_mb}
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
