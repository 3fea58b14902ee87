"""Run one workload over consecutive seeds, one process at a time.

    python3 bench/repeat.py --workload NAME [--runs 10] [--first-seed 1] [--trace 0|1]

Every run lasts `run_seconds` from BENCHMARK.json. Prints, for every metric,
the median, the quartiles and the quartile spread (q3 - q1) / median, as
`statistics.quantiles(values, n=4)` gives them, and whether `attempted`,
`failed` and the work counts repeated exactly. With `--trace 1` the work
counts include the traced layer counts in WORK_COUNTS. The raw results go to
bench/out/repeat-<workload>-<timed|traced>-seeds<a>-<b>.json.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent

# traced counts that must not move with the seed
WORK_COUNTS = ("flow.steps_accepted", "flow.certificate_pairs", "gauge.descent_iterations",
               "gauge.fixed_point_iterations", "elliptic.cg_iterations", "hardy.maximal_calls")


def _run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().split("\n")
    if proc.returncode != 0 or not lines[-1].startswith("{"):
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"repeat: seed {seed} exited with {proc.returncode}")
    # "rounds: N  round_times: t1 t2 ...  setup_s: S  work: {...}"
    info = next(ln for ln in lines if ln.startswith("rounds:"))
    result = json.loads(lines[-1])
    result["seed"] = seed
    result["rounds"] = int(info.split()[1])
    result["round_times"] = [float(t) for t in
                             info.split("round_times:", 1)[1].split("setup_s:")[0].split()]
    result["work"] = json.loads(info.split("work: ", 1)[1])
    return result


def summarize(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0,
            "min": min(values), "max": max(values)}


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.runs < 2:
        p.error("--runs must be at least 2 for quartiles")
    seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]

    seeds = range(args.first_seed, args.first_seed + args.runs)
    results = []
    for seed in seeds:
        r = _run_once(args.workload, seed, seconds, args.trace)
        if args.trace:
            r["work"]["traced"] = {k: r["metrics"][k]["value"] for k in WORK_COUNTS}
            shown = WORK_COUNTS
        else:
            shown = r["metrics"]
        results.append(r)
        values = " ".join(f"{k}={r['metrics'][k]['value']:.6g}" for k in shown)
        print(f"seed {seed}: correct={r['correct']} attempted={r['attempted']} "
              f"failed={r['failed']} rounds={r['rounds']} {values}", flush=True)

    print(f"\n{args.workload}: {len(results)} runs, seeds {seeds[0]}-{seeds[-1]}, "
          f"--seconds {seconds:g}")
    print(f"{'metric':38s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>8s}")
    columns = {name: [r["metrics"][name]["value"] for r in results]
               for name in results[0]["metrics"]}
    if args.trace:
        # the traced run's own round time, to set against an untraced set
        columns["round_s (traced)"] = [statistics.median(r["round_times"]) for r in results]
    summary = {}
    for name, values in columns.items():
        s = summarize(values)
        summary[name] = s
        print(f"{name:38s} {s['median']:12.6g} {s['q1']:12.6g} {s['q3']:12.6g} "
              f"{s['spread']:8.2%}")
    shares = {r["failed"] / r["attempted"] for r in results}
    works = {json.dumps(r["work"], sort_keys=True) for r in results}
    print(f"all correct: {all(r['correct'] for r in results)}; failed share per run: "
          f"{sorted(shares)}; work counts repeat exactly: {len(works) == 1}")
    kind = "traced" if args.trace else "timed"
    out = BENCH / "out" / f"repeat-{args.workload}-{kind}-seeds{seeds[0]}-{seeds[-1]}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps({"workload": args.workload, "seconds": seconds,
                               "trace": args.trace, "summary": summary,
                               "runs": results}, indent=1))
    print(f"raw results: {out.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
