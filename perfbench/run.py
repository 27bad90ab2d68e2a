"""Benchmark of ``python -m repro.serving``: one workload, one seed, one run.

    python3 perfbench/run.py --workload cold-single --seed 1 \
        --seconds 10 --trace 0

prints every metric with its unit, the host facts and the correctness
verdict, and as its last line one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics`` (the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``).  Two more modes
run this command in subprocesses and summarise:

    --repeat N   run N times with seeds seed..seed+N-1 and print each
                 metric's median and quartiles (and their spread);
    --overhead   run untraced and traced with the same seed and print the
                 traced end-to-end metrics minus the untraced ones.

Run it from the root of a checkout; it imports the program from ``src/``.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys

#: A run that has not finished after this many seconds is abandoned
#: (servers stopped, non-zero exit) instead of hanging.
RUN_DEADLINE_S = 170

#: Workloads that run but are not in BENCHMARK.json (see README.md).
UNLISTED_WORKLOADS = {"cold-cluster"}

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CONFIG = os.path.join(ROOT, "BENCHMARK.json")


def _fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def _config() -> dict:
    with open(CONFIG) as handle:
        return json.load(handle)


def _fmt(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def _stop_own_processes() -> None:
    """Stop everything the run started and reap it before the run ends:
    a traced cluster's workers, this process's multiprocessing resource
    tracker (closing its pipe lets it unlink what it tracks) and any
    server helper adopted as an orphan."""
    import multiprocessing
    from multiprocessing import resource_tracker

    from mesabench import procfs

    for child in multiprocessing.active_children():
        child.terminate()
        child.join(10)
    tracker = resource_tracker._resource_tracker
    if getattr(tracker, "_fd", None) is not None:
        os.close(tracker._fd)
        tracker._fd = None
        procfs.reap([tracker._pid], timeout=10.0)
        tracker._pid = None
    procfs.stop_children()


def run_once(args) -> None:
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        _fail(f"no program source at {os.path.join(ROOT, 'src')}; run from "
              "the root of a checkout")
    sys.path[:0] = [os.path.join(ROOT, "src"), HERE]
    from mesabench import procfs
    from mesabench.workloads import run

    config = _config()

    def overdue(_signum, _frame):
        raise TimeoutError(f"run exceeded {RUN_DEADLINE_S} s")

    def terminated(signum, _frame):
        sys.exit(128 + signum)

    procfs.adopt_orphans()
    signal.signal(signal.SIGALRM, overdue)
    signal.signal(signal.SIGTERM, terminated)
    signal.alarm(RUN_DEADLINE_S)
    try:
        result = run(ROOT, args.workload, args.seed, args.seconds,
                     bool(args.trace))
    finally:
        signal.alarm(0)
        _stop_own_processes()
    print(f"workload {args.workload}  seed {args.seed}  seconds "
          f"{args.seconds}  trace {args.trace}")
    result["host"] = procfs.host_facts()
    print("host " + json.dumps(result["host"], sort_keys=True))
    units = {m["name"]: m["unit"] for m in config["end_to_end"]}
    for name, value in result["end_to_end"].items():
        print(f"  {name:<28} {_fmt(value):>14} {units.get(name, '')}")
    print(f"  {'latency_tail_s at':<28} p{result['tail']['percentile']:g} of "
          f"{result['tail']['samples']} samples")
    print(f"  {'setup runs':<28} "
          + " ".join(_fmt(v) for v in result["setup_runs_s"]) + " s")
    for name, value in result["diagnostics"].items():
        if name == "ladder":
            for row in value:
                print("  ladder " + " ".join(f"{k}={_fmt(v)}"
                                             for k, v in row.items()))
        else:
            print(f"  {name:<28} {_fmt(value):>14}")
    print(f"  {'error_rate':<28} {_fmt(result['error_rate']):>14} ratio "
          f"({result['failed']} of {result['attempted']})")
    print(f"correct {result['correct']}  check "
          + json.dumps(result["check"], sort_keys=True))
    if args.trace:
        per_layer_units = {m["name"]: m["unit"] for m in config["per_layer"]}
        print("per-layer self time over the measured window")
        print(f"  {'layer':<26} {'spans':>8} {'self_s':>10} "
              f"{'s/request':>11} {'share':>7}")
        for row in result["layers"]:
            print(f"  {row['layer']:<26} {row['spans']:>8} "
                  f"{row['self_s']:>10.4f} {row['self_s_per_request']:>11.6f}"
                  f" {100 * row['share']:>6.1f}%")
        for name, value in result["per_layer"].items():
            print(f"  {name:<34} {_fmt(value):>14} "
                  f"{per_layer_units.get(name, '')}")
        metrics = {name: {"value": result["per_layer"][name],
                          "unit": per_layer_units[name]}
                   for name in per_layer_units}
    else:
        metrics = {name: {"value": result["end_to_end"][name],
                          "unit": units[name]} for name in units}
    print("RESULT " + json.dumps(result, sort_keys=True, default=str))
    print(json.dumps({"correct": result["correct"],
                      "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))


def _child(args, seed: int, trace: int) -> dict:
    command = [sys.executable, os.path.abspath(__file__), "--workload",
               args.workload, "--seed", str(seed), "--seconds",
               str(args.seconds), "--trace", str(trace)]
    completed = subprocess.run(command, cwd=ROOT, capture_output=True,
                               text=True)
    if completed.returncode != 0:
        sys.stderr.write(completed.stderr)
        _fail(f"run with seed {seed} exited {completed.returncode}")
    lines = completed.stdout.splitlines()
    detail = next(line for line in lines if line.startswith("RESULT "))
    return json.loads(detail[len("RESULT "):])


def repeat(args) -> None:
    sys.path.insert(0, HERE)
    from mesabench.stats import quartiles, spread

    results = []
    for offset in range(args.repeat):
        result = _child(args, args.seed + offset, args.trace)
        results.append(result)
        print(f"seed {args.seed + offset}: correct {result['correct']} "
              f"failed {result['failed']}/{result['attempted']}", flush=True)
    key = "per_layer" if args.trace else "end_to_end"
    summary = {}
    print(f"{args.workload}: {args.repeat} runs")
    print(f"  {'metric':<34} {'q1':>12} {'median':>12} {'q3':>12} "
          f"{'spread':>8}")
    for name in results[0][key]:
        values = [r[key][name] for r in results]
        q1, q2, q3 = quartiles(values)
        summary[name] = {"q1": q1, "median": q2, "q3": q3,
                         "spread": spread(values), "values": values}
        print(f"  {name:<34} {q1:>12.6g} {q2:>12.6g} {q3:>12.6g} "
              f"{spread(values):>8.3f}")
    print(json.dumps({"workload": args.workload, "runs": args.repeat,
                      "all_correct": all(r["correct"] for r in results),
                      "metrics": summary}))


def overhead(args) -> None:
    plain = _child(args, args.seed, 0)
    traced = _child(args, args.seed, 1)
    print(f"{args.workload} seed {args.seed}: traced minus untraced "
          "(setup_s compares a CLI start with an in-process one)")
    report = {}
    for name, base in plain["end_to_end"].items():
        value = traced["end_to_end"][name]
        share = (value - base) / base if base else 0.0
        report[name] = {"untraced": base, "traced": value,
                        "difference": value - base, "share": share}
        print(f"  {name:<20} untraced {base:>12.6g}  traced {value:>12.6g}"
              f"  difference {value - base:>+12.6g} ({100 * share:+.1f}%)")
    print(json.dumps({"workload": args.workload, "seed": args.seed,
                      "overhead": report}))


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.
                                     RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeat", type=int, default=0)
    parser.add_argument("--overhead", action="store_true")
    args = parser.parse_args()
    if not os.path.exists(CONFIG):
        _fail(f"{CONFIG} is missing")
    config = _config()
    known = {w["name"] for w in config["workloads"]} | UNLISTED_WORKLOADS
    if args.workload not in known:
        _fail(f"unknown workload {args.workload!r}; choose from "
              f"{sorted(known)}")
    if args.seconds is None:
        args.seconds = config["run_seconds"]
    if args.repeat:
        repeat(args)
    elif args.overhead:
        overhead(args)
    else:
        run_once(args)


if __name__ == "__main__":
    main()
