#!/usr/bin/env python3
"""Repository benchmark: builds the workload driver from source and runs it.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py                       # all workloads, defaults
    python3 perfbench/run.py --workload NAME --steady 10

One workload run prints its phase counts, diagnostics and metrics as
"name value unit" lines, then one JSON object as the last line:
{"correct", "attempted", "failed", "metrics"}. With --trace 0 the metrics are
the end-to-end metrics of BENCHMARK.json, measured with the benchmark's own
spans off; with --trace 1 they are its per-layer metrics, from a traced run
of the same seed and length (an untraced run is made first, for
obs.trace_overhead_frac). --steady K repeats the workload on K seeds and
prints each end-to-end metric's median, quartiles and spread against its
bound. Exits nonzero only on a correctness violation or a failed build.
See perfbench/README.md.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORK = os.path.join(ROOT, ".bench_work")
BINARY = os.path.join(BUILD, "oneedit_perfbench")
WORKLOADS = ["read_heavy", "edit_collab", "tenant_shards"]
DEFAULT_SEED = 1
CHECK_SEED = 1001  # second seed for checking a claim (README.md)
RUN_TIMEOUT_S = 170

# Headline throughput per workload: obs.trace_overhead_frac is its relative
# loss in the traced run.
PRIMARY = {"read_heavy": "read_qps", "edit_collab": "edit_goodput_eps",
           "tenant_shards": "edit_goodput_eps"}
# End-to-end metrics every run reports beside those BENCHMARK.json gates
# (README.md says why each is not gated).
REPORTED = [("setup_median_s", "s"), ("edit_p50_ms", "ms"),
            ("edit_p95_ms", "ms"), ("edit_p99_ms", "ms"),
            ("edit_failed_frac", "ratio"), ("read_failed_frac", "ratio"),
            ("answer_agreement", "ratio")]


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def build():
    """Configures and builds incrementally; build output to stderr."""
    os.makedirs(BUILD, exist_ok=True)
    subprocess.run(["cmake", "-S", HERE, "-B", BUILD,
                    "-DCMAKE_BUILD_TYPE=Release"],
                   check=True, stdout=sys.stderr, stderr=sys.stderr)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(["cmake", "--build", BUILD, "--target", "oneedit_perfbench",
                    "-j", jobs], check=True, stdout=sys.stderr,
                   stderr=sys.stderr)


def run_driver(workload, seed, seconds, trace):
    """One workload in its own process; returns the driver's JSON."""
    work = os.path.join(WORK, workload)
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0",
           "--dir", work]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                          text=True, timeout=RUN_TIMEOUT_S)
    lines = [l for l in proc.stdout.splitlines() if l.strip()]
    if not lines:
        raise RuntimeError("driver printed nothing (exit %d)" % proc.returncode)
    result = json.loads(lines[-1])
    # Keep the span dump of a traced run; drop the journals.
    if os.path.isdir(work):
        for name in os.listdir(work):
            if name.startswith("setup-"):
                shutil.rmtree(os.path.join(work, name), ignore_errors=True)
    return result


def show(result, label, spec):
    """Human-readable lines for one driver result (stdout)."""
    print("# %s workload=%s seed=%s correct=%s" % (
        label, result["workload"], result["seed"], result["correct"]))
    for phase in result["phases"]:
        print("# phase %-8s reads sent %d ok %d failed %d | edits sent %d "
              "ok %d failed %d" % (
                  phase["name"], phase["reads_sent"], phase["reads_ok"],
                  phase["reads_failed"], phase["edits_sent"],
                  phase["edits_ok"], phase["edits_failed"]))
    for key, value in result["info"].items():
        print("# %s %s" % (key, value))
    for name, unit in REPORTED:
        print("%s %.6g %s (reported, not gated)" % (
            name, result["e2e"].get(name, 0.0), unit))
    for violation in result["violations"]:
        print("# VIOLATION %s" % violation)


def metrics_of(spec_list, values):
    out = {}
    for metric in spec_list:
        name = metric["name"]
        out[name] = {"value": float(values.get(name, 0.0)),
                     "unit": metric["unit"]}
    return out


def one_run(spec, workload, seed, seconds, trace):
    """The contract's single-workload run. Returns the exit code."""
    untraced = run_driver(workload, seed, seconds, False)
    show(untraced, "untraced", spec)
    results = [untraced]
    if trace:
        traced = run_driver(workload, seed, seconds, True)
        show(traced, "traced", spec)
        results.append(traced)
        layer = dict(traced["layer"])
        layer["serving.edit_p50_ms"] = traced["e2e"].get("edit_p50_ms", 0.0)
        base = untraced["e2e"].get(PRIMARY[workload], 0.0)
        with_spans = traced["e2e"].get(PRIMARY[workload], 0.0)
        layer["obs.trace_overhead_frac"] = (
            (base - with_spans) / base if base > 0 else 0.0)
        layer["durability.recovery_decode_diffs"] = sum(
            float(v) for k, v in traced["info"].items()
            if k.endswith("_recovered_decode_diffs"))
        metrics = metrics_of(spec["per_layer"], layer)
    else:
        metrics = metrics_of(spec["end_to_end"], untraced["e2e"])
    for name, m in metrics.items():
        print("%s %.6g %s" % (name, m["value"], m["unit"]))
    correct = all(r["correct"] for r in results)
    print(json.dumps({
        "correct": correct,
        "attempted": sum(int(r["attempted"]) for r in results),
        "failed": sum(int(r["failed"]) for r in results),
        "metrics": metrics,
    }), flush=True)
    return 0 if correct else 1


def all_runs(spec, seed, seconds):
    """Every workload, each in its own process, end-to-end metrics only."""
    summary = {}
    correct = True
    for workload in WORKLOADS:
        result = run_driver(workload, seed, seconds, False)
        show(result, "untraced", spec)
        metrics = metrics_of(spec["end_to_end"], result["e2e"])
        print("== %s (seed %d, %gs)" % (workload, seed, seconds))
        for name, m in metrics.items():
            print("%-18s %14.6g %s" % (name, m["value"], m["unit"]))
        for name, unit in REPORTED:
            print("%-18s %14.6g %s (reported, not gated)" % (
                name, result["e2e"].get(name, 0.0), unit))
        correct = correct and result["correct"]
        summary[workload] = {"correct": result["correct"],
                             "attempted": result["attempted"],
                             "failed": result["failed"], "metrics": metrics}
    print(json.dumps({"correct": correct, "seed": seed,
                      "workloads": summary}), flush=True)
    return 0 if correct else 1


def steady(spec, workload, seed, seconds, repeats):
    """Repeats one workload on `repeats` seeds and prints each end-to-end
    metric's median, quartiles and spread (IQR / median) against its bound.
    setup_s is gated on its median over the runs, not on its spread; the
    reported metrics have no bound."""
    metrics = [(m["name"], m["bound"]) for m in spec["end_to_end"]]
    metrics += [(name, None) for name, _ in REPORTED]
    values = {name: [] for name, _ in metrics}
    correct = True
    for i in range(repeats):
        result = run_driver(workload, seed + i, seconds, False)
        correct = correct and result["correct"]
        for name in values:
            values[name].append(float(result["e2e"].get(name, 0.0)))
        log("run %d/%d seed %d done" % (i + 1, repeats, seed + i))
    print("%-18s %12s %12s %12s %8s %6s  %s" % (
        "metric", "q1", "median", "q3", "spread", "bound", "verdict"))
    report = {}
    for name, bound in metrics:
        q1, med, q3 = statistics.quantiles(values[name], n=4)
        spread = (q3 - q1) / med if med else 0.0
        if bound is None:
            verdict = "reported, not gated"
        elif name == "setup_s":
            verdict = "median gated, spread not"
        else:
            verdict = ("ok" if spread < bound / 3 else
                       "within bound" if spread <= bound else "TOO WIDE")
        print("%-18s %12.6g %12.6g %12.6g %8.4f %6s  %s" % (
            name, q1, med, q3, spread,
            "-" if bound is None else "%.3f" % bound, verdict))
        report[name] = {"q1": q1, "median": med, "q3": q3, "spread": spread,
                        "bound": bound, "values": values[name]}
    print(json.dumps({"correct": correct, "workload": workload,
                      "seeds": [seed, seed + repeats - 1],
                      "metrics": report}), flush=True)
    return 0 if correct else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all",
                        choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help="workload seed (default %d; check claims on %d)"
                        % (DEFAULT_SEED, CHECK_SEED))
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--steady", type=int, default=0, metavar="K",
                        help="repeat the workload on K seeds")
    args = parser.parse_args()

    try:
        spec = load_spec()
        build()
    except (OSError, ValueError, subprocess.CalledProcessError) as error:
        log("perfbench: setup failed: %s" % error)
        return 2
    seconds = args.seconds if args.seconds else spec["run_seconds"]
    try:
        if args.steady:
            if args.workload == "all":
                log("--steady needs one --workload")
                return 2
            return steady(spec, args.workload, args.seed, seconds,
                          args.steady)
        if args.workload == "all":
            return all_runs(spec, args.seed, seconds)
        return one_run(spec, args.workload, args.seed, seconds,
                       args.trace == 1)
    except (RuntimeError, ValueError, KeyError,
            subprocess.TimeoutExpired) as error:
        log("perfbench: run failed: %s" % error)
        return 3


if __name__ == "__main__":
    sys.exit(main())
