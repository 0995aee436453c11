#!/usr/bin/env python3
"""Two-clock replication benchmark: builds the harness, runs one workload,
prints one JSON result line.

    python3 perfbench/run.py --workload ckpt_dense --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --smoke

Run from the repository root. The harness (perfbench/harness) is compiled
together with ../src into the build directory on first use. One run
repeats the harness process REPS times at the same seed:

  --trace 0  every repetition untraced.
             Prints the end-to-end metrics of BENCHMARK.json.
  --trace 1  one untraced repetition, then traced ones.
             Prints the per-layer metrics of BENCHMARK.json.

Every repetition runs setup, the measured phase and the fault tail.
Host-clock metrics are medians over repetitions (epoch times are pooled);
virtual-clock metrics, the tail's included, must be identical in every
repetition, traced or not.
That, the harness's own correctness gate and the stage-sum check of traced
repetitions decide "correct". Human-readable detail goes to stderr; the last
stdout line is the JSON result.

--smoke runs each workload briefly, traced and untraced, and checks that
every metric named in BENCHMARK.json is printed as a finite number with its
unit and that the gate passes, at the default and the held-out seed.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
DEFAULT_SEED = 1
HELD_OUT_SEED = 7
REPS = 3
# With --trace 0, setup-only repetitions add set-up samples, so setup_s is a
# median of REPS + SETUP_ONLY_REPS.
SETUP_ONLY_REPS = 2
# Virtual seconds of measured phase per requested host second, per
# repetition, calibrated on a 4-core x86-64 host so that the REPS measured
# phases together take about --seconds of host time.
VIRTUAL_PER_SECOND = {"ckpt_dense": 0.35, "ycsb_raw": 1.65, "fleet_churn": 1.35}
# Shortest phase that still holds the workload's events (the fleet's crash
# lands at 15 % of the phase, its repair 25 % later).
MIN_MEASURE = {"ckpt_dense": 2.0, "ycsb_raw": 3.0, "fleet_churn": 10.0}
# Host seconds all repetitions of one run may take, build excluded.
RUN_DEADLINE_S = 170

def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    return os.environ.get("CARGO_TARGET_DIR") or ".bench_build"


def build():
    out = build_dir()
    binary = os.path.join(out, "here_perfbench")
    subprocess.run(["cmake", "-S", HERE, "-B", out,
                    "-DCMAKE_BUILD_TYPE=Release"],
                   check=True, stdout=sys.stderr, stderr=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", out, "-j", jobs,
                    "--target", "here_perfbench"],
                   check=True, stdout=sys.stderr, stderr=sys.stderr)
    return binary


def percentile(values, q):
    """Linear interpolation between order statistics (as the harness does)."""
    if not values:
        return 0.0
    v = sorted(values)
    pos = q * (len(v) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(v) - 1)
    return v[lo] + (v[hi] - v[lo]) * (pos - lo)


def run_rep(binary, workload, seed, measure, traced, timeout,
            setup_only=False):
    cmd = [binary, f"--workload={workload}", f"--seed={seed}",
           f"--measure={measure:.6g}"]
    if traced:
        cmd.append("--traced")
    if setup_only:
        cmd.append("--setup-only")
    proc = subprocess.run(cmd, capture_output=True, text=True,
                          timeout=timeout)
    lines = [l for l in proc.stdout.splitlines() if l.startswith("PERFBENCH ")]
    if proc.returncode != 0 or not lines:
        log(proc.stderr[-4000:])
        raise RuntimeError(f"harness exited with {proc.returncode}: {cmd}")
    return json.loads(lines[-1][len("PERFBENCH "):])


def end_to_end(reps, setups):
    first = reps[0]
    host = [r["host"] for r in reps]
    epochs = [x for h in host for x in h["epoch_host_ms"]]
    values = {
        "setup_s": statistics.median(
            [h["setup_s"] for h in host] + [s["host"]["setup_s"] for s in setups]),
        "sim_speedup": statistics.median(h["sim_speedup"] for h in host),
        "epoch_host_ms_p50": percentile(epochs, 0.5),
        "epoch_host_ms_p90": percentile(epochs, 0.9),
        "peak_rss_mib": statistics.median(h["peak_rss_mib"] for h in host),
    }
    for key in ("pause_ms_p50", "pause_ms_p90", "degradation_worst",
                "client_kops", "output_delay_ms_p50", "output_delay_ms_p90",
                "epochs_committed_frac"):
        values[key] = first["virtual"][key]
    values["failover_ms"] = first["tail"]["failover_ms"]
    values["reprotect_mttr_ms"] = first["tail"]["reprotect_mttr_ms"]
    log(f"  samples: setup_s n={len(reps) + len(setups)}; "
        f"epoch_host_ms n={len(epochs)} over {len(reps)} reps; "
        f"pause n={first['virtual']['epochs']} per rep; output delay "
        f"n={first['virtual']['output_delay_samples']:.0f}; failovers "
        f"{first['tail']['failovers']:.0f}; mttr rows "
        f"{first['tail']['mttr_rows']:.0f}")
    return values


def per_layer(reps, problems):
    plain, traced = reps[0], reps[1:]
    values = dict(plain["counts"])
    layer_keys = [k for k in traced[0]["layers"]
                  if not k.startswith("total_s.") and k != "stamped_s"]
    for key in layer_keys:
        values[key] = statistics.median(r["layers"][key] for r in traced)
    values["trace_overhead_frac"] = (
        statistics.median(r["host"]["measured_host_s"] for r in traced)
        / plain["host"]["measured_host_s"] - 1.0)
    for r in traced:
        layers = r["layers"]
        stage_sum = sum(v for k, v in layers.items() if k.startswith("total_s."))
        measured = r["host"]["measured_host_s"]
        log("  stages (s): " + ", ".join(
            f"{k[8:]}={v:.4f}" for k, v in layers.items()
            if k.startswith("total_s.")) + f"; sum={stage_sum:.4f} "
            f"measured={measured:.4f}")
        if abs(stage_sum - layers["stamped_s"]) > 1e-6 * max(1.0, stage_sum):
            problems.append("stage times do not sum to the stamped window")
        if abs(layers["stamped_s"] - measured) > 0.01 * measured:
            problems.append("stamped window differs from the measured phase")
    return values


def run(args, benchmark):
    binary = build()
    measure = max(MIN_MEASURE[args.workload],
                  VIRTUAL_PER_SECOND[args.workload] * args.seconds)
    plan = [False] + [args.trace == 1] * (REPS - 1)
    reps = []
    deadline = time.monotonic() + RUN_DEADLINE_S
    for traced in plan:
        t0 = time.monotonic()
        reps.append(run_rep(binary, args.workload, args.seed, measure, traced,
                            max(1.0, deadline - t0)))
        log(f"{args.workload} seed={args.seed} rep {len(reps)} "
            f"traced={int(traced)}: "
            f"{time.monotonic() - t0:.2f}s wall, measured "
            f"{reps[-1]['host']['measured_host_s']:.2f}s host for "
            f"{measure:g}s virtual, digest {reps[-1]['virtual_digest']}")
    setups = []
    if args.trace == 0:
        for _ in range(SETUP_ONLY_REPS):
            setups.append(run_rep(binary, args.workload, args.seed, measure,
                                  False, max(1.0, deadline - time.monotonic()),
                                  setup_only=True))
        log(f"{args.workload} seed={args.seed} setup-only reps: setup_s "
            + ", ".join(f"{s['host']['setup_s']:.3f}" for s in setups))

    problems = []
    for r in reps + setups:
        problems += [f"rep gate: {v}" for v in r["violations"]]
    digests = {r["virtual_digest"] for r in reps}
    if len(digests) != 1:
        problems.append(f"virtual outputs differ across repetitions: {digests}")

    section = "per_layer" if args.trace == 1 else "end_to_end"
    values = (per_layer(reps, problems) if args.trace == 1
              else end_to_end(reps, setups))
    metrics = {}
    for m in benchmark[section]:
        name = m["name"]
        if name not in values:
            problems.append(f"metric {name} not produced")
            continue
        metrics[name] = {"value": values[name], "unit": m["unit"]}
        log(f"  {name:42s} {values[name]:14.6g} {m['unit']:>16s} "
            f"({m['better']} is better)")
    for p in problems:
        log(f"  FAIL: {p}")
    return {
        "correct": not problems,
        "attempted": int(sum(r["epochs_attempted"] for r in reps)),
        "failed": int(sum(r["epochs_failed"] for r in reps)),
        "metrics": metrics,
    }


def smoke(benchmark):
    ok = True
    for w in benchmark["workloads"]:
        for seed in (DEFAULT_SEED, HELD_OUT_SEED):
            for trace in (0, 1):
                args = argparse.Namespace(workload=w["name"], seed=seed,
                                          seconds=1, trace=trace)
                result = run(args, benchmark)
                section = "per_layer" if trace else "end_to_end"
                want = {m["name"] for m in benchmark[section]}
                got = result["metrics"]
                missing = want - set(got)
                bad = [n for n, v in got.items()
                       if not v["unit"] or not math.isfinite(v["value"])]
                status = result["correct"] and not missing and not bad
                ok &= status
                log(f"smoke {w['name']} seed={seed} trace={trace}: "
                    f"{'ok' if status else 'FAIL'} ({len(got)} metrics)")
    return ok


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(VIRTUAL_PER_SECOND))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()
    with open("BENCHMARK.json") as f:
        benchmark = json.load(f)
    if args.smoke:
        return 0 if smoke(benchmark) else 1
    if args.workload is None:
        parser.error("--workload is required")
    try:
        result = run(args, benchmark)
    except (subprocess.SubprocessError, RuntimeError) as e:
        log(f"perfbench: {e}")
        return 1
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
