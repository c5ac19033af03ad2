"""Benchmark of borcherds-kit: time to a checked exact answer, end to end.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Workloads, metrics and bounds are listed in
BENCHMARK.json; why each workload exists and which layer metric should move
which end-to-end metric is in perfbench/README.md.

With --trace 0 the run measures whole rounds of passes until S seconds have
gone by (a round is one pass, or one pass per chamber point for
cusp-expand).  Every pass is a fresh interpreter (worker.py), so the
library's caches start empty.  The run reports these end-to-end metrics:

    wall_s       wall-clock seconds of a pass's operations, mean over passes
    cpu_s        user+sys CPU seconds of the worker and its children over the
                 same operations, mean over passes
    setup_s      interpreter start, import and database loads, median over
                 the passes and extra set-up-only processes
    peak_rss_mb  peak resident memory of a worker or its largest child, the
                 largest over the passes

The three times are at reference speed (speed.py): every process that runs
library code samples the speed of its own core ten times a second, and each
operation's time, less the sampling, is scaled by the reference sample time
over the mean sample during the operation, and a set-up time likewise.  Raw times and the run's slowdown are printed and recorded too.

With --trace 1 the run makes one untraced and one traced pass of the first
pass key and reports the per-layer metrics.  Every run checks every result,
asserts that the module caches are empty when a process starts and that the
repository's files are unchanged afterwards, and writes a result file with
its samples and run metadata to perfbench/out/.  The last line of standard
output is one JSON object: correct, attempted, failed and metrics.
"""

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

# set-up-only processes are added until there are this many set-up samples,
# as long as they fit in the extra time below
SETUP_SAMPLES = 10
SETUP_EXTRA_S = 3.0
PASS_TIMEOUT_S = 170
# what a run may not change: the program, its tests and data, and this benchmark
WATCHED = ("src", "tests", "demos", "tools", "perfbench", "pyproject.toml",
           "README.md", "BENCHMARK.json")


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def worker_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    # compiled bytecode lives under out/, written once by the warm-up worker,
    # so that start-up costs what it costs an installed package
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPYCACHEPREFIX"] = str(OUT / "pycache")
    return env


def call_worker(args):
    """Start worker.py with `args`; return (start monotonic ns, its JSON reply)."""
    start = time.monotonic_ns()
    proc = subprocess.run([sys.executable, str(HERE / "worker.py"), *args],
                          cwd=ROOT, env=worker_env(), capture_output=True, text=True,
                          timeout=PASS_TIMEOUT_S, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        fail(f"worker {' '.join(args)} exited with {proc.returncode}: "
             f"{proc.stderr.strip()[-2000:]}")
    return start, json.loads(lines[-1])


def run_pass(workload, key, seed, trace, sample=False):
    args = ["pass", workload, key] + (["--sample"] if sample else [])
    if trace:
        spans_dir = OUT / "spans"
        spans_dir.mkdir(parents=True, exist_ok=True)
        args += ["--trace", "--spans", str(spans_dir / f"{workload}-seed{seed}-{key}")]
    start, reply = call_worker(args)
    reply["setup_s"] = (reply["setup_end_ns"] - start) / 1e9
    reply["key"] = key
    return reply


def snapshot():
    """sha256 of every watched file, skipping bytecode and this run's output."""
    digests = {}
    for name in WATCHED:
        path = ROOT / name
        files = [path] if path.is_file() else sorted(path.rglob("*"))
        for f in files:
            if (not f.is_file() or "__pycache__" in f.parts
                    or OUT in f.parents or f.suffix == ".pyc"):
                continue
            digests[str(f.relative_to(ROOT))] = hashlib.sha256(f.read_bytes()).hexdigest()
    return digests


def commit():
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                          text=True, timeout=30, check=False)
    return proc.stdout.strip() or None


def kernel_mean_ns(ops):
    """Mean speed-sample time over operations; None when there is none."""
    count = sum(op["samples"] for op in ops)
    return sum(op["sampled_s"] for op in ops) * 1e9 / count if count else None


def at_reference_speed(pass_, field):
    """A pass's wall or CPU seconds, each operation at reference speed.

    The sample time is taken out of the operation, and the rest scaled by
    REFERENCE_NS over the mean sample during the operation (during the pass,
    for operations too short to hold a sample).
    """
    fallback = kernel_mean_ns(pass_["ops"])
    if fallback is None:
        raise ValueError(f"pass {pass_['key']} holds no speed sample")
    total = 0.0
    for op in pass_["ops"]:
        mean_ns = kernel_mean_ns([op]) or fallback
        total += (op[field] - op["sampled_s"]) * speed.REFERENCE_NS / mean_ns
    return total


def pass_keys(workload, seed):
    """The passes of one round: one per chamber point for cusp-expand."""
    if workload != "cusp-expand":
        return ["all"]
    sys.path.insert(0, str(HERE))
    import fixtures
    return [point["name"] for point in fixtures.rotation(seed)]


def setup_samples(workload, passes):
    """Set-up times of the passes, plus set-up-only processes while they fit.

    Returns (raw seconds, seconds at reference speed, problems); a sample is
    scaled by the kernel time its process measured during or right after
    set-up (speed.kernel_ns).
    """
    raw = [p["setup_s"] for p in passes]
    scaled = [p["setup_s"] * speed.REFERENCE_NS / p["setup_kernel_ns"] for p in passes]
    problems = []
    extra = 0.0
    while len(raw) < SETUP_SAMPLES and extra + raw[-1] <= SETUP_EXTRA_S:
        start, reply = call_worker(["setup", workload, "--sample"])
        raw.append((reply["setup_end_ns"] - start) / 1e9)
        scaled.append(raw[-1] * speed.REFERENCE_NS / reply["setup_kernel_ns"])
        problems += reply["problems"]
        extra += raw[-1]
    return raw, scaled, problems


# per-layer metric suffix -> field of a span-name summary
SPAN_STATS = {"calls": "calls", "busy_s": "busy_ns", "self_s": "self_ns"}


def layer_metrics(spec, base, traced, cli):
    """Per-layer metric values from one traced pass and its untraced twin."""
    trace = traced["trace"]
    stats, counters = trace["stats"], dict(trace["counters"])
    counters.update(trace["maxima"])
    theta_calls = stats.get("lattice.theta_series", {}).get("calls", 0)
    counters["lattice.theta_cache_hit_ratio"] = (
        counters.get("lattice.theta_hits", 0) / theta_calls if theta_calls else 0.0)
    factors, skipped = counters.get("product.factors", 0), counters.get("product.skipped", 0)
    counters["product.factor_yield"] = factors / (factors + skipped) if factors + skipped else 0.0
    job_walls = {f"cli.job.{op['name']}.wall_s": op["wall_s"] for op in base["ops"]}
    counters["trace.overhead_s"] = traced["wall_s"] - base["wall_s"]
    counters["trace.coverage"] = trace["top_ns"] / 1e9 / traced["wall_s"]
    out = {}
    for metric in spec["per_layer"]:
        name = metric["name"]
        span, stat = name.rsplit(".", 1)
        if name.startswith("cli.job."):
            value = job_walls.get(name, 0.0) if cli else 0.0
        elif name in counters or stat not in SPAN_STATS:
            value = counters.get(name, 0)
        else:
            entry = stats.get(span, {"calls": 0, "busy_ns": 0, "self_ns": 0})
            value = entry["calls"] if stat == "calls" else entry[SPAN_STATS[stat]] / 1e9
        out[name] = {"value": value, "unit": metric["unit"]}
    return out


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "borcherds_kit" / "__init__.py").is_file():
        fail(f"no borcherds_kit sources under {ROOT / 'src'}; run from a checkout")
    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        fail("BENCHMARK.json is missing")
    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        fail(f"unknown workload {args.workload!r}")
    OUT.mkdir(parents=True, exist_ok=True)

    meta = {"python": platform.python_version(), "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)), "loadavg_before": os.getloadavg(),
            "commit": commit(), "workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace}
    before = snapshot()
    call_worker(["warm"])
    keys = pass_keys(args.workload, args.seed)

    problems = []
    if args.trace:
        base = run_pass(args.workload, keys[0], args.seed, trace=False)
        traced = run_pass(args.workload, keys[0], args.seed, trace=True)
        passes = [base, traced]
        problems += traced["trace"]["problems"]
        metrics = layer_metrics(spec, base, traced, args.workload == "cli-cold")
    else:
        passes = []
        start = time.monotonic()
        while not passes or time.monotonic() - start < args.seconds:
            passes += [run_pass(args.workload, key, args.seed, trace=False, sample=True)
                       for key in keys]
        samples, scaled_samples, setup_problems = setup_samples(args.workload, passes)
        problems += setup_problems
        slowdown = kernel_mean_ns([op for p in passes for op in p["ops"]]) / speed.REFERENCE_NS
        # the passes of a cusp-expand round differ (one per chamber point), so
        # times are averaged over the passes rather than their median taken
        raw = {"wall_s": statistics.fmean(p["wall_s"] for p in passes),
               "cpu_s": statistics.fmean(p["cpu_s"] for p in passes),
               "setup_s": statistics.median(samples)}
        values = {"wall_s": statistics.fmean(at_reference_speed(p, "wall_s") for p in passes),
                  "cpu_s": statistics.fmean(at_reference_speed(p, "cpu_s") for p in passes),
                  "setup_s": statistics.median(scaled_samples),
                  "peak_rss_mb": max(p["peak_rss_mb"] for p in passes)}
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        metrics = {name: {"value": values[name], "unit": units[name]} for name in units}
        meta.update(setup_samples=samples, slowdown=slowdown, raw=raw)

    for p in passes:
        problems += p["problems"]
    after = snapshot()
    changed = sorted(k for k in before.keys() | after.keys() if before.get(k) != after.get(k))
    problems += [f"run changed {name}" for name in changed]
    meta["loadavg_after"] = os.getloadavg()

    ops = [op for p in passes for op in p["ops"]]
    attempted = len(ops)
    failed = sum(not op["ok"] for op in ops)
    correct = failed == 0 and not problems
    result = {"meta": meta, "correct": correct, "attempted": attempted, "failed": failed,
              "fail_ratio": failed / attempted, "problems": problems,
              "failures": [f"{op['name']}: {op['error']}" for op in ops if not op["ok"]],
              "passes": [{k: v for k, v in p.items() if k != "trace"} for p in passes],
              "metrics": metrics}
    if args.trace:
        result["trace"] = traced["trace"]
    out_file = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")

    for line in result["failures"] + problems:
        print(f"FAIL {line}")
    print(f"{args.workload}: {attempted} operations in {len(passes)} passes, "
          f"fail_ratio = {failed / attempted} ratio")
    for name, m in metrics.items():
        print(f"{args.workload} {name} = {m['value']} {m['unit']}")
    for name, value in meta.get("raw", {}).items():
        print(f"{args.workload} raw {name} = {value} s (slowdown {meta['slowdown']:.4f})")
    print(f"result file: {out_file.relative_to(ROOT)}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
