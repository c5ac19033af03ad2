"""One fresh interpreter of a benchmark run.  Started by run.py, never by hand.

    worker.py warm
        import everything once, so later processes find compiled bytecode
    worker.py setup WORKLOAD [--sample]
        interpreter start, import and the workload's loads, then exit
    worker.py pass WORKLOAD KEY [--sample | --trace --spans FILE]
        set-up, then every operation of one pass, timed and checked; with
        --sample the core's speed is sampled throughout (speed.py)
    worker.py cli-job JOB_ID --spans FILE -- ARGV...
        one traced CLI invocation through cli.main(ARGV)

Each mode prints one JSON object as its last line of standard output.
Because each process starts empty, the library's module caches start empty,
as they do for a real caller; the worker asserts that before any work.
"""

import contextlib
import io as _io
import json
import os
import resource
import subprocess
import sys
import time
from pathlib import Path

import speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

CACHES = (("io", "_LATTICE_CACHE"), ("lattice", "_THETA_CACHE"),
          ("lattice", "_REP_COUNT_CACHE"))


def import_library():
    """Import borcherds_kit from this checkout; problems found on the way."""
    import importlib
    problems = []
    package = importlib.import_module("borcherds_kit")
    expected = ROOT / "src" / "borcherds_kit"
    if Path(package.__file__).resolve().parent != expected:
        problems.append(f"borcherds_kit imported from {package.__file__}, not {expected}")
    for module, name in CACHES:
        cache = getattr(importlib.import_module(f"borcherds_kit.{module}"), name)
        if cache:
            problems.append(f"{module}.{name} holds {len(cache)} entries at start")
    return problems


def cpu_seconds():
    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + children.ru_utime + children.ru_stime


def peak_rss_mb():
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def finish(result):
    sys.stdout.write(json.dumps(result) + "\n")
    sys.stdout.flush()


def run_cli_plain(job_id, argv, speed_file=None):
    """Run `python -m borcherds_kit.cli ARGV`; its stdout.

    With `speed_file`, the job samples its core's speed (cli_site/) and the
    samples join this process's speed.samples.
    """
    env = None
    if speed_file:
        env = dict(os.environ, PERFBENCH_SPEED_FILE=str(speed_file),
                   PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(HERE / "cli_site")]))
    proc = subprocess.run([sys.executable, "-m", "borcherds_kit.cli", *argv],
                          cwd=ROOT, env=env, capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"exit status {proc.returncode}: {proc.stderr.strip()}")
    if speed_file:
        speed.load(speed_file)
        os.unlink(speed_file)
    return proc.stdout


class TracedCli:
    """Runs each CLI job traced in its own interpreter and sums the traces."""

    def __init__(self, spans_prefix):
        self.spans_prefix = spans_prefix
        self.parts = []

    def __call__(self, job_id, argv):
        spans = f"{self.spans_prefix}-{job_id}.jsonl"
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), "cli-job", job_id,
             "--spans", spans, "--", *argv],
            cwd=ROOT, capture_output=True, text=True, check=False)
        if proc.returncode != 0 or not proc.stdout.strip():
            raise RuntimeError(f"traced job failed: {proc.stderr.strip()[-500:]}")
        reply = json.loads(proc.stdout.strip().splitlines()[-1])
        self.parts.append(reply["trace"])
        if reply["status"] != 0:
            raise RuntimeError(f"exit status {reply['status']}")
        return reply["stdout"]


def run_ops(ops, ctx, paused=contextlib.nullcontext):
    """Run each operation, timed, then check it with tracing paused.

    Returns one record per operation.  Any exception in the run or the check
    marks the operation failed; the pass goes on with the next one.
    """
    records = []
    for op in ops:
        record = {"name": op.name, "ok": False, "error": None}
        m0 = time.monotonic_ns()
        cpu0, t0 = cpu_seconds(), time.perf_counter_ns()
        try:
            value = op.run(ctx)
        except Exception as exc:  # an operation that raises counts as failed
            value, record["error"] = None, f"run: {type(exc).__name__}: {exc}"
        t1 = time.perf_counter_ns()
        record.update(start_ns=t0, end_ns=t1, wall_s=(t1 - t0) / 1e9,
                      cpu_s=cpu_seconds() - cpu0)
        kernels = speed.between(m0, time.monotonic_ns())
        record.update(samples=len(kernels), sampled_s=sum(kernels) / 1e9)
        if record["error"] is None:
            try:
                with paused():
                    op.check(ctx, value)
                record["ok"] = True
            except Exception as exc:
                record["error"] = f"check: {type(exc).__name__}: {exc}"
        records.append(record)
    return records


def merge_traces(parts):
    """Sum per-process trace summaries (maxima merge as maxima)."""
    total = {"stats": {}, "counters": {}, "maxima": {}, "top_ns": 0,
             "problems": [], "spans": 0}
    for part in parts:
        for name, entry in part["stats"].items():
            slot = total["stats"].setdefault(name, {"calls": 0, "busy_ns": 0, "self_ns": 0})
            for k in slot:
                slot[k] += entry[k]
        for name, value in part["counters"].items():
            total["counters"][name] = total["counters"].get(name, 0) + value
        for name, value in part["maxima"].items():
            total["maxima"][name] = max(total["maxima"].get(name, value), value)
        total["top_ns"] += part["top_ns"]
        total["problems"] += part["problems"]
        total["spans"] += part["spans"]
    return total


def mode_pass(workload_name, key, trace, spans_path, sample):
    started_ns = time.monotonic_ns()
    if sample and workload_name != "cli-cold":
        speed.start()
    problems = import_library()
    tracer = None
    if trace and workload_name != "cli-cold":
        import spans
        tracer = spans.install(spans.Tracer())
    import workloads  # after install(), so its borcherds_kit names are wrapped
    workload = workloads.WORKLOADS[workload_name]
    ctx = {}
    workload.setup(ctx)
    setup_end_ns = time.monotonic_ns()
    setup_kernel_ns = speed.kernel_ns(started_ns, setup_end_ns)
    if workload_name == "cli-cold":
        speed_file = HERE / "out" / f"speed-{os.getpid()}.json"
        ctx["run_cli"] = (TracedCli(spans_path) if trace else
                          lambda job_id, argv: run_cli_plain(job_id, argv,
                                                             speed_file if sample else None))
    records = run_ops(workload.ops(key), ctx,
                      tracer.paused if tracer else contextlib.nullcontext)
    speed.stop()
    result = {"setup_end_ns": setup_end_ns, "setup_kernel_ns": setup_kernel_ns,
              "wall_s": sum(r["wall_s"] for r in records),
              "cpu_s": sum(r["cpu_s"] for r in records),
              "peak_rss_mb": peak_rss_mb(), "ops": records, "problems": problems}
    if tracer is not None:
        window = (records[0]["start_ns"], records[-1]["end_ns"])
        result["trace"] = tracer.summary(window)
        tracer.write(f"{spans_path}.jsonl")
    elif trace:
        result["trace"] = merge_traces(ctx["run_cli"].parts)
    finish(result)


def mode_cli_job(job_id, spans_path, argv):
    problems = import_library()
    import spans
    tracer = spans.install(spans.Tracer())
    from borcherds_kit import cli
    out = _io.StringIO()
    t0 = time.perf_counter_ns()
    with contextlib.redirect_stdout(out):
        status = cli.main(argv)
    t1 = time.perf_counter_ns()
    summary = tracer.summary((t0, t1))
    summary["problems"] += problems
    tracer.write(spans_path)
    finish({"job": job_id, "status": status, "stdout": out.getvalue(), "trace": summary})


def mode_setup(workload_name, sample):
    started_ns = time.monotonic_ns()
    if sample:
        speed.start()
    problems = import_library()
    import workloads
    workloads.WORKLOADS[workload_name].setup({})
    setup_end_ns = time.monotonic_ns()
    setup_kernel_ns = speed.kernel_ns(started_ns, setup_end_ns)
    speed.stop()
    finish({"setup_end_ns": setup_end_ns, "setup_kernel_ns": setup_kernel_ns,
            "problems": problems})


def mode_warm():
    import_library()
    import borcherds_kit.cli  # noqa: F401
    import spans  # noqa: F401
    import workloads  # noqa: F401
    finish({})


def main(argv):
    mode = argv[0]
    if mode == "warm":
        mode_warm()
    elif mode == "setup":
        mode_setup(argv[1], "--sample" in argv)
    elif mode == "pass":
        trace = "--trace" in argv
        spans_path = argv[argv.index("--spans") + 1] if "--spans" in argv else None
        mode_pass(argv[1], argv[2], trace, spans_path, "--sample" in argv)
    elif mode == "cli-job":
        split = argv.index("--")
        mode_cli_job(argv[1], argv[argv.index("--spans") + 1], argv[split + 1:])
    else:
        raise SystemExit(f"unknown mode {mode!r}")


if __name__ == "__main__":
    os.chdir(ROOT)
    main(sys.argv[1:])
