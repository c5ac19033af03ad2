"""Write the golden outputs the benchmark compares against, byte for byte.

    PYTHONPATH=src python3 perfbench/capture_golden.py

Run from the root of a checkout whose outputs are known to be right (every
exact oracle in workloads.py passes on them).  Writes perfbench/golden/:
the stdout of each cli-cold job, and the body of every rank-10 expansion of
the chamber-point fixture and of the KNZ expansion.  A change that alters
any of these outputs must say why and capture them again.
"""

import sys

import workloads
from fixtures import CHAMBER_POINTS
from worker import run_cli_plain


def main():
    workloads.GOLDEN_DIR.mkdir(exist_ok=True)

    def write(name, text):
        (workloads.GOLDEN_DIR / name).write_text(text, encoding="utf-8")
        print(f"wrote golden/{name}", file=sys.stderr)

    for job_id, argv in workloads.CLI_JOBS:
        write(f"cli-{job_id}.txt", run_cli_plain(job_id, argv))

    ctx = {}
    workloads.cusp_setup(ctx)
    for point in CHAMBER_POINTS:
        ops = {op.name: op for op in workloads.cusp_ops(point["name"])}
        ops["cusp-data"].run(ctx)
        ops[f"chamber-{point['name']}"].run(ctx)
        for cutoff in point["cutoffs"]:
            pe = ops[f"expand-{point['name']}-{cutoff}"].run(ctx)
            write(f"body-{point['name']}-{cutoff}.txt", workloads.body_text(pe))
    pe = ops["expand-knz"].run(ctx)
    write(f"body-knz-{workloads.KNZ_CUTOFF}.txt", workloads.body_text(pe))


if __name__ == "__main__":
    main()
