"""fieldcal benchmark: three CLI workloads, end-to-end and per-layer metrics.

Run from the root of a checkout:

    python3 bench/run.py --workload fit-storms --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 20   # one row each

Each run starts fresh single-threaded worker processes (``worker.py``):
several that only set up, for the set-up time, then one that sets up and
runs the workload's commands for ``--seconds``. With ``--trace 0`` the last
line of stdout is a JSON object with the end-to-end metrics; with
``--trace 1`` it holds the per-layer metrics of a traced run instead. The
lines before it record the environment, the generated inputs and a
human-readable row. See README.md in this directory.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent

WORKLOADS = ("fit-storms", "grid-footprint", "posterior-products")
# set-up-only processes per run; the measuring process adds one more sample
SETUP_REPEATS = 2
# a run must end within 180 s; leave room for the exit
DEADLINE_S = 170
SELF_SUM_TOLERANCE = 1e-9
SINGLE_THREAD = {v: "1" for v in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                  "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
                                  "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")}
ROW = (("setup_s", "s"), ("fit_s", "s"), ("fit_lp_gap", "nats"),
       ("predict_grid_s", "s"), ("validate_s", "s"), ("variogram_s", "s"),
       ("simulate_s", "s"), ("peak_rss_mb", "MB"), ("failed_ratio", "1"),
       ("command_cpu_s", "s"), ("reference_ms", "ms"), ("command_ref", "ref"))


class WorkerFailed(Exception):
    pass


def spawn(workload, seed, work, seconds, trace, deadline):
    """Run one worker process to completion; returns its JSON report."""
    t0 = time.monotonic()
    argv = [sys.executable, str(BENCH / "worker.py"), "--workload", workload,
            "--seed", str(seed), "--workdir", str(work), "--seconds", str(seconds),
            "--trace", str(trace), "--spawned-at", repr(t0)]
    with open(work / "worker.log", "a", encoding="utf-8") as log:
        try:
            proc = subprocess.run(argv, stdout=subprocess.PIPE, stderr=log, text=True,
                                  env={**os.environ, **SINGLE_THREAD},
                                  timeout=max(deadline - t0, 1.0))
        except subprocess.TimeoutExpired:
            raise WorkerFailed(f"worker timed out; see {work / 'worker.log'}") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = (work / "worker.log").read_text(encoding="utf-8")[-2000:]
        raise WorkerFailed(f"worker exited with {proc.returncode}:\n{tail}")
    return json.loads(lines[-1])


def run_workload(workload, seed, seconds, trace):
    deadline = time.monotonic() + DEADLINE_S
    work = ROOT / ".bench_work" / workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    reports = [spawn(workload, seed, work, 0, 0, deadline) for _ in range(SETUP_REPEATS)]
    rep = spawn(workload, seed, work, seconds, trace, deadline)
    reports.append(rep)

    problems = list(rep["errors"])
    hashes = {r["inputs"]["hash"] for r in reports}
    if len(hashes) != 1:
        problems.append(f"one seed gave different inputs: {sorted(hashes)}")
    if trace and rep["layers"]["trace.self_sum_rel_err"][0] > SELF_SUM_TOLERANCE:
        problems.append("span self times do not add up to the command durations")

    untraced = [p for p in rep["passes"] if not p["traced"]]
    row = {"setup_s": statistics.median(r["setup_s"] for r in reports),
           "peak_rss_mb": rep["peak_rss_mb"],
           "failed_ratio": rep["failed"] / rep["attempted"],
           "command_cpu_s": statistics.median(sum(p["cpu"].values()) for p in untraced),
           "reference_ms": 1e3 * statistics.median(rep["reference"])}
    row["command_ref"] = row["command_cpu_s"] / (row["reference_ms"] / 1e3)
    for name in untraced[0]["wall"]:
        row[f"{name}_s"] = statistics.median(p["wall"][name] for p in untraced)
    if "fit_lp_gap" in rep["quality"]:
        row["fit_lp_gap"] = rep["quality"]["fit_lp_gap"]

    if trace:
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in rep["layers"].items()}
    else:
        metrics = {name: {"value": row[name], "unit": unit}
                   for name, unit in (("setup_s", "s"), ("command_ref", "ref"),
                                      ("peak_rss_mb", "MB"))}
    result = {"correct": not problems, "attempted": rep["attempted"],
              "failed": rep["failed"], "metrics": metrics}
    info = {"env": rep["env"], "inputs": rep["inputs"],
            "setup_wall_s": [r["setup_wall_s"] for r in reports],
            "passes": {"untraced": len(untraced),
                       "traced": len(rep["passes"]) - len(untraced)},
            "quality": rep["quality"], **rep.get("trace_notes", {})}
    return row, result, info, problems


def format_row(workload, row):
    cells = [f"{workload:<18}"]
    for name, unit in ROW:
        v = row.get(name)
        cells.append(f"{name}={'-' if v is None else f'{v:.4g}'} {unit}")
    return " | ".join(cells)


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    if not (ROOT / "src" / "fieldcal" / "cli.py").is_file():
        print(f"bench: no fieldcal sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    rows = []
    for workload in names:
        try:
            row, result, info, problems = run_workload(workload, args.seed, args.seconds,
                                                       args.trace)
        except WorkerFailed as exc:
            print(f"bench: {workload}: {exc}", file=sys.stderr)
            return 1
        for problem in problems:
            print(f"bench: {workload}: {problem}", file=sys.stderr)
        print("info " + json.dumps(info))
        if args.trace:
            for k, m in result["metrics"].items():
                print(f"layer {k} = {m['value']:.6g} {m['unit']}")
        rows.append(format_row(workload, row))
    print("\n".join(rows))
    if args.workload != "all":
        print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
