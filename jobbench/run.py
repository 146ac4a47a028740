#!/usr/bin/env python3
"""End-to-end job benchmark for the dmpc solver.

Run from the repository root:

    python3 jobbench/run.py --workload mis_gnm_text --seed 1 --seconds 20 --trace 0

It builds jobbench/ (the dmpc library plus the jobbench binary) in Release
mode and generates the workload's inputs from --seed (set-up). Then it runs
the user's job -- open the input, solve with dmpc::Solver under
certify=answer, serialize the report -- in a fresh process per job, one at a
time, until --seconds have been measured. Every solution is re-checked with
the independent graph validators, and each input's solution digest and MPC
model output must be identical across every job of the run.

--trace 0 reports the end-to-end metrics (medians over the run's jobs).
--trace 1 adds traced jobs (obs::TraceSession + Solver::metrics_snapshot)
and reports the per-layer metrics. README.md lists every metric.

The last stdout line is one JSON object:
    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)

# name -> (solver threads, algorithm Theorem-1 dispatch should pick)
WORKLOADS = {
    "mis_gnm_text": (1, "sparsification"),
    "matching_powerlaw_mmap": (4, "sparsification"),
    "mis_lowdeg_regular": (4, "lowdeg"),
}

# An untraced run solves INSTANCES inputs, each generated from its own seed
# derived from --seed, and averages over them: how long a job takes depends
# on the instance (on matching_powerlaw_mmap, rounds and time move together
# by ~10% between seeds), so one input per run would measure the instance,
# not the code. The traced pass uses instance 0 only.
INSTANCES = 3
MIN_SETUPS = 3           # set-ups per run, at least
SETUP_SECONDS = 2.0      # keep setting up until this much set-up was timed
MAX_SETUPS = 15
JOB_TIMEOUT_S = 120
RUN_BUDGET_S = 170       # a run (build excluded) must end well within 180 s

END_TO_END_UNITS = {
    "job_s": "s",
    "solve_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
    "model_rounds": "rounds",
    "comm_words": "words",
    "peak_load_words": "words",
}

MODEL_KEYS = ("model_rounds", "comm_words", "peak_load_words", "digest")


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def fail_setup(msg):
    log("jobbench: " + msg)
    sys.exit(2)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(ROOT, base, "jobbench")


def build():
    """Configure once, then let the build tool rebuild what changed."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail_setup("dmpc sources (src/) not found next to jobbench/; "
                   "run from a full checkout")
    out = build_dir()
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", BENCH_DIR, "-B", out,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(["cmake", "--build", out, "-j", jobs],
                   check=True, stdout=sys.stderr)
    return os.path.join(out, "jobbench")


def run_binary(binary, args, deadline):
    """Run one jobbench process; return its last-line JSON or None."""
    timeout = max(1.0, min(JOB_TIMEOUT_S, deadline - time.monotonic()))
    try:
        proc = subprocess.run([binary] + args, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        log("jobbench: %s timed out" % " ".join(args[:3]))
        return None
    if proc.returncode != 0:
        log(proc.stderr.strip())
        return None
    return json.loads(proc.stdout.strip().splitlines()[-1])


def provenance():
    """Commit, source digest, machine and build type of this run."""
    try:
        sha = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        commit = sha.stdout.strip() if sha.returncode == 0 else None
    except (OSError, subprocess.TimeoutExpired):
        commit = None
    digest = hashlib.sha256()
    for top in ("src", "jobbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    build_type = "unknown"
    with open(os.path.join(build_dir(), "CMakeCache.txt")) as f:
        for line in f:
            if line.startswith("CMAKE_BUILD_TYPE:"):
                build_type = line.split("=", 1)[1].strip()
    return {
        "commit": commit or "unknown (not a git checkout)",
        "source_sha256": digest.hexdigest()[:16],
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "build_type": build_type,
    }


def median(values):
    return statistics.median(values) if values else 0.0


def instance_seed(seed, instance):
    return seed * INSTANCES + instance


def set_up(binary, workload, seed, instances, data_dir, deadline):
    """Set up every instance, in rounds, until enough set-up was timed.

    Repeats regenerate identical files (same seed, same inputs). Returns the
    per-set-up rows."""
    rows = []
    spent = 0.0
    while len(rows) < MIN_SETUPS or (spent < SETUP_SECONDS
                                     and len(rows) < MAX_SETUPS):
        for i in instances:
            row = run_binary(binary, [
                "setup", "--workload", workload,
                "--seed", str(instance_seed(seed, i)),
                "--dir", os.path.join(data_dir, str(i))], deadline)
            if row is None:
                fail_setup("set-up of %s failed" % workload)
            row["instance"] = i
            rows.append(row)
            spent += row["setup_s"]
    return rows


class Jobs:
    """Runs jobs and keeps the correctness and determinism ledger."""

    def __init__(self, binary, workload, data_dir, deadline):
        self.binary = binary
        self.workload = workload
        self.data_dir = data_dir
        self.deadline = deadline
        self.attempted = 0
        self.failed = 0
        self.model = {}  # instance -> model output of its first job
        self.mismatch = []

    def run(self, instance, threads, traced):
        self.attempted += 1
        row = run_binary(self.binary, [
            "job", "--workload", self.workload,
            "--dir", os.path.join(self.data_dir, str(instance)),
            "--threads", str(threads), "--trace", "1" if traced else "0"],
            self.deadline)
        if row is None or not row["valid"] or not row["certified"] \
                or row["claims_failed"] != 0:
            self.failed += 1
            log("jobbench: job failed: %s" % json.dumps(row))
            return None
        row["instance"] = instance
        model = {k: row[k] for k in MODEL_KEYS}
        first = self.model.setdefault(instance, model)
        if model != first:
            self.mismatch.append(model)
            log("jobbench: determinism guard: instance %d: %s != %s" % (
                instance, model, first))
        return row


def end_to_end(setups, rows, models):
    """Timings and memory: the median over all jobs of the run. Model
    output: exact per instance; the median over the instances."""
    metrics = {key: median([r[key] for r in rows])
               for key in ("job_s", "solve_s", "peak_rss_mb")}
    metrics["setup_s"] = median([s["setup_s"] for s in setups])
    for key in MODEL_KEYS[:3]:
        metrics[key] = median([m[key] for m in models.values()])
    return {k: {"value": metrics[k], "unit": unit}
            for k, unit in END_TO_END_UNITS.items()}


def span(row, name, field):
    return row["spans"].get(name, {}).get(field, 0.0)


def reg(row, name):
    return row["registry"].get(name, 0)


def layer_row(row, setup, threads):
    """Per-layer metrics of one traced job, as (value, unit) pairs."""
    text = "jobbench/read_edge_list_file" in row["spans"]
    read_s = span(row, "jobbench/read_edge_list_file", "wall_s")
    input_mb = setup["input_bytes"] / 2**20
    pipeline_s = sum(v["wall_s"] for k, v in row["spans"].items()
                     if k.endswith("/pipeline"))
    roots = sum(v["wall_s"] for k, v in row["spans"].items()
                if k.startswith("jobbench/"))
    pool_tasks = reg(row, "exec/pool_tasks")
    derand_alloc = sum(reg(row, "host/derand/%s/alloc_bytes" % scope)
                       for scope in ("seed_search", "selection", "ce_sweep"))
    m = {
        "graph.read_edge_list_s": (read_s, "s"),
        "graph.input_mb": (input_mb if text else 0.0, "MiB"),
        "graph.parse_mb_per_s": (input_mb / read_s if text and read_s else
                                 0.0, "MiB/s"),
        "mpc.open_storage_s": (span(row, "jobbench/open_storage", "wall_s"),
                               "s"),
        "mpc.shards_verified": (reg(row, "storage/shards_verified"), "count"),
        "mpc.bytes_mapped": (reg(row, "storage/bytes_mapped"), "bytes"),
        "sparsify.node_seed_s": (span(row, "mis_sparsify/seed", "wall_s"),
                                 "s"),
        "sparsify.node_stage_self_s": (
            span(row, "mis_sparsify/stage", "self_s"), "s"),
        "sparsify.edge_seed_s": (span(row, "sparsify/seed", "wall_s"), "s"),
        "sparsify.edge_stage_self_s": (span(row, "sparsify/stage", "self_s"),
                                       "s"),
        "sparsify.edge_stages": (span(row, "sparsify/stage", "count"),
                                 "count"),
        "derand.seed_search_s": (
            reg(row, "host/derand/seed_search/wall_ns") * 1e-9, "s"),
        "derand.selection_s": (
            reg(row, "host/derand/selection/wall_ns") * 1e-9, "s"),
        "derand.batch_eval_s": (
            reg(row, "host/derand/batch_eval/wall_ns") * 1e-9, "s"),
        "derand.searches": (reg(row, "derand/searches"), "count"),
        "derand.candidate_seeds": (reg(row, "derand/candidate_seeds"),
                                   "count"),
        "derand.batch_calls": (reg(row, "derand/batch_calls"), "count"),
        "derand.lanes_used": (reg(row, "derand/lanes_used"), "count"),
        "derand.alloc_mb": (derand_alloc / 2**20, "MiB"),
        "exec.pool_tasks": (pool_tasks, "count"),
        "exec.steals": (reg(row, "exec/steals"), "count"),
        "exec.steal_ratio": (reg(row, "exec/steals") / pool_tasks
                             if pool_tasks else 0.0, "ratio"),
        "exec.task_cpu_s": (reg(row, "exec/task_cpu_ns") * 1e-9, "s"),
        "exec.imbalance_max_tasks": (reg(row, "exec/imbalance_max_tasks"),
                                     "count"),
        "exec.task_alloc_mb": (reg(row, "exec/task_alloc_bytes") / 2**20,
                               "MiB"),
        "api.solve_cpu_s": (row["solve_cpu_s"], "s"),
        "api.parallel_efficiency": (
            row["solve_cpu_s"] / (row["solve_s"] * threads), "ratio"),
        "api.report_json_s": (row["report_json_s"], "s"),
        "api.outside_pipeline_s": (row["solve_s"] - pipeline_s, "s"),
        "verify.certify_s": (span(row, "verify/certify", "wall_s"), "s"),
        "obs.unattributed_s": (row["job_s"] - roots, "s"),
    }
    for algo in ("mis", "matching"):
        for name, span_name in (("good_nodes", "phase/good_nodes"),
                                ("gather", "phase/gather"),
                                ("selection", "selection"),
                                ("commit", "phase/commit")):
            m["%s.%s_self_s" % (algo, name)] = (
                span(row, "%s/%s" % (algo, span_name), "self_s"), "s")
    for name in ("coloring", "gather"):
        m["lowdeg.%s_self_s" % name] = (
            span(row, "lowdeg/phase/%s" % name, "self_s"), "s")
    m["lowdeg.stage_self_s"] = (span(row, "lowdeg/stage", "self_s"), "s")
    return m


def per_layer(setups, plain, traced, t1, threads):
    """Medians over the traced jobs (set-up layers: over the set-ups).

    Returns the metrics and, for each ratio, the base it was taken over."""
    rows = [layer_row(r, setups[-1], threads) for r in traced]
    metrics = {name: {"value": median([r[name][0] for r in rows]),
                      "unit": unit} for name, (_, unit) in rows[0].items()}
    for key in ("generate_s", "write_edge_list_s"):
        metrics["graph." + key] = {
            "value": median([s[key] for s in setups]), "unit": "s"}
    metrics["mpc.shard_build_s"] = {
        "value": median([s["shard_build_s"] for s in setups]), "unit": "s"}
    plain_solve = median([r["solve_s"] for r in plain])
    t1_solve = median([r["solve_s"] for r in t1]) if t1 else plain_solve
    metrics["api.speedup_vs_t1"] = {"value": t1_solve / plain_solve,
                                    "unit": "ratio"}
    plain_job = median([r["job_s"] for r in plain])
    traced_job = median([r["job_s"] for r in traced])
    metrics["obs.trace_overhead_s"] = {"value": traced_job - plain_job,
                                       "unit": "s"}
    traced_solve = median([r["solve_s"] for r in traced])
    bases = {
        "exec.steal_ratio": "exec.steals / exec.pool_tasks",
        "api.parallel_efficiency": "api.solve_cpu_s / (solve %.6g s x %d "
                                   "threads)" % (traced_solve, threads),
        "api.speedup_vs_t1": "untraced solve %.6g s at threads=1 / %.6g s "
                             "at threads=%d" % (t1_solve, plain_solve,
                                                threads),
        "graph.parse_mb_per_s": "graph.input_mb / graph.read_edge_list_s",
        "obs.trace_overhead_s": "traced job %.6g s - untraced job %.6g s" % (
            traced_job, plain_job),
    }
    return dict(sorted(metrics.items())), bases


def role_checks(workload, metrics):
    """What the traced pass should show about each workload's role."""
    value = lambda name: metrics[name]["value"]
    return {
        "sparsify.node_seed_s>0": (value("sparsify.node_seed_s") > 0) ==
        (workload == "mis_gnm_text"),
        "sparsify.edge_stages>0": (value("sparsify.edge_stages") > 0) ==
        (workload == "matching_powerlaw_mmap"),
        "derand.batch_calls==0": (value("derand.batch_calls") == 0) ==
        (workload == "mis_lowdeg_regular"),
        "exec.pool_tasks==0": (value("exec.pool_tasks") == 0) ==
        (workload == "mis_gnm_text"),
    }


def print_table(metrics, bases):
    for name, m in metrics.items():
        value = m["value"]
        shown = ("%d" % value if float(value).is_integer() else
                 "%.6g" % value)
        base = "  (%s)" % bases[name] if name in bases else ""
        print("  %-30s %14s %-7s%s" % (name, shown, m["unit"], base))


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    binary = build()
    deadline = time.monotonic() + RUN_BUDGET_S
    threads, algorithm = WORKLOADS[args.workload]
    prov = provenance()
    print("jobbench %s seed=%d seconds=%g trace=%d | commit %s | src %s | "
          "nproc %d | %s | %s build" % (
              args.workload, args.seed, args.seconds, args.trace,
              prov["commit"], prov["source_sha256"], prov["nproc"],
              prov["cpu"], prov["build_type"]))
    if threads > prov["nproc"]:
        fail_setup("%s needs %d threads, only %d CPUs online" % (
            args.workload, threads, prov["nproc"]))

    data_dir = os.path.join(build_dir(), "data", args.workload)
    shutil.rmtree(data_dir, ignore_errors=True)
    instances = range(INSTANCES) if args.trace == 0 else range(1)
    setups = set_up(binary, args.workload, args.seed, instances, data_dir,
                    deadline)

    jobs = Jobs(binary, args.workload, data_dir, deadline)
    plain, traced, t1 = [], [], []
    measure_start = time.monotonic()

    def measuring():
        return time.monotonic() - measure_start < args.seconds

    # Round-robin over the instances until --seconds are measured and each
    # instance ran once. In the traced pass untraced and traced jobs
    # alternate so the trace overhead compares like with like; one
    # threads=1 job gives the speedup base.
    ok = True
    while ok and (len(plain) < len(instances) or measuring()):
        i = instances[len(plain) % len(instances)]
        row = jobs.run(i, threads, traced=False)
        ok = row is not None
        plain.append(row)
        if ok and args.trace == 1:
            row = jobs.run(i, threads, traced=True)
            ok = row is not None
            traced.append(row)
    if ok and args.trace == 1 and threads > 1:
        t1.append(jobs.run(0, 1, traced=False))
    plain, traced, t1 = ([r for r in rows if r is not None]
                         for rows in (plain, traced, t1))
    shutil.rmtree(data_dir, ignore_errors=True)

    complete = bool(plain) and (args.trace == 0 or bool(traced))
    correct = complete and jobs.failed == 0 and not jobs.mismatch
    metrics, bases = {}, {}
    if complete:
        if args.trace == 0:
            metrics = end_to_end(setups, plain, jobs.model)
        else:
            metrics, bases = per_layer(setups, plain, traced, t1, threads)
        algorithms = {r["algorithm"] for r in plain + traced + t1}
        for i, model in sorted(jobs.model.items()):
            setup = next(s for s in setups if s["instance"] == i)
            print("instance %d (seed %d): n %d, m %d, max_degree %d, "
                  "%d input bytes; digest %s, %s" % (
                      i, instance_seed(args.seed, i), setup["n"], setup["m"],
                      setup["max_degree"], setup["input_bytes"],
                      model["digest"], ", ".join(
                          "%s %d" % (k, model[k]) for k in MODEL_KEYS[:3])))
        print("algorithm %s (expected %s)" % ("/".join(sorted(algorithms)),
                                              algorithm))
        print("%d jobs, %d set-ups, %.1f s measured" % (
            jobs.attempted, len(setups), time.monotonic() - measure_start))
        for i in instances:
            print("instance %d job_s samples: %s" % (i, " ".join(
                "%.3f" % r["job_s"] for r in plain if r["instance"] == i)))
        print_table(metrics, bases)
        if args.trace == 1:
            for check, held in role_checks(args.workload, metrics).items():
                print("  role %-26s %s" % (check,
                                           "ok" if held else "UNEXPECTED"))
    if jobs.mismatch:
        print("determinism guard FAILED: %d job(s) differ from the first" %
              len(jobs.mismatch))
    print(json.dumps({"correct": correct, "attempted": jobs.attempted,
                      "failed": jobs.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
