"""End-to-end benchmark of the ambiuq CLI.

Run from the repository root:

    python3 bench/run.py --workload corpus-gt --seed 1 --seconds 40 --trace 0

One run generates the workload's inputs from ``--seed`` (``workloads.py``),
then runs jobs for ``--seconds``. A job is the workload's command sequence,
each command a fresh ``python -m ambiuq.cli`` process, one at a time: a
closed loop with one client. A small launcher (``launch.py``) runs each job;
each process is timed from spawn to exit and its peak RSS and CPU time come
from ``os.wait4``. The fixed reference computation (``reference.py``) is
timed in this process between consecutive jobs;
``wall_rel`` is the median over jobs of the job's wall time over the mean of
the reference times around it. Before every second job, a fresh
interpreter importing ``ambiuq.cli`` is timed for ``setup_s``. The outputs
are checked against the benchmark's own recomputation (``checks.py``)
outside the timed region, and their SHA-256 digests must be identical across
jobs, across the traced runs and across runs at one seed.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` spends half the
window on untraced jobs and then makes two traced in-process runs
(``tracer.py``) for the per-layer metrics; their exact counts must agree.

Human-readable lines come first; the last line of stdout is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``. ``attempted``
counts CLI commands; a command fails when it exits non-zero, when an output
check on its files fails or when its digests differ.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
import traceback

import numpy as np

import checks
import reference
import workloads

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
BENCH = os.path.dirname(os.path.abspath(__file__))
LAUNCHER = os.path.join(BENCH, "launch.py")
WORK_ROOT = os.path.join(BENCH, "_work")
LEDGER = os.path.join(WORK_ROOT, "digests.json")
MIN_JOBS = 3
SETUP_EVERY = 2  # one import probe before every second job
TRACED_RUNS = 2
LAYERS = ("cli", "corpus", "formats", "estimators", "dist", "dirichlet",
          "simlab", "metrics", "bounds")
COMMAND_METRICS = ("build-gt", "eval", "simulate", "metrics", "bounds")
IMPORT_PROBE = [sys.executable, "-c",
                "import ambiuq.cli, sys; sys.stdout.write(ambiuq.cli.__file__)"]
# counts that must repeat exactly across traced runs
EXACT_COUNTS = ("porter.stem_calls", "dirichlet.expected_calls", "cli.filter_calls",
                "cli.stderr_lines", "metrics.concordance_calls", "corpus.postings")


def job_env() -> dict:
    """The user's environment with the checkout's sources first on the
    path and AMBIUQ_WORKERS removed, so the single-threaded path runs."""
    env = dict(os.environ)
    env.pop("AMBIUQ_WORKERS", None)
    env["PYTHONPATH"] = SRC
    return env


def spawn(argv, env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL):
    """Run one process to exit; (wall seconds, exit code, rusage)."""
    start = time.perf_counter()
    proc = subprocess.Popen(argv, env=env, stdout=stdout, stderr=stderr)
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, proc.returncode, usage


def check_import(env) -> None:
    """Exit unless a fresh interpreter imports ambiuq.cli from SRC. This
    first import also compiles the byte code, which users pay only once."""
    found = subprocess.run(IMPORT_PROBE, env=env, capture_output=True, text=True)
    expected = os.path.join(SRC, "ambiuq", "cli.py")
    if found.returncode != 0 or os.path.realpath(found.stdout) != os.path.realpath(expected):
        raise SystemExit(f"bench: cannot import ambiuq.cli from {SRC}: {found.stderr.strip()}")


def sha256(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def digests(plan) -> dict:
    """SHA-256 of every output file; None for one a failed command left out."""
    return {path: sha256(path) if os.path.exists(path) else None
            for cmd in plan["commands"] for path in cmd["outputs"]}


def run_job(plan, plan_path: str, env) -> dict:
    """One job, run and timed by launch.py (which says why)."""
    if os.path.exists("job.json"):
        os.remove("job.json")
    _, rc, _ = spawn([sys.executable, LAUNCHER, plan_path, "job.json"], env, stderr=None)
    if rc != 0 or not os.path.exists("job.json"):
        raise SystemExit(f"bench: the job launcher failed with exit code {rc}")
    with open("job.json", "r", encoding="utf-8") as fh:
        job = json.load(fh)
    job["digests"] = digests(plan)
    return job


def run_jobs(plan, plan_path: str, env, window: float) -> tuple:
    """Jobs until the window is spent, with the reference computation timed
    between consecutive jobs and a timed import probe before every
    SETUP_EVERY-th job, so that set-up time is sampled across the window
    like the jobs are while most of the window goes to jobs. A job's
    ``ref`` is the mean of the reference times right before and after it."""
    jobs, setup, refs, start = [], [], [reference.timed()], time.perf_counter()
    while True:
        if len(jobs) % SETUP_EVERY == 0:
            setup.append(spawn(IMPORT_PROBE, env)[0])
        jobs.append(run_job(plan, plan_path, env))
        refs.append(reference.timed())
        jobs[-1]["ref"] = (refs[-2] + refs[-1]) / 2
        elapsed = time.perf_counter() - start
        typical = (statistics.median(j["wall"] + j["ref"] for j in jobs)
                   + statistics.median(setup) / SETUP_EVERY)
        if len(jobs) >= MIN_JOBS and elapsed + typical > window:
            return jobs, setup


def run_traced(plan, plan_path: str, env, index: int) -> dict:
    out = f"trace{index}.json"
    argv = [sys.executable, os.path.join(BENCH, "tracer.py"), plan_path, out,
            f"spans{index}.jsonl", str(index)]
    _, rc, _ = spawn(argv, env, stderr=None)
    if rc != 0 or not os.path.exists(out):
        return {"ok": False}
    with open(out, "r", encoding="utf-8") as fh:
        result = json.load(fh)
    result["ok"] = all(code == 0 for code in result["rc"].values())
    result["digests"] = digests(plan)
    return result


def layer_metrics(traced: list, jobs: list, setup_s: float, plan) -> dict:
    """Per-layer numbers: the mean of the traced runs for times, the traced
    counts (checked equal across runs), and untraced job medians for CPU
    time and per-command wall time."""
    def total(name):
        return statistics.fmean(t["names"].get(name, {}).get("total", 0.0) for t in traced)

    def self_time(name):
        return statistics.fmean(t["names"].get(name, {}).get("self", 0.0) for t in traced)

    def calls(*names):
        return sum(traced[0]["names"].get(n, {}).get("calls", 0) for n in names)

    def count(name):
        return traced[0]["counts"].get(name, 0)

    def ratio(num, den):
        return num / den if den else 0.0

    names = set().union(*(t["names"] for t in traced))
    parse = [n for n in names if n.startswith("formats.parse_")]
    bounds = [n for n in names if n.startswith("bounds.")]
    stem_calls = count("porter.stem_calls")
    filter_calls = count("cli.filter_calls")
    wall = statistics.fmean(t["wall"] for t in traced)
    untraced = statistics.median(j["wall"] for j in jobs)
    n_cmds = len(plan["commands"])

    m = {
        "porter.stem_calls": stem_calls,
        "porter.distinct_words": count("porter.distinct_words"),
        "porter.distinct_ratio": ratio(count("porter.distinct_words"), stem_calls),
        "corpus.chunk_s": total("corpus.chunk_corpus"),
        "corpus.index_s": total("corpus.build_index"),
        "corpus.count_s": self_time("corpus.build_ground_truth"),
        "corpus.chunks": count("corpus.chunks"),
        "corpus.tokens": count("corpus.tokens"),
        "corpus.postings": count("corpus.postings"),
        "corpus.matches_raw": count("corpus.matches_raw"),
        "corpus.matches_kept": count("corpus.matches_kept"),
        "corpus.discarded": count("corpus.discarded"),
        "cli.filter_calls": filter_calls,
        "cli.filter_wait_s": total("cli.filter"),
        "cli.filter_accept_ratio": ratio(count("cli.filter_accepted"), filter_calls),
        "cli.stderr_lines": count("cli.stderr_lines"),
        "cli.cpu_s": statistics.median(j["cpu"] for j in jobs),
        "formats.read_s": total("formats.read_jsonl"),
        "formats.parse_s": sum(total(n) for n in parse),
        "formats.write_s": total("formats.write_jsonl") + total("formats.write_csv"),
        "formats.bytes_read": count("formats.bytes_read"),
        "formats.bytes_written": count("formats.bytes_written"),
        "formats.lines_skipped": count("formats.lines_skipped"),
        "estimators.cluster_s": total("estimators.cluster"),
        "estimators.align_s": total("estimators.align") + total("estimators.align_ensemble"),
        "estimators.mi_s": total("estimators.mutual_information"),
        "estimators.imputed_classes": count("estimators.imputed_classes"),
        "estimators.msp_disabled": count("estimators.msp_disabled"),
        "estimators.mi_disabled": count("estimators.mi_disabled"),
        "dist.decompose_s": total("dist.decompose"),
        "dist.decompose_calls": calls("dist.decompose"),
        "dirichlet.expected_s": total("dirichlet.expected_epistemic"),
        "dirichlet.expected_calls": count("dirichlet.expected_calls"),
        "simlab.experiment_s": self_time("simlab.run_experiment"),
        "simlab.ablation_s": self_time("simlab.gamma_ablation"),
        "simlab.records": count("simlab.records"),
        "metrics.concordance_s": total("metrics.concordance"),
        "metrics.concordance_calls": count("metrics.concordance_calls"),
        "metrics.aucroc_s": total("metrics.aucroc"),
        "metrics.aucroc_calls": calls("metrics.aucroc"),
        "metrics.summarize_s": total("metrics.summarize"),
        "bounds.s": sum(self_time(n) for n in bounds),
        "bounds.calls": calls(*bounds),
    }
    for layer in LAYERS:
        m[f"self.{layer}_s"] = statistics.fmean(t["layers"].get(layer, 0.0) for t in traced)
    m["self.other_s"] = wall - sum(m[f"self.{layer}_s"] for layer in LAYERS)
    m["trace.wall_s"] = wall
    # untraced jobs pay interpreter start-up once per command, traced runs
    # import once before timing starts
    m["trace.overhead_s"] = wall - (untraced - n_cmds * setup_s)
    for name in COMMAND_METRICS:
        walls = [j["cmd_wall"][name] for j in jobs if name in j["cmd_wall"]]
        m[f"cmd.{name.replace('-', '_')}_s"] = statistics.median(walls) if walls else 0.0
    m["bench.jobs"] = len(jobs)
    m["job.wall_s"] = untraced
    m["job.items_per_s"] = statistics.median(plan["items"] / j["wall"] for j in jobs)
    m["job.ref_s"] = statistics.median(j["ref"] for j in jobs)
    return m


def machine_block(seed: int, env) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", "r", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "seed": seed,
        "env": {key: env.get(key, "unset") for key in (
            "PYTHONPATH", "AMBIUQ_WORKERS", "PYTHONHASHSEED", "PYTHONDONTWRITEBYTECODE",
            "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def check_ledger(key: str, observed: dict) -> list:
    """Output digests recorded by an earlier run at the same seed must match."""
    ledger = {}
    if os.path.exists(LEDGER):
        with open(LEDGER, "r", encoding="utf-8") as fh:
            ledger = json.load(fh)
    previous = ledger.setdefault(key, observed)
    with open(LEDGER, "w", encoding="utf-8") as fh:
        json.dump(ledger, fh, indent=1, sort_keys=True)
    return [path for path, digest in observed.items() if previous.get(path) != digest]


def declared_metrics(trace: bool) -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def output_checks(plan, jobs, ledger_key: str) -> list:
    """The checks on the first job's files, plus digest equality across
    jobs and across runs; each result names the commands it implicates."""
    try:
        results = checks.run(plan)
    except Exception:  # an output the checks cannot read fails them all
        traceback.print_exc()
        results = [{"commands": [c["name"] for c in plan["commands"]],
                    "check": "output checks ran", "ok": False,
                    "detail": traceback.format_exc(limit=1).strip().splitlines()[-1]}]
    reference = jobs[0]["digests"]
    stray = [i for i, j in enumerate(jobs) if j["digests"] != reference]
    results.append({"commands": [], "check": "digests equal across jobs",
                    "ok": not stray, "detail": f"jobs differing: {stray}"})
    small = [i for i, j in enumerate(jobs) if j["rss_kb"] <= j["launcher_rss_kb"]]
    results.append({"commands": [], "check": "peak RSS is the CLI's, above the launcher's",
                    "ok": not small, "detail": f"jobs at or below the launcher: {small}"})
    moved = check_ledger(ledger_key, reference)
    results.append({"commands": [c["name"] for c in plan["commands"]
                                 if set(c["outputs"]) & set(moved)],
                    "check": "digests equal across runs at this seed",
                    "ok": not moved, "detail": f"files differing: {moved}"})
    return results


def count_failures(plan, jobs, results) -> tuple:
    """(attempted, failed) commands over the untraced jobs."""
    reference = jobs[0]["digests"]
    implicated = {c for r in results if not r["ok"] for c in r["commands"]}
    attempted = failed = 0
    for job in jobs:
        changed = {p for p, d in job["digests"].items() if d != reference[p]}
        for cmd in plan["commands"]:
            attempted += 1
            failed += (job["rc"][cmd["name"]] != 0 or cmd["name"] in implicated
                       or bool(changed & set(cmd["outputs"])))
    return attempted, failed


def input_digest() -> str:
    digest = hashlib.sha256()
    for name in sorted(os.listdir("in")):
        digest.update(f"{name}:{sha256(os.path.join('in', name))}".encode())
    return digest.hexdigest()[:16]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "ambiuq", "cli.py")):
        print(f"bench: no ambiuq sources under {SRC}; run from the repository root",
              file=sys.stderr)
        return 2
    declared = declared_metrics(bool(args.trace))
    env = job_env()
    check_import(env)

    work = os.path.join(WORK_ROOT, args.workload)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    os.chdir(work)

    def run_untimed(cli_args):
        cmd = [sys.executable, "-m", "ambiuq.cli", *cli_args]
        subprocess.run(cmd, env=env, check=True, stdout=subprocess.DEVNULL)

    plan = workloads.prepare(args.workload, args.seed, run_untimed)
    plan_path = os.path.join(work, "plan.json")
    with open(plan_path, "w", encoding="utf-8") as fh:
        json.dump(plan, fh, indent=1)

    jobs, setup = run_jobs(plan, plan_path, env,
                           args.seconds / 2 if args.trace else args.seconds)
    setup_s = statistics.median(setup)

    # everything below is outside the timed region
    sys.path.insert(0, SRC)
    results = output_checks(plan, jobs, f"{args.workload}:{args.seed}:{input_digest()}")
    attempted, failed = count_failures(plan, jobs, results)
    walls = [j["wall"] for j in jobs]
    if args.trace:
        traced = []
        for index in range(TRACED_RUNS):
            run = run_traced(plan, plan_path, env, index)
            ok = run["ok"] and run["digests"] == jobs[0]["digests"]
            results.append({"commands": [], "check": f"traced run {index} matches untraced outputs",
                            "ok": ok, "detail": ""})
            attempted += len(plan["commands"])
            failed += 0 if ok else len(plan["commands"])
            traced += [run] if run["ok"] else []
        differ = [n for n in EXACT_COUNTS if len({t["counts"].get(n, 0) for t in traced}) != 1]
        repeat = len(traced) == TRACED_RUNS and not differ
        results.append({"commands": [], "check": "exact counts repeat across traced runs",
                        "ok": repeat, "detail": f"differing: {differ}"})
        failed += 0 if repeat else len(plan["commands"])
        if not traced:
            print("bench: no traced run completed", file=sys.stderr)
            return 1
        overlap = [t["wall"] - sum(t["layers"].values()) for t in traced]
        results.append({"commands": [], "check": "layer self times fit in the traced wall time",
                        "ok": min(overlap) > -1e-6, "detail": f"other_s per run: {overlap}"})
        metrics = layer_metrics(traced, jobs, setup_s, plan)
        metrics["error_rate"] = failed / attempted
    else:
        metrics = {
            # each job over the reference timed around it, so the host's drift cancels
            "wall_rel": statistics.median(j["wall"] / j["ref"] for j in jobs),
            "peak_rss_mb": statistics.median(j["rss_kb"] for j in jobs) / 1024.0,
            "setup_s": setup_s,
        }

    machine = machine_block(args.seed, env)
    print(f"machine: {json.dumps(machine, sort_keys=True)}")
    print(f"workload: {args.workload}, {plan['items']} {plan['item_unit']} per job, "
          f"{len(jobs)} jobs of {[c['name'] for c in plan['commands']]}")
    print(f"wall_s per job: {[round(w, 4) for w in walls]}")
    print(f"reference s around each job: {[round(j['ref'], 4) for j in jobs]}")
    print(f"setup_s per import: {[round(s, 4) for s in setup]}")
    for r in results:
        status = "ok" if r["ok"] else f"FAIL {r['detail']}"
        print(f"check {','.join(r['commands']) or '*'}: {r['check']}: {status}")
    print(f"error_rate = {failed}/{attempted} commands")

    out = {}
    for name, unit in declared.items():
        value = float(metrics[name])
        if not math.isfinite(value):
            print(f"bench: metric {name} is not finite", file=sys.stderr)
            return 1
        print(f"{name} = {value:.6g} {unit}")
        out[name] = {"value": value, "unit": unit}
    with open(os.path.join(work, "report.json"), "w", encoding="utf-8") as fh:
        json.dump({"machine": machine, "checks": results, "jobs": jobs,
                   "metrics": out}, fh, indent=1)
    correct = failed == 0 and all(r["ok"] for r in results)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": out}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
