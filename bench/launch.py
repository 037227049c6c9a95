"""Run one job of a plan and write how each command went as JSON.

    python3 launch.py PLAN.json RESULT.json

Each command of the plan runs as ``python -m ambiuq.cli ARGS``, one at a
time, with stdout discarded and stderr written to ``<name>.stderr``. Its
wall time runs from spawn to exit; its peak RSS and CPU time come from
``os.wait4``, which folds in the children it reaped, such as the filter.

The benchmark process spawns this launcher instead of the CLI because Linux
carries the spawning process's peak RSS through ``exec`` into the child's
``ru_maxrss``: a CLI spawned straight from the benchmark, which holds numpy
and the generated inputs, would report the benchmark's memory, not its own.
This launcher stays far smaller than any CLI command, so the figures are the
CLI's. Stdlib only, and nothing imported that the launcher does not need.
"""

import json
import os
import subprocess
import sys
import time


def main() -> None:
    plan_path, result_path = sys.argv[1:]
    with open(plan_path, "r", encoding="utf-8") as fh:
        commands = json.load(fh)["commands"]
    job = {"cmd_wall": {}, "rss_kb": 0, "cpu": 0.0, "rc": {}}
    start = time.perf_counter()
    for cmd in commands:
        with open(f"{cmd['name']}.stderr", "wb") as err:
            began = time.perf_counter()
            proc = subprocess.Popen([sys.executable, "-m", "ambiuq.cli", *cmd["args"]],
                                    stdout=subprocess.DEVNULL, stderr=err)
            _, status, usage = os.wait4(proc.pid, 0)
            job["cmd_wall"][cmd["name"]] = time.perf_counter() - began
        job["rc"][cmd["name"]] = os.waitstatus_to_exitcode(status)
        job["rss_kb"] = max(job["rss_kb"], usage.ru_maxrss)
        job["cpu"] += usage.ru_utime + usage.ru_stime
    job["wall"] = time.perf_counter() - start
    with open("/proc/self/status", "r", encoding="utf-8") as fh:
        # this process's own high-water mark, which its children start from
        job["launcher_rss_kb"] = next(int(line.split()[1]) for line in fh
                                      if line.startswith("VmHWM:"))
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(job, fh)


if __name__ == "__main__":
    main()
