#!/usr/bin/env python3
"""Build and run the mtfpu benchmark.

    python3 perfbench/run.py --workload figures --seed 1 --seconds 10 --trace 0

Run from the root of a checkout. The first run configures and builds a
Release copy of the simulator, its mtfpu-workerd worker and the
perfbench binary under .bench_build/ (or $CARGO_TARGET_DIR when set);
later runs only rebuild what changed. Build output goes to
.bench_build/perfbench/build.log and to standard error, so standard
output carries only the benchmark's report, whose last line is the
JSON result. Each run works in its own directory under
.bench_build/perfbench-run/, where a traced run (--trace 1) leaves its
Chrome trace-event JSON.

Exit status: perfbench's own (0 = every check passed), or 2 when the
build fails or perfbench dies without a result.
"""

import argparse
import ctypes
import json
import os
import shutil
import signal
import subprocess
import sys
import threading
import time

WORKLOADS = ("figures", "sweep_cold", "sweep_warm")
RUN_TIMEOUT_S = 170
PR_SET_CHILD_SUBREAPER = 36


def build(bench_dir, build_dir):
    """Configure (once) and build; returns the perfbench path or None."""
    os.makedirs(build_dir, exist_ok=True)
    log_path = os.path.join(build_dir, "build.log")
    jobs = str(min(os.cpu_count() or 1, 4))
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", bench_dir, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", jobs,
                  "--target", "perfbench"])
    with open(log_path, "w") as log:
        for step in steps:
            if subprocess.call(step, stdout=log, stderr=subprocess.STDOUT) != 0:
                log.flush()
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                sys.stderr.write("run.py: build failed: %s\n" % " ".join(step))
                return None
    return os.path.join(build_dir, "perfbench")


def stop_group(proc):
    """Kill whatever is left of perfbench's process group and wait."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        return
    deadline = time.monotonic() + 10
    while time.monotonic() < deadline:
        proc.poll()  # reap perfbench, the group's leader
        try:  # and, as their subreaper, its orphaned workers
            while os.waitpid(-1, os.WNOHANG)[0] > 0:
                pass
        except ChildProcessError:
            pass
        try:
            os.killpg(proc.pid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    # Adopt perfbench's orphans, so that stop_group() can reap every
    # process of a run even when perfbench dies before its workers.
    try:
        ctypes.CDLL(None, use_errno=True).prctl(PR_SET_CHILD_SUBREAPER, 1)
    except (OSError, AttributeError):
        pass

    bench_dir = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(bench_dir)
    out_root = os.path.join(root, os.environ.get("CARGO_TARGET_DIR",
                                                 ".bench_build"))
    binary = build(bench_dir, os.path.join(out_root, "perfbench"))
    if binary is None:
        return 2

    work = os.path.join(out_root, "perfbench-run", "%s-seed%d-trace%d" %
                        (args.workload, args.seed, args.trace))
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    proc = subprocess.Popen(cmd, cwd=work, stdout=subprocess.PIPE,
                            text=True, start_new_session=True)
    # Being stopped, or perfbench overrunning, takes the whole group
    # down: perfbench's daemon forks worker processes.
    def terminate(signum, _frame):
        stop_group(proc)
        sys.exit(128 + signum)

    signal.signal(signal.SIGTERM, terminate)
    signal.signal(signal.SIGINT, terminate)
    overran = threading.Event()
    watchdog = threading.Timer(
        RUN_TIMEOUT_S, lambda: (overran.set(), stop_group(proc)))
    watchdog.daemon = True
    watchdog.start()
    last = None
    for line in proc.stdout:
        if last is not None:
            sys.stdout.write(last)
        last = line
    code = proc.wait()
    watchdog.cancel()
    stop_group(proc)
    shutil.rmtree(os.path.join(work, "cache"), ignore_errors=True)
    if overran.is_set():
        sys.stderr.write("run.py: perfbench overran %d s\n" % RUN_TIMEOUT_S)
        return 2

    try:
        result = json.loads(last or "")
        valid = set(result) == {"correct", "attempted", "failed", "metrics"}
    except ValueError:
        valid = False
    if not valid:
        if last:
            sys.stdout.write(last)
        sys.stderr.write("run.py: perfbench exited %d without a result\n" %
                         code)
        return 2
    sys.stdout.write(last)
    sys.stdout.flush()
    return code


if __name__ == "__main__":
    sys.exit(main())
