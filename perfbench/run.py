#!/usr/bin/env python3
"""Benchmark entry point: build, then run one workload for one seed.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the repository root.  Builds the harness, its yardstick and
rdfqa from source with dune into .bench_build/, runs perfbench/bench.exe
(which starts and stops the yardstick and any server itself) in
.bench_work/, and prints its report: human lines, then, as the last
line, one JSON object with the keys correct, attempted, failed and
metrics.  Exits non-zero, without a result line, if the build or the run
fails.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys

WORKLOADS = ["lubm-plan", "dblp-exec", "lubm-serve", "lubm-views-rw"]
BUILD_DIR = ".bench_build"
WORK_DIR = ".bench_work"
BUILD_TIMEOUT_S = 700
RUN_TIMEOUT_S = 170


def die(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def environment():
    """The caller's environment minus the system's own tuning switches, and
    with dune's shared cache off so the build stays inside the checkout."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("RDFQA_")}
    env["DUNE_CACHE"] = "disabled"
    return env


def one_cpu():
    """Confines the calling process, and so everything it starts, to the
    last CPU it may use.  The harness, the yardstick and the server then
    share one CPU: a served round trip does not wait for a second virtual
    CPU to be woken, which on a loaded host slowed lubm-serve by 40% while
    the single-threaded workloads slowed by 15%."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def run_group(cmd, timeout, env, capture, preexec=None):
    """Runs cmd in its own process group; on timeout the whole group dies."""
    proc = subprocess.Popen(
        cmd,
        env=env,
        stdout=subprocess.PIPE if capture else sys.stderr,
        stderr=sys.stderr,
        text=True,
        start_new_session=True,
        preexec_fn=preexec,
    )
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        die("%s timed out after %d s" % (cmd[0], timeout))
    return proc.returncode, out


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    if not os.path.isfile("dune-project") or not os.path.isdir("lib"):
        die("run from the repository root (no dune-project or lib/ here)")
    if shutil.which("dune") is None:
        die("dune not found")
    env = environment()

    harness = os.path.join(BUILD_DIR, "default", "perfbench", "bench.exe")
    rdfqa = os.path.join(BUILD_DIR, "default", "bin", "rdfqa.exe")
    rc, _ = run_group(
        ["dune", "build", "--root", ".", "--build-dir", BUILD_DIR,
         "./perfbench/bench.exe", "./perfbench/yardstick.exe", "./bin/rdfqa.exe"],
        BUILD_TIMEOUT_S, env, capture=False)
    if rc != 0:
        die("build failed")

    workdir = os.path.join(WORK_DIR, args.workload)
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    try:
        rc, out = run_group(
            [harness, "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace),
             "--rdfqa", rdfqa, "--workdir", workdir],
            RUN_TIMEOUT_S, env, capture=True, preexec=one_cpu)
    finally:
        shutil.rmtree(WORK_DIR, ignore_errors=True)
    lines = out.rstrip("\n").split("\n") if out else []
    if rc != 0 or not lines:
        sys.stderr.write(out or "")
        die("harness exited with code %d" % rc)
    try:
        result = json.loads(lines[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
    except (ValueError, AssertionError):
        sys.stderr.write(out)
        die("harness printed no result line")
    sys.stdout.write(out)
    sys.stdout.flush()


if __name__ == "__main__":
    main()
