#!/usr/bin/env python3
"""Run the repository benchmark from the root of a checkout.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the benchmark and the facade_cli daemon with dune, runs one
measurement, and checks that the metrics it printed are exactly the ones
BENCHMARK.json declares for the mode (end-to-end with --trace 0, per-layer
with --trace 1), with the declared units. The benchmark's report is passed
through; its last line is the result. On any failure this exits non-zero
without printing a result. Traces, logs and result files are written to
.perfbench_run/ in the checkout.
"""

import argparse
import json
import os
import signal
import subprocess
import sys
import time

OUT_DIR = ".perfbench_run"
BUILD_TIMEOUT = 850  # a fresh checkout compiles every library first
RUN_TIMEOUT = 170
TARGETS = ["./perfbench/bench.exe", "./perfbench/hostref.exe", "./bin/facade_cli.exe"]


def die(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def stop_group(pgid):
    """Kill whatever is left of the benchmark's process group (the bench and
    any daemon it started) and wait until none of it remains."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return
    deadline = time.time() + 10
    while time.time() < deadline:
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)
    die("processes of the benchmark did not exit")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    a = ap.parse_args()

    if not os.path.isfile("dune-project"):
        die("run from the root of a checkout of the repository")
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    if a.workload not in [w["name"] for w in spec["workloads"]]:
        die("unknown workload " + a.workload)
    declared = {m["name"]: m["unit"] for m in spec["per_layer" if a.trace else "end_to_end"]}

    os.makedirs(os.path.join(OUT_DIR, "tmp"), exist_ok=True)
    env = dict(os.environ)
    # Keep the compiler's and dune's scratch files inside the checkout.
    env["TMPDIR"] = os.path.abspath(os.path.join(OUT_DIR, "tmp"))
    env["DUNE_CACHE"] = "disabled"
    env["XDG_CACHE_HOME"] = env["TMPDIR"]
    try:
        build = subprocess.run(
            ["dune", "build", "--root", ".", "--display", "quiet"] + TARGETS,
            env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
            timeout=BUILD_TIMEOUT)
    except (OSError, subprocess.TimeoutExpired) as e:
        die("build failed: %s" % e)
    if build.returncode != 0:
        sys.stderr.write(build.stdout.decode(errors="replace"))
        die("build failed")

    cmd = [
        "_build/default/perfbench/bench.exe",
        "--workload", a.workload, "--seed", str(a.seed),
        "--seconds", str(a.seconds), "--trace", str(a.trace),
        "--clk-tck", str(os.sysconf("SC_CLK_TCK")), "--out-dir", OUT_DIR,
        "--daemon", "_build/default/bin/facade_cli.exe",
        "--hostref", "_build/default/perfbench/hostref.exe",
    ]
    # The vm-* workloads run one job at a time. Pinning the benchmark, and
    # with it the host speed reference process it starts, to one CPU makes
    # the reference time the CPU the jobs run on. serve-open's daemon and
    # load generator keep every CPU.
    pin = None
    if a.workload.startswith("vm-"):
        cpu = max(os.sched_getaffinity(0))
        pin = lambda: os.sched_setaffinity(0, {cpu})
    proc = subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE, start_new_session=True,
                            preexec_fn=pin)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT)
    except subprocess.TimeoutExpired:
        stop_group(proc.pid)
        proc.wait()
        die("benchmark did not finish within %d s" % RUN_TIMEOUT)
    stop_group(proc.pid)
    lines = out.decode(errors="replace").rstrip("\n").split("\n")
    if proc.returncode != 0:
        sys.stderr.write("\n".join(lines) + "\n")
        die("benchmark exited with code %d" % proc.returncode)

    try:
        result = json.loads(lines[-1])
    except ValueError:
        die("last line is not a JSON result")
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        die("result keys are %s" % sorted(result))
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != declared:
        die("metrics printed differ from BENCHMARK.json: %s"
            % sorted(set(got.items()) ^ set(declared.items())))
    sys.stdout.write("\n".join(lines) + "\n")


if __name__ == "__main__":
    main()
