#!/usr/bin/env python3
"""Build the release `act` and `table5` binaries and the benchmark, then run
one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Build output goes to stderr, so the last
line of standard output is the benchmark's JSON result. Builds land in
$CARGO_TARGET_DIR (default `.bench_build`). The benchmark and every daemon
it starts run in their own process group, which is killed if the run
outlives its time limit.
"""

import os
import signal
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN_LIMIT_S = 170


def main():
    env = dict(os.environ)
    target = env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    target = os.path.join(ROOT, target)
    builds = [
        ["cargo", "build", "--release", "--offline", "--quiet", "--bin", "act", "--bin", "table5"],
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join("perfbench", "Cargo.toml")],
    ]
    for cmd in builds:
        if subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr).returncode != 0:
            print("perfbench: build failed: " + " ".join(cmd), file=sys.stderr)
            return 2
    bench = os.path.join(target, "release", "perfbench")
    act = os.path.join(target, "release", "act")
    cmd = [bench, *sys.argv[1:], "--act", act]
    proc = subprocess.Popen(cmd, cwd=ROOT, start_new_session=True)
    try:
        return proc.wait(timeout=RUN_LIMIT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        print(f"perfbench: run exceeded {RUN_LIMIT_S}s and was killed", file=sys.stderr)
        return 3
    finally:
        # Daemons share the benchmark's process group; none may outlive it.
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass


if __name__ == "__main__":
    sys.exit(main())
