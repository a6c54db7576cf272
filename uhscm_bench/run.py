#!/usr/bin/env python3
"""Builds the repo benchmark from source and runs one workload.

    python3 uhscm_bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The build goes to $CARGO_TARGET_DIR (default
.bench_build) under the current directory; the last line of standard output
is the JSON result of the run. `--self-test` builds and runs the helper
tests instead.
"""
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
RUN_TIMEOUT_S = 170


def build(build_dir, targets):
    configure = ["cmake", "-S", HERE, "-B", build_dir,
                 "-DCMAKE_BUILD_TYPE=Release"]
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(configure, check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", build_dir, "-j4", "--target"] + targets,
                   check=True, stdout=sys.stderr)


def main(argv):
    build_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(os.path.abspath(build_root), "uhscm_bench")
    self_test = "--self-test" in argv
    try:
        build(build_dir, ["uhscm_bench_test"] if self_test else ["uhscm_bench"])
    except (subprocess.CalledProcessError, OSError) as err:
        print(f"build failed: {err}", file=sys.stderr)
        return 1
    if self_test:
        return subprocess.run([os.path.join(build_dir, "uhscm_bench_test")]).returncode
    out_dir = os.path.join(os.path.abspath(build_root), "uhscm_bench_out")
    cmd = [os.path.join(build_dir, "uhscm_bench")] + argv + ["--out-dir", out_dir]
    # A SIGTERM becomes SystemExit, so the finally clause still stops and
    # reaps the benchmark process.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    proc = subprocess.Popen(cmd)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("benchmark timed out", file=sys.stderr)
        return 1
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
