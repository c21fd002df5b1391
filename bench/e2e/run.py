#!/usr/bin/env python3
"""Entry point of the end-to-end benchmark.

Run one workload (one process), from the repository root:

    python3 bench/e2e/run.py --workload twitter-16leaf --seed 1 \\
        --seconds 35 --trace 0

The first run configures and builds bench/e2e (the mrscan library from
src/ plus the mrscan_e2e driver) into .bench_build/ at the repository
root; later runs only rebuild what changed. The driver's last line of
standard output is the JSON result. Exit status: 0 when every check
passed, 1 on a correctness miss or a build failure, 2 on a usage or
environment error.

Record the expected output and count digests for some seeds (after a
change that alters the output on purpose):

    python3 bench/e2e/run.py --record twitter-16leaf 1 2 3

README.md in this directory documents the workloads and metrics.
"""

import fcntl
import os
import shutil
import signal
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
BUILD = ROOT / ".bench_build"
CMAKE_DIR = BUILD / "cmake"
WORK_DIR = BUILD / "work"
BINARY = CMAKE_DIR / "mrscan_e2e"
EXPECTED = HERE / "expected.txt"
# A run ends well inside this; a stuck one is killed and reported.
RUN_TIMEOUT_S = 170


def fail(message, code):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(code)


def build():
    log_path = BUILD / "build.log"
    jobs = str(min(4, os.cpu_count() or 1))
    with open(log_path, "w") as log:
        steps = []
        if not (CMAKE_DIR / "CMakeCache.txt").is_file():
            configure = ["cmake", "-S", str(HERE), "-B", str(CMAKE_DIR)]
            if shutil.which("ninja"):
                configure += ["-G", "Ninja"]
            steps.append(configure)
        steps.append(["cmake", "--build", str(CMAKE_DIR), "--target",
                      "mrscan_e2e", "-j", jobs])
        for step in steps:
            if subprocess.run(step, stdout=log,
                              stderr=subprocess.STDOUT).returncode != 0:
                tail = log_path.read_text().splitlines()[-20:]
                print("\n".join(tail), file=sys.stderr)
                fail(f"build failed; full log in {log_path}", 1)


def run_driver(args):
    command = [str(BINARY), *args, "--work-dir", str(WORK_DIR),
               "--expected", str(EXPECTED)]
    try:
        return subprocess.run(command, timeout=RUN_TIMEOUT_S,
                              stdout=subprocess.PIPE, text=True)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s and was killed", 1)


def table_text(header, entries):
    ordered = sorted(entries.items(), key=lambda kv: (kv[0][0], int(kv[0][1])))
    return "\n".join(header + [line for _, line in ordered]) + "\n"


def record(workload, seeds):
    lines = EXPECTED.read_text().splitlines() if EXPECTED.is_file() else []
    header = [l for l in lines if l.startswith("#")]
    entries = {tuple(l.split()[:2]): l for l in lines
               if l.strip() and not l.startswith("#")}
    for seed in seeds:
        # Clear the recorded line first so the driver does not check it.
        entries.pop((workload, seed), None)
        EXPECTED.write_text(table_text(header, entries))
        result = run_driver(["--workload", workload, "--seed", seed,
                             "--seconds", "1", "--trace", "0"])
        if result.returncode != 0:
            fail(f"{workload} seed {seed} failed its checks; not recorded",
                 1)
        line = next(l for l in result.stdout.splitlines()
                    if l.startswith("expected "))
        entries[(workload, seed)] = line[len("expected "):]
        print(entries[(workload, seed)])
    EXPECTED.write_text(table_text(header, entries))


def main(argv):
    # subprocess.run kills and reaps its child when an exception unwinds
    # through it; turn SIGTERM into one so no driver outlives this script.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"mrscan sources not found under {ROOT / 'src'}", 2)
    BUILD.mkdir(parents=True, exist_ok=True)
    # Runs share .bench_build/work: one at a time.
    lock = open(BUILD / "lock", "w")
    fcntl.flock(lock, fcntl.LOCK_EX)
    build()
    if argv[:1] == ["--record"]:
        if len(argv) < 3:
            fail("usage: run.py --record WORKLOAD SEED...", 2)
        record(argv[1], argv[2:])
        return 0
    result = run_driver(argv)
    sys.stdout.write(result.stdout)
    sys.stdout.flush()
    return result.returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
