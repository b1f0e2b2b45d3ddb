#!/usr/bin/env python3
"""Build and run the simulator benchmark.

    python3 simbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Configures and builds simbench/ (a CMake package that compiles the
simulator sources in ../src in Release) into the build directory named
by CARGO_TARGET_DIR, default .bench_build, then runs the simbench binary
from the checkout root with the same arguments. Build output goes to
stderr, so the last line of stdout is the benchmark's JSON result.
Traced runs also write their spans to
<build dir>/spans/<workload>-seed<N>.tsv.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "simbench"


def fail(msg):
    print(f"simbench: {msg}", file=sys.stderr)
    sys.exit(2)


def build_dir():
    d = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    return d if d.is_absolute() else ROOT / d


def build(out):
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail("simulator sources (src/) not found next to simbench/; "
             "run from a full checkout")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (out / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(BENCH), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(out), "--target", "simbench",
                  "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, cwd=ROOT).returncode:
            fail("build failed: " + " ".join(cmd))
    return out / "simbench"


def main(argv):
    out = build_dir() / "simbench"
    binary = build(out)
    args = list(argv)
    if "--trace" in args and args[args.index("--trace") + 1:][:1] == ["1"]:
        spans = build_dir() / "spans"
        spans.mkdir(parents=True, exist_ok=True)
        name = args[args.index("--workload") + 1] if "--workload" in args \
            else "run"
        seed = args[args.index("--seed") + 1] if "--seed" in args else "0"
        args += ["--spans-out", str(spans / f"{name}-seed{seed}.tsv")]
    sys.stdout.flush()
    return subprocess.run([str(binary)] + args, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
