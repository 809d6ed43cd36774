#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

    python3 perfbench/run.py --workload <eager_stream|nas_w|ckpt_ladder> \
        --seed <n> --seconds <s> --trace <0|1>

Run it from the repository root. The build goes to $CARGO_TARGET_DIR
(default: .bench_build in the current directory). The program sees none of
the environment variables that would change what the library computes or
prints; with --trace 1 its spans go to
<target dir>/perfbench-trace/<workload>-seed<n>.jsonl. The last line of
standard output is the JSON result; without the repository's library
crates next to this directory the build fails and nothing is printed.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))

# Variables the library crates read; none may reach the program.
AMBIENT = ("IBFLOW_", "LU_FLOPS_PER_CELL", "MG_DEBUG", "IBFABRIC_TRACE_RNR")

# A run measures for at most 60 s after a warm-up pass of at most ~10 s;
# anything still running after this is stuck.
TIMEOUT_S = 170


def flag(args, name):
    """The value after `name` in `args`, or None."""
    for i, a in enumerate(args[:-1]):
        if a == name:
            return args[i + 1]
    return None


def main():
    args = sys.argv[1:]
    env = {k: v for k, v in os.environ.items() if not k.startswith(AMBIENT)}
    target = os.path.abspath(env.get("CARGO_TARGET_DIR") or ".bench_build")
    env["CARGO_TARGET_DIR"] = target

    manifest = os.path.join(HERE, "Cargo.toml")
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest],
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1

    if flag(args, "--trace") == "1":
        name = "%s-seed%s.jsonl" % (flag(args, "--workload"), flag(args, "--seed"))
        args += ["--trace-out", os.path.join(target, "perfbench-trace", name)]
    proc = subprocess.Popen([os.path.join(target, "release", "perfbench")] + args, env=env)
    try:
        return proc.wait(timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print("perfbench: killed after %d s" % TIMEOUT_S, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
