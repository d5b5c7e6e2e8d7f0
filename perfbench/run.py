#!/usr/bin/env python3
"""Builds the campaign benchmark and the `goofi` CLI from source, then makes
one benchmark run.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run it from the root of the repository. Build output goes to
$CARGO_TARGET_DIR (default `.bench_build`); each run works in
`.bench_work/<workload>/`. The last line of standard output is the result
as one JSON object.
"""

import os
import subprocess
import sys


def main():
    here = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(here)
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)

    def build(manifest, *extra):
        cmd = ["cargo", "build", "--release", "--offline", "--quiet",
               "--manifest-path", manifest, *extra]
        # Keep stdout for the result: compiler output goes to stderr.
        done = subprocess.run(cmd, env=env, stdout=sys.stderr)
        if done.returncode != 0:
            sys.exit(f"run.py: building {manifest} failed")

    build(os.path.join(here, "Cargo.toml"))
    # The service workload's untraced runs spawn the release `goofi worker`.
    build(os.path.join(root, "Cargo.toml"), "--bin", "goofi")
    bench = os.path.join(target, "release", "perfbench")
    goofi = os.path.join(target, "release", "goofi")
    done = subprocess.run([bench, *sys.argv[1:], "--goofi", goofi], env=env)
    sys.exit(done.returncode)


if __name__ == "__main__":
    main()
