#!/usr/bin/env python3
"""Build the benchmark binary from source, then run it.

Usage (from the repository root):

    python3 _perfbench/run.py --workload paper-tables --seed 1 --seconds 30 --trace 0

Every build and run artifact stays under .bench_build/ at the repository
root: the Go build and module caches, the binary, per-run scratch
directories, and the traced run's span file and CPU profile. The exit code
is the benchmark's; a failed build exits 1 without printing a result.
"""

import os
import subprocess
import sys


def main():
    here = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(here)
    build = os.path.join(root, ".bench_build")
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(build, "gocache"),
        "GOMODCACHE": os.path.join(build, "gomodcache"),
        "GOPATH": os.path.join(build, "gopath"),
        "GOTMPDIR": os.path.join(build, "tmp"),
        "TMPDIR": os.path.join(build, "tmp"),
        "XDG_CACHE_HOME": os.path.join(build, "xdg-cache"),
        "XDG_CONFIG_HOME": os.path.join(build, "xdg-config"),
        "GOENV": "off",
        "GOFLAGS": "",
        "GOPROXY": "off",
        "GOTOOLCHAIN": "local",
    })
    os.makedirs(env["TMPDIR"], exist_ok=True)
    binary = os.path.join(build, "perfbench")
    built = subprocess.run(["go", "build", "-o", binary, "."], cwd=here, env=env)
    if built.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    args = [binary, "--workdir", os.path.join(build, "run"),
            "--outdir", os.path.join(build, "trace")] + sys.argv[1:]
    proc = subprocess.Popen(args, cwd=root, env=env)
    try:
        return proc.wait()
    except BaseException:
        proc.kill()
        proc.wait()
        raise


if __name__ == "__main__":
    sys.exit(main())
