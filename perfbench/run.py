#!/usr/bin/env python3
"""Build and run the repository benchmark.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload sweep-exact --seed 1 --seconds 55 --trace 0

The Go program in this directory is built from the checkout's sources
into .bench_build/ (Go's build cache, temporary files and config
included, so nothing is written outside the checkout), then run with
the same arguments. Its last line of standard output is the result
object; every run record and span file lands under
.bench_build/perfbench/. The exit status is the program's: non-zero,
with no result printed, if the build fails or an output check fails.
"""

import argparse
import os
import signal
import subprocess
import sys

# A run must finish well inside the three minutes a caller allows it.
RUN_TIMEOUT_S = 170


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    help="sweep-exact | serve-mixed | all")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=55)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    here = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(here)
    if not (os.path.isfile(os.path.join(root, "go.mod"))
            and os.path.isdir(os.path.join(root, "internal"))):
        sys.exit("perfbench: %s holds no watchdog sources to build" % root)

    build = os.path.join(root, ".bench_build")
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(build, "go-cache"),
        "GOPATH": os.path.join(build, "gopath"),
        "GOTMPDIR": os.path.join(build, "tmp"),
        "TMPDIR": os.path.join(build, "tmp"),
        "XDG_CONFIG_HOME": os.path.join(build, "config"),
        "GOTOOLCHAIN": "local",
        "GOFLAGS": "",
        "GOWORK": "off",
        "CGO_ENABLED": "0",
    })
    os.makedirs(env["GOTMPDIR"], exist_ok=True)
    binary = os.path.join(build, "perfbench-bin")
    built = subprocess.run(["go", "build", "-o", binary, "."], cwd=here, env=env,
                           stdout=sys.stderr)
    if built.returncode != 0:
        sys.exit("perfbench: build failed")

    cmd = [binary, "--root", root, "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", repr(args.seconds),
           "--trace", str(args.trace)]
    child = subprocess.Popen(cmd, cwd=root, env=env)
    try:
        code = child.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        child.kill()
        child.wait()
        sys.exit("perfbench: run exceeded %ds" % RUN_TIMEOUT_S)
    except BaseException:
        child.send_signal(signal.SIGKILL)
        child.wait()
        raise
    sys.exit(code)


if __name__ == "__main__":
    main()
