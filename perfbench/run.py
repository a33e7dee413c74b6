#!/usr/bin/env python3
"""Build and run the repository benchmark (see README.md beside this file).

Run from the root of a checkout:

    python3 perfbench/run.py --workload sweep --seed 42 --seconds 60 --trace 0

Without --workload both workloads run, one after the other.  The benchmark
is built from source with dune (into _build/) and runs one process per
workload; the last line each prints is its JSON result.  Exit status: 0 when
every run finished with correct outputs, 1 when an output check failed, 2
when the checkout or the build is unusable, 3 when a run timed out.
"""

import argparse
import os
import shutil
import subprocess
import sys

# Files a checkout of the repository must hold for the benchmark to build.
REQUIRED = [
    "dune-project",
    os.path.join("lib", "experiments", "dune"),
    os.path.join("lib", "fleet", "dune"),
    os.path.join("perfbench", "dune"),
    os.path.join("perfbench", "reference.txt"),
]
EXE = os.path.join("_build", "default", "perfbench", "perfbench.exe")
RUN_TIMEOUT_S = 170


def fail(msg, code):
    print("perfbench: " + msg, file=sys.stderr)
    return code


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=["sweep", "fleet"], action="append",
                    help="workload to run (repeatable; default: both)")
    ap.add_argument("--seed", type=int, default=42, help="workload seed (default 42)")
    ap.add_argument("--seconds", type=float, default=60,
                    help="seconds of measurement per workload (default 60)")
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0,
                    help="1: traced run with the per-layer metrics")
    args = ap.parse_args()

    missing = [f for f in REQUIRED if not os.path.isfile(f)]
    if missing:
        return fail("run from the root of a checkout of the repository "
                    "(missing: %s)" % ", ".join(missing), 2)
    dune = shutil.which("dune")
    if dune is None:
        return fail("dune is not on PATH", 2)
    # dune's progress and errors go to stderr, so stdout ends with the
    # result; its shared cache is off so the build writes only under _build
    build = subprocess.run([dune, "build", "--root", ".", "./perfbench/perfbench.exe"],
                           stdout=sys.stderr, env=dict(os.environ, DUNE_CACHE="disabled"))
    if build.returncode != 0 or not os.path.isfile(EXE):
        return fail("build failed", 2)

    status = 0
    for workload in args.workload or ["sweep", "fleet"]:
        cmd = [EXE, "--workload", workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        sys.stdout.flush()
        try:
            run = subprocess.run(cmd, timeout=RUN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return fail("%s run exceeded %d s" % (workload, RUN_TIMEOUT_S), 3)
        if run.returncode != 0:
            status = max(status, 1 if run.returncode == 1 else 2)
    return status


if __name__ == "__main__":
    sys.exit(main())
