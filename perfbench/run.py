#!/usr/bin/env python3
"""Build the benchmark from source, then run one workload.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is one of many_conns, bulk_stream, kill_repair.  The benchmark is
the OCaml executable perfbench/perfbench.exe, built with dune inside the
repository (its build output goes to _build/, with dune's shared cache
off).  Build messages go to standard error; the benchmark's own output,
whose last line is the JSON result, goes to standard output.  The exit
code is the benchmark's: 0 only for a correct run.
"""

import os
import shutil
import subprocess
import sys

EXE = os.path.join("_build", "default", "perfbench", "perfbench.exe")


def main():
    if not os.path.isfile("dune-project") or not os.path.isdir("lib"):
        print("perfbench: run from the repository root "
              "(no dune-project or lib/ here)", file=sys.stderr)
        return 2
    dune = shutil.which("dune")
    if dune is None:
        print("perfbench: dune is not on PATH", file=sys.stderr)
        return 2
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        [dune, "build", "--root", ".", "-j", "2", "./perfbench/perfbench.exe"],
        stdout=sys.stderr, stderr=sys.stderr, env=env)
    if build.returncode != 0 or not os.path.isfile(EXE):
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1
    sys.stdout.flush()
    os.execv(EXE, [EXE] + sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
