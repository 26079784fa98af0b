#!/usr/bin/env python3
"""Build and run the control-loop benchmark (see perfbench/NOTES.md).

Run from the repository root:

  python3 perfbench/run.py --workload crowd --seed 1 --seconds 25 --trace 0
  python3 perfbench/run.py --self-test

The benchmark is built from source with dune (release profile) into
.bench_build/; summaries and span dumps go to .bench_out/. The last line
a run prints on stdout is its JSON result. The self-test checks that the
modelled metrics repeat byte for byte across two runs and across pool
widths 1 and the process default.
"""

import argparse
import json
import os
import subprocess
import sys

BUILD_DIR = ".bench_build"
OUT_DIR = ".bench_out"
EXE = os.path.join(BUILD_DIR, "default", "perfbench", "loopbench.exe")
WORKLOADS = ("crowd", "prefixes", "chaos")
# Metrics that are pure functions of the seed (the rest are host times).
MODELLED = ("relief_s_mean", "unserved_share", "live_heap_mb")


def fail(message, code=2):
    print("run.py: " + message, file=sys.stderr)
    sys.exit(code)


def build():
    for needed in ("dune-project", "lib", os.path.join("perfbench", "dune")):
        if not os.path.exists(needed):
            fail(needed + " not found: run from the root of a full checkout")
    # No shared dune cache: the build reads and writes only the checkout.
    env = dict(os.environ, DUNE_CACHE="disabled")
    status = subprocess.run(
        ["dune", "build", "--root", ".", "--profile", "release",
         "--build-dir", BUILD_DIR, "./perfbench/loopbench.exe"],
        stdout=sys.stderr, env=env).returncode
    if status != 0:
        fail("build failed", status)


def run_bench(args):
    return subprocess.run([EXE] + args).returncode


def self_test():
    """Modelled metrics must not depend on the run or the pool width."""
    ok = True
    for workload in WORKLOADS:
        seen = {}
        for label, width in (("run1", "1"), ("run2", "1"), ("default-width", "0")):
            out = os.path.join(OUT_DIR, "self-test", label)
            status = subprocess.run(
                [EXE, "--workload", workload, "--seed", "1", "--seconds", "0",
                 "--trace", "0", "--width", width, "--out", out],
                stdout=subprocess.DEVNULL).returncode
            try:
                with open(os.path.join(out, workload + "-s1-t0.json")) as f:
                    summary = json.load(f)
            except (OSError, ValueError) as e:
                print(f"{workload} {label}: no summary ({e})")
                return 1
            seen[label] = (
                summary["width"],
                summary["modelled"],
                [repr(summary["metrics"][m]["value"]) for m in MODELLED],
            )
            if status != 0:
                print(f"{workload} {label}: benchmark checks failed")
                ok = False
        same = all(v[1:] == seen["run1"][1:] for v in seen.values())
        ok = ok and same
        widths = ", ".join(f"{k} at width {v[0]}" for k, v in seen.items())
        print(f"{workload}: modelled metrics {'identical' if same else 'DIFFER'} "
              f"({widths})")
        if not same:
            for label, value in seen.items():
                print(f"  {label}: {value[1:]}")
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if not args.self_test and args.workload is None:
        parser.error("--workload is required")
    build()
    if args.self_test:
        return self_test()
    return run_bench([
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--out", OUT_DIR,
    ])


if __name__ == "__main__":
    sys.exit(main())
