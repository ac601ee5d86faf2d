"""Benchmark of the awhile CLI: ``awhile check`` and ``awhile repro``
end to end, with per-layer numbers from a traced pass.

Run from the root of a checkout:

    python3 perfbench/run.py --workload relsec-pairs --seed 1 --seconds 25 --trace 0

Workloads: relsec-pairs, sct-deep, lemma-corpus (see README.md).  With
``--trace 0`` the last line of standard output carries the end-to-end
metrics, with ``--trace 1`` the per-layer ones; both always run the timed
and the traced part.  ``--size small`` shrinks every workload for a smoke
test.  The run fails (exit 2, no result) outside a checkout of awhile.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

import reference

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("relsec-pairs", "sct-deep", "lemma-corpus")
HASH_SEED = "0"  # call counts repeat exactly only under a fixed hash seed
SETUP_SAMPLES = 9
DEADLINE_S = 170.0


def child_env(src: str) -> dict:
    env = dict(os.environ)
    # the bounds are always passed as flags; bytecode is cached as in any
    # installed use, so set-up imports awhile rather than compiling it
    for name in ("SLH_MAX_DIRS", "SLH_FUEL", "PYTHONDONTWRITEBYTECODE",
                 "PYTHONSTARTUP", "PYTHONINSPECT"):
        env.pop(name, None)
    env["PYTHONHASHSEED"] = HASH_SEED
    env["PYTHONPATH"] = src
    return env


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--size", choices=["full", "small"], default="full")
    args = ap.parse_args(argv)

    started = time.perf_counter()
    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "awhile", "cli.py")):
        print(f"error: {root} is not a checkout of awhile (no src/awhile/cli.py)",
              file=sys.stderr)
        return 2

    # the worker would otherwise compile its own modules on a checkout's
    # first run, which shows in that run's peak_rss_mb
    compileall.compile_dir(HERE, maxlevels=0, quiet=1)
    workdir = os.path.join(HERE, ".work", f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(workdir)
    env = child_env(src)
    # -S: no site-packages, so nothing installed is imported and site's
    # start-up work stays out of setup_s
    cmd = [sys.executable, "-S", os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--size", args.size, "--workdir", workdir, "--src", src]
    try:
        setup, setup_raw = [], []
        reference.run()  # warm up
        for _ in range(SETUP_SAMPLES):
            t = time.perf_counter()
            done = subprocess.run(cmd + ["--seconds", "0", "--setup-only"], env=env,
                                  capture_output=True, text=True, timeout=60)
            setup_raw.append(time.perf_counter() - t)
            setup.append(setup_raw[-1] / reference.slowdown())
            if done.returncode != 0:
                sys.stderr.write(done.stderr)
                print("error: set-up failed", file=sys.stderr)
                return 1
        left = DEADLINE_S - (time.perf_counter() - started)
        done = subprocess.run(cmd + ["--seconds", str(args.seconds)], env=env,
                              capture_output=True, text=True, timeout=left)
    except subprocess.TimeoutExpired:
        print("error: the run did not finish in time", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(workdir))
        except OSError:
            pass  # another run still uses it
    sys.stderr.write(done.stderr)
    if done.returncode != 0 or not done.stdout.strip():
        print(f"error: the run exited {done.returncode}", file=sys.stderr)
        return 1
    result = json.loads(done.stdout.strip().splitlines()[-1])
    for problem in result["problems"]:
        print(f"check failed: {problem}", file=sys.stderr)

    if args.trace:
        metrics = result["per_layer"]
        metrics["setup_raw_s"] = {"value": statistics.median(setup_raw), "unit": "s"}
    else:
        metrics = {"setup_s": {"value": statistics.median(setup), "unit": "s"}}
        metrics.update(result["end_to_end"])
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
