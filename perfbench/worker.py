"""One benchmark run, in a fresh interpreter started by ``run.py``.

Set-up imports awhile and writes the workload's inputs into the work
directory; ``--setup-only`` stops there, and ``run.py`` times such runs
for ``setup_s``.  Otherwise ``measure.run`` measures and checks the
workload and prints the result as JSON on the last line of standard
output.
"""

from __future__ import annotations

import argparse
import os
import sys

import awhile.cli
import workloads


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--size", choices=["full", "small"], default="full")
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--src", required=True, help="the checkout's src directory")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    # the runs must measure the checkout's own sources
    if os.path.dirname(os.path.dirname(os.path.realpath(awhile.cli.__file__))) != \
            os.path.realpath(args.src):
        print(f"awhile imported from {awhile.cli.__file__}, not {args.src}", file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS[args.workload](args.seed, args.size == "small")
    wl.write(args.workdir)
    if args.setup_only:
        return 0
    os.chdir(args.workdir)
    import measure

    return measure.run(wl, args.seconds)


if __name__ == "__main__":
    sys.exit(main())
