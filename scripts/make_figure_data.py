#!/usr/bin/env python3
"""Regenerate the analysis artifacts used in the project write-up.

Runs the CLI end to end with fixed seeds so every output file is
byte-reproducible.  Pass an output directory (default ./figure_data).
The heavy simulate/compare steps take a few minutes; pass --quick to
shrink the slot budgets by 10x for a fast smoke regeneration.
"""

import argparse
import pathlib
import sys

from treesplit.cli import entrypoint


def run(argv):
    print("+ treesplit " + " ".join(argv))
    code = entrypoint(argv)
    if code != 0:
        sys.exit(code)


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("outdir", nargs="?", default="figure_data")
    ap.add_argument("--quick", action="store_true",
                    help="10x smaller slot budgets for a smoke run")
    args = ap.parse_args()

    out = pathlib.Path(args.outdir)
    out.mkdir(parents=True, exist_ok=True)
    budget = "100000" if args.quick else "1000000"
    common = ["--outdir", str(out)]

    # conditional throughput tables for every splitting discipline
    run(["analytic", "--protocols", "bta,mta,sicta,atic,atic_left",
         "--n-max", "40", *common])
    # split-bias scan around the symmetric point
    run(["asymptote", "--p-grid", "0.40:0.60:0.005", *common])
    # stable-rate curve for windowed access over a log grid of loads
    run(["windowed-scan", "--load-min", "0.1", "--load-max", "10000",
         "--points", "200", *common])
    # delay-vs-rate sweeps for the two cancellation protocols
    run(["sweep", "--protocols", "atic,sicta",
         "--rates", "0.1,0.2,0.3,0.4,0.5,0.6,0.65,0.7,0.75,0.8,0.85",
         "--budget", budget, "--seed", "414", *common])
    # near-limit interval statistics (collision degrees, announced counts)
    run(["simulate", "--protocol", "sicta", "--policy", "windowed:5",
         "--rates", "0.693", "--budget", budget, "--seed", "606", *common])
    # side-by-side protocol comparison at a moderate load
    run(["compare", "--protocols", "bta,mta,sicta,atic,atic_left",
         "--rates", "0.3,0.5", "--budget", "200000" if not args.quick
         else "20000", "--seed", "77", *common])
    # worked splitting example as a DOT tree
    run(["tree", "--protocol", "sicta", "--users", "4", "--seed", "7",
         "--script", "1:0=l,2:0=l,3:0=l,4:0=r,1:1=r,2:1=r,3:1=r,"
         "1:2=l,2:2=l,3:2=r,1:3=l,2:3=r", *common])

    print(f"artifacts written under {out}/")


if __name__ == "__main__":
    main()
