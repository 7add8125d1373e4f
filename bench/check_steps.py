#!/usr/bin/env python3
"""Compares lr_bench step counts against the committed ledger.

Usage, from the root of a checkout:

    python3 lr_bench/run.py --workload chain-tail --seed 1 --seconds 0 \\
        > chain-tail.json
    python3 bench/check_steps.py bench/lr_bench_steps.json \\
        chain-tail=chain-tail.json [WORKLOAD=RESULT.json ...]

Each RESULT.json is the JSON line lr_bench/run.py prints. Step counts are
exact for a seed (the ledger names it), so every ratio against the ledger
is printed. The check fails when a ledger workload has no result, a result
names a workload the ledger lacks, a result claims an unverified success
or failed instances, or a counted metric leaves the band
[ledger / max_ratio, ledger * max_ratio]. Above the band is a regression;
below it the ledger is stale, and a later regression of up to the same
ratio would pass unseen, so it must be refreshed. A change that moves the
counts on purpose refreshes the ledger.

peak_rss_mb is checked from above only, against ledger * rss_max_ratio:
resident memory follows heap layout as well as work, so it is not exact
like the step counts and a lower reading is never stale. The wider ratio
still catches a regression of the size of a whole export held in memory.
"""

import json
import sys


def main(argv):
    if len(argv) < 3 or any("=" not in arg for arg in argv[2:]):
        print(__doc__, file=sys.stderr)
        return 2
    with open(argv[1]) as handle:
        ledger = json.load(handle)
    limit = ledger["max_ratio"]
    results = dict(arg.split("=", 1) for arg in argv[2:])
    missing = sorted(set(ledger["workloads"]) - set(results))
    unknown = sorted(set(results) - set(ledger["workloads"]))
    failed = bool(missing or unknown)
    if missing:
        print("no result for " + ", ".join(missing))
    if unknown:
        print("not in the ledger " + argv[1] + ": " + ", ".join(unknown))
    for workload, path in results.items():
        if workload in unknown:
            continue
        with open(path) as handle:
            result = json.loads(handle.read().strip().splitlines()[-1])
        if not result["correct"] or result["failed"]:
            print(f"{workload}: unverified success or failed instances")
            failed = True
        for metric, want in ledger["workloads"][workload].items():
            got = result["metrics"][metric]["value"]
            ratio = got / want
            upper_only = metric == "peak_rss_mb"
            if ratio > (ledger["rss_max_ratio"] if upper_only else limit):
                verdict = "FAIL"
            elif ratio < 1 / limit and not upper_only:
                verdict = "STALE: refresh the ledger"
            else:
                verdict = "ok"
            shown = [f"{v:,}" if isinstance(v, int) else f"{v:,.2f}"
                     for v in (got, want)]
            print(f"{workload:12} {metric:13} {shown[0]:>12} / {shown[1]:>12}"
                  f" = {ratio:.4f}  {verdict}")
            failed = failed or verdict != "ok"
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
