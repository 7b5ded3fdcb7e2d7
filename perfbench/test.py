#!/usr/bin/env python3
"""The benchmark's own test.  Run from the repository root:

    python3 perfbench/test.py

For each in-process workload it runs the benchmark three times on SEED
and once on SECOND_SEED, and checks that
  - every run is correct (no engine failure, answer mismatch or ERR);
  - two traced runs report identical exact counts (operations, covers
    explored, union terms, cache and view hits and misses);
  - the first traced pass chose the covers and answers of the untraced
    run's first pass (same store state);
  - the correctness checks also pass on SECOND_SEED.
lubm-serve's counts depend on timing, so it is checked for correctness on
both seeds only.  Takes about ten minutes.
"""

import json
import subprocess
import sys

IN_PROCESS = ["lubm-plan", "dblp-exec", "lubm-views-rw"]
ALL = IN_PROCESS + ["lubm-serve"]
SEED = 2015
SECOND_SEED = 7
SECONDS = 1


def run(workload, seed, trace):
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(SECONDS), "--trace", str(trace)],
        check=True, capture_output=True, text=True).stdout
    lines = out.strip().split("\n")
    tagged = {}
    for line in lines[:-1]:
        tag, _, rest = line.partition(" ")
        if tag in ("counts", "digests"):
            tagged[tag] = json.loads(rest)
    return json.loads(lines[-1]), tagged.get("counts", {}), tagged.get("digests", {})


def main():
    failures = []

    def check(cond, what):
        print(("ok   " if cond else "FAIL ") + what, flush=True)
        if not cond:
            failures.append(what)

    for w in ALL:
        seeds = [SEED, SECOND_SEED]
        if w in IN_PROCESS:
            t1, counts1, dig1 = run(w, SEED, 1)
            t2, counts2, _ = run(w, SEED, 1)
            u, counts_u, dig_u = run(w, SEED, 0)
            for name, r in (("traced", t1), ("traced again", t2), ("untraced", u)):
                check(r["correct"] and r["failed"] == 0,
                      "%s seed %d %s run correct" % (w, SEED, name))
            check(counts1 == counts2,
                  "%s exact counts repeat between runs" % w)
            shared = set(counts1) & set(counts_u)
            check(shared and all(counts1[k] == counts_u[k] for k in shared),
                  "%s traced and untraced counts agree on %s" % (w, sorted(shared)))
            check("traced_covers" in dig1
                  and dig1["traced_covers"] == dig_u.get("covers")
                  and dig1.get("traced_answers") == dig_u.get("answers"),
                  "%s traced pass chose the untraced covers and answers" % w)
            seeds = seeds[1:]
        for seed in seeds:
            r, _, _ = run(w, seed, 0)
            check(r["correct"] and r["failed"] == 0 and r["attempted"] > 0,
                  "%s seed %d correct (%d operations)" % (w, seed, r["attempted"]))

    if failures:
        print("%d check(s) failed" % len(failures))
        sys.exit(1)
    print("all checks passed")


if __name__ == "__main__":
    main()
