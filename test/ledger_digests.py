#!/usr/bin/env python3
"""Full-size ledger correctness gate.

    python3 test/ledger_digests.py LEDGER_EXE [WORKLOAD...]

runs LEDGER_EXE once per line of test/golden/ledger-digests.txt
(`run --workload W --seed S --seconds 1 --trace 0`), and once more with
`--trace 1` at seed 42, from the current directory.  Every run must exit
0, report "correct": true and 0 failed operations, and print the pinned
output digest.  Exits 1 if any run does not.  Named workloads restrict
the runs to their lines (a name with no line is an error); with none,
every line runs.
"""

import json
import os
import subprocess
import sys
import tempfile

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden", "ledger-digests.txt")


def main():
    exe = os.path.abspath(sys.argv[1])
    only = sys.argv[2:]
    runs = [line.split() for line in open(GOLDEN) if line.strip() and not line.startswith("#")]
    unknown = sorted(set(only) - {workload for workload, _, _ in runs})
    if unknown:
        sys.exit(f"no pinned digest for workload(s): {', '.join(unknown)}")
    if only:
        runs = [run for run in runs if run[0] in only]
    bad = 0
    with tempfile.TemporaryDirectory() as tmp:
        for workload, seed, digest in runs:
            for trace in ["0", "1"] if seed == "42" else ["0"]:
                out = os.path.join(tmp, f"{workload}-{seed}-{trace}.json")
                cmd = [exe, "run", "--workload", workload, "--seed", seed,
                       "--seconds", "1", "--trace", trace, "--out", out]
                code = subprocess.run(cmd, stdout=subprocess.DEVNULL).returncode
                if code == 0:
                    r = json.load(open(out))
                    got = (r["result"]["correct"], r["result"]["failed"], r["output_digest"])
                else:
                    got = ("exit", code, None)
                ok = got == (True, 0, digest)
                bad += not ok
                print(f"{'PASS' if ok else 'FAIL'} {workload} seed {seed} trace {trace}: "
                      f"correct={got[0]} failed={got[1]} digest={got[2]} (pinned {digest})",
                      flush=True)
    sys.exit(1 if bad else 0)


if __name__ == "__main__":
    main()
