"""Reference figures for bench/README.md, measured with the benchmark's own
workloads and timing: `project` on layer graphs at p=102, 10^4 and 10^5,
and the spiked sweep at p=514 (2 trials x 2 n x 3 solvers).

    python3 bench/reference.py [--seconds S] [--seed N]
"""

from __future__ import annotations

import argparse
import shutil
import statistics
import sys

import run


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seconds", type=float, default=5.0)
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args()
    if not run.use_checkout():
        print("error: no pathpca sources in this checkout", file=sys.stderr)
        return 2
    import workloads

    work = run.OUT / "reference"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    cases = [(workloads.ProjectLarge, size) for size in ("p102", "p1e4", "p1e5", "full")]
    cases.append((workloads.SpikedSweep, "p514"))
    print("| workload | size | set-up s | rounds | median round s | operations per round | ms per operation |")
    print("| --- | --- | --- | --- | --- | --- | --- |")
    try:
        for cls, size in cases:
            w = cls(args.seed, work, size)
            metrics, rounds = run.measure(w, args.seconds)
            if any(r.problems or r.failed for r in rounds):
                print(f"error: {cls.name} {size} failed its checks", file=sys.stderr)
                return 1
            med = statistics.median(r.seconds for r in rounds)
            ops = rounds[0].attempted
            print(f"| {cls.name} | {size} | {metrics['setup_s'][0]:.3f} | {len(rounds)} "
                  f"| {med:.4f} | {ops} | {1e3 * med / ops:.3f} |", flush=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
