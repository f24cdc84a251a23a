"""Alternating pairs: the benchmark's end-to-end metrics on a parent
revision and on this tree, run by turns.

Run it from the repository root:

    python tests/bench_pairs.py PARENT WORKLOAD SEED PAIRS

It checks PARENT out into a temporary directory with `git worktree add`,
then runs `perfbench/run.py --workload WORKLOAD --seed SEED --trace 0` with
BENCHMARK.json's `run_seconds` PAIRS times in each tree, the parent first
in even pairs and this tree first in odd ones.  It prints each run's
`failed` count and `setup_wall_s` samples, then for each end-to-end metric
the median and quartiles of both trees, the ratio of the medians, and in
how many pairs this tree did better.  The worktree is removed when the
runs end, also when one fails.  The suite is not collected by pytest.
"""

import json
import pathlib
import statistics
import subprocess
import sys
import tempfile

ROOT = pathlib.Path(__file__).resolve().parent.parent


def run_bench(tree, workload, seed, seconds):
    """(result, samples) of one untraced run of the benchmark in `tree`:
    the JSON of its last line and the samples it prints."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit("bench_pairs: the run in %s exited %d:\n%s"
                         % (tree, proc.returncode, proc.stderr))
    lines = proc.stdout.splitlines()
    samples = next(json.loads(line.split(":", 1)[1]) for line in lines
                   if line.startswith("  samples:"))
    return json.loads(lines[-1]), samples


def quartiles(values):
    """(first quartile, median, third quartile)."""
    if len(values) == 1:
        return values * 3
    return tuple(statistics.quantiles(values, n=4, method="inclusive"))


def main(argv):
    if len(argv) != 4:
        raise SystemExit(__doc__)
    parent, workload, seed, pairs = argv[0], argv[1], int(argv[2]), int(argv[3])
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    runs = {"parent": [], "change": []}
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as scratch:
        tree = pathlib.Path(scratch) / "parent"
        subprocess.run(["git", "worktree", "add", "--detach", str(tree), parent],
                       cwd=ROOT, check=True, capture_output=True)
        try:
            for i in range(pairs):
                order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
                for side in order:
                    result, samples = run_bench(tree if side == "parent" else ROOT,
                                                workload, seed, seconds)
                    runs[side].append(result)
                    print("pair %d %-6s failed %d of %d, setup_wall_s %s" % (
                        i, side, result["failed"], result["attempted"],
                        " ".join("%.5f" % s for s in samples["setup_wall_s"])), flush=True)
        finally:
            subprocess.run(["git", "worktree", "remove", "--force", str(tree)], cwd=ROOT)
            subprocess.run(["git", "worktree", "prune"], cwd=ROOT)
    print("%s seed %d, %d pairs against %s: median [quartiles], parent then change"
          % (workload, seed, pairs, parent))
    for metric in bench["end_to_end"]:
        name = metric["name"]
        a = [r["metrics"][name]["value"] for r in runs["parent"]]
        b = [r["metrics"][name]["value"] for r in runs["change"]]
        (qa1, ma, qa3), (qb1, mb, qb3) = quartiles(a), quartiles(b)
        better = (lambda x, y: y < x) if metric["better"] == "lower" else (lambda x, y: y > x)
        wins = sum(better(x, y) for x, y in zip(a, b))
        print("  %-14s %10.4g [%.4g, %.4g]  %10.4g [%.4g, %.4g]  ratio %.3f  "
              "change better in %d of %d, gap %s the parent's IQR" % (
                  name, ma, qa1, qa3, mb, qb1, qb3, mb / ma if ma else float("nan"),
                  wins, pairs, "over" if abs(mb - ma) > qa3 - qa1 else "within"))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
