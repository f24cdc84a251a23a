"""shiftembed benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all  --seed N --seconds S --trace 0|1

Run from the repository root.  The program is imported from ``src/`` next to
this directory and from nowhere else; without it the benchmark exits non-zero
and prints no result.  ``--workload all`` runs each workload in a fresh
process and prints every table.  The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics`` (the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``).  Results, run metadata and trace spans are also written under
``perfbench/out/``.  The metric names and units come from BENCHMARK.json;
perfbench/README.md says what each metric means.
"""

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
HASH_SEED = "0"


def import_program():
    """Import shiftembed from SRC only; exit non-zero when it is not there."""
    sys.path.insert(0, str(SRC))
    try:
        import shiftembed
    except ImportError as exc:
        raise SystemExit("benchmark: cannot import the program from %s: %s" % (SRC, exc))
    found = Path(shiftembed.__file__).resolve().parent.parent
    if found != SRC:
        raise SystemExit("benchmark: imported shiftembed from %s, not %s" % (found, SRC))


def git_revision():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def run_metadata():
    import numpy
    digest = hashlib.sha256()
    for path in sorted((SRC / "shiftembed").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {"git_revision": git_revision(), "src_sha256": digest.hexdigest(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": len(os.sched_getaffinity(0))}


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def percentile(values, q):
    """Inclusive-method percentile q (1..99) of a sample."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def symbols_per_s(tally, clock):
    return tally.symbols / sum(clock.seconds(iv) for iv in tally.stream)


# -- untraced run: the end-to-end metrics -------------------------------------------


def chain_count(workload, seconds):
    """Timed chains of an untraced run: as many as the workload runs in
    `seconds` at reference speed, and at least two, so `chain_s` is a median.
    The count does not depend on how fast the machine happens to be, so the
    operations of a run, and which of them fail, depend on --seed and
    --seconds only; two runs with the same arguments attempt the same work."""
    return max(2, round(seconds * workload.chains_per_s))


def run_untraced(workload, clock, seed, seconds):
    from workloads import Tally, chain_seed, warm_seed
    setups = []
    for _ in range(workload.setups):
        interval, state = workload.setup()
        setups.append(interval)
    workload.warm(state, warm_seed(seed))
    tally = Tally()
    rss = None
    for i in range(chain_count(workload, seconds)):
        workload.chain(state, chain_seed(seed, i), tally)
        if rss is None:         # after a fixed amount of work, whatever the speed
            rss = peak_rss_mb()
    clock.stop()
    if not (tally.encode and tally.decode):
        raise SystemExit("benchmark: no encode and decode completed; nothing to time")

    def ms(intervals, q):
        return 1000.0 * percentile([clock.seconds(iv) for iv in intervals], q)

    metrics = {
        "setup_s": statistics.median(clock.seconds(iv) for iv in setups),
        "symbols_per_s": symbols_per_s(tally, clock),
        "encode_ms.p50": ms(tally.encode, 50),
        "encode_ms.p90": ms(tally.encode, 90),
        "decode_ms.p50": ms(tally.decode, 50),
        "decode_ms.p90": ms(tally.decode, 90),
        "op_ms.p50": ms(tally.op, 50),
        "chain_s": statistics.median(sum(clock.seconds(iv) for iv in chain)
                                     for chain in tally.chains),
        "peak_rss_mb": rss,
    }
    samples = {"setups": len(setups), "chains": len(tally.chains),
               "encode": len(tally.encode), "decode": len(tally.decode),
               "op": len(tally.op),
               "setup_wall_s": [end - start for start, end in setups]}
    return tally, metrics, samples, {}


# -- traced run: the per-layer metrics -----------------------------------------------


def run_traced(workload, clock, seed):
    """One traced set-up, the warm-up, then a fixed number of traced chains,
    so that per-layer totals compare across commits.  Each traced chain runs
    again untraced right after it, on equal points, for the overhead; then
    one more warm-up pass runs under tracemalloc for the retained memory."""
    from tracing import Tracer
    from workloads import Tally, chain_seed, warm_seed
    tracer = Tracer()
    traced, plain = Tally(tracer=tracer), Tally()
    tracer.install()
    try:
        _, state = workload.setup()
        tracer.phase = "warmup"
        workload.warm(state, warm_seed(seed))
    finally:
        tracer.uninstall()
    tracer.phase = "timed"
    for i in range(workload.trace_chains):
        tracer.install()
        try:
            workload.chain(state, chain_seed(seed, i), traced)
        finally:
            tracer.uninstall()
        workload.chain(state, chain_seed(seed, i), plain)
    clock.stop()
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        workload.warm(state, chain_seed(seed, workload.trace_chains))
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()

    phases = ("setup", "timed")
    total = tracer.totals(phases, clock)

    def hit_ratio(builds, requests):
        return 1.0 - builds / requests if requests else 0.0

    metrics = {
        "markers.return_partition.s": total["markers.return_partition"]["s"],
        "markers.return_partition.calls": total["markers.return_partition"]["calls"],
        "markers.build_towers.s": total["markers.build_towers"]["s"],
        "entropy.build_schedule.s": total["entropy.build_schedule"]["s"],
        "entropy.verify_schedule.s": total["entropy.verify_schedule"]["s"],
        "blocks.append_layer.s": total["blocks.append_layer"]["s"],
        "blocks.append_layer.calls": total["blocks.append_layer"]["calls"],
        "codec.encode_k.self_s": total["codec.encode_k"]["self_s"],
        "codec.build_point_context.self_s": total["codec.build_point_context"]["self_s"],
        "codec.decode_k.s": total["codec.decode_k"]["s"],
        "codec.codebook_build.s": total["codec.codebook_build"]["s"],
        "codec.codebook_build.calls": total["codec.codebook_build"]["calls"],
        "codec.build_periodic_code.s": total["codec.build_periodic_code"]["s"],
        "pipeline.codebook_hit_ratio": hit_ratio(
            total["codec.codebook_build"]["calls"],
            tracer.count("pipeline.codebook_request", phases)),
        "pipeline.context_hit_ratio": hit_ratio(
            total["codec.build_point_context"]["calls"],
            tracer.count("pipeline.context_request", phases)),
        "pipeline.load_pipeline.s": total["pipeline.load_pipeline"]["s"],
        "pipeline.verify_pipeline.self_s": total["pipeline.verify_pipeline"]["self_s"],
        "pipeline.retained_mb": retained / 2.0 ** 20,
        "metrics.stream_dN.s": total["metrics.stream_dN"]["s"],
        "metrics.convergence_report.s": total["metrics.convergence_report"]["s"],
        "cli.main.self_s": total["cli.main"]["self_s"],
        "trace.overhead_ratio": symbols_per_s(plain, clock) / symbols_per_s(traced, clock),
    }
    samples = {"traced_chains": workload.trace_chains, "traced_ops": traced.attempted,
               "spans": len(tracer.spans), "shares": tracer.shares(phases, clock)}
    for name in ("attempted", "failed", "wrong"):
        setattr(traced, name, getattr(traced, name) + getattr(plain, name))
    return traced, metrics, samples, {"spans": tracer.span_records()}


# -- entry point -----------------------------------------------------------------


def run_one(args):
    import_program()
    sys.path.insert(0, str(HERE))
    import workloads
    from refclock import RefClock
    if args.workload not in workloads.NAMES:
        raise SystemExit("benchmark: unknown workload %r (choose from %s or all)"
                         % (args.workload, ", ".join(workloads.NAMES)))
    meta = run_metadata()
    OUT.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="work-", dir=OUT)
    clock = RefClock()
    clock.start()
    try:
        workload = workloads.make(args.workload, workdir)
        if args.trace:
            tally, metrics, samples, extra = run_traced(workload, clock, args.seed)
        else:
            tally, metrics, samples, extra = run_untraced(workload, clock, args.seed,
                                                          args.seconds)
    finally:
        clock.stop()
        shutil.rmtree(workdir, ignore_errors=True)
    samples["reference"] = clock.summary()
    with open(ROOT / "BENCHMARK.json") as fh:
        table = json.load(fh)["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in table}
    result = {
        # correct: no operation returned an output its oracle rejects;
        # refusals and crashes count in failed.
        "correct": tally.wrong == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }
    stem = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)
    with open(OUT / (stem + ".json"), "w") as fh:
        json.dump({"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                   "trace": args.trace, "meta": meta, "samples": samples,
                   "wrong": tally.wrong, "result": result}, fh, indent=1)
    if "spans" in extra:
        with open(OUT / (stem + ".spans.jsonl"), "w") as fh:
            for span in extra["spans"]:
                fh.write(json.dumps(span) + "\n")

    print("%s  seed=%d  trace=%d  seconds=%d" % (args.workload, args.seed, args.trace,
                                                 args.seconds))
    print("  meta: %s" % json.dumps(meta))
    print("  samples: %s" % json.dumps(samples))
    for name, unit in units.items():
        print("  %-34s %14.6g %s" % (name, metrics[name], unit))
    print("  %-34s %14.6g ratio  (%d failed of %d attempted, %d wrong)"
          % ("fail_ratio", tally.failed / tally.attempted, tally.failed,
             tally.attempted, tally.wrong))
    print(json.dumps(result))
    return 0


def run_all(args):
    """Each workload in its own process, so no module-level cache carries over."""
    import_program()
    sys.path.insert(0, str(HERE))
    from workloads import NAMES
    results = {}
    status = 0
    for name in NAMES:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)]
        proc = subprocess.run(argv, capture_output=True, text=True)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            print("%s exited %d" % (name, proc.returncode))
            status = 1
            continue
        results[name] = json.loads(lines[-1])
    print(json.dumps(results))
    return status


def main(argv=None):
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        # String hashing sets the memory layout of every dict and set the
        # program builds; pin it, so that runs differ by their inputs only.
        os.execve(sys.executable, [sys.executable] + sys.argv,
                  dict(os.environ, PYTHONHASHSEED=HASH_SEED))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
