"""Tests of the benchmark itself: its oracles, its output contract, and its
refusal to run without the program.  From the repository root:

    python3 -m pytest perfbench -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from shiftembed.codec import SymbolStream  # noqa: E402
from shiftembed.errors import ShiftEmbedError, WindowError  # noqa: E402
from shiftembed.pipeline import sample_points  # noqa: E402
from shiftembed.systems import itinerary  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def golden():
    workload = workloads.make("golden-roundtrip", None)
    _, (system, pipe) = workload.setup()
    return workload, system, pipe


class CorruptingPipeline:
    """A real pipeline whose encoder output gets one symbol flipped."""

    def __init__(self, pipe, t):
        self.pipe, self.t = pipe, t
        self.schedule = pipe.schedule

    def decode_margin(self):
        return self.pipe.decode_margin()

    def encode(self, point, k, window):
        stream = self.pipe.encode(point, k, window)
        symbols = list(stream.symbols)
        i = self.t - stream.a
        symbols[i] = "2" if symbols[i] == "1" else "1"
        return SymbolStream(stream.a, stream.b, symbols, stream.resolution)

    def decode(self, stream, k):
        return self.pipe.decode(stream, k)


def test_oracle_catches_corrupted_streams(golden):
    workload, system, pipe = golden
    point = sample_points(system, 1, seed=3)[0]
    clean = workloads.Tally()
    workload.roundtrip(system, pipe, point, clean)
    assert (clean.attempted, clean.failed) == (1, 0)

    a, b = workloads.WINDOW
    margin = pipe.decode_margin()
    truth = pipe.decode(pipe.encode(point, 2, (a - margin, b + margin)), 2)
    flips = range(-40, 41)
    tally = workloads.Tally()
    expected_failures = 0
    for t in flips:
        corrupt = CorruptingPipeline(pipe, t)
        workload.roundtrip(system, corrupt, point, tally)
        # differential oracle: a flip is harmless only if the decode still
        # certifies the window and agrees with the clean decode there
        try:
            res = corrupt.decode(corrupt.encode(point, 2, (a - margin, b + margin)), 2)
            same = all(res.itinerary_list(l, (a, b)) == truth.itinerary_list(l, (a, b))
                       for l in (1, 2))
        except ShiftEmbedError:
            same = False
        expected_failures += not same
    assert tally.attempted == len(flips)        # none dropped
    assert tally.failed == expected_failures
    assert tally.failed > 0


class FakeResult:
    def __init__(self, table=None):
        self.table = table

    def itinerary_list(self, k, window):
        if self.table is None:
            raise WindowError("not certified")
        return self.table[k]


def test_decode_oracle_separates_wrong_from_refused(golden):
    _, system, _ = golden
    point = sample_points(system, 1, seed=5)[0]
    exact = {l: itinerary(system, point, 0, workloads.WINDOW) for l in (1, 2)}
    assert workloads.decode_matches(system, point, FakeResult(exact), 2, (0, 0)) == (True, False)
    wrong = dict(exact)
    wrong[2] = list(exact[2])
    wrong[2][7] = "1" if wrong[2][7] == "0" else "0"
    assert workloads.decode_matches(system, point, FakeResult(wrong), 2, (0, 0)) == (False, True)
    assert workloads.decode_matches(system, point, FakeResult(), 2, (0, 0)) == (False, False)


def test_cli_decode_output_is_parsed_back(golden):
    _, system, _ = golden
    point = sample_points(system, 1, seed=7)[0]
    lo, hi = -250, 240
    labels = itinerary(system, point, 0, (lo, hi))
    text = "".join("scale %d window %d:%d\nlabels %s\n" % (l, lo, hi, " ".join(labels))
                   for l in (1, 2)) + "orbits \n"
    assert workloads.cli_decode_matches(system, point, text, 2, (0, 0)) == (True, False)
    flipped = labels[:]
    flipped[300] = "1" if flipped[300] == "0" else "0"
    bad = text.replace(" ".join(labels), " ".join(flipped), 1)
    assert workloads.cli_decode_matches(system, point, bad, 2, (0, 0)) == (False, True)
    uncertified = "scale 1 uncertified\nscale 2 uncertified\norbits \n"
    assert workloads.cli_decode_matches(system, point, uncertified, 2, (0, 0)) == (False, False)
    narrow = text.replace("%d:%d" % (lo, hi), "-100:100")
    assert workloads.cli_decode_matches(system, point, narrow, 2, (0, 0))[0] is False


def test_verify_and_report_oracles():
    assert workloads.verify_passes("entropy x scale=1 PASS \ncodec y scale=2 PASS d\n")
    assert not workloads.verify_passes("entropy x scale=1 PASS \ncodec y scale=2 FAIL \n")
    assert not workloads.verify_passes("vacuous: no checks ran\n")
    rows = ["0\t%d\t%s\t1\ttag" % (k, m) for k in (1, 2)
            for m in ("dN(psi_k, psi)", "dN-bound-ok", "d*", "N*dinf-bound")]
    header = "point\tscale\tmetric\tvalue\ttag"
    assert workloads.report_passes("\n".join([header] + rows), 1, 2)
    broken = [r.replace("\t1\t", "\t0\t") if "bound-ok" in r else r for r in rows]
    assert not workloads.report_passes("\n".join([header] + broken), 1, 2)
    assert not workloads.report_passes("\n".join([header] + rows[:-1]), 1, 2)


def test_benchmark_json_names_the_workloads():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.NAMES)


def run_benchmark(cwd, seed, trace):
    """A one-second golden-roundtrip run of the benchmark command in cwd."""
    return subprocess.run(
        [sys.executable] + BENCHMARK["command"][1:] + ["--workload", "golden-roundtrip",
                                                   "--seed", str(seed), "--seconds", "1",
                                                   "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
def test_printed_metric_names_match_benchmark_json(trace):
    proc = run_benchmark(ROOT, 2, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    table = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in table}


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run_benchmark(tmp_path, 1, 0)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_same_arguments_attempt_the_same_operations():
    """The work of a run is fixed by --seed and --seconds, not by how fast
    the machine is, so two runs agree on what they attempted and on what
    failed.  Seed 4's first chains hold a point that does not round-trip."""
    results = []
    for _ in range(2):
        proc = run_benchmark(ROOT, 4, 0)
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.splitlines()[-1])
        results.append((result["attempted"], result["failed"]))
    assert results[0] == results[1]
