import os
import re
from collections import Counter

import pytest

from check_reference import within_seconds
from shiftembed.cli import main
from shiftembed.codec import SymbolStream
from shiftembed.entropy import ScaleSchedule, build_schedule
from shiftembed.errors import CapacityError, ScheduleError, SpecParseError
from shiftembed.pipeline import (build_pipeline, load_pipeline, precheck_pipeline,
                                 sample_points, save_pipeline, verify_pipeline)
from shiftembed.systems import dyadic_odometer, golden_mean, parse_system, validate_point


@pytest.fixture(scope="module")
def pipe():
    return build_pipeline(golden_mean(), K=2, kmax=2, C=0.0, m=(0, 0))


class TestPipeline:
    def test_save_load_roundtrip(self, pipe, tmp_path):
        out = tmp_path / "pipe"
        save_pipeline(pipe, str(out))
        again = load_pipeline(str(out))
        assert again.schedule == pipe.schedule
        assert again.periodic_code.orbit_code == pipe.periodic_code.orbit_code

    def test_artifacts_deterministic(self, pipe, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        save_pipeline(pipe, str(out1))
        save_pipeline(build_pipeline(golden_mean(), K=2, kmax=2, C=0.0, m=(0, 0)),
                      str(out2))
        for name in os.listdir(out1):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_override_reverified(self):
        bad = ScaleSchedule(K=2, alpha=pipefrac(), m=(0, 0), n=(5, 7),
                            nprime=(5, 12), r=(5, 7), periodic=True)
        with pytest.raises(ScheduleError):
            build_pipeline(golden_mean(), K=2, kmax=2, schedule=bad)

    def test_precheck_refuses_a_conditional_count_over_capacity(self, monkeypatch):
        from shiftembed import pipeline as pipeline_module
        monkeypatch.setattr(pipeline_module, "conditional_count",
                            lambda system, m_prev, m_cur, n: 2 ** n)
        pipe = build_pipeline(golden_mean(), K=2, kmax=2, C=0.0, m=(0, 0))
        with pytest.raises(CapacityError, match="conditional capacity fails at scale 2") as err:
            precheck_pipeline(pipe)
        assert (err.value.scale, err.value.block) == (2, 19)

    def test_verify_harness_passes(self, pipe):
        points = sample_points(golden_mean(), 8, seed=13)
        report = verify_pipeline(pipe, points=points, window=(-40, 40))
        assert report.passed, "\n".join(report.lines())

    def test_verify_harness_refuses_an_empty_sample_set(self, pipe):
        with pytest.raises(ValueError, match="at least one sample point"):
            verify_pipeline(pipe, points=[])

    def test_verify_harness_records_an_encode_that_raises(self, pipe, monkeypatch):
        """A scale-2 render that raises fails the scale-2 codec records and
        the dN record, each with the error text as its detail, and leaves
        the scale-1 records passing: the harness reports, it does not raise."""
        from shiftembed import codec
        render_layer = codec._render_layer

        def refuse_scale_two(pipeline, layout, l, *out):
            if l == 2:
                raise CapacityError("refused at scale 2", scale=2)
            render_layer(pipeline, layout, l, *out)

        monkeypatch.setattr(codec, "_render_layer", refuse_scale_two)
        report = verify_pipeline(pipe, points=sample_points(golden_mean(), 4, seed=13),
                                 window=(-40, 40))
        codec_records = {(r.name, r.scale): (r.ok, r.detail)
                         for r in report.records if r.module == "codec"}
        assert codec_records == {("equivariance", 1): (True, ""),
                                 ("roundtrip", 1): (True, ""),
                                 ("equivariance", 2): (False, "refused at scale 2"),
                                 ("roundtrip", 2): (False, "refused at scale 2"),
                                 ("dN-convergence", 1): (False, "refused at scale 2")}
        assert all(r.ok for r in report.records if r.module != "codec")

    def test_sampler_deterministic(self):
        a = sample_points(golden_mean(), 10, seed=5)
        b = sample_points(golden_mean(), 10, seed=5)
        assert [repr(p) for p in a] == [repr(p) for p in b]

    def test_sampler_draws_again_where_no_walk_joins_the_right_tail(self):
        """'10' is forbidden, so no walk from a left tail of 1s reaches a
        right tail of 0s: that draw is dropped after 40 walks, and every
        point kept is admissible."""
        one_way = parse_system("kind: sft\nalphabet: 2\nforbidden: [10]\n")
        points = sample_points(one_way, 12, seed=5)
        assert len(points) == 12
        assert ("1", "0") not in {(p.left, p.right) for p in points}
        for point in points:
            validate_point(one_way, point)


def pipefrac():
    from fractions import Fraction
    return Fraction(909806301, 2 ** 32)


class TestCli:
    def _build(self, tmp_path):
        sysfile = tmp_path / "golden.txt"
        sysfile.write_text("kind: sft\nalphabet: 2\nforbidden: [11]\n")
        out = tmp_path / "pipe"
        rc = main(["build", "--system", str(sysfile), "--K", "2", "--kmax", "2",
                   "--C", "0", "--m", "0,0", "--out", str(out)])
        assert rc == 0
        return out

    def test_build_encode_decode_invert(self, tmp_path, capsys):
        out = self._build(tmp_path)
        pipe = load_pipeline(str(out))
        margin = pipe.decode_margin()
        point = tmp_path / "point.txt"
        point.write_text("left: 10\ncore: 00100@-2\nright: 001\n")
        stream = tmp_path / "stream.txt"
        rc = main(["encode", "--pipeline", str(out), "--point", str(point),
                   "--window=%d:%d" % (-margin, margin), "--out", str(stream)])
        assert rc == 0
        rc = main(["decode", "--pipeline", str(out), "--stream", str(stream),
                   "--out", str(tmp_path / "itins.txt")])
        assert rc == 0
        body = (tmp_path / "itins.txt").read_text()
        assert "scale 1 window" in body and "scale 2 window" in body
        capsys.readouterr()
        rc = main(["invert", "--pipeline", str(out), "--stream", str(stream)])
        assert rc == 0
        assert capsys.readouterr().out.strip() == "1"  # x_0 = core[2]

    def test_decode_and_invert_print_the_labels_of_itinerary_list(self, tmp_path, capsys):
        out = self._build(tmp_path)
        pipe = load_pipeline(str(out))
        margin = pipe.decode_margin()
        point = tmp_path / "point.txt"
        point.write_text("left: 10\ncore: 00100@-2\nright: 001\n")
        stream = tmp_path / "stream.txt"
        assert main(["encode", "--pipeline", str(out), "--point", str(point),
                     "--window=%d:%d" % (-margin, margin), "--out", str(stream)]) == 0
        res = pipe.decode(SymbolStream.from_text(stream.read_text()), 2)
        want = []
        for l in (1, 2):
            lo, hi = res.certified[l]
            want += ["scale %d window %d:%d" % (l, lo, hi),
                     "labels " + " ".join(res.itinerary_list(l, (lo, hi)))]
        want.append("orbits " + " ".join(res.orbits))
        capsys.readouterr()
        assert main(["decode", "--pipeline", str(out), "--stream", str(stream)]) == 0
        assert capsys.readouterr().out.splitlines() == want
        assert main(["invert", "--pipeline", str(out), "--stream", str(stream)]) == 0
        assert capsys.readouterr().out.splitlines() == res.itinerary_list(2, (0, 0))

    def test_cli_roundtrip_byte_exact(self, tmp_path):
        out = self._build(tmp_path)
        pipe = load_pipeline(str(out))
        margin = pipe.decode_margin()
        point = tmp_path / "point.txt"
        point.write_text("left: 01\ncore: 0010010@-3\nright: 0\n")
        s1, s2 = tmp_path / "s1.txt", tmp_path / "s2.txt"
        args = ["encode", "--pipeline", str(out), "--point", str(point),
                "--window=%d:%d" % (-margin, margin)]
        assert main(args + ["--out", str(s1)]) == 0
        assert main(args + ["--out", str(s2)]) == 0
        assert s1.read_bytes() == s2.read_bytes()

    def test_invert_truncated_exits_nonzero(self, tmp_path, capsys):
        out = self._build(tmp_path)
        point = tmp_path / "point.txt"
        point.write_text("left: 10\ncore: 00100@-2\nright: 001\n")
        stream = tmp_path / "stream.txt"
        main(["encode", "--pipeline", str(out), "--point", str(point),
              "--window=-20:20", "--out", str(stream)])
        rc = main(["invert", "--pipeline", str(out), "--stream", str(stream)])
        assert rc == 1

    def test_usage_error_exit_two(self, tmp_path):
        rc = main(["build", "--system", str(tmp_path / "missing.txt"),
                   "--K", "2", "--kmax", "1", "--out", str(tmp_path / "x")])
        assert rc == 2

    def test_decode_reports_an_uncertified_scale(self, tmp_path, capsys):
        # a scale-2 stream on -15:15 is too short to certify any scale-2 window
        out = self._build(tmp_path)
        point = tmp_path / "point.txt"
        point.write_text("left: 10\ncore: 00100@-2\nright: 001\n")
        stream = tmp_path / "stream.txt"
        assert main(["encode", "--pipeline", str(out), "--point", str(point),
                     "--window=-15:15", "--out", str(stream)]) == 0
        capsys.readouterr()
        assert main(["decode", "--pipeline", str(out), "--stream", str(stream)]) == 0
        assert capsys.readouterr().out.splitlines() == [
            "scale 1 window -10:-1", "labels 1 0 1 0 1 0 1 0 0 0",
            "scale 2 uncertified", "orbits "]

    def test_verify_command(self, tmp_path, capsys):
        out = self._build(tmp_path)
        rc = main(["verify", "--pipeline", str(out), "--samples", "4",
                   "--window=-30:30"])
        assert rc == 0
        assert "PASS" in capsys.readouterr().out

    def test_full_shift_build_rejected(self, tmp_path, capsys):
        sysfile = tmp_path / "full.txt"
        sysfile.write_text("kind: sft\nalphabet: 2\nforbidden: []\n")
        rc = main(["build", "--system", str(sysfile), "--K", "2", "--kmax", "1",
                   "--out", str(tmp_path / "nope")])
        assert rc == 1

    def test_odometer_build_aperiodic_path(self, tmp_path):
        sysfile = tmp_path / "odo.txt"
        sysfile.write_text("kind: odometer\nbase: [2, 2, 2, 2, 2, 2, 2, 2]\n")
        out = tmp_path / "opipe"
        rc = main(["build", "--system", str(sysfile), "--K", "2", "--kmax", "2",
                   "--N-cert", "128", "--out", str(out)])
        assert rc == 0
        pipe = load_pipeline(str(out))
        assert pipe.periodic_code is None
        assert not (out / "periodic_code.txt").exists()

    def test_odometer_labels_print_as_dotted_digits(self, tmp_path, capsys):
        sysfile = tmp_path / "odo.txt"
        sysfile.write_text("kind: odometer\nbase: [2, 2, 2, 2, 2, 2, 2, 2]\n")
        out = tmp_path / "opipe"
        assert main(["build", "--system", str(sysfile), "--K", "2", "--kmax", "2",
                     "--N-cert", "128", "--out", str(out)]) == 0
        point = tmp_path / "point.txt"
        point.write_text("digits: [1, 1, 0, 1, 0, 0, 0, 0]\n")
        margin = load_pipeline(str(out)).decode_margin()
        stream = tmp_path / "stream.txt"
        assert main(["encode", "--pipeline", str(out), "--point", str(point),
                     "--window=%d:%d" % (-margin, margin), "--out", str(stream)]) == 0
        capsys.readouterr()
        assert main(["invert", "--pipeline", str(out), "--stream", str(stream)]) == 0
        assert capsys.readouterr().out == "1.1\n"      # m_2 = 1: two digits at time 0
        assert main(["decode", "--pipeline", str(out), "--stream", str(stream)]) == 0
        labels = capsys.readouterr().out.splitlines()[1].split()
        assert labels[0] == "labels" and {len(x.split(".")) for x in labels[1:]} == {1}

    def test_build_walks_the_orbit_tree_once_per_length(self, tmp_path, monkeypatch):
        """The periodic code walks n_1 = 9, and nothing walks further: each
        tower tests its periodic neighbourhood on the window."""
        from shiftembed import systems
        walks = Counter()
        real = systems._lyndon_orbits

        def counting(system, nmax):
            walks[nmax] += 1
            return real(system, nmax)

        monkeypatch.setattr(systems, "_lyndon_orbits", counting)
        self._build(tmp_path)
        assert walks == {9: 1}

    @pytest.mark.parametrize("spec, K, kmax, C, n", [
        ("kind: sft\nalphabet: 2\nforbidden: [11]\n", 3, 3, 4, (13, 26, 52)),
        ("kind: sft\nalphabet: 2\nforbidden: []\n", 3, 2, 0, (14, 23)),
    ], ids=["golden-K3-kmax3-C4", "full2-K3-kmax2-C0"])
    def test_build_enumerates_no_orbit_past_n1(self, tmp_path, spec, K, kmax, C, n):
        """The orbits of period <= n_kmax are 86,267,571,272 admissible
        52-words on golden K=3 and 2^23 words on the full 2-shift, over
        WORD_ENUM_BUDGET; build lists none of them, so both build, and
        the directory loads back the built schedule and periodic code."""
        sysfile = tmp_path / "system.txt"
        sysfile.write_text(spec)
        out = tmp_path / "pipe"
        assert main(["build", "--system", str(sysfile), "--K", str(K), "--kmax", str(kmax),
                     "--C", str(C), "--out", str(out)]) == 0
        built = build_pipeline(parse_system(spec), K=K, kmax=kmax, C=C)
        again = load_pipeline(str(out))
        assert again.schedule == built.schedule and again.schedule.n == n
        assert again.periodic_code.orbit_code == built.periodic_code.orbit_code


class TestMalformedInputExitsTwo:
    """Malformed input files are parse errors: exit 2 with a one-line
    message, never a traceback."""

    @pytest.fixture(scope="class")
    def orbit_pipe(self, tmp_path_factory):
        tmp = tmp_path_factory.mktemp("malformed")
        sysfile = tmp / "orbit.txt"
        sysfile.write_text("kind: orbit\nalphabet: 2\nword: 001\n")
        out = tmp / "pipe"
        assert main(["build", "--system", str(sysfile), "--K", "2", "--kmax", "1",
                     "--C", "0", "--m", "0", "--out", str(out)]) == 0
        return out

    def _exits_two(self, argv, capsys):
        capsys.readouterr()
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err and err.count("\n") == 1
        return err

    def test_an_unknown_command_is_a_usage_error(self, capsys):
        capsys.readouterr()
        assert main(["nonsense"]) == 2
        err = capsys.readouterr().err
        assert "invalid choice: 'nonsense'" in err and "Traceback" not in err

    @pytest.mark.parametrize("text", [
        "garbage\n",
        "window: 0:5\n",
        "window: zero:5\nsymbols: 1 1 1 1 1 1\n",
        "window: 0:5\nsymbols: 1 1\nresolution: 1 1\n",
        "window: 0:1\nsymbols: 1 1\nresolution: 1 x\n",
        "window: 5:4\nsymbols:\n",
        "window: 0:2\nsymbols: B1 foo 1\n",
        "window: 0:2\nsymbols: B1 12 1\n",
        "window: 0:2\nsymbols: B1 | 1\n",
    ], ids=["one-line-garbage", "no-symbols", "bad-window", "count-mismatch",
            "bad-resolution", "reversed-window", "unknown-token", "two-letter-token",
            "raw-marker"])
    def test_decode_malformed_stream(self, orbit_pipe, tmp_path, capsys, text):
        stream = tmp_path / "stream.txt"
        stream.write_text(text)
        self._exits_two(["decode", "--pipeline", str(orbit_pipe), "--stream", str(stream)],
                        capsys)

    @pytest.fixture(scope="class")
    def odometer_pipe(self, tmp_path_factory):
        tmp = tmp_path_factory.mktemp("malformed-odometer")
        sysfile = tmp / "odo.txt"
        sysfile.write_text("kind: odometer\nbase: [2, 2, 2, 2, 2, 2, 2, 2]\n")
        out = tmp / "pipe"
        assert main(["build", "--system", str(sysfile), "--K", "2", "--kmax", "2",
                     "--N-cert", "128", "--out", str(out)]) == 0
        return out

    # id -> (pipeline, point file, fragment of the refusal)
    POINT_FILES = {
        "odometer-too-few-digits": ("odometer", "digits: [0, 1]\n",
                                    "expected 8 digits, got 2"),
        "odometer-digit-out-of-base": ("odometer", "digits: [5, 0, 0, 0, 0, 0, 0, 0]\n",
                                       "digit 5 out of range for base 2"),
        "empty-left": ("golden", "left:\ncore: 0@0\nright: 0\n",
                       "left and right periods must be nonempty"),
        "left-outside-alphabet": ("golden", "left: 2\ncore: 0@0\nright: 0\n",
                                  "left period uses letters outside the alphabet"),
        "left-not-cyclic": ("golden", "left: 1\ncore: 0@0\nright: 0\n",
                            "left period '1' is not cyclically admissible"),
        "word-point-on-odometer": ("odometer", "left: 0\ncore: 0@0\nright: 0\n",
                                   "word point supplied for a non-word system"),
    }

    @pytest.mark.parametrize("name", sorted(POINT_FILES))
    def test_encode_malformed_point(self, saved, odometer_pipe, tmp_path, capsys, name):
        system, text, fragment = self.POINT_FILES[name]
        out = odometer_pipe if system == "odometer" else saved / "pipe"
        point = tmp_path / "point.txt"
        point.write_text(text)
        err = self._exits_two(["encode", "--pipeline", str(out), "--point", str(point),
                               "--window=-40:40"], capsys)
        assert fragment in err

    def test_build_non_integer_alphabet(self, tmp_path, capsys):
        sysfile = tmp_path / "bad.txt"
        sysfile.write_text("kind: sft\nalphabet: x\nforbidden: [11]\n")
        self._exits_two(["build", "--system", str(sysfile), "--K", "2", "--kmax", "1",
                         "--out", str(tmp_path / "nope")], capsys)


    def test_build_refuses_an_odometer_schedule_marked_periodic(self, tmp_path, capsys):
        sysfile = tmp_path / "odo.txt"
        sysfile.write_text("kind: odometer\nbase: [2, 2, 2, 2, 2, 2, 2, 2]\n")
        schedule = build_schedule(dyadic_odometer(8), K=2, kmax=2, N_cert=128).serialize()
        schedfile = tmp_path / "schedule.txt"
        schedfile.write_text(schedule.replace("periodic: 0\n", "periodic: 1\n"))
        err = self._exits_two(["build", "--system", str(sysfile), "--K", "2", "--kmax", "2",
                               "--N-cert", "128", "--schedule", str(schedfile),
                               "--out", str(tmp_path / "nope")], capsys)
        assert err == ("error: schedule has periodic: 1, but the odometer system needs "
                       "periodic: 0\n")
        assert not (tmp_path / "nope").exists()

    def test_build_refuses_more_periodic_points_than_the_k_shift(self, tmp_path, capsys):
        # two disjoint 2-cycles have 4 points of least period 2, the 2-shift 2
        sysfile = tmp_path / "two_cycles.txt"
        sysfile.write_text("kind: sft\nalphabet: 4\n"
                           "matrix: [[0,1,0,0],[1,0,0,0],[0,0,0,1],[0,0,1,0]]\n")
        err = self._exits_two(["build", "--system", str(sysfile), "--K", "2", "--kmax", "1",
                               "--C", "0", "--out", str(tmp_path / "nope")], capsys)
        assert err == "error: 4 points of least period 2, more than the full 2-shift's 2\n"
        assert not (tmp_path / "nope").exists()

    def test_load_refuses_a_golden_schedule_marked_aperiodic(self, pipe, tmp_path, capsys):
        out = tmp_path / "pipe"
        save_pipeline(pipe, str(out))
        schedfile = out / "schedule.txt"
        schedfile.write_text(schedfile.read_text().replace("periodic: 1\n", "periodic: 0\n"))
        with pytest.raises(SpecParseError, match="periodic: 0, but the sft system needs "
                                                 "periodic: 1"):
            load_pipeline(str(out))
        point = tmp_path / "point.txt"
        point.write_text("left: 10\ncore: 00100@-2\nright: 001\n")
        err = self._exits_two(["encode", "--pipeline", str(out), "--point", str(point),
                               "--window=-40:40", "--out", str(tmp_path / "stream.txt")],
                              capsys)
        assert err.count("\n") == 1

    @pytest.mark.parametrize("flag", ["7", "-1"])
    def test_build_refuses_a_periodic_flag_other_than_0_or_1(self, pipe, tmp_path, capsys,
                                                             flag):
        sysfile = tmp_path / "golden.txt"
        sysfile.write_text("kind: sft\nalphabet: 2\nforbidden: [11]\n")
        schedfile = tmp_path / "schedule.txt"
        schedfile.write_text(pipe.schedule.serialize().replace("periodic: 1\n",
                                                                "periodic: %s\n" % flag))
        err = self._exits_two(["build", "--system", str(sysfile), "--K", "2", "--kmax", "2",
                               "--C", "0", "--m", "0,0", "--schedule", str(schedfile),
                               "--out", str(tmp_path / "nope")], capsys)
        assert "periodic flag must be 0 or 1, not '%s'" % flag in err
        assert err.count("\n") == 1
        assert not (tmp_path / "nope").exists()

    @pytest.mark.parametrize("flag", ["7", "-1"])
    def test_load_refuses_a_periodic_flag_other_than_0_or_1(self, pipe, tmp_path, capsys,
                                                            flag):
        out = tmp_path / "pipe"
        save_pipeline(pipe, str(out))
        schedfile = out / "schedule.txt"
        schedfile.write_text(schedfile.read_text().replace("periodic: 1\n",
                                                           "periodic: %s\n" % flag))
        with pytest.raises(SpecParseError, match="periodic flag must be 0 or 1, not '%s'"
                                                 % flag):
            load_pipeline(str(out))
        err = self._exits_two(["verify", "--pipeline", str(out), "--samples", "1"], capsys)
        assert "not '%s'" % flag in err

    # every document and CLI value is read by the one set of readers in
    # shiftembed.systems, so what they refuse is refused the same way
    @pytest.fixture(scope="class")
    def saved(self, tmp_path_factory):
        tmp = tmp_path_factory.mktemp("grammar")
        sysfile = tmp / "golden.txt"
        sysfile.write_text("kind: sft\nalphabet: 2\nforbidden: [11]\n")
        (tmp / "odometer.txt").write_text("kind: odometer\nbase: [2, 2, 2, 2, 2, 2, 2, 2]\n")
        out = tmp / "pipe"
        assert main(["build", "--system", str(sysfile), "--K", "2", "--kmax", "2",
                     "--C", "0", "--m", "0,0", "--out", str(out)]) == 0
        point = tmp / "point.txt"
        point.write_text("left: 10\ncore: 00100@-2\nright: 001\n")
        stream = tmp / "stream.txt"
        assert main(["encode", "--pipeline", str(out), "--point", str(point),
                     "--window=-40:40", "--out", str(stream)]) == 0
        return tmp

    def _edited_pipeline(self, saved, tmp_path, old, new):
        import shutil
        out = tmp_path / "pipe"
        shutil.copytree(saved / "pipe", out)
        path = out / "schedule.txt"
        text = path.read_text()
        assert old in text
        path.write_text(text.replace(old, new))
        return out

    # name -> (edit of the golden K=2 schedule.txt, fragment of the refusal)
    SCHEDULE_EDITS = {
        "unclosed-list": (("n: [9, 19]\n", "n: [9, 19\n"), "schedule n must be a [..] list"),
        "zero-denominator": (("alpha: 227563855/1073741824\n", "alpha: 1/0\n"),
                             "schedule alpha must be p/q"),
        "nprime-not-running-sums": (("nprime: [9, 28]\n", "nprime: [9, 20]\n"),
                                    "nprime [9, 20] is not the running sums of n [9, 19]"),
        "lists-of-unequal-length": (("r: [9, 19]\n", "r: [9]\n"),
                                    "must be nonempty and of one length"),
        "C-not-finite": (("C: 0.0\n", "C: nan\n"), "schedule C must be a finite number"),
        "r-not-m-plus-n": (("r: [9, 19]\n", "r: [9, 149]\n"),
                           "schedule r [9, 149] is not max(m_k + n_k, n_k) of m [0, 0] "
                           "and n [9, 19]"),
    }

    @pytest.mark.parametrize("name", sorted(SCHEDULE_EDITS))
    def test_load_refuses_a_malformed_schedule(self, saved, tmp_path, capsys, name):
        (old, new), fragment = self.SCHEDULE_EDITS[name]
        out = self._edited_pipeline(saved, tmp_path, old, new)
        with pytest.raises(SpecParseError, match=re.escape(fragment)):
            load_pipeline(str(out))
        err = self._exits_two(["encode", "--pipeline", str(out), "--point",
                               str(saved / "point.txt"), "--window=-40:40"], capsys)
        assert fragment in err
        assert fragment in self._exits_two(["verify", "--pipeline", str(out),
                                            "--samples", "1"], capsys)

    def test_build_refuses_an_nprime_that_is_not_the_running_sums(self, pipe, saved,
                                                                   tmp_path, capsys):
        schedfile = tmp_path / "schedule.txt"
        schedfile.write_text(pipe.schedule.serialize().replace("nprime: [9, 28]",
                                                                "nprime: [9, 20]"))
        err = self._exits_two(["build", "--system", str(saved / "golden.txt"), "--K", "2",
                               "--kmax", "2", "--C", "0", "--m", "0,0", "--schedule",
                               str(schedfile), "--out", str(tmp_path / "nope")], capsys)
        assert "nprime [9, 20] is not the running sums of n [9, 19]" in err
        assert not (tmp_path / "nope").exists()

    def test_build_refuses_a_schedule_C_that_is_not_finite(self, pipe, saved, tmp_path,
                                                           capsys):
        schedfile = tmp_path / "schedule.txt"
        schedfile.write_text(pipe.schedule.serialize().replace("C: 0.0", "C: nan"))
        err = self._exits_two(["build", "--system", str(saved / "golden.txt"), "--K", "2",
                               "--kmax", "2", "--schedule", str(schedfile),
                               "--out", str(tmp_path / "nope")], capsys)
        assert "schedule C must be a finite number, not 'nan'" in err
        assert not (tmp_path / "nope").exists()

    @pytest.mark.parametrize("C", ["inf", "nan", "-inf"])
    def test_build_refuses_a_C_that_is_not_finite(self, saved, tmp_path, capsys, C):
        # --C inf used to loop forever in build_schedule
        with within_seconds(10):
            err = self._exits_two(["build", "--system", str(saved / "golden.txt"), "--K", "2",
                                   "--kmax", "2", "--C=" + C, "--out", str(tmp_path / "nope")],
                                  capsys)
        assert "--C must be a finite number, not %r" % C in err
        assert not (tmp_path / "nope").exists()

    @pytest.mark.parametrize("command", ["verify", "report"])
    @pytest.mark.parametrize("samples", ["0", "-1"])
    def test_command_refuses_samples_below_one(self, saved, capsys, command, samples):
        err = self._exits_two([command, "--pipeline", str(saved / "pipe"),
                               "--samples", samples], capsys)
        assert "--samples must be at least 1, not %s" % samples in err

    @pytest.mark.parametrize("system, extra, fragment", [
        ("golden", ["--kmax", "0"], "--kmax must be at least 1, not 0"),
        ("golden", ["--kmax", "2", "--K", "0"], "--K must be in 2..9, not 0"),
        ("golden", ["--kmax", "2", "--N-cert", "1"], "--N-cert must be at least 2, not 1"),
        ("golden", ["--kmax", "2", "--m", "0,x"], "--m entry must be an integer, not 'x'"),
        ("golden", ["--kmax", "2", "--C", "0", "--m=-1,0"],
         "m must be 2 nondecreasing radii >= 0, not -1,0"),
        ("odometer", ["--kmax", "3", "--m=-1,0,1"],
         "m must be 3 nondecreasing radii >= 0, not -1,0,1"),
        ("golden", ["--kmax", "2", "--m", "0"], "m must be 2 nondecreasing radii >= 0, not 0"),
        ("golden", ["--kmax", "2", "--m", "1,0"],
         "m must be 2 nondecreasing radii >= 0, not 1,0"),
    ], ids=["kmax-0", "K-0", "N-cert-1", "m-not-integer", "m-negative", "odometer-m-negative",
            "m-too-short", "m-decreasing"])
    def test_build_refuses_a_bad_integer_argument(self, saved, tmp_path, capsys, system, extra,
                                                  fragment):
        err = self._exits_two(["build", "--system", str(saved / (system + ".txt")), "--K", "2",
                               "--out", str(tmp_path / "nope")] + extra, capsys)
        assert fragment in err
        assert not (tmp_path / "nope").exists()

    @pytest.mark.parametrize("command, extra, fragment", [
        ("encode", ["--window=-40:40", "--scale", "5"], "--scale must be in 1..2, not 5"),
        ("invert", ["--scale", "3"], "--scale must be in 1..2, not 3"),
        ("decode", ["--scale", "0"], "--scale must be in 1..2, not 0"),
        ("encode", ["--window=40:-40"], "--window must be a:b with integers a <= b"),
        ("verify", ["--window=5:-5"], "--window must be a:b with integers a <= b"),
    ], ids=["encode-scale-5", "invert-scale-3", "decode-scale-0", "encode-window-reversed",
            "verify-window-reversed"])
    def test_command_refuses_a_bad_argument(self, saved, capsys, command, extra, fragment):
        inputs = {"encode": ["--point", str(saved / "point.txt")],
                  "decode": ["--stream", str(saved / "stream.txt")],
                  "invert": ["--stream", str(saved / "stream.txt")],
                  "verify": ["--samples", "1"]}[command]
        err = self._exits_two([command, "--pipeline", str(saved / "pipe")] + inputs + extra,
                              capsys)
        assert fragment in err

    def test_comments_are_allowed_in_every_document(self, saved, tmp_path, capsys):
        import shutil
        out = tmp_path / "pipe"
        shutil.copytree(saved / "pipe", out)
        for name in ("system.txt", "schedule.txt", "periodic_code.txt"):
            path = out / name
            path.write_text("# %s\n" % name + path.read_text().replace("\n", "  # note\n", 1))
        stream = tmp_path / "stream.txt"
        stream.write_text("# a golden K=2 stream\n" + (saved / "stream.txt").read_text()
                          .replace("\nsymbols", "  # the window\nsymbols"))
        capsys.readouterr()
        assert main(["decode", "--pipeline", str(saved / "pipe"), "--stream",
                     str(saved / "stream.txt")]) == 0
        want = capsys.readouterr().out
        assert main(["decode", "--pipeline", str(out), "--stream", str(stream)]) == 0
        assert capsys.readouterr().out == want


class TestOrbitPipelineCli:
    @pytest.fixture
    def orbit_pipe(self, tmp_path):
        sysfile = tmp_path / "orbit.txt"
        sysfile.write_text("kind: orbit\nalphabet: 2\nword: 001\n")
        out = tmp_path / "pipe"
        assert main(["build", "--system", str(sysfile), "--K", "2", "--kmax", "1",
                     "--C", "0", "--m", "0", "--out", str(out)]) == 0
        return out

    def test_sample_points_are_the_phases(self):
        from shiftembed.systems import orbit_system
        pts = sample_points(orbit_system(2, "001"), 5)
        assert [p.right for p in pts] == ["001", "010", "100", "001", "010"]

    def test_verify_all_pass(self, orbit_pipe, capsys):
        capsys.readouterr()
        rc = main(["verify", "--pipeline", str(orbit_pipe)])
        lines = capsys.readouterr().out.splitlines()
        assert rc == 0
        assert lines and all(" PASS" in line for line in lines), lines

    def test_report(self, orbit_pipe, capsys):
        capsys.readouterr()
        rc = main(["report", "--pipeline", str(orbit_pipe), "--samples", "3"])
        assert rc == 0
        rows = capsys.readouterr().out.splitlines()
        assert rows[0].startswith("point\tscale\tmetric")
        assert len(rows) > 1


class TestReports:
    def test_convergence_report_rows(self, pipe):
        from shiftembed.metrics import convergence_report
        pts = sample_points(golden_mean(), 2, seed=3)
        rows = convergence_report(pts, pipe, depth=2, sample_n=80)
        assert rows
        names = {r[2] for r in rows}
        assert "dN(psi_k, psi)" in names and "dN-bound-ok" in names
        assert all(r[3] == 1 for r in rows if r[2] == "dN-bound-ok")

    def test_verify_and_report_read_one_dN_bound(self, pipe, monkeypatch):
        """The dN-convergence record and the dN-bound-ok rows compare with
        the one bound metrics.dN_bound: a bound of -1 fails both."""
        from shiftembed import metrics
        pts = sample_points(golden_mean(), 1, seed=3)
        assert metrics.dN_bound(pipe.schedule, 2) == 3 * pipe.schedule.alpha / 4
        monkeypatch.setattr(metrics, "dN_bound", lambda schedule, k: -1)
        rows = metrics.convergence_report(pts, pipe, depth=2, sample_n=80)
        assert [r[3] for r in rows if r[2] == "dN-bound-ok"] == [0, 0]
        report = verify_pipeline(pipe, points=pts, window=(-40, 40))
        assert [line for line in report.lines() if "dN-convergence" in line
                and "FAIL" in line]

    def test_report_command(self, tmp_path, capsys):
        sysfile = tmp_path / "golden.txt"
        sysfile.write_text("kind: sft\nalphabet: 2\nforbidden: [11]\n")
        out = tmp_path / "pipe"
        assert main(["build", "--system", str(sysfile), "--K", "2", "--kmax", "2",
                     "--C", "0", "--m", "0,0", "--out", str(out)]) == 0
        capsys.readouterr()
        rc = main(["report", "--pipeline", str(out), "--samples", "2"])
        assert rc == 0
        body = capsys.readouterr().out
        assert body.startswith("point\tscale\tmetric")


def _replace(old, new):
    def corrupt(text):
        assert old in text
        return text.replace(old, new)
    return corrupt


class TestPeriodicCodeLoad:
    """load_pipeline reads periodic_code.txt and refuses, as a parse error
    naming the file, anything the greedy assignment could not have written."""

    # name -> (corruption of the file text, fragment of the refusal)
    CORRUPTIONS = {
        "wrong-n1": (_replace("n1: 9\n", "n1: 8\n"), "header"),
        "wrong-K": (_replace("K: 2\n", "K: 3\n"), "header"),
        "dropped-orbit": (_replace("orbit: 01 -> 12\n", ""), "names 24 orbits"),
        "added-non-orbit": (lambda text: text + "orbit: 0011 -> 1122\n",
                            "names 26 orbits"),
        "wrong-length": (_replace("orbit: 01 -> 12\n", "orbit: 01 -> 121\n"),
                         "has length 3"),
        "non-primitive": (_replace("orbit: 0001 -> 1112\n", "orbit: 0001 -> 1212\n"),
                          "not primitive"),
        "foreign-letter": (_replace("orbit: 01 -> 12\n", "orbit: 01 -> 13\n"),
                           "code alphabet"),
        # 21111 is a rotation of 11112, the code word of orbit 00001
        "rotation-collision": (_replace("orbit: 00101 -> 11122\n",
                                        "orbit: 00101 -> 21111\n"), "collision"),
        # the 9-prefix of 1111221 repeated, 111122111, has period 6 < 7
        "short-period-shape": (_replace("orbit: 0000001 -> 1111222\n",
                                        "orbit: 0000001 -> 1111221\n"), "period below"),
        "missing-file": (None, "No such file"),
    }

    @pytest.fixture(scope="class")
    def saved(self, tmp_path_factory):
        tmp = tmp_path_factory.mktemp("pcode")
        sysfile = tmp / "golden.txt"
        sysfile.write_text("kind: sft\nalphabet: 2\nforbidden: [11]\n")
        out = tmp / "pipe"
        assert main(["build", "--system", str(sysfile), "--K", "2", "--kmax", "2",
                     "--C", "0", "--m", "0,0", "--out", str(out)]) == 0
        point = tmp / "point.txt"
        point.write_text("left: 10\ncore: 00100@-2\nright: 001\n")
        stream = tmp / "stream.txt"
        assert main(["encode", "--pipeline", str(out), "--point", str(point),
                     "--window=-40:40", "--out", str(stream)]) == 0
        return out, stream

    def test_rotation_collision_names_the_first_word_that_takes_a_taken_prefix(self, saved,
                                                                              tmp_path):
        import shutil
        out = tmp_path / "pipe"
        shutil.copytree(saved[0], out)
        path = out / "periodic_code.txt"
        corrupt, _ = self.CORRUPTIONS["rotation-collision"]
        path.write_text(corrupt(path.read_text()))
        with pytest.raises(SpecParseError) as err:
            load_pipeline(str(out))
        assert str(err.value) == ("%s: periodic code prefix collision: code word '21111' of "
                                  "orbit '00101'" % path)

    def test_untampered_file_loads_the_built_code(self, saved, pipe):
        out, _ = saved
        assert load_pipeline(str(out)).periodic_code.orbit_code == \
            pipe.periodic_code.orbit_code

    @pytest.mark.parametrize("name", sorted(CORRUPTIONS))
    def test_corrupted_file_refused(self, saved, tmp_path, capsys, name):
        import shutil
        src, stream = saved
        out = tmp_path / "pipe"
        shutil.copytree(src, out)
        path = out / "periodic_code.txt"
        corrupt, fragment = self.CORRUPTIONS[name]
        if corrupt is None:
            path.unlink()
        else:
            path.write_text(corrupt(path.read_text()))
        with pytest.raises(SpecParseError, match="periodic_code.txt: .*" + fragment):
            load_pipeline(str(out))
        capsys.readouterr()
        assert main(["decode", "--pipeline", str(out), "--stream", str(stream)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "periodic_code.txt" in err
        assert "Traceback" not in err
