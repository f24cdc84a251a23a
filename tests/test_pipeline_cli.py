import os

import pytest

from shiftembed.cli import main
from shiftembed.entropy import ScaleSchedule
from shiftembed.errors import ScheduleError
from shiftembed.pipeline import (build_pipeline, load_pipeline, sample_points,
                                 save_pipeline, verify_pipeline)
from shiftembed.systems import golden_mean


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

    def test_verify_harness_passes(self, pipe):
        points = sample_points(golden_mean(), 8, seed=13)
        report = verify_pipeline(pipe, points=points, window=(-40, 40))
        assert report.passed, "\n".join(report.lines())

    def test_sampler_deterministic(self):
        a = sample_points(golden_mean(), 10, seed=5)
        b = sample_points(golden_mean(), 10, seed=5)
        assert [repr(p) for p in a] == [repr(p) for p in b]


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
        from shiftembed.systems import OrbitSystem
        pts = sample_points(OrbitSystem(2, "001"), 5)
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
