import json

import numpy as np
import pytest

from incgeom.cli import main
from incgeom.family import Family, write_family

D5 = "2^-5"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def sharp_files(tmp_path, capsys):
    prefix = str(tmp_path / "fam")
    code, out, _ = run(capsys, "construct", "--delta", D5, "--out", prefix)
    assert code == 0
    return f"{prefix}.points.txt", f"{prefix}.planes.txt"


class TestConstructAndCheck:
    def test_sharp_writes_both_files(self, tmp_path, capsys):
        prefix = str(tmp_path / "fam")
        code, out, _ = run(capsys, "construct", "--delta", D5, "--out", prefix)
        assert code == 0
        assert "points" in out and "hyperplanes" in out

    def test_check_accepts_written_families(self, sharp_files, capsys):
        code, out, err = run(capsys, "check", *sharp_files)
        assert code == 0
        assert out.count(": ok") == 2
        assert err == ""

    def test_check_flags_corrupt_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_text("#points dim=2 delta=0.25\n0 0\n0 0\n")
        code, _, err = run(capsys, "check", str(bad))
        assert code == 1
        assert "FAIL" in err

    def test_check_separates_more_than_sixty_thousand_planes(self, tmp_path, capsys):
        n = 70_001
        icpts = (np.arange(n) - n // 2) * 2.0**-16
        fam = Family("hyperplanes", np.column_stack([np.zeros(n), icpts]), 2.0**-16, 2)
        path = tmp_path / "parallel.txt"
        write_family(fam, path)
        code, out, err = run(capsys, "check", str(path))
        assert code == 0 and err == ""
        assert f"size={n} min_separation=1.52588e-05" in out

    def test_random_points_construct(self, tmp_path, capsys):
        path = str(tmp_path / "rand.txt")
        code, out, _ = run(
            capsys, "construct", "--kind", "random-points", "--delta", "0.05",
            "-n", "25", "--seed", "3", "--out", path,
        )
        assert code == 0
        code, out, _ = run(capsys, "check", path)
        assert code == 0
        assert "size=25" in out

    def test_grid_requires_spacings(self, capsys):
        code, _, err = run(capsys, "construct", "--kind", "grid", "--delta", D5)
        assert code == 1
        assert "error:" in err


class TestCount:
    def test_from_files(self, sharp_files, capsys):
        pts, pls = sharp_files
        code, out, _ = run(
            capsys, "count", "--delta", D5, "--points", pts, "--planes", pls,
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["incidence"]["count"] > 0
        assert payload["bounds"]["linear"]["ratio"] == pytest.approx(
            payload["incidence"]["ratio"]
        )

    def test_counters_agree(self, sharp_files, capsys):
        pts, pls = sharp_files
        _, fast, _ = run(capsys, "count", "--delta", D5, "--points", pts,
                         "--planes", pls)
        _, oracle, _ = run(capsys, "count", "--delta", D5, "--points", pts,
                           "--planes", pls, "--counter", "oracle")
        a, b = json.loads(fast), json.loads(oracle)
        assert a["incidence"] == b["incidence"]

    def test_out_flag_writes_file(self, sharp_files, tmp_path, capsys):
        pts, pls = sharp_files
        dest = tmp_path / "report.json"
        code, out, _ = run(
            capsys, "count", "--delta", D5, "--points", pts, "--planes", pls,
            "--out", str(dest),
        )
        assert code == 0
        assert json.loads(dest.read_text())["incidence"]["count"] > 0

    def test_missing_file_is_an_error(self, capsys):
        code, _, err = run(capsys, "count", "--points", "nope.txt",
                           "--planes", "nope2.txt")
        assert code == 1
        assert "error:" in err

    @pytest.mark.parametrize("counter", ["fast", "oracle"])
    def test_zero_workers_is_an_error(self, sharp_files, capsys, counter):
        pts, pls = sharp_files
        code, out, err = run(capsys, "count", "--delta", D5, "--points", pts,
                             "--planes", pls, "--counter", counter, "--workers", "0")
        assert code == 1
        assert out == ""
        assert "error:" in err and "workers" in err


class TestBounds:
    def test_emits_all_entries(self, capsys):
        code, out, _ = run(capsys, "bounds", "--dim", "3", "--s", "1.5",
                           "--t", "1.5", "--n-points", "100", "--n-planes", "100")
        assert code == 0
        payload = json.loads(out)
        assert set(payload) >= {"linear", "cauchy_schwarz", "separated_planes",
                                "comparison"}
        assert payload["cauchy_schwarz"]["delta_exponent"] == pytest.approx(0.25)

    def test_violated_assumptions_marked_not_fatal(self, capsys):
        code, out, _ = run(capsys, "bounds", "--dim", "3", "--s", "0.5")
        assert code == 0
        payload = json.loads(out)
        assert "assumption" in payload["cauchy_schwarz"]["error"]


class TestCover:
    ARGS = ("cover", "--dim", "3", "--delta", "2^-8",
            "--plane1", "0,0,0", "--plane2", "0.125,0,0.01")

    def test_full_cover_exits_zero(self, capsys):
        code, out, _ = run(capsys, *self.ARGS, "--samples", "2000")
        assert code == 0
        payload = json.loads(out)
        assert payload["coverage"]["fraction"] == 1.0
        assert len(payload["cover"]["boxes"]) > 0

    def test_shrunk_cover_exits_one(self, capsys):
        code, out, _ = run(capsys, *self.ARGS, "--samples", "2000",
                           "--shrink", "0.25")
        assert code == 1
        assert json.loads(out)["coverage"]["fraction"] < 1.0


class TestSweep:
    def test_table_and_exit_zero(self, tmp_path, capsys):
        dest = str(tmp_path / "sweep.json")
        code, out, _ = run(capsys, "sweep", "--deltas", "2^-5,2^-6",
                           "--out", dest)
        assert code == 0
        assert out.count("ratio=") == 2
        assert len(json.loads(open(dest).read())["rows"]) == 2

    def test_failed_delta_exits_one(self, capsys):
        code, _, err = run(capsys, "sweep", "--deltas", "2^-5,0.1")
        assert code == 1
        assert "FAIL" in err

    def test_ratio_gate(self, capsys):
        code, _, err = run(capsys, "sweep", "--deltas", "2^-5",
                           "--max-ratio", "0.5")
        assert code == 1
        assert "exceeds" in err


def test_delta_argument_accepts_plain_floats(capsys):
    code, out, _ = run(capsys, "bounds", "--delta", "0.03125", "--dim", "2",
                       "--s", "0.5", "--t", "0.5")
    assert code == 0
    assert json.loads(out)["planar"]["delta_exponent"] == pytest.approx(0.25)
