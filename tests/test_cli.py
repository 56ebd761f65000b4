import json
import pathlib

import numpy as np
import pytest

from incgeom import harness
from incgeom.cli import build_parser, main
from incgeom.constructions import ConstructionSpec, construct_sharp
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

    def test_files_must_match_dim_and_delta(self, tmp_path, capsys):
        """3-D files at 2^-5 with the default --dim 2 --delta 2^-6 are refused."""
        pts, pls = tmp_path / "p.txt", tmp_path / "l.txt"
        pf, tf = construct_sharp(ConstructionSpec(d=3, delta=2.0**-5, s=1.75, t=1.75))
        write_family(pf, pts)
        write_family(tf, pls)
        code, out, err = run(capsys, "count", "--points", str(pts), "--planes", str(pls))
        assert code == 1
        assert out == ""
        assert "dim=3, delta=0.03125" in err and "dim=2, delta=0.015625" in err

    @pytest.mark.parametrize("flag", ["--workers", "--cdelta"])
    def test_bad_setting_is_refused_before_reading_files(self, flag, capsys, monkeypatch):
        def unreachable(*args, **kwargs):
            raise AssertionError("family read before the config was checked")

        monkeypatch.setattr(harness, "read_family", unreachable)
        code, out, err = run(capsys, "count", "--points", "p.txt", "--planes", "l.txt",
                             flag, "0")
        assert code == 1
        assert out == ""
        assert "error:" in err

    def test_swapped_files_are_refused_before_summaries(self, sharp_files, capsys,
                                                        monkeypatch):
        def unreachable(*args, **kwargs):
            raise AssertionError("family summarised before its kind was checked")

        monkeypatch.setattr(harness, "min_separation", unreachable)
        pts, pls = sharp_files
        code, out, err = run(capsys, "count", "--delta", D5, "--points", pls,
                             "--planes", pts)
        assert code == 1
        assert out == ""
        assert f"error: {pls}: expected a points family, got hyperplanes" in err

    @pytest.mark.parametrize("flag,value", [("--s", "7"), ("--t", "-3")])
    def test_exponent_out_of_range_is_an_error(self, sharp_files, capsys, flag, value):
        # a file pair's profile would take it; the config refuses it first
        pts, pls = sharp_files
        code, out, err = run(capsys, "count", "--delta", D5, "--points", pts,
                             "--planes", pls, flag, value)
        assert code == 1
        assert out == ""
        assert f"error: exponent {flag[2:]} must lie in [0, 2], got {float(value)}" in err

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
    ARGS = ("cover", "--delta", "2^-8",
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

    @pytest.mark.parametrize("samples", ["0", "-3"])
    def test_non_positive_samples_is_an_error(self, capsys, samples):
        code, out, err = run(capsys, *self.ARGS, "--samples", samples)
        assert code == 1
        assert out == ""
        assert "error:" in err and "n_samples" in err

    def test_planes_of_different_dimension_are_an_error(self, capsys):
        code, out, err = run(capsys, "cover", "--delta", "2^-6",
                             "--plane1", "0,0", "--plane2", "0.1,0,0.01")
        assert code == 1
        assert out == ""
        assert ("error: planes of different dimension: the first has d = 2, the second d = 3"
                in err)


class TestSweep:
    def test_table_and_exit_zero(self, tmp_path, capsys):
        dest = str(tmp_path / "sweep.json")
        code, out, _ = run(capsys, "sweep", "--deltas", "2^-5,2^-6",
                           "--out", dest)
        assert code == 0
        assert out.count("ratio=") == 2
        assert len(json.loads(pathlib.Path(dest).read_text())["rows"]) == 2

    def test_empty_delta_list_is_an_error(self, capsys):
        code, out, err = run(capsys, "sweep", "--deltas", ",")
        assert code == 1
        assert out == ""
        assert "error: sweep needs at least one delta" in err

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


# Each subcommand takes only the flags its handler reads.
KEPT = {
    "construct": {"--dim", "--delta", "--s", "--t", "--seed", "--out", "--kind",
                  "--spacings", "-n", "--size"},
    "check": set(),
    "count": {"--dim", "--delta", "--s", "--t", "--cdelta", "--mode", "--workers", "--out",
              "--points", "--planes", "--counter"},
    "bounds": {"--dim", "--delta", "--s", "--t", "--out", "--n-points", "--n-planes"},
    "cover": {"--delta", "--seed", "--out", "--plane1", "--plane2", "--samples", "--shrink"},
    "sweep": {"--dim", "--s", "--t", "--cdelta", "--mode", "--workers", "--out", "--deltas",
              "--counter", "--max-ratio", "--max-spread"},
}
# Arguments each subcommand needs to parse at all.
REQUIRED = {"cover": ["--plane1", "0,0,0", "--plane2", "0.125,0,0.01"],
            "sweep": ["--deltas", "2^-5"]}
DROPPED = [
    ("construct", "--cdelta", "2"), ("construct", "--mode", "psi"),
    ("construct", "--workers", "2"),
    ("count", "--seed", "1"),
    ("bounds", "--cdelta", "2"), ("bounds", "--mode", "psi"), ("bounds", "--seed", "1"),
    ("bounds", "--workers", "2"),
    ("cover", "--dim", "3"), ("cover", "--s", "1.5"), ("cover", "--t", "1.5"),
    ("cover", "--cdelta", "2"), ("cover", "--mode", "psi"), ("cover", "--workers", "2"),
    ("sweep", "--delta", "2^-6"), ("sweep", "--seed", "1"),
]


def _subparsers():
    parser = build_parser()
    (action,) = [a for a in parser._actions if a.dest == "command"]
    return action.choices


def test_each_subcommand_takes_only_the_flags_it_reads():
    subs = _subparsers()
    assert set(subs) == set(KEPT)
    settable = 0
    for name, sub in subs.items():
        actions = [a for a in sub._actions if a.dest != "help"]
        settable += len(actions)
        assert {s for a in actions for s in a.option_strings} == KEPT[name]
    assert settable == 46


@pytest.mark.parametrize("command,flag,value", DROPPED)
def test_dropped_flag_is_a_usage_error(command, flag, value, capsys):
    argv = [command, *REQUIRED.get(command, [])]
    build_parser().parse_args(argv)
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args([*argv, flag, value])
    assert exc.value.code == 2
    assert flag in capsys.readouterr().err
