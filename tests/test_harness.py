import json

import pytest

from incgeom._version import __version__
from incgeom.constructions import ConstructionSpec, construct_sharp
from incgeom.family import write_family
from incgeom.harness import ExperimentConfig, run_experiment, sweep

DELTA = 2.0**-6


@pytest.fixture(scope="module")
def default_report():
    return run_experiment(ExperimentConfig())


class TestConfig:
    def test_defaults(self):
        cfg = ExperimentConfig()
        assert cfg.dim == 2
        assert cfg.delta == DELTA
        assert cfg.counter == "fast"

    def test_rejects_unknown_counter(self):
        with pytest.raises(ValueError, match="counter"):
            ExperimentConfig(counter="approximate")

    def test_paths_must_come_in_pairs(self):
        with pytest.raises(ValueError, match="path"):
            ExperimentConfig(points_path="p.txt")

    def test_rejects_zero_workers(self):
        with pytest.raises(ValueError, match="workers"):
            ExperimentConfig(workers=0)

    @pytest.mark.parametrize("C", [0.0, -1.0, float("nan")])
    def test_rejects_nonpositive_C(self, C):
        with pytest.raises(ValueError, match="C must be positive"):
            ExperimentConfig(C=C)


class TestRunExperiment:
    def test_default_run_pins_the_sharp_pair(self, default_report):
        rep = default_report
        assert rep.version == __version__
        assert rep.families["points"]["size"] == 1105
        assert rep.families["hyperplanes"]["size"] == 2193
        assert rep.incidence.count == 49041

    def test_linear_ratio_matches_incidence_ratio(self, default_report):
        linear = default_report.bounds["linear"]
        assert linear["ratio"] == default_report.incidence.ratio

    def test_summaries_carry_separation_and_regularity(self, default_report):
        pts = default_report.families["points"]
        assert pts["min_separation"] == DELTA
        assert pts["regularity"]["s"] == 1.75

    def test_planar_annotation_in_dimension_two(self, default_report):
        assert "planar" in default_report.bounds
        assert default_report.bounds["planar"]["delta_exponent"] == 1.0

    def test_deterministic_up_to_timings(self):
        cfg = ExperimentConfig()
        a = run_experiment(cfg).to_dict(include_timings=False)
        b = run_experiment(cfg).to_dict(include_timings=False)
        assert a == b

    def test_worker_count_does_not_change_the_report(self):
        base = run_experiment(ExperimentConfig()).to_dict(include_timings=False)
        threaded = run_experiment(ExperimentConfig(workers=3)).to_dict(
            include_timings=False
        )
        threaded["config"]["workers"] = 1
        assert threaded == base

    def test_oracle_counter_agrees(self):
        fast = run_experiment(ExperimentConfig()).to_dict(include_timings=False)
        oracle = run_experiment(ExperimentConfig(counter="oracle")).to_dict(
            include_timings=False
        )
        oracle["config"]["counter"] = "fast"
        assert oracle == fast

    def test_timings_present_by_default(self, default_report):
        d = default_report.to_dict()
        assert set(d["timings"]) == {"setup_s", "summaries_s", "count_s"}

    def test_to_json_parses(self, default_report):
        parsed = json.loads(default_report.to_json(include_timings=False))
        assert parsed["version"] == __version__
        assert "timings" not in parsed

    def test_rejects_non_sharp_construction(self):
        with pytest.raises(ValueError, match="sharp"):
            run_experiment(ExperimentConfig(construction="grid"))


@pytest.fixture(scope="module")
def family_paths(tmp_path_factory):
    base = tmp_path_factory.mktemp("fams")
    pf, tf = construct_sharp(ConstructionSpec(d=3, delta=2.0**-5, s=1.75, t=1.75))
    pp, tp = base / "pts.txt", base / "pls.txt"
    write_family(pf, pp)
    write_family(tf, tp)
    return str(pp), str(tp)


class TestFileBackedRun:
    def test_loads_families_from_files(self, family_paths):
        pp, tp = family_paths
        cfg = ExperimentConfig(
            dim=3, delta=2.0**-5, points_path=pp, planes_path=tp
        )
        rep = run_experiment(cfg)
        assert rep.families["points"]["dim"] == 3
        assert rep.incidence.count > 0
        assert "cauchy_schwarz" in rep.bounds

    def test_rejects_files_of_another_dimension(self, family_paths):
        pp, tp = family_paths
        cfg = ExperimentConfig(dim=2, delta=2.0**-5, points_path=pp, planes_path=tp)
        with pytest.raises(ValueError,
                           match=r"dim=3, delta=0\.03125; config has dim=2, delta=0\.03125"):
            run_experiment(cfg)

    def test_rejects_files_at_another_scale(self, family_paths):
        pp, tp = family_paths
        cfg = ExperimentConfig(dim=3, delta=2.0**-6, points_path=pp, planes_path=tp)
        with pytest.raises(ValueError,
                           match=r"dim=3, delta=0\.03125; config has dim=3, delta=0\.015625"):
            run_experiment(cfg)

    def test_violated_assumptions_become_error_markers(self, family_paths):
        pp, tp = family_paths
        cfg = ExperimentConfig(
            dim=3, delta=2.0**-5, s=0.5, t=1.75, points_path=pp, planes_path=tp
        )
        rep = run_experiment(cfg)
        assert "assumption" in rep.bounds["cauchy_schwarz"]["error"]
        assert "s > 1" in rep.bounds["separated_planes"]["error"]
        assert "nonempty" in rep.bounds["comparison"]

    def test_oversized_summaries_are_skipped_not_fatal(self, family_paths, monkeypatch):
        pp, tp = family_paths
        monkeypatch.setattr("incgeom.regularity.DENSE_LIMIT", 1)
        monkeypatch.setattr("incgeom.regularity.TREE_LIMIT", 1)
        cfg = ExperimentConfig(dim=3, delta=2.0**-5, points_path=pp, planes_path=tp)
        rep = run_experiment(cfg)
        planes = rep.families["hyperplanes"]
        assert isinstance(planes["min_separation"], float)
        assert "min_separation_note" not in planes
        assert planes["regularity"] is None
        assert "skipped" in planes["regularity_note"]
        assert rep.incidence.count > 0


class TestSweep:
    def test_failures_are_recorded_and_skipped(self):
        cfg = ExperimentConfig()
        result = sweep(cfg, [2.0**-5, 0.1, 2.0**-6])
        assert len(result.rows) == 2
        assert len(result.failures) == 1
        bad_delta, message = result.failures[0]
        assert bad_delta == 0.1
        assert "power of two" in message

    def test_rows_align_with_reports(self):
        result = sweep(ExperimentConfig(), [2.0**-5, 2.0**-6])
        assert len(result.rows) == len(result.reports) == 2
        for row, rep in zip(result.rows, result.reports):
            delta, n_points, n_planes, count, ratio = row
            assert rep.config.delta == delta
            assert rep.incidence.count == count
            assert rep.incidence.ratio == ratio
        assert result.ratios() == [row[4] for row in result.rows]

    def test_to_dict_shape(self):
        result = sweep(ExperimentConfig(), [2.0**-5])
        d = result.to_dict(include_timings=False)
        assert len(d["rows"]) == 1
        assert d["failures"] == []
