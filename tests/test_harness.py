import hashlib
import json
import pathlib
import re

import numpy as np
import pytest

from incgeom._version import __version__
from incgeom.bounds import bound_table
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

    def test_rejects_unknown_mode(self):
        with pytest.raises(ValueError, match="unknown mode 'psii'"):
            ExperimentConfig(dim=3, delta=DELTA, mode="psii")

    def test_rejects_zero_workers(self):
        with pytest.raises(ValueError, match="workers"):
            ExperimentConfig(workers=0)

    @pytest.mark.parametrize("dim", [3.0, 2.5, True, "3", None])
    def test_rejects_a_dimension_that_is_not_an_integer(self, dim):
        with pytest.raises(ValueError,
                           match=f"dimension must be an integer >= 2, got {re.escape(repr(dim))}"):
            ExperimentConfig(dim=dim)

    def test_stores_numpy_integers_as_ints(self):
        cfg = ExperimentConfig(dim=np.int64(3), workers=np.int64(2))
        assert (type(cfg.dim), type(cfg.workers)) == (int, int)
        assert (cfg.dim, cfg.workers) == (3, 2)

    @pytest.mark.parametrize("dim,name,value", [(2, "s", 7.0), (2, "t", -3.0), (3, "s", 3.5),
                                                (3, "t", float("nan"))])
    def test_rejects_exponents_outside_zero_to_dim(self, dim, name, value):
        with pytest.raises(ValueError, match=rf"exponent {name} must lie in \[0, {dim}\]"):
            ExperimentConfig(dim=dim, **{name: value})

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

    def test_bounds_are_entries_of_the_bound_table(self, default_report):
        c, fams = default_report.config, default_report.families
        table = bound_table(c.delta, c.s, c.t, c.dim, fams["points"]["size"],
                            fams["hyperplanes"]["size"])
        linear = dict(table["linear"], ratio=default_report.bounds["linear"]["ratio"])
        assert default_report.bounds == {"linear": linear, "planar": table["planar"]}

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

    def test_to_dict_round_trips_through_json(self, default_report):
        parsed = json.loads(json.dumps(default_report.to_dict(include_timings=False)))
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


def test_numpy_dimension_gives_the_same_json_report():
    report = run_experiment(ExperimentConfig(dim=np.int64(2), delta=2.0**-5))
    json.dumps(report.to_dict())
    want = run_experiment(ExperimentConfig(dim=2, delta=2.0**-5))
    assert (json.dumps(report.to_dict(include_timings=False), sort_keys=True)
            == json.dumps(want.to_dict(include_timings=False), sort_keys=True))


class TestSweep:
    def test_empty_delta_list_is_refused(self):
        with pytest.raises(ValueError, match="sweep needs at least one delta"):
            sweep(ExperimentConfig(), [])

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


def _digest(obj):
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


def test_sharp_d3_report_matches_the_benchmark_reference():
    """The d=3, delta=2^-6 report hashes to the digests that
    `perfbench/reference.json` pins for the `sharp-d3-experiment` workload
    (sha256 of the sorted-key JSON), so a report change fails here before
    the benchmark counts every pass as failed."""
    path = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "reference.json"
    pinned = json.loads(path.read_text())["full"]["sharp"]
    report = run_experiment(ExperimentConfig(dim=3, delta=2.0**-6))
    assert _digest(report.to_dict(include_timings=False)) == pinned["experiment_digest"]
    assert _digest(report.incidence.to_dict()) == pinned["incidence_digest"]


# sha256 of the sorted-key JSON of each timing-free sharp report, by (dim, k)
# for delta = 2^-k
_SHARP_DIGESTS = {
    (2, 6): "048e6742e7e14ea6b49138e175f62a7e77981c4d99ffb375fa44be8a47529da1",
    (2, 7): "36d0f4a2ffe4c1c39b4f398082819798a792bbcdbfd36dc326101c17856d3043",
    (2, 8): "7880a6885e5b62d0f75e41372379ee23d1228b2954f6a477fee0b2048b23a0e2",
    (3, 5): "83dd46b7e56a7a22c72bb2d25798bf770d784cfe72b4bc6770d6575ca8bd2513",
    (3, 6): "2ba86b35e7d7a719c7e0d5a43ca41b5fd489308fcab7ff0552ba9dfc8f13b787",
    (3, 7): "73ed0703082921653a8dfd05a9c2b84c5dcaea052a90934aeaf41033993ebb1d",
    # about 2.5 s and 600 MB: paper scale for the separation and the profile
    (3, 8): "1587ba69d5062d912b361002f44ab8845fc7b31c90aed92e2ae01cd53c4e7fb1",
}


@pytest.mark.parametrize("dim,k", sorted(_SHARP_DIGESTS))
def test_sharp_reports_are_pinned(dim, k):
    """The sharp pairs of the north star's workloads hash to pinned digests,
    so a fast path that changes any count, histogram or regularity profile
    fails here."""
    report = run_experiment(ExperimentConfig(dim=dim, delta=2.0**-k))
    assert _digest(report.to_dict(include_timings=False)) == _SHARP_DIGESTS[dim, k]


def test_summaries_take_one_family_and_the_exponent(monkeypatch):
    """`perfbench` wraps the summary calls as `lambda fam: ...` and
    `lambda fam, s: ...`: with such wrappers in place the report is the
    pinned one, so the summary passes nothing else."""
    from incgeom import harness

    separation, regularity = harness.min_separation, harness.regularity_constant
    monkeypatch.setattr(harness, "min_separation", lambda fam: separation(fam))
    monkeypatch.setattr(harness, "regularity_constant", lambda fam, s: regularity(fam, s))
    report = run_experiment(ExperimentConfig(dim=3, delta=2.0**-5))
    assert _digest(report.to_dict(include_timings=False)) == _SHARP_DIGESTS[3, 5]
