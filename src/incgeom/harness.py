"""Experiment orchestration: build or load a family pair, summarize it,
count incidences, annotate with every applicable bound, and emit a
deterministic JSON report.

Determinism contract: for a fixed config the report is identical run to
run and across worker counts, except for the segregated `timings` block.
Regularity profiles that would not complete exactly at the family's size
are skipped with a note rather than approximated; they are the only summary
that can be skipped.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass, field, replace
from typing import Optional

from ._version import __version__
from .bounds import bound_table
from .constructions import ConstructionSpec, construct_sharp
from .family import Family, read_family, require_int
from .geometry import require_mode
from .incidence import count_incidences_fast, count_incidences_oracle
from .regularity import min_separation, regularity_constant


@dataclass(frozen=True)
class ExperimentConfig:
    dim: int = 2
    delta: float = 2.0**-6
    s: float = 1.75
    t: float = 1.75
    C: float = 1.0
    mode: str = "euclidean"
    seed: int = 0
    workers: int = 1
    counter: str = "fast"
    construction: str = "sharp"
    points_path: Optional[str] = None
    planes_path: Optional[str] = None

    def __post_init__(self):
        if not self.C > 0:
            raise ValueError(f"C must be positive, got {self.C!r}")
        object.__setattr__(self, "dim", require_int("dimension", self.dim, minimum=2))
        object.__setattr__(self, "workers", require_int("workers", self.workers))
        for name, v in (("s", self.s), ("t", self.t)):
            if not 0.0 <= v <= self.dim:
                raise ValueError(f"exponent {name} must lie in [0, {self.dim}], got {v}")
        require_mode(self.mode)
        if self.counter not in ("fast", "oracle"):
            raise ValueError(f"counter must be fast or oracle, got {self.counter!r}")
        if (self.points_path is None) != (self.planes_path is None):
            raise ValueError("points_path and planes_path must be given together")


@dataclass(frozen=True)
class Report:
    config: ExperimentConfig
    version: str
    families: dict
    incidence: object
    bounds: dict
    timings: dict = field(compare=False)

    def to_dict(self, include_timings=True):
        out = {
            "config": asdict(self.config),
            "version": self.version,
            "families": self.families,
            "incidence": self.incidence.to_dict(),
            "bounds": self.bounds,
        }
        if include_timings:
            out["timings"] = self.timings
        return out


def _family_summary(fam: Family, exponent):
    info = {
        "kind": fam.kind,
        "dim": fam.dim,
        "delta": fam.delta,
        "size": len(fam),
        "min_separation": float(min_separation(fam)),
    }
    try:
        rep = regularity_constant(fam, exponent)
        info["regularity"] = rep.to_dict()
    except ValueError as e:
        info["regularity"] = None
        info["regularity_note"] = f"skipped: {e}"
    return info


def _bound_annotations(config, n_points, n_planes, incidence):
    table = bound_table(config.delta, config.s, config.t, config.dim, n_points, n_planes)
    kept = ["planar"] if config.dim == 2 else ["cauchy_schwarz", "separated_planes", "comparison"]
    ann = {name: table[name] for name in ["linear", *kept]}
    value = ann["linear"]["value"]
    ann["linear"]["ratio"] = incidence.count / value if value > 0 else 0.0
    return ann


def _families_from(config):
    if config.points_path is not None:
        pf = read_family(config.points_path)
        tf = read_family(config.planes_path)
        for path, fam, kind in ((config.points_path, pf, "points"),
                                (config.planes_path, tf, "hyperplanes")):
            if fam.kind != kind:
                raise ValueError(f"{path}: expected a {kind} family, got {fam.kind}")
            if (fam.dim, fam.delta) != (config.dim, config.delta):
                raise ValueError(f"{path}: family has dim={fam.dim}, delta={fam.delta!r}; "
                                 f"config has dim={config.dim}, delta={config.delta!r}")
        return pf, tf
    if config.construction != "sharp":
        raise ValueError(
            f"run_experiment builds only the sharp pair, got {config.construction!r}; "
            "other constructions produce single families (see the construct command)"
        )
    spec = ConstructionSpec(d=config.dim, delta=config.delta, s=config.s, t=config.t)
    return construct_sharp(spec)


def run_experiment(config: ExperimentConfig) -> Report:
    timings = {}
    t0 = time.perf_counter()
    points_fam, planes_fam = _families_from(config)
    timings["setup_s"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    families = {
        "points": _family_summary(points_fam, config.s),
        "hyperplanes": _family_summary(planes_fam, config.t),
    }
    timings["summaries_s"] = time.perf_counter() - t0

    counter = count_incidences_fast if config.counter == "fast" else count_incidences_oracle
    t0 = time.perf_counter()
    inc = counter(
        points_fam, planes_fam, config.C * config.delta,
        mode=config.mode, workers=config.workers,
    )
    timings["count_s"] = time.perf_counter() - t0

    bounds_ann = _bound_annotations(config, len(points_fam), len(planes_fam), inc)
    return Report(
        config=config,
        version=__version__,
        families=families,
        incidence=inc,
        bounds=bounds_ann,
        timings=timings,
    )


@dataclass(frozen=True)
class SweepResult:
    """Per-delta reports plus the flat summary table used for trend checks.

    Rows are (delta, n_points, n_planes, count, ratio); failures carry
    (delta, message) and do not abort the remaining deltas."""

    rows: tuple
    reports: tuple
    failures: tuple

    def ratios(self):
        return [r[4] for r in self.rows]

    def to_dict(self, include_timings=True):
        return {
            "rows": [list(r) for r in self.rows],
            "failures": [list(f) for f in self.failures],
            "reports": [r.to_dict(include_timings) for r in self.reports],
        }


def sweep(config: ExperimentConfig, deltas) -> SweepResult:
    deltas = list(deltas)
    if not deltas:
        raise ValueError("sweep needs at least one delta")
    rows, reports, failures = [], [], []
    for dl in deltas:
        cfg = replace(config, delta=float(dl))
        try:
            rep = run_experiment(cfg)
        except ValueError as e:
            failures.append((float(dl), str(e)))
            continue
        n_points = rep.families["points"]["size"]
        n_planes = rep.families["hyperplanes"]["size"]
        rows.append(
            (float(dl), n_points, n_planes, rep.incidence.count, rep.incidence.ratio)
        )
        reports.append(rep)
    return SweepResult(rows=tuple(rows), reports=tuple(reports), failures=tuple(failures))
