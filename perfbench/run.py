"""incgeom benchmark runner.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all [--seed N] [--seconds S] [--trace 0|1]

One run is one process and one closed-loop client: set-up, one untimed
warm-up pass, then passes back to back for `--seconds` seconds, each pass
starting when the previous one returned; further set-ups, timed but not
used, are spread between the passes.  Every pass's output is checked
against an oracle or a pinned reference outside the timed region.

With `--trace 0` the last stdout line reports the end-to-end metrics
(medians over the run's passes); with `--trace 1` it reports the per-layer
metrics of a run that alternates untraced and traced passes, so the
tracing overhead is their difference.  The line before it holds the full
record: every sample, quartiles, fail rate and the run environment.
`--workload all` runs each workload in a fresh process and prints a table.

The library is imported from `src/` next to this directory and nowhere
else; without it the runner exits with a nonzero status and prints no
result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

# Set-up is repeated through the measuring window, since the machine's
# speed drifts over seconds: before a pass whenever set-up has taken less
# than this share of the window so far, and at least this many times.  Each
# time, set-ups run back to back until they fill a burst of this length,
# so that a set-up of a millisecond is not timed only with the caches a
# pass left cold.  The passes all use the inputs of the first set-up.
SETUP_SHARE, SETUP_MIN_REPS, SETUP_BURST_S = 0.1, 3, 0.02


def _import_library():
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import incgeom
    except ImportError as e:
        raise SystemExit(f"perfbench: cannot import incgeom from {src}: {e}") from None
    if not Path(incgeom.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"perfbench: incgeom was imported from {incgeom.__file__}, not {src}")


def layer_unit(name):
    if name.endswith("_s") or "_s." in name:
        return "s"
    if name.endswith("_ratio") or name.endswith("_fraction"):
        return "ratio"
    if name.endswith("bytes"):
        return "bytes"
    return "count"


def summary(values):
    """Median, quartiles and the highest percentile with at least ten
    samples beyond it (none with fewer than twenty samples)."""
    values = sorted(values)
    n = len(values)
    out = {"n": n, "median": statistics.median(values), "min": values[0], "max": values[-1]}
    if n >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
        out.update(q1=q1, q3=q3)
    pct = 100 * (n - 10) // n if n >= 20 else 0
    if pct > 50:
        out[f"p{pct}"] = statistics.quantiles(values, n=100)[pct - 1]
    out["values"] = values
    return out


def environment():
    import numpy
    import scipy

    import incgeom

    cpu = ""
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), "")
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "incgeom": incgeom.__version__,
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "thread_env": {k: os.environ.get(k) for k in (
            "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
            "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS")},
        "commit": _commit(),
    }


def _commit():
    """The checkout's commit, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


class Tally:
    """Operations attempted and failed, with the first few messages."""

    def __init__(self):
        self.attempted = self.failed = 0
        self.messages = []

    def record(self, ops, errors):
        self.attempted += ops
        if errors:
            self.failed += min(ops, len(errors))
            self.messages.extend(errors[: 10 - len(self.messages)])


def run_workload(name, seed, seconds, trace, scale="full", reference_path=None):
    """One benchmark run in this process; returns (result line, record)."""
    import tracing
    from workloads import WORKLOADS, reference_for

    wl = WORKLOADS[name](scale)
    with open(reference_path or HERE / "reference.json") as fh:
        ref = reference_for(json.load(fh), wl, seed)
    tally = Tally()

    def checked(inputs, output):
        try:
            errors = wl.check(inputs, output, ref)
        except (KeyError, TypeError) as e:
            errors = [f"check could not read the output or reference: {e!r}"]
        tally.record(wl.ops_per_pass, errors)

    def one_call(inputs, workers, tracer):
        """Time one call; a call that raises counts as failed ops."""
        t0 = time.perf_counter()
        try:
            output = wl.run(inputs, workers, tracer)
        except Exception as e:  # a failed operation is a measured outcome
            tally.record(wl.ops_per_pass, [f"{type(e).__name__}: {e}"])
            return time.perf_counter() - t0, None
        elapsed = time.perf_counter() - t0
        return elapsed, output

    workdir = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
    try:
        setup_tracer = tracing.Tracer() if trace else tracing.NULL
        setup_times = []

        def timed_setups():
            """A burst of set-ups; returns the inputs of the first."""
            first = None
            burst = time.perf_counter()
            while True:
                t0 = time.perf_counter()
                made = wl.setup(seed, workdir, setup_tracer)
                t1 = time.perf_counter()
                setup_times.append(t1 - t0)
                if first is None:
                    first = made
                if t1 - burst >= SETUP_BURST_S:
                    return first

        inputs = timed_setups()

        _, output = one_call(inputs, 1, tracing.NULL)  # warm-up, untimed
        # Peak memory of a fresh process through set-up and one pass; later
        # passes only add the allocator's fragmentation, which varies by run.
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if output is not None:
            checked(inputs, output)

        calls = (("wall_s", 1),) + (wl.extra_calls if trace else ())
        samples = {sample: [] for sample, _ in calls}
        traced_walls, layer_passes, leaks = [], [], []
        start = time.perf_counter()
        deadline = start + seconds
        n_pass = 0
        while True:
            t_iter = time.perf_counter()
            if (len(setup_times) < SETUP_MIN_REPS
                    or sum(setup_times) < SETUP_SHARE * (t_iter - start)):
                timed_setups()
            traced = trace and n_pass % 2 == 1
            if traced:
                tracer = tracing.Tracer()
                with tracing.installed(tracer), tracer.span("pass"):
                    elapsed, output = one_call(inputs, 1, tracer)
                if output is not None:
                    traced_walls.append(elapsed)
                    layer_passes.append(tracing.pass_metrics(tracer, wl.harness_timings(output)))
                    checked(inputs, output)
            else:
                for sample, workers in calls:
                    leaks += tracing.leaked_wrappers()
                    elapsed, output = one_call(inputs, workers, tracing.NULL)
                    if output is not None:
                        samples[sample].append(elapsed)
                        checked(inputs, output)
            n_pass += 1
            # stop when another pass like the last one would overrun
            now = time.perf_counter()
            if now + (now - t_iter) > deadline and n_pass >= (2 if trace else 1):
                break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if leaks:
        tally.record(1, [f"wrapper left installed during a timed pass: {sorted(set(leaks))}"])
    if not samples["wall_s"] or (trace and not traced_walls):
        tally.record(1, ["no pass completed"])
    correct = tally.failed == 0

    wall = statistics.median(samples["wall_s"]) if samples["wall_s"] else 0.0
    if trace:
        layer = {key: statistics.median(p[key] for p in layer_passes)
                 for key in layer_passes[0]} if layer_passes else {}
        layer.update(tracing.setup_metrics(setup_tracer))
        layer["family.bytes"] = inputs.get("family_bytes", 0)
        w2 = samples.get("count_s.w2")
        layer["incidence.count_s.w2"] = statistics.median(w2) if w2 else 0.0
        layer["trace.overhead_s"] = (statistics.median(traced_walls) - wall
                                     if traced_walls else 0.0)
        metrics = {k: {"value": v, "unit": layer_unit(k)} for k, v in sorted(layer.items())}
    else:
        values = {"wall_s": wall, "setup_s": statistics.median(setup_times),
                  "peak_rss_mb": peak_rss_mb}
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}

    result = {"correct": correct, "attempted": tally.attempted,
              "failed": tally.failed, "metrics": metrics}
    record = {
        "workload": name, "why": wl.why, "seed": seed, "seconds": seconds,
        "trace": int(bool(trace)), "scale": scale,
        "fail_rate": tally.failed / max(tally.attempted, 1),
        "failures": tally.messages,
        "passes": {k: summary(v) for k, v in samples.items() if v},
        "setup": summary(setup_times),
        "environment": environment(),
    }
    if traced_walls:
        record["passes"]["traced_wall_s"] = summary(traced_walls)
    return result, record


def run_all(args):
    """Each workload in a fresh process (so peak RSS is its own), then a
    table of every metric by name and unit."""
    from workloads import WORKLOADS

    all_correct = True
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or len(lines) < 2:
            sys.stderr.write(proc.stderr)
            print(f"{name}: run failed with status {proc.returncode}")
            return 1
        record, result = json.loads(lines[-2]), json.loads(lines[-1])
        all_correct = all_correct and result["correct"]
        print(f"== {name}  correct={result['correct']}  attempted={result['attempted']}  "
              f"failed={result['failed']}  fail_rate={record['fail_rate']:.3g}")
        for key, m in result["metrics"].items():
            print(f"   {key:38s} {m['value']:14.6g} {m['unit']}")
    return 0 if all_correct else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=28.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    _import_library()
    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS

    if args.workload == "all":
        return run_all(args)
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)} or all")
    result, record = run_workload(args.workload, args.seed, args.seconds, args.trace)
    print(json.dumps(record, sort_keys=True))
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
