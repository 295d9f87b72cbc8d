"""fairalloc benchmark runner.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all  --seed N --seconds S --trace 0|1

One process runs one workload with one thread in a closed loop: a single
caller runs the workload's ops back to back, cycling through its cases,
until ``--seconds`` have passed and every case has run at least once. Each
op's output is checked outside the timed region. The inputs come from
``gen.generate(workload, seed)`` only.

With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics; with ``--trace 1`` it holds the per-layer metrics,
measured by wrapping the library's layer functions (see ``tracing.py``).
``--workload all`` runs every workload in its own fresh process.
See README.md for what each metric means.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import calibrate
import gen

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SETUP_PROBES = 10
PARSE_REPEATS = 9

END_TO_END = {
    "setup_s": "s",
    "work_per_s": "1/s",
    "op_p50_ms": "ms",
    "peak_rss_mb": "MB",
}


def _per_layer_units() -> dict[str, str]:
    import tracing

    units = {"config.parse_s": "s"}
    units.update({name: "s" for name in tracing.TIMED})
    units.update({name: "count" for name in tracing.COUNTED})
    units.update({name: "bytes" for name in units if name.endswith("_bytes")})
    units["allocation.enumerate_peak_mb"] = "MB"
    units["allocation.evaluate_peak_mb"] = "MB"
    units["allocation.heatmap_defined_ratio"] = "ratio"
    units["trace.overhead_share"] = "ratio"
    return units


class Tally:
    """Ops attempted and failed, plus expected domain errors by name."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.expected_errors: Counter = Counter()

    def record(self, label: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            print(f"FAILED {label}: " + "; ".join(problems[:3]), file=sys.stderr)


def run_checked(label: str, fn, tally: Tally) -> None:
    """Run an untimed golden check; an exception counts as a failure."""
    try:
        problems = fn()
    except Exception as err:  # the benchmark must report, not stop
        problems = [f"raised {type(err).__name__}: {err}"]
    tally.record(label, problems)


def measure(
    cases, seconds: float, tally: Tally, tracer=None
) -> dict[str, list[tuple[float, float]]]:
    """Closed loop over ``cases``.

    Returns, per case label, each completed op's (wall seconds, reference
    seconds); see calibrate.py.
    """
    times: dict[str, list[tuple[float, float]]] = {case.label: [] for case in cases}
    attempts = dict.fromkeys(times, 0)
    deadline = time.perf_counter() + seconds
    i = 0
    while time.perf_counter() < deadline or min(attempts.values()) == 0:
        case = cases[i % len(cases)]
        i += 1
        attempts[case.label] += 1
        before = calibrate.task_seconds()
        if tracer is not None:
            tracer.install()
        start = time.perf_counter()
        try:
            out = case.run()
        except Exception as err:  # a failing op is counted, not fatal
            tally.record(case.label, [f"raised {type(err).__name__}: {err}"])
            continue
        finally:
            elapsed = time.perf_counter() - start
            if tracer is not None:
                tracer.remove()
        after = calibrate.task_seconds()
        times[case.label].append((elapsed, elapsed * calibrate.scale(before, after)))
        try:
            problems = case.check(out, tally.expected_errors)
        except Exception as err:  # malformed output; counted, not fatal
            problems = [f"check raised {type(err).__name__}: {err}"]
        del out  # free this op's output before the next op allocates its own
        tally.record(case.label, problems)
    return times


def summarize(cases, times) -> dict[str, float] | None:
    """Throughput and median op time, or None if a case never completed.

    Medians are taken per case, in reference seconds, and combined over one
    cycle of cases so that a run stopping part-way through a cycle does
    not shift the mix. ``wall_p50_ms`` is the same median in unscaled
    wall time, for reading only.
    """
    if any(not times[case.label] for case in cases):
        return None
    ref = sum(statistics.median(r for _, r in times[case.label]) for case in cases)
    wall = sum(statistics.median(w for w, _ in times[case.label]) for case in cases)
    return {
        "work_per_s": sum(case.units for case in cases) / ref,
        "op_p50_ms": 1000.0 * ref / len(cases),
        "wall_p50_ms": 1000.0 * wall / len(cases),
    }


def measure_setup(inputs: dict, probes: int) -> list[float]:
    """Set-up times, in reference seconds, of ``probes`` fresh interpreters
    (see setup_probe.py)."""
    payload = json.dumps({
        "presets": inputs["presets"],
        "configs": gen.config_texts(inputs),
        "metrics": inputs["metrics"],
    })
    samples = []
    for _ in range(probes):
        before = calibrate.task_seconds()
        proc = subprocess.run(
            [sys.executable, "-I", str(HERE / "setup_probe.py"), str(SRC)],
            input=payload, capture_output=True, text=True, timeout=120, cwd=ROOT,
        )
        after = calibrate.task_seconds()
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
        samples.append(float(proc.stdout) * calibrate.scale(before, after))
    return samples


def import_library():
    sys.path.insert(0, str(SRC))
    import fairalloc

    if not Path(fairalloc.__file__).resolve().is_relative_to(SRC):
        raise RuntimeError(f"imported fairalloc from {fairalloc.__file__}, not {SRC}")
    return fairalloc


def run_untraced(workload, seconds, tally) -> dict:
    times = measure(workload.cases, seconds, tally)
    values = summarize(workload.cases, times) or dict.fromkeys(
        ("work_per_s", "op_p50_ms", "wall_p50_ms"), 0.0)
    values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print("ops timed per case: " + ", ".join(f"{k}={len(v)}" for k, v in times.items()))
    return values


def run_traced(workload, inputs, seconds, tally) -> dict:
    import tracing
    import workloads

    parse_s = []
    for _ in range(PARSE_REPEATS):
        start = time.perf_counter()
        workloads.parse_all(inputs)
        parse_s.append(time.perf_counter() - start)
    base = summarize(workload.cases, measure(workload.cases, seconds / 2, tally))
    tracer = tracing.Tracer()
    times = measure(workload.cases, seconds / 2, tally, tracer)
    traced = summarize(workload.cases, times)
    ops = max(1, sum(len(t) for t in times.values()))
    print("traced ops per case: " + ", ".join(f"{k}={len(v)}" for k, v in times.items()))

    metrics = {"config.parse_s": statistics.median(parse_s)}
    metrics.update({name: tracer.self_s[name] / ops for name in tracing.TIMED})
    metrics.update({name: tracer.counts[name] / ops for name in tracing.COUNTED})
    cells = tracer.counts["allocation.heatmap_cells"]
    undefined = tracer.counts["allocation.heatmap_undefined_cells"]
    metrics["allocation.heatmap_defined_ratio"] = (cells - undefined) / cells if cells else 0.0
    peaks = [case.probe_memory() for case in workload.cases if case.probe_memory]
    metrics["allocation.enumerate_peak_mb"] = max((p[0] for p in peaks), default=0.0)
    metrics["allocation.evaluate_peak_mb"] = max((p[1] for p in peaks), default=0.0)
    metrics["trace.overhead_share"] = (
        1.0 - traced["work_per_s"] / base["work_per_s"] if base and traced else 0.0
    )
    return metrics


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> int:
    inputs = gen.generate(name, seed)
    # Half the set-up probes run before the ops and half after, so the
    # median spans the run rather than one moment of the machine's load.
    setup_s = measure_setup(inputs, SETUP_PROBES // 2) if not trace else []
    import_library()
    import workloads

    workload = workloads.build(name, inputs, seed)
    tally = Tally()
    for label, anchor in workload.anchors:
        run_checked(label, anchor, tally)
    if trace:
        values = run_traced(workload, inputs, seconds, tally)
        units = _per_layer_units()
    else:
        values = run_untraced(workload, seconds, tally)
        setup_s += measure_setup(inputs, SETUP_PROBES - len(setup_s))
        values["setup_s"] = statistics.median(setup_s)
        units = END_TO_END
        alias, meaning = workloads.UNIT_NAMES[name]
        print(f"{alias} = {values['work_per_s']:.6g} 1/s ({meaning})")
        if name == "frontier_opt":
            print(f"evaluate_p50_ms = {values['op_p50_ms']:.6g} ms")
        print(f"unscaled wall-clock median op = {values['wall_p50_ms']:.6g} ms")
    print(f"ops_failed = {tally.failed} of {tally.attempted} ops")
    if tally.expected_errors:
        print("expected domain errors: " + ", ".join(
            f"{k}={v}" for k, v in sorted(tally.expected_errors.items())))
    for metric, unit in units.items():
        print(f"{metric} = {values[metric]:.6g} {unit}")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {m: {"value": values[m], "unit": u} for m, u in units.items()},
    }))
    return 0


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Each workload in a fresh process, so no heap carries over."""
    failed = []
    for name in gen.WORKLOADS:
        print(f"== {name}", flush=True)
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(int(trace))],
            capture_output=True, text=True, cwd=ROOT,
        )
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines or not json.loads(lines[-1])["correct"]:
            failed.append(name)
    print("all workloads correct" if not failed else f"failed: {', '.join(failed)}")
    return 1 if failed else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*gen.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (SRC / "fairalloc" / "__init__.py").is_file():
        print(f"error: fairalloc sources not found under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
