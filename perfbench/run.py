"""ke-zeta benchmark.

    python3 perfbench/run.py --workload exact|importance|ladder|chain \
        --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
`src/`, nothing is installed.  Jobs call `kezeta.cli.main(argv)` in this one
process, with no threads; BLAS is capped at the number of usable cores.

--trace 0: measures set-up (a fresh-process import, several times), then
runs the workload's job list in passes while another pass fits in --seconds
(at least three passes), checking every job's output.  End-to-end metrics are medians.
--trace 1: one untraced pass, one traced pass, one untraced pass, then the
traced probe set; prints the per-layer metrics and writes every span to
.perfbench_out/.

The last line of stdout is one JSON object: correct, attempted, failed and
metrics.  The line before it is a fuller report (for --trace 0 it also holds
the failure fraction and the accuracy-per-second figures; for --trace 1 the
sample count and source of each per-layer metric).  See perfbench/README.md.
"""

import os

# Cap BLAS threads before numpy is first imported.
_NPROC = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else (os.cpu_count() or 1)
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(_NPROC)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
WORKLOADS = ("exact", "importance", "ladder", "chain")
MIN_PASSES = 3
SETUP_REPEATS = 7
SETUP_SNIPPET = (
    "import time; t0 = time.perf_counter(); import kezeta, kezeta.cli; "
    "print(repr(time.perf_counter() - t0))"
)


def measure_setup() -> list:
    """Seconds to import kezeta and kezeta.cli in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    samples = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run([sys.executable, "-c", SETUP_SNIPPET], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(f"importing kezeta failed: {proc.stderr.strip()[-500:]}")
        samples.append(float(proc.stdout.strip()))
    return samples


def run_pass(workloads, main, jobs, out_dir, tracer=None, phase="pass") -> list:
    span = tracer.span if tracer is not None else contextlib.nullcontext
    results = []
    for k, job in enumerate(jobs):
        if tracer is not None:
            tracer.job = (phase, k)
        results.append(workloads.run_job(main, job, out_dir, span))
    return results


def wall_seconds(passes: list) -> float:
    """Job list time: each job's lower median over the passes, summed."""
    return sum(statistics.median_low(r.seconds for r in same_job) for same_job in zip(*passes))


def tally(passes: list) -> tuple:
    """(attempted, failed, failures, notes) over every checked job; the
    messages also go to stderr.  Notes are misses of verify's 3 SE inside the
    gate; every pass repeats them, so each is listed once."""
    attempted = sum(len(p) for p in passes)
    failed = sum(1 for p in passes for r in p if r.problems)
    failures = [f"{r.job.name}: {m}" for p in passes for r in p for m in r.problems]
    notes = list(dict.fromkeys(f"{r.job.name}: {m}" for p in passes for r in p for m in r.notes))
    for line in failures:
        print(f"check failed: {line}", file=sys.stderr)
    for line in notes:
        print(f"beyond verify's 3 SE (not a failure): {line}", file=sys.stderr)
    return attempted, failed, failures, notes


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # Linux reports KiB


def emit(report: dict, result: dict) -> None:
    print(json.dumps(report, sort_keys=True))
    print(json.dumps(result, sort_keys=True), flush=True)


def untraced(args, workloads, main, wl, out_dir) -> None:
    passes = []
    start = time.perf_counter()
    while True:
        began = time.perf_counter()
        passes.append(run_pass(workloads, main, wl.jobs, out_dir))
        # stop once another pass like the last one would end past --seconds
        if len(passes) >= MIN_PASSES and 2 * time.perf_counter() - began - start > args.seconds:
            break
    attempted, failed, problems, notes = tally(passes)
    known_defects = workloads.borderline_defects(main, out_dir) if args.workload == "exact" else []
    for line in known_defects:
        print(f"known defect (kept out of the job list): {line}", file=sys.stderr)
    metrics = {
        "setup_s": (statistics.median(args.setup), "s"),
        "wall_s": (wall_seconds(passes), "s"),
        "peak_rss_mib": (peak_rss_mib(), "MiB"),
    }
    extra = {"failed_frac": (failed / attempted, "ratio")}
    per_pass = [wl.efficiency(p) for p in passes]
    for key, unit in (("time_to_1e-3_s", "s"), ("ess_per_s", "1/s")):
        values = [e[key] for e in per_pass if key in e]
        if values:
            extra[key] = (statistics.median(values), unit)
    report = {
        "workload": args.workload, "seed": args.seed, "trace": 0, "passes": len(passes),
        "jobs_per_pass": len(passes[0]), "setup_samples_s": args.setup,
        "pass_wall_s": [sum(r.seconds for r in p) for p in passes],
        "end_to_end": {k: {"value": v, "unit": u} for k, (v, u) in {**metrics, **extra}.items()},
        "failures": problems[:20], "se3_misses": notes, "known_defects": known_defects,
    }
    emit(report, {"correct": failed == 0, "attempted": attempted, "failed": failed,
                  "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}})


def traced(args, workloads, main, wl, out_dir, refs) -> None:
    import tracing

    tracer = tracing.Tracer()
    before = run_pass(workloads, main, wl.jobs, out_dir)
    undo = tracing.install(tracer)
    try:
        during = run_pass(workloads, main, wl.jobs, out_dir, tracer, "pass")
    finally:
        tracing.uninstall(undo)
    after = run_pass(workloads, main, wl.jobs, out_dir)
    undo = tracing.install(tracer)
    try:
        probes = run_pass(workloads, main, tracing.probe_jobs(args.seed, refs), out_dir, tracer, "probe")
        tracer.job = ("probe", len(probes))
        kernels = tracing.kernel_probes(tracer, args.seed)
    finally:
        tracing.uninstall(undo)

    wall = [sum(r.seconds for r in p) for p in (before, during, after)]
    overhead_s = wall[1] - min(wall[0], wall[2])
    layers = tracing.layer_metrics(tracer, {"pass": during, "probe": probes}, refs, kernels, overhead_s)
    spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"
    with spans_path.open("w") as fh:
        for span in tracer.spans:
            fh.write(json.dumps(span.to_json()) + "\n")

    attempted, failed, problems, notes = tally([before, during, after])
    report = {
        "workload": args.workload, "seed": args.seed, "trace": 1,
        "untraced_wall_s": [wall[0], wall[2]], "traced_wall_s": wall[1],
        "spans": len(tracer.spans), "spans_file": str(spans_path.relative_to(ROOT)),
        "per_layer": layers, "failures": problems[:20], "se3_misses": notes,
    }
    emit(report, {"correct": failed == 0, "attempted": attempted, "failed": failed,
                  "metrics": {k: {"value": v["value"], "unit": v["unit"]} for k, v in layers.items()}})


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description="ke-zeta benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "kezeta" / "cli.py").is_file():
        print(f"no ke-zeta sources under {SRC}: run from the root of a source checkout", file=sys.stderr)
        return 2
    args.setup = measure_setup() if args.trace == 0 else []
    sys.path.insert(0, str(SRC))
    import kezeta.cli
    import workloads

    out_dir = OUT / f"{args.workload}-{os.getpid()}"
    out_dir.mkdir(parents=True, exist_ok=True)
    try:
        refs = workloads.references(kezeta.cli.main, out_dir)
        wl = workloads.make(args.workload, args.seed, kezeta.cli.main, out_dir, refs)
        if args.trace:
            traced(args, workloads, kezeta.cli.main, wl, out_dir, refs)
        else:
            untraced(args, workloads, kezeta.cli.main, wl, out_dir)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
