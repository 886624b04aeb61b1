"""sigfd benchmark driver.

    python3 bench/run.py --workload gallery-10k --seed 0 --seconds 35 --trace 0

Runs one workload in this process as a closed loop with one caller: each
operation starts when the previous one has returned.  Inputs come from
`--seed` through the benchmark's own generator.  With `--trace 0` the
last stdout line carries the end-to-end metrics; with `--trace 1` it
carries the per-layer metrics of a traced run.  A fuller report (per
operation latencies, checks, environment and, when traced, every span)
goes to `.bench_work/reports/` and a summary to stderr.

The program is imported from `src/` of the checkout this file sits in;
without it the benchmark exits with code 2 and prints no result.
"""

import os

# One caller and small matrices: a single BLAS/OpenMP thread (at most
# nproc) keeps timings steady on a shared machine.  Set before numpy loads.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH = Path(__file__).resolve().parent
# Set-up runs at least SETUP_REPEATS times and until SETUP_MIN_S have
# passed, so that a cheap set-up is still timed over many repeats.
SETUP_REPEATS, SETUP_MIN_S, SETUP_MAX_REPEATS = 3, 1.0, 200
REFERENCE_SEED = 0


def _import_program():
    """Import sigfd from this checkout's sources, or exit with code 2."""
    problem = None
    if not (SRC / "sigfd" / "__init__.py").is_file():
        problem = f"no sigfd sources under {SRC}; run from a full checkout"
    else:
        sys.path.insert(0, str(SRC))
        import sigfd
        if Path(sigfd.__file__).resolve().parent != SRC / "sigfd":
            problem = f"imported sigfd from {sigfd.__file__}, expected {SRC / 'sigfd'}"
    if problem:
        print(f"bench: {problem}", file=sys.stderr)
        raise SystemExit(2)


def _environment() -> dict:
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    commit = None
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        ref_file = ROOT / ".git" / ref[5:] if ref.startswith("ref: ") else None
        commit = ref_file.read_text().strip() if ref_file and ref_file.is_file() else ref
    src = hashlib.sha256()
    for path in sorted((SRC / "sigfd").glob("*.py")):
        src.update(path.name.encode())
        src.update(path.read_bytes())
    return {"python": platform.python_version(), "numpy": np.__version__,
            "nproc": len(os.sched_getaffinity(0)), "cpu": cpu, "commit": commit,
            "source_sha256": src.hexdigest(),
            "threads": {v: os.environ[v] for v in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                                    "MKL_NUM_THREADS")}}


def _op_stats(samples: dict) -> dict:
    return {kind: {"n": len(v), "min_ms": min(v), "p50_ms": statistics.median(v),
                   "p90_ms": float(np.percentile(v, 90)), "mean_ms": statistics.fmean(v)}
            for kind, v in samples.items() if v}


def measure(workload, seconds: float, tracer=None):
    """Run cycles of operations until `seconds` have passed.

    Without a tracer every operation is timed plainly, and the run goes on
    past `seconds` until the primary operation has `workload.min_primary`
    samples, which its p90 needs.  With a tracer, even cycles run untraced
    and odd cycles traced, so the same run shows the tracing overhead.
    Returns (untraced samples, traced samples, failed).
    """
    plain, traced = {}, {}
    failed = 0
    deadline = time.perf_counter() + seconds
    cycle = 0

    def more() -> bool:
        if tracer is not None:
            return cycle < 2
        return len(plain.get(workload.primary, ())) < workload.min_primary

    while time.perf_counter() < deadline or more():
        trace_now = tracer is not None and cycle % 2 == 1
        if trace_now:
            tracer.install()
        try:
            for kind, call in workload.cycle():
                if time.perf_counter() >= deadline and kind in plain and not more():
                    break
                ok = False
                t0 = time.perf_counter()
                try:
                    if trace_now:
                        with tracer.span(f"bench.{kind}"):
                            ok = call()
                    else:
                        ok = call()
                except Exception:
                    traceback.print_exc(file=sys.stderr)
                dt = 1e3 * (time.perf_counter() - t0)
                (traced if trace_now else plain).setdefault(kind, []).append(dt)
                if not ok:
                    failed += 1
                    print(f"bench: {kind} failed its output check", file=sys.stderr)
        finally:
            if trace_now:
                tracer.remove()
        cycle += 1
    return plain, traced, failed


def _reference_checks(workload_name: str, workload, seed: int) -> list:
    if seed != REFERENCE_SEED:
        return []
    ref = json.loads((BENCH / "reference" / f"seed{REFERENCE_SEED}.json").read_text())
    out = [("input digest matches the stored seed-0 digest",
            ref["digests"][workload_name] == workload.digest, workload.digest)]
    if workload_name == "evaluate-grid":
        out.append(("grid CSV matches the stored reference",
                    workload.full_csv() == ref["evaluate_csv"], ""))
        out.append(("sym8 CSV matches the stored reference",
                    workload.sym8_csv() == ref["evaluate_sym8_csv"], ""))
    return out


def main(argv=None) -> int:
    _import_program()
    import spans
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=REFERENCE_SEED)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    env = _environment()
    work = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        workload = WORKLOADS[args.workload](args.seed, work)
        setup = []
        while len(setup) < SETUP_REPEATS or (sum(setup) < SETUP_MIN_S
                                             and len(setup) < SETUP_MAX_REPEATS):
            workload.release()
            # Each repeat starts from a collected heap, not from wherever
            # the collector's counters happen to stand.
            gc.collect()
            t0 = time.perf_counter()
            workload.setup()
            setup.append(time.perf_counter() - t0)

        tracer = spans.Tracer() if args.trace else None
        plain, traced, failed = measure(workload, args.seconds, tracer)

        checks = workload.checks()
        checks.append(("same seed gives the same input digest",
                       workload.regenerate_digest() == workload.digest, workload.digest))
        checks += _reference_checks(args.workload, workload, args.seed)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = sum(len(v) for v in plain.values()) + sum(len(v) for v in traced.values())
    correct = failed == 0 and all(ok for _, ok, _ in checks)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    ops = _op_stats(plain)
    p = ops[workload.primary]
    setup_s = statistics.median(setup)

    # Named per operation, where the operation applies to this workload.
    named = {"setup_s": setup_s, "rank1_pct": workload.rank1_pct(),
             "failed_frac": failed / attempted, "peak_rss_mb": rss_mb}
    for kind, st in ops.items():
        if kind.startswith("evaluate"):
            named[f"{kind}_s"] = st["p50_ms"] / 1e3
            continue
        named[f"{kind}_ms_p50"] = st["p50_ms"]
        if st["n"] >= 100:
            named[f"{kind}_ms_p90"] = st["p90_ms"]

    report = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": env, "input_digest": workload.digest,
              "setup_s": setup, "operations": ops,
              "named_metrics": named, "attempted": attempted, "failed": failed,
              "samples_ms": plain,
              "checks": [{"check": c, "ok": ok, "detail": d} for c, ok, d in checks]}

    if args.trace:
        metrics = spans.layer_metrics(tracer)
        traced_ops = _op_stats(traced)
        base = ops[workload.primary]["mean_ms"]
        with_trace = traced_ops.get(workload.primary, {}).get("mean_ms", base)
        metrics["trace.overhead_ms"] = (with_trace - base, "ms")
        metrics["trace.overhead_pct"] = (100.0 * (with_trace - base) / base, "%")
        report["traced_operations"] = traced_ops
        report["top_self_ms"] = {kind: spans.top_self(tracer, f"bench.{kind}")
                                 for kind in traced}
        report["spans"] = tracer.dump()
    else:
        metrics = {"setup_s": (setup_s, "s"),
                   "primary_ms_min": (p["min_ms"], "ms"),
                   "primary_ms_p90": (p["p90_ms"], "ms"),
                   "rank1_pct": (workload.rank1_pct(), "%"),
                   "peak_rss_mb": (rss_mb, "MB")}
    report["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}

    reports = ROOT / ".bench_work" / "reports"
    reports.mkdir(parents=True, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (reports / name).write_text(json.dumps(report, indent=1))

    _summary(report, sys.stderr)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": report["metrics"]}))
    return 0


def _summary(report: dict, out) -> None:
    env = report["environment"]
    print(f"# {report['workload']} seed={report['seed']} trace={report['trace']} "
          f"python {env['python']} numpy {env['numpy']} nproc {env['nproc']} "
          f"cpu {env['cpu']!r} commit {env['commit']}", file=out)
    setup = report["setup_s"]
    print(f"# inputs {report['input_digest'][:16]}  setup_s median {statistics.median(setup):.6f} "
          f"over {len(setup)} set-ups", file=out)
    for kind, st in report["operations"].items():
        print(f"#   {kind:14s} n={st['n']:4d} min={st['min_ms']:10.3f} p50={st['p50_ms']:10.3f} "
              f"p90={st['p90_ms']:10.3f} mean={st['mean_ms']:10.3f} ms", file=out)
    for name, value in report["named_metrics"].items():
        print(f"#   {name} = {value:.6g}", file=out)
    for c in report["checks"]:
        print(f"#   check {'ok  ' if c['ok'] else 'FAIL'} {c['check']}", file=out)
    for kind, rows in report.get("top_self_ms", {}).items():
        print(f"#   largest self times under {kind} (ms per call):", file=out)
        for name, ms in rows:
            print(f"#     {name:40s} {ms:10.3f}", file=out)


if __name__ == "__main__":
    sys.exit(main())
