"""Golden-checked extraction benchmark.

    python3 perfbench/run.py --workload crawl_mix --seed 1 --seconds 12 --trace 0

Runs from the repository root (it changes there itself). Each run is a
closed loop: one driver process starts ``SETUPS`` local Ray sessions with
one CPU slot, one after another; each is set up and then runs one job at a
time, each on a corpus of its own seed, for its share of ``--seconds`` of
timed work (one job at least, ``MIN_JOBS`` in all). Every output row is
checked against the corpus's golden table.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` alternates
untraced and traced jobs, reports the per-layer metrics and the tracing
overhead, and writes the spans to ``.bench_work/``. Human-readable lines
come first; the last stdout line is one JSON object. A golden mismatch
prints ``"correct": false`` and exits 1.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORK = ".bench_work"
SETUPS = 3       # Ray sessions per run, each set up once; setup_s is their median
MIN_JOBS = 3     # timed jobs per run at least; a traced run needs two of each kind

UNITS = {"docs_per_s": "docs/s", "cpu_ms_per_doc": "ms", "setup_s": "s",
         "peak_rss_mb": "MB", "failed_share": "ratio", "resume_noop_s": "s"}
END_TO_END = ("docs_per_s", "setup_s", "peak_rss_mb")


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    from perfbench.workloads import WORKLOADS

    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--rows", type=int, default=None,
                   help="generated corpus rows per job (default: the workload's)")
    return p.parse_args(argv)


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def run(args: argparse.Namespace, work_dir: str) -> tuple[dict, list[str]]:
    """Set up, run the timed jobs, and return (result JSON, report lines)."""
    from perfbench import session, workloads as wl

    rows = args.rows or wl.JOB_ROWS[args.workload]
    warm_rows = min(rows, wl.WARM_ROWS[args.workload])
    ray_tmp = os.path.join("/proc/self/cwd", work_dir, "ray")
    tracer = None
    if args.trace:
        from perfbench import tracing
        tracer = tracing.Tracer(args.workload)

    def job(inp, k, traced):
        job_dir = os.path.join(work_dir, f"job{k}")
        if traced:
            return tracer.run_job(inp, job_dir, k)
        return wl.run_job(args.workload, inp, job_dir)

    def set_up(t0: float) -> None:
        wl.warm_up(args.workload, warm, os.path.join(work_dir, "warm"))
        if tracer is not None:
            job(warm, 0, traced=True)
        setup_s.append(time.perf_counter() - t0)

    # per kind of job (traced or not): (rows, timed seconds) of each job
    done: dict[bool, list[tuple[int, float]]] = {False: [], True: []}
    setup_s, rss, cpu_ms, noop_s, job_lines = [], [], [], [], []
    attempted = failed = 0
    timed = 0.0
    k = 1
    min_jobs = MIN_JOBS if tracer is None else 4
    with wl.InputPool(args.workload, args.seed, rows, warm_rows, work_dir) as pool:
        warm = pool.get(0)
        # Every session is set up, then times its share of --seconds (one
        # job at least), so the timed jobs are spread over the whole run and
        # over several Ray sessions rather than sampling one stretch of it.
        for s in range(1, SETUPS + 1):
            t0 = time.perf_counter()
            with session.ray_session(ray_tmp):
                n_spans = len(tracer.spans) if tracer is not None else 0
                set_up(t0)
                if tracer is not None:
                    del tracer.spans[n_spans:]  # keep only the timed jobs' spans
                first = k
                while (k == first or timed < args.seconds * s / SETUPS
                       or (s == SETUPS and k <= min_jobs)):
                    traced = tracer is not None and k % 2 == 0
                    inp = pool.get(k)
                    with session.ProcSampler() as sampler:
                        res = job(inp, k, traced)
                    shutil.rmtree(os.path.dirname(inp.pages_dir))
                    timed += res.seconds
                    done[traced].append((inp.rows, res.seconds))
                    if not traced:
                        rss.append(sampler.peak_mb)
                        cpu_ms.append(1e3 * sampler.cpu_s / inp.rows)
                        if res.resume_noop_s is not None:
                            noop_s.append(res.resume_noop_s)
                    bad = wl.count_failures(res.out, inp.golden)
                    attempted += inp.rows
                    failed += bad
                    job_lines.append(f"job {k}{' traced' if traced else ''} (session {s}): "
                                     f"{inp.rows} rows in {res.seconds:.3f} s, "
                                     f"cpu {sampler.cpu_s:.2f} s, {bad} failed")
                    k += 1

    def docs_per_s(jobs: list[tuple[int, float]]) -> float:
        return statistics.median(r / s for r, s in jobs)

    lines = job_lines + [
        f"workload {args.workload} seed {args.seed}: {k - 1} jobs, {attempted} rows, "
        f"{timed:.1f} s timed, {session.CPUS} CPU"]
    e2e = {"docs_per_s": docs_per_s(done[False]),
           "cpu_ms_per_doc": statistics.median(cpu_ms),
           "setup_s": statistics.median(setup_s),
           "peak_rss_mb": statistics.median(rss),
           "failed_share": failed / attempted}
    if noop_s:
        e2e["resume_noop_s"] = statistics.median(noop_s)
    lines += [f"{name} {value:.6g} {UNITS[name]}" for name, value in e2e.items()]
    lines.append(f"failed {failed} of {attempted} rows")
    if tracer is None:
        metrics = {name: _metric(e2e[name], UNITS[name]) for name in END_TO_END}
    else:
        spans_path = os.path.join(WORK, f"spans-{args.workload}-seed{args.seed}.jsonl")
        tracer.write_spans(spans_path)
        layer = tracer.layer_metrics(docs_per_s(done[False]), docs_per_s(done[True]))
        layer["job.cpu_ms_per_doc"] = (e2e["cpu_ms_per_doc"], UNITS["cpu_ms_per_doc"])
        metrics = {name: _metric(v, unit) for name, (v, unit) in layer.items()}
        lines += [f"{name} {v:.6g} {unit}" for name, (v, unit) in layer.items()]
        lines.append(f"spans written to {spans_path}")
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    return result, lines


def main(argv: list[str] | None = None) -> int:
    os.chdir(ROOT)
    if not os.path.isdir(os.path.join(ROOT, "mobile_ocr_api_ray")):
        print("perfbench: package mobile_ocr_api_ray not found under "
              f"{ROOT}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, ROOT)
    args = parse_args(argv)
    from perfbench import session

    work_dir = os.path.join(WORK, f"run-{os.getpid()}")
    os.makedirs(work_dir)
    # temp files of this process and of Ray's stay inside the checkout
    os.environ["TMPDIR"] = os.path.join(ROOT, work_dir)
    session.own_descendants()
    try:
        result, lines = run(args, work_dir)
    finally:
        killed = session.end_descendants()
        if killed:
            print(f"perfbench: processes left running, killed: {killed}", file=sys.stderr)
        shutil.rmtree(work_dir, ignore_errors=True)
    for line in lines:
        print(line)
    if not result["correct"]:
        print(f"perfbench: {result['failed']} of {result['attempted']} rows "
              "failed the golden check", file=sys.stderr)
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
