"""One benchmark workload in one fresh process; started by run.py.

Roles:
  setup      imports, input generation, fixture files, one warm-up item; then exit
  run        setup, then whole jobs back to back while the next one is expected
             to end within --seconds (at least one job); with --trace 1 every
             job runs untraced and then again traced
  reference  setup, then jobs 0..--jobs-1 untimed, returning their records

The result is written as JSON to --result; run.py turns it into metrics.
"""

import time

T_START = time.perf_counter()  # set-up time counts from here, imports included

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
MAX_ERRORS = 20  # failure messages kept per run


def _import_program():
    src = os.path.join(ROOT, "src")
    sys.path[:0] = [src, BENCH]
    import dirmax

    if os.path.dirname(os.path.dirname(os.path.abspath(dirmax.__file__))) != src:
        raise SystemExit(f"dirmax imported from {dirmax.__file__}, not from {src}")


def _canonical(record):
    return json.loads(json.dumps(record))


def run_job(wl, inputs, ref, tracer, job_id, errors):
    """Run one job's items back to back; checks run between items, untimed."""
    times, records, failed = [], [], 0
    for i, inp in enumerate(inputs):
        if tracer is not None:
            tracer.begin_item(f"{job_id}.{i}")
        t0 = time.perf_counter()
        try:
            out, problems = wl.execute(inp), []
        except Exception as exc:  # an item that raises is a failed item
            out, problems = None, [f"{type(exc).__name__}: {exc}"]
        dt = time.perf_counter() - t0
        if tracer is not None:
            tracer.end_item()
        times.append(dt)
        record = None
        if not problems:
            try:
                record, problems = wl.check(inp, out)
                record = _canonical(record)
            except Exception as exc:
                problems = [f"check raised {type(exc).__name__}: {exc}"]
        if ref is not None and not problems and (i >= len(ref) or ref[i] != record):
            problems = ["output differs from the stored reference"]
        if problems:
            failed += 1
            if len(errors) < MAX_ERRORS:
                errors.append(f"job {job_id} item {i}: {'; '.join(problems)}")
        records.append(record)
    return {"wall": sum(times), "items": times, "failed": failed, "records": records}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--role", choices=("setup", "run", "reference"), required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", default="full")
    ap.add_argument("--jobs", type=int, default=0)
    ap.add_argument("--reference", default=None)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--result", required=True)
    ap.add_argument("--spans", default=None)
    args = ap.parse_args(argv)

    _import_program()
    import tracer as tracing
    import workloads

    wl = workloads.WORKLOADS[args.workload](args.seed, args.scale, args.workdir)
    first = [wl.prepare(item) for item in wl.job(0)]
    errors: list[str] = []
    warm = run_job(wl, [wl.prepare(wl.warmup_item())], None, None, "warm-up", errors)
    setup_s = time.perf_counter() - T_START
    result = {"setup_s": setup_s, "warmup_failed": warm["failed"], "errors": errors}

    ref_jobs = []
    if args.reference and args.role != "reference":
        with open(args.reference) as fh:
            ref = json.load(fh)
        if ref.get("seed") == args.seed:
            ref_jobs = ref["workloads"].get(args.workload, {}).get(args.scale, [])
    result["reference_jobs"] = len(ref_jobs)
    result["unreferenced_jobs"] = 0

    jobs, pairs, spent, expected = [], [], [], set()
    tr = tracing.Tracer() if args.trace and args.role == "run" else None
    if args.role != "setup":
        t_meas = time.perf_counter()
        k = 0
        while True:
            t_job = time.perf_counter()
            inputs = first if k == 0 else [wl.prepare(item) for item in wl.job(k)]
            ref_k = ref_jobs[k] if k < len(ref_jobs) else None
            if ref_jobs and ref_k is None:
                result["unreferenced_jobs"] += 1
            jobs.append(run_job(wl, inputs, ref_k, None, k, errors))
            if tr is not None:
                # same inputs again, drawn afresh, with every layer wrapped
                inputs = [wl.prepare(item) for item in wl.job(k)]
                expected.update(s for item in wl.job(k) for s in wl.expected_spans(item))
                tr.install()
                try:
                    traced = run_job(wl, inputs, ref_k, tr, f"{k}t", errors)
                finally:
                    tr.uninstall()
                pairs.append((jobs[-1]["wall"], traced["wall"]))
                jobs.append(traced)
            k += 1
            now = time.perf_counter()
            spent.append(now - t_job)
            if args.role == "reference":
                if k >= args.jobs:
                    break
            # start another job only if it should end within --seconds
            elif now - t_meas + statistics.median(spent) > args.seconds:
                break

    if args.role == "reference":
        result["records"] = [j["records"] for j in jobs]
    for j in jobs:
        del j["records"]
    result["jobs"] = jobs
    if tr is not None:
        untraced = [u for u, _t in pairs]
        traced = [t for _u, t in pairs]
        result["untraced_wall"] = untraced
        result["per_layer"] = tr.aggregate(
            sum(traced), len(traced), statistics.median(t - u for u, t in pairs))
        calls, edges = tr.calls_by_name(), tr.edges()
        result["missing_spans"] = sorted(
            s for s in expected if not (s in edges if ">" in s else calls.get(s)))
        if args.spans:
            with open(args.spans, "w") as fh:
                json.dump({"workload": args.workload, "seed": args.seed,
                           "fields": ["name", "start_s", "end_s", "parent", "item"],
                           "spans": tr.dump()}, fh)
    result["field_side"] = wl.field_side()
    # ru_maxrss is in KiB on Linux
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    with open(args.result, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
