"""dirmax benchmark: three workloads, end-to-end metrics, a traced run per layer.

Usage, from the root of a checkout (nothing needs building; the program is
imported from ./src):

  python3 bench/run.py --workload norm-sweep --seed 1 --seconds 34 --trace 0
  python3 bench/run.py --workload all --seed 0            # every workload in turn
  python3 bench/run.py --workload overlap-verify --seed 0 --trace 1

Each workload runs in fresh worker processes, one at a time, with the BLAS
and OpenMP pools pinned to one thread; this process does no numeric work.
Set-up is measured in fresh processes (three at full scale, one at tiny
scale) and reported as their median; the last of them goes on to the
measured jobs.  The last line of standard output is one JSON object: with
--trace 0 it holds the end-to-end metrics of BENCHMARK.json, with --trace 1
the per-layer metrics of the traced run.  At the default seed 0 every output is also compared with the
stored reference (bench/reference.json); on other seeds only the
invariants are checked.  `--write-reference` regenerates that file.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

from tracer import LAYERS, PER_LAYER

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
WORKER = os.path.join(BENCH, "worker.py")
REFERENCE = os.path.join(BENCH, "reference.json")
WORKLOADS = ("norm-sweep", "operator-chain", "overlap-verify")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
END_TO_END = (("wall_s", "s"), ("item_p50_ms", "ms"), ("peak_rss_mb", "MB"),
              ("setup_s", "s"))
TAIL_LEVELS = (99.9, 99.5, 99.0, 98.0, 95.0, 90.0, 80.0, 75.0, 50.0)
DEADLINE_S = 170.0  # a single-workload run must end within 180 s
SETUPS = {"full": 3, "tiny": 1}  # fresh set-ups measured per run
# reference jobs stored per scale; at full scale about six times the jobs a
# run of 34 s holds on the seed code, so a several-fold speedup stays checked
REFERENCE_JOBS = {
    "full": {"norm-sweep": 16, "operator-chain": 40, "overlap-verify": 24},
    "tiny": {"norm-sweep": 3, "operator-chain": 3, "overlap-verify": 3},
}


def _read(path: str) -> str:
    try:
        with open(path) as fh:
            return fh.read().strip()
    except OSError:
        return "?"


def machine_facts() -> dict:
    cpu = "?"
    for line in _read("/proc/cpuinfo").splitlines():
        if line.startswith("model name"):
            cpu = line.split(":", 1)[1].strip()
            break
    caches = {}
    base = "/sys/devices/system/cpu/cpu0/cache"
    for idx in sorted(os.listdir(base)) if os.path.isdir(base) else ():
        d = os.path.join(base, idx)
        if _read(os.path.join(d, "type")) in ("Unified", "Data"):
            level = _read(os.path.join(d, "level"))
            caches[f"L{level}"] = (f"{_read(os.path.join(d, 'size'))} shared by cpus "
                                   f"{_read(os.path.join(d, 'shared_cpu_list'))}")
    versions = {}
    for pkg in ("numpy", "scipy"):
        try:
            versions[pkg] = importlib.metadata.version(pkg)
        except importlib.metadata.PackageNotFoundError:
            versions[pkg] = "missing"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "caches": caches,
        "python": platform.python_version(),
        **versions,
    }


def l2_kib() -> int:
    text = _read("/sys/devices/system/cpu/cpu0/cache/index2/size")
    return int(text[:-1]) if text.endswith("K") and text[:-1].isdigit() else 0


def worker_env() -> dict:
    env = dict(os.environ)
    for var in THREAD_VARS:
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    env.pop("PYTHONPATH", None)
    return env


def tail(times: list[float]):
    """(level, value): the highest listed percentile with >= 10 items beyond it."""
    n = len(times)
    ordered = sorted(times)
    for level in TAIL_LEVELS:
        rank = math.ceil(level / 100.0 * n)
        if rank >= 1 and n - rank >= 10:
            return level, ordered[rank - 1]
    return None, None


def run_worker(role, args, workload, workdir, deadline, extra=()):
    fd, result = tempfile.mkstemp(prefix="result-", suffix=".json", dir=workdir)
    os.close(fd)
    cmd = [sys.executable, WORKER, "--role", role, "--workload", workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--scale", args.scale,
           "--workdir", os.path.join(workdir, "files"), "--result", result, *extra]
    if args.reference:
        cmd += ["--reference", args.reference]
    timeout = None if deadline is None else max(1.0, deadline - time.monotonic())
    # worker output goes to stderr, so the last stdout line stays the result
    proc = subprocess.run(cmd, env=worker_env(), stdout=sys.stderr, timeout=timeout)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} {role} worker exited {proc.returncode}")
    with open(result) as fh:
        return json.load(fh)


def measure(args, workload, workdir, deadline) -> dict:
    setups = [run_worker("setup", args, workload, workdir, deadline)
              for _ in range(SETUPS[args.scale] - 1)]
    spans = os.path.join(ROOT, ".bench_out", f"spans-{workload}-seed{args.seed}.json")
    extra = ()
    if args.trace:
        os.makedirs(os.path.dirname(spans), exist_ok=True)
        extra = ("--spans", spans)
    res = run_worker("run", args, workload, workdir, deadline, extra)
    setups.append(res)
    jobs = res["jobs"]
    items = [t for j in jobs for t in j["items"]]
    attempted = len(items)
    failed = sum(j["failed"] for j in jobs)
    for s in setups:
        if s["warmup_failed"]:
            failed += 1
            attempted += 1
        for msg in s["errors"]:
            print(f"FAIL {workload}: {msg}", file=sys.stderr)
    out = {
        "attempted": attempted,
        "failed": failed,
        "walls": [j["wall"] for j in jobs],
        "items": items,
        "setup_s": statistics.median(s["setup_s"] for s in setups),
        "setups": [s["setup_s"] for s in setups],
        "peak_rss_mb": res["peak_rss_mb"],
        "field_side": res["field_side"],
        "reference_jobs": res["reference_jobs"],
        "unreferenced_jobs": res["unreferenced_jobs"],
    }
    if args.trace:
        out.update(per_layer=res["per_layer"], untraced=res["untraced_wall"],
                   missing=res["missing_spans"], spans=spans)
    return out


def report(args, workload, m) -> dict:
    """Print one workload's figures by name with units; return the JSON metrics."""
    n_items, n_jobs = len(m["items"]), len(m["walls"])
    side, l2 = m["field_side"], l2_kib()
    kib = side * side * 8 // 1024
    print(f"# {workload}: field {side}x{side} f64 = {kib} KiB, "
          f"{'within' if kib <= l2 else 'beyond'} the {l2} KiB L2 of a core")
    checked = (f"reference for jobs 0..{m['reference_jobs'] - 1} plus invariants"
               if m["reference_jobs"] else "invariants only")
    print(f"# {workload}: seed {args.seed}, {args.seconds} s, checks: {checked}")
    if m["unreferenced_jobs"]:
        print(f"WARNING {workload}: {m['unreferenced_jobs']} job(s) ran beyond the "
              f"{m['reference_jobs']} stored reference jobs and were checked for "
              "invariants only; store more with --write-reference", file=sys.stderr)
    fail_frac = m["failed"] / m["attempted"]
    if args.trace:
        pl = m["per_layer"]
        for name, unit in PER_LAYER:
            print(f"{workload:15s} {name:45s} {pl[name]:14.6g} {unit}")
        slowest = max(LAYERS, key=lambda lay: pl[f"{lay}.self_s"])
        print(f"{workload:15s} slowest layer: {slowest} "
              f"({pl[slowest + '.self_s']:.4g} s self time per job); "
              f"{len(m['untraced'])} traced job(s), untraced wall "
              f"{statistics.median(m['untraced']):.4g} s, trace overhead "
              f"{pl['bench.trace_overhead_s']:.4g} s; spans in "
              f"{os.path.relpath(m['spans'], ROOT)}")
        for s in m["missing"]:
            print(f"WARNING {workload}: no span recorded for {s} "
                  "(a call path the tracer did not reach)", file=sys.stderr)
        print(f"{workload:15s} fail_frac {fail_frac:.6g} ({m['failed']} of {m['attempted']})")
        return {name: {"value": pl[name], "unit": unit} for name, unit in PER_LAYER}
    level, tail_v = tail(m["items"])
    metrics = {
        "wall_s": statistics.median(m["walls"]),
        "item_p50_ms": 1000.0 * statistics.median(m["items"]),
        "peak_rss_mb": m["peak_rss_mb"],
        "setup_s": m["setup_s"],
    }
    notes = {
        "wall_s": f"median of {n_jobs} job(s)",
        "item_p50_ms": f"median of {n_items} items",
        "peak_rss_mb": "ru_maxrss of the measuring worker",
        "setup_s": f"median of {len(m['setups'])} fresh set-ups",
    }
    for name, unit in END_TO_END:
        print(f"{workload:15s} {name:13s} {metrics[name]:14.6g} {unit:3s} ({notes[name]})")
    if level is None:
        print(f"{workload:15s} item_tail_ms  {'n/a':>14s}     "
              f"(needs 10 items beyond a percentile; {n_items} items)")
    else:
        print(f"{workload:15s} item_tail_ms  {1000.0 * tail_v:14.6g} ms  "
              f"(p{level:g} of {n_items} items)")
    print(f"{workload:15s} fail_frac     {fail_frac:14.6g}     "
          f"({m['failed']} of {m['attempted']} items failed)")
    return {name: {"value": metrics[name], "unit": unit} for name, unit in END_TO_END}


def write_reference(args, workdir) -> int:
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        with open(args.reference) as fh:
            ref = json.load(fh)
    except FileNotFoundError:
        ref = {"seed": args.seed, "workloads": {}}
    if ref["seed"] != args.seed:
        raise SystemExit(f"{args.reference} holds seed {ref['seed']}, not {args.seed}")
    saved, args.reference = args.reference, None
    for name in names:
        jobs = REFERENCE_JOBS[args.scale][name]
        res = run_worker("reference", args, name, workdir, None, ("--jobs", str(jobs)))
        bad = sum(j["failed"] for j in res["jobs"]) + res["warmup_failed"]
        if bad:
            for msg in res["errors"]:
                print(f"FAIL {name}: {msg}", file=sys.stderr)
            raise SystemExit(f"{name}: {bad} items broke an invariant; reference not written")
        ref["workloads"].setdefault(name, {})[args.scale] = res["records"]
        print(f"# {name}: {len(res['records'])} reference jobs at seed {args.seed}")
    with open(saved, "w") as fh:
        json.dump(ref, fh, separators=(",", ":"))
        fh.write("\n")
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=34)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", choices=("full", "tiny"), default="full",
                    help="tiny runs every workload on small inputs (for the tests)")
    ap.add_argument("--reference", default=REFERENCE,
                    help="reference outputs to compare with at their seed")
    ap.add_argument("--write-reference", action="store_true",
                    help="regenerate --reference at --seed instead of measuring")
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")

    if not os.path.isfile(os.path.join(ROOT, "src", "dirmax", "__init__.py")):
        print(f"bench: no dirmax sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    if args.reference and not args.write_reference and not os.path.isfile(args.reference):
        args.reference = None

    facts = machine_facts()
    pinned = " ".join(f"{v}=1" for v in THREAD_VARS)
    print(f"# machine: nproc {facts['nproc']}, cpu {facts['cpu']}, "
          + ", ".join(f"{k} {v}" for k, v in facts["caches"].items()))
    print(f"# software: python {facts['python']}, numpy {facts['numpy']}, "
          f"scipy {facts['scipy']}; worker threads pinned: {pinned}")

    tmp_root = os.path.join(ROOT, ".bench_tmp")
    os.makedirs(tmp_root, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="run-", dir=tmp_root)
    try:
        if args.write_reference:
            return write_reference(args, workdir)
        deadline = time.monotonic() + DEADLINE_S if args.workload != "all" else None
        names = WORKLOADS if args.workload == "all" else (args.workload,)
        metrics, attempted, failed = {}, 0, 0
        for name in names:
            m = measure(args, name, workdir, deadline)
            got = report(args, name, m)
            attempted += m["attempted"]
            failed += m["failed"]
            if args.workload == "all":
                metrics.update({f"{name}.{k}": v for k, v in got.items()})
            else:
                metrics = got
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(tmp_root)
        except OSError:
            pass
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
