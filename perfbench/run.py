"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload serve_small --seed 1 --seconds 8 --trace 0

Run from the root of a checkout.  With ``--trace 0`` the last line of
standard output is a JSON object holding every end-to-end metric of
``BENCHMARK.json``; with ``--trace 1`` it holds every per-layer metric,
measured by wrapping the layers' entry points for alternate rounds, and
a Chrome trace-event file is written under ``.perfbench/``.  See
``perfbench/README.md`` for the workloads and metrics.
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
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench"

#: Environment every run starts from: one client thread for the numeric
#: libraries, an in-process-only program cache (no disk layer), the
#: native tier on whenever a C compiler exists, no IR dumps.
HERMETIC_ENV = {
    "REPRO_PROGCACHE": "mem",
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}
CLEARED_ENV = ("REPRO_NATIVE", "REPRO_CC", "REPRO_PRINT_AFTER",
               "REPRO_NATIVE_CACHE")


#: (name, unit, better) of every end-to-end metric, in report order.
#: A *request* is one ``Program.run`` (serve_*), one cold compile of a
#: program under a preset (compile) or one ``run_sharded`` call (shard);
#: a *round* is one request per item of the workload.
END_TO_END = [
    ("setup_s", "s", "lower"),
    ("req_per_s", "req/s", "higher"),
    ("latency_p50_ms", "ms", "lower"),
    ("latency_p75_ms", "ms", "lower"),
    ("geomean_ms", "ms", "lower"),
    ("traffic_bytes", "B", "lower"),
    ("peak_bytes", "B", "lower"),
    ("rss_peak_mb", "MB", "lower"),
]


#: The sample each end-to-end metric is computed from (a key of the
#: run's ``samples``): the median of the set-ups, the untraced requests,
#: the untraced rounds, or one request per item for the exact counts.
SAMPLES = {
    "setup_s": "setups", "req_per_s": "rounds",
    "latency_p50_ms": "requests", "latency_p75_ms": "requests",
    "geomean_ms": "requests",
    "traffic_bytes": "items", "peak_bytes": "items", "rss_peak_mb": "rss_reads",
}


def request_seed(seed: int, index: int) -> int:
    return (seed * 1_000_003 + index) % (2**31 - 1)


def traced_round(r: int) -> bool:
    """Rounds alternate untraced/traced in ABBA order (U T T U U T T U
    ...), so warm-up drift falls on both sides of the overhead estimate."""
    return r % 4 in (1, 2)


def fingerprint() -> dict:
    def first_line(cmd):
        try:
            out = subprocess.run(cmd, capture_output=True, text=True,
                                 timeout=30, cwd=ROOT)
        except (OSError, subprocess.SubprocessError):
            return "unknown"
        text = (out.stdout or out.stderr).strip().splitlines()
        return text[0] if out.returncode == 0 and text else "unknown"

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    import numpy

    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "cc": first_line(["cc", "--version"]),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_sha": (first_line(["git", "rev-parse", "HEAD"])
                    if (ROOT / ".git").exists() else "unknown"),
    }


def import_seconds() -> float:
    """Time to import NumPy and every layer of repro in a new interpreter
    (measured per set-up, so setup_s is a median like the rest)."""
    code = ("import time; t0 = time.perf_counter(); import workloads; "
            "print(time.perf_counter() - t0)")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run([sys.executable, "-c", code], cwd=HERE, env=env,
                         capture_output=True, text=True, timeout=120,
                         check=True)
    return float(out.stdout)


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    import workloads as W
    from summary import geomean, percentile, supported

    OUT_DIR.mkdir(exist_ok=True)
    tmp = OUT_DIR / f"tmp-{os.getpid()}"
    tmp.mkdir()
    # Nothing this run builds may land in a shared kernel cache.
    os.environ["REPRO_NATIVE_CACHE"] = str(tmp / "nativecache")
    tracer = None
    try:
        wl = W.make_workload(workload, tmp)
        if trace:
            from layers import instrument
            from tracing import Tracer

            tracer = Tracer()
            instrument(tracer)
            tracer.install()
            tracer.request = "setup"

        reps = 1 if trace else wl.setup_reps
        setups = [import_seconds() + wl.setup(request_seed(seed, -1 - i))
                  for i in range(reps)]

        records, round_totals, traced_rounds, failures = [], [], [], []
        attempted = 0
        index = 0
        t_start = time.perf_counter()
        r = 0
        while True:
            traced = trace and traced_round(r)
            if tracer is not None:
                (tracer.install if traced else tracer.uninstall)()
            total = 0.0
            for item in wl.items:
                attempted += 1
                rseed = request_seed(seed, index)
                if traced:
                    tracer.request = index
                try:
                    if traced:
                        with tracer.span("request") as sp:
                            sp.attrs["item"] = str(item)
                            rec = wl.request(item, rseed)
                    else:
                        rec = wl.request(item, rseed)
                except Exception:
                    traceback.print_exc(file=sys.stderr)
                    failures.append(f"{item} seed {rseed}: raised")
                else:
                    rec.traced = traced
                    records.append(rec)
                    total += rec.latency_s
                index += 1
            round_totals.append((total, traced))
            if r == 0:
                # Set-up plus one full round: later rounds only add the
                # outputs this benchmark keeps for its checks.
                rss_mb = resource.getrusage(
                    resource.RUSAGE_SELF).ru_maxrss / 1024.0
            if traced:
                traced_rounds.append(r)
            r += 1
            elapsed = time.perf_counter() - t_start
            if elapsed >= seconds and (not trace or r >= 2):
                break
        if tracer is not None:
            tracer.uninstall()

        try:
            failures += wl.check(records)
        except Exception:
            traceback.print_exc(file=sys.stderr)
            failures.append("output check raised")

        plain = [x for x in records if not x.traced]
        lat_ms = [x.latency_s * 1e3 for x in plain]
        by_item = {}
        for x in plain:
            by_item.setdefault(x.item, []).append(x.latency_s * 1e3)
        samples = {"requests": len(lat_ms),
                   "rounds": sum(1 for _t, tr in round_totals if not tr),
                   "setups": len(setups),
                   "items": len(wl.items),
                   "rss_reads": 1}
        metrics, notes = {}, wl.notes(records)
        if not trace:
            values = {
                "setup_s": statistics.median(setups),
                # Requests per round over the median round: robust to
                # the few-second slow spells of a shared machine.
                "req_per_s": len(wl.items) / statistics.median(
                    [t for t, tr in round_totals if not tr]),
                "latency_p50_ms": percentile(lat_ms, 50),
                "latency_p75_ms": percentile(lat_ms, 75),
                "geomean_ms": geomean(
                    [statistics.median(v) for v in by_item.values()]),
                "rss_peak_mb": rss_mb,
                **wl.exact(records),
            }
            metrics = {n: (float(values[n]), u, samples[SAMPLES[n]])
                       for n, u, _b in END_TO_END}
            notes["p75_supported"] = supported(len(lat_ms), 75)
        else:
            from layers import PER_LAYER, from_spans

            traced_ids = sorted({s.request for s in tracer.spans
                                 if isinstance(s.request, int)})
            cscope, cper = wl.compile_scope(traced_ids)
            values = from_spans(tracer.spans, cscope, cper, traced_ids,
                                len(traced_rounds))
            values.update(wl.layer_extras(records))
            med_t = statistics.median([t for t, tr in round_totals if tr])
            med_u = statistics.median([t for t, tr in round_totals if not tr])
            values["trace.overhead_pct"] = (med_t - med_u) / med_u * 100.0
            units = {n: u for n, u, _b in PER_LAYER}
            samples["traced_rounds"] = len(traced_rounds)
            metrics = {n: (float(values.get(n, 0.0)), units[n],
                           len(traced_rounds))
                       for n, _u, _b in PER_LAYER}
            path = OUT_DIR / f"trace-{workload}-seed{seed}.json"
            tracer.write(path, {"workload": workload, "seed": seed})
            notes["trace_file"] = str(path.relative_to(ROOT))
        return {
            "workload": workload,
            "seed": seed,
            "attempted": attempted,
            "failures": failures,
            "metrics": metrics,
            "samples": samples,
            "notes": notes,
        }
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no src/repro under {ROOT}; run from a checkout",
              file=sys.stderr)
        return 2
    for k in CLEARED_ENV:
        os.environ.pop(k, None)
    os.environ.update(HERMETIC_ENV)
    sys.path.insert(0, str(ROOT / "src"))

    import workloads
    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r} "
              f"(have {', '.join(workloads.WORKLOADS)})", file=sys.stderr)
        return 2

    res = run(args.workload, args.seed, args.seconds, bool(args.trace))
    fp = fingerprint()
    failed = len(res["failures"])
    for f in res["failures"]:
        print(f"FAILED: {f}", file=sys.stderr)
    print(f"workload {res['workload']}  seed {res['seed']}  "
          f"trace {args.trace}  samples {json.dumps(res['samples'])}")
    print(f"machine {json.dumps(fp)}")
    for k, v in res["notes"].items():
        print(f"note {k}: {v}")
    print(f"fail_ratio {failed / res['attempted']:.6f} "
          f"({failed} of {res['attempted']})")
    for name, (value, unit, n) in res["metrics"].items():
        print(f"{name:34s} {value:18.6f} {unit:6s} n={n}")
    OUT_DIR.mkdir(exist_ok=True)
    with open(OUT_DIR / f"result-{args.workload}-seed{args.seed}"
              f"-trace{args.trace}.json", "w") as fh:
        json.dump({**res, "machine": fp}, fh, indent=1, default=str)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": res["attempted"],
        "failed": failed,
        "metrics": {n: {"value": v, "unit": u}
                    for n, (v, u, _n) in res["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
