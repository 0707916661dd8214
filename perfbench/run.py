"""picardnet benchmark runner (stdlib only).

    python3 perfbench/run.py --workload mlp-deep --seed 1 --seconds 12 --trace 0

Run from the root of a source checkout.  Every workload runs in fresh
processes (``worker.py``) with the BLAS thread count fixed in their
environment.  Set-up (process start, imports, inputs, one warm-up op) is
timed in ``SETUPS`` processes and reported as the median.  The last of
them then runs the timed ops.  With ``--trace 0`` the last stdout line
is a JSON object with every end-to-end metric; with ``--trace 1`` it has
every per-layer metric of a separate traced phase.  Results, machine
facts and traced spans are also written to ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
from importlib import metadata
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".perfbench_out")
MARK = "@perfbench"
WORKLOADS = ("mlp-deep", "mlp-wide", "synthesis", "cli-all")
SETUPS = 3
BLAS_THREADS = 1
DEADLINE_S = 170.0

# End-to-end metrics: (name, unit).
END_TO_END = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("peak_rss_mb", "MB"),
]


def machine_facts() -> dict:
    def first(path, key):
        try:
            with open(path, encoding="utf-8") as fh:
                for line in fh:
                    if line.startswith(key):
                        return line.split(":", 1)[1].strip()
        except OSError:
            pass
        return "unknown"

    def version(pkg):
        try:
            return metadata.version(pkg)
        except metadata.PackageNotFoundError:
            return "unknown"

    return {"nproc": len(os.sched_getaffinity(0)),
            "cpu_model": first("/proc/cpuinfo", "model name"),
            "mem_total": first("/proc/meminfo", "MemTotal"),
            "python": platform.python_version(),
            "numpy": version("numpy"), "scipy": version("scipy"),
            "blas_threads": BLAS_THREADS}


def cycle_means(latencies, cycle):
    """Mean op latency of each whole cycle of ``cycle`` ops."""
    return [statistics.fmean(latencies[i:i + cycle])
            for i in range(0, len(latencies) - cycle + 1, cycle)]


def child_env() -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


def run_child(args, workdir, deadline, setup_only, spans=None):
    """Start one worker; return (set-up seconds, result payload or None)."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--workdir", workdir]
    if spans:
        cmd += ["--spans", spans]
    if setup_only:
        cmd.append("--setup-only")
    remaining = deadline - perf_counter()
    if remaining <= 0:
        raise TimeoutError("benchmark deadline passed before a worker start")
    start = perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(),
                            stdout=subprocess.PIPE, text=True)
    killer = threading.Timer(remaining, proc.kill)
    killer.start()
    setup_s, result = None, None
    try:
        for line in proc.stdout:
            if not line.startswith(MARK + " "):
                continue
            _, kind, payload = line.rstrip("\n").split(" ", 2)
            if kind == "ready":
                setup_s = perf_counter() - start
            elif kind == "result":
                result = json.loads(payload)
        code = proc.wait()
    finally:
        killer.cancel()
        proc.kill()
        proc.wait()
    if code != 0 or setup_s is None or (result is None and not setup_only):
        raise RuntimeError(f"worker for {args.workload} failed (exit {code})")
    return setup_s, result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    if not os.path.isfile(os.path.join(ROOT, "src", "picardnet",
                                       "__init__.py")):
        print(f"error: no picardnet source under {ROOT}/src; run from the "
              "root of a picardnet checkout", file=sys.stderr)
        return 2

    deadline = perf_counter() + DEADLINE_S
    os.makedirs(OUT, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = os.path.join(OUT, f"work-{tag}-{os.getpid()}")
    spans = os.path.join(OUT, f"{tag}-spans.json") if args.trace else None
    setups = []
    for _ in range(SETUPS - 1):
        setups.append(run_child(args, workdir, deadline, True)[0])
    setup_s, res = run_child(args, workdir, deadline, False, spans)
    setups.append(setup_s)

    lat = res["latencies_s"]
    means = cycle_means(lat, res["cycle"])
    e2e = {"setup_s": statistics.median(setups),
           "wall_s": res["wall_s"],
           "ops_per_s": res["ops"] / res["wall_s"],
           "op_p50_ms": statistics.median(means) * 1e3,
           "peak_rss_mb": res["peak_rss_mb"]}
    if args.trace:
        metrics = res["layers"]
    else:
        metrics = {name: {"value": e2e[name], "unit": unit}
                   for name, unit in END_TO_END}
    facts = machine_facts()
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "machine": facts, "ops": res["ops"], "setups_s": setups,
              "latencies_s": lat, "check_s": res["check_s"],
              "end_to_end": e2e, "metrics": metrics,
              "attempted": res["attempted"], "failed": res["failed"]}
    with open(os.path.join(OUT, f"{tag}.json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)

    print("machine " + json.dumps(facts))
    print(f"workload {args.workload}: {res['ops']} timed ops, closed loop, "
          f"1 caller; set-up median of {SETUPS}; op_p50_ms over "
          f"{len(means)} cycles of {res['cycle']} ops")
    if len(means) >= 100:
        print(f"  op_p90_ms {statistics.quantiles(means, n=10)[8] * 1e3:.6g} "
              "ms")
    for name, m in metrics.items():
        print(f"  {name} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": res["failed"] == 0,
                      "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (RuntimeError, TimeoutError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(1)
