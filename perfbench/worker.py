"""One workload process: set up, signal ready, run the timed phase(s).

Started by ``run.py``, which times set-up from process start until the
``ready`` line.  With ``--setup-only`` the process exits there.  Otherwise
it runs the timed ops as a closed loop with one caller (each op starts when
the previous one returns), then, with ``--trace 1``, the same ops again with
the tracer installed; a traced run gives each phase half the time.  Output
checks run after each phase, outside its timing.  Protocol lines on stdout
start with ``@perfbench``; the library's own prints are ignored by the
parent.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import sys
from time import perf_counter

from run import MARK, ROOT


def _emit(kind, payload=None):
    print(MARK, kind, json.dumps(payload), flush=True)


def _phase(op, ops):
    """Run ops 1..ops back to back; return outputs, latencies, wall time."""
    outputs, latencies = [], []
    start = perf_counter()
    for k in range(1, ops + 1):
        t0 = perf_counter()
        outputs.append(op(k))
        latencies.append(perf_counter() - t0)
    return outputs, latencies, perf_counter() - start


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--spans", help="file to write the traced spans to")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    sys.path.insert(0, os.path.join(ROOT, "src"))
    import picardnet
    import workloads

    src = os.path.realpath(os.path.join(ROOT, "src"))
    if not os.path.realpath(picardnet.__file__).startswith(src + os.sep):
        raise RuntimeError(f"picardnet imported from {picardnet.__file__}, "
                           f"not from {src}")

    w = workloads.WORKLOADS[args.workload]()
    # A traced run splits its time between the untraced and traced phases.
    ops = w.op_count(args.seconds / 2 if args.trace else args.seconds)
    os.makedirs(args.workdir, exist_ok=True)
    try:
        w.setup(args.seed, ops, args.workdir)
        warm = w.op(0)
        _emit("ready")
        if args.setup_only:
            return 0

        outputs, latencies, wall_s = _phase(w.op, ops)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        checked = [(0, warm)] + list(enumerate(outputs, start=1))
        check_start = perf_counter()
        failed = sum(not w.check(k, out) for k, out in checked)
        check_s = perf_counter() - check_start
        attempted = len(checked)
        result = {"ops": ops, "cycle": w.cycle, "latencies_s": latencies,
                  "wall_s": wall_s, "peak_rss_mb": peak_rss_mb,
                  "check_s": check_s}

        if args.trace:
            from tracer import Tracer
            tracer = Tracer()
            tracer.install(workloads)
            traced_op = tracer.wrap(w.op, "op")

            def op(k):
                tracer.op = k
                return traced_op(k)

            try:
                outputs, _, traced_wall_s = _phase(op, ops)
            finally:
                tracer.uninstall()
            failed += sum(not w.check(k, out)
                          for k, out in enumerate(outputs, start=1))
            attempted += ops
            result["layers"] = tracer.metrics(ops, wall_s, traced_wall_s)
            if args.spans:
                with open(args.spans, "w", encoding="utf-8") as fh:
                    json.dump({"fields": ["name", "start", "end", "parent",
                                          "op"],
                               "spans": tracer.spans}, fh)
        result.update(attempted=attempted, failed=failed)
        _emit("result", result)
    finally:
        shutil.rmtree(args.workdir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
