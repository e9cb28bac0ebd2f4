"""Run one benchmark case in a fresh interpreter and write its result as JSON.

    python3 perfbench/child.py --workload W --case C --seed S --size full \
        --launch <time.monotonic() at launch> --trace 0|1 --out result.json \
        [--spans spans.json.gz] [--probe]

The parent passes its monotonic clock reading from just before the launch;
on Linux ``time.monotonic`` reads the same system-wide clock in both
processes, so set-up time covers interpreter start, ``import rookpart`` and
input generation.  With ``--probe`` the child stops after set-up.

Times are written raw, with the slowdown the speed probe saw (``speed.py``);
the parent divides by it.
"""

from __future__ import annotations

import argparse
import gzip
import json
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def _write(path: str, payload: dict) -> None:
    Path(path).write_text(json.dumps(payload))


def _failure(exc: BaseException) -> str:
    last = traceback.format_exception_only(type(exc), exc)[-1].strip()
    return last[:300]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--case", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--size", choices=["full", "smoke"], default="full")
    parser.add_argument("--launch", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--out", required=True)
    parser.add_argument("--spans")
    parser.add_argument("--probe", action="store_true")
    args = parser.parse_args(argv)

    if not __debug__:
        _write(args.out, {"ok": False, "detail": "asserts are disabled (python -O)"})
        return 3
    sys.path.insert(0, str(SRC))
    import rookpart
    import speed
    import workloads

    if Path(rookpart.__file__).resolve().parent != SRC / "rookpart":
        _write(args.out, {"ok": False, "detail": f"imported rookpart from {rookpart.__file__}"})
        return 3
    case = workloads.case(args.workload, args.case)
    inputs = case.make_inputs(workloads.rng_for(args.workload, case.name, args.seed), args.size)

    tracer = None
    if args.trace and not args.probe:
        from tracing import ROOT, Tracer

        tracer = Tracer()
        tracer.install()
    setup_s = time.monotonic() - args.launch
    setup_kernels = [speed.kernel() for _ in range(speed.SETUP_KERNELS)]
    payload = {
        "ok": True,
        "setup_raw_s": setup_s,
        "setup_slowdown": speed.slowdown(setup_kernels),
    }
    if args.probe:
        _write(args.out, payload)
        return 0

    probe = speed.SpeedProbe()
    error = None
    start = time.perf_counter()
    try:
        if tracer is not None:
            root = tracer.open(ROOT, ROOT + ".case")
            try:
                result = case.run(inputs)
            finally:
                tracer.close(root)
        else:
            # traced children run without the in-flight probe, whose kernel
            # would be charged to whichever layer it interrupted
            with probe:
                result = case.run(inputs)
    except Exception as exc:  # a raising case is a failed case, reported below
        error = _failure(exc)
    in_flight = probe.samples
    wall_s = time.perf_counter() - start - sum(in_flight)
    if tracer is not None:
        tracer.remove()

    if error is None:
        try:
            error = case.check(result, inputs)
        except Exception as exc:
            error = "check raised " + _failure(exc)
    payload.update(
        ok=error is None,
        detail=error,
        wall_raw_s=wall_s,
        slowdown=speed.slowdown(setup_kernels + in_flight),
        probe_s=sum(setup_kernels) + sum(in_flight),
    )
    if tracer is not None:
        spans = tracer.spans()
        crit = {}
        for name, _, s, e in spans:
            if name.startswith("acceptance.crit"):
                crit[name + "_s"] = crit.get(name + "_s", 0.0) + (e - s)
        payload["trace"] = {
            "self_s": tracer.layer_self_times(),
            "calls": dict(tracer.calls),
            "counts": dict(tracer.counts),
            "crit_s": crit,
            "spans": len(spans),
        }
        if args.spans:
            with gzip.open(args.spans, "wt") as fh:
                json.dump({"names": tracer.names, "spans": [
                    [n, parent, round(s - start, 7), round(e - start, 7)]
                    for n, parent, s, e in zip(tracer.span_name, tracer.span_parent,
                                          tracer.span_start, tracer.span_end)
                ]}, fh, separators=(",", ":"))
    _write(args.out, payload)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
