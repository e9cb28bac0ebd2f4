"""The rookpart benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the library is imported from
``src/``.  Every case runs in a fresh interpreter (``child.py``), one child
process at a time.  A run starts a few set-up probes, then repeats passes
over the workload's cases until ``--seconds`` is used up (at least two
passes).  The last line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones (see BENCHMARK.json);
with ``--trace 1`` the run makes one untraced pass and then traced passes, and
reports per-layer self time, calls and named counts, plus the tracing
overhead.  The line before it carries the run's metadata and sample counts,
and the full record (every sample) is written to ``perfbench/out/``.

Every timing is divided by the slowdown the child measured on a fixed
kernel (``speed.py``), so load from other tenants of a shared machine, which
slows the kernel and the library alike, cancels; the uncorrected values stay
in the record.  Timings are then medians over passes, taken per case and
summed over cases.  A case that fails its check, raises or times out counts
as failed, and its time is replaced by its timeout, so a failure never reads
as a fast run.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
import workloads  # noqa: E402

PROBES = 6  # set-up-only children per run, so setup_s has enough samples
MIN_PASSES = 2
HARD_LIMIT_S = 165.0  # a run never starts a child that could end past this
TRACE_TIMEOUT_FACTOR = 3.0


def git_commit() -> str:
    """The checkout's commit, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


class Runner:
    """Launches children for one run and keeps every sample."""

    def __init__(self, workload: str, seed: int, size: str):
        self.workload = workload
        self.seed = seed
        self.size = size
        self.cases = workloads.WORKLOADS[workload]
        self.started = time.monotonic()
        self.samples: list[dict] = []
        self.tmp = OUT / "tmp"
        self.tmp.mkdir(parents=True, exist_ok=True)

    def elapsed(self) -> float:
        return time.monotonic() - self.started

    def launch(self, case, trace=False, probe=False, spans=None) -> dict | None:
        """Run one child to completion; None when the run has no time left."""
        timeout = case.timeout_s * (TRACE_TIMEOUT_FACTOR if trace else 1.0)
        timeout = min(timeout, HARD_LIMIT_S - self.elapsed())
        if timeout < 1.0:
            return None
        out = self.tmp / f"{os.getpid()}-{case.name}.json"
        err = self.tmp / f"{os.getpid()}-{case.name}.err"
        out.unlink(missing_ok=True)
        launched = time.monotonic()
        cmd = [
            sys.executable, str(HERE / "child.py"),
            "--workload", self.workload, "--case", case.name, "--seed", str(self.seed),
            "--size", self.size, "--trace", str(int(trace)), "--out", str(out),
            "--launch", repr(launched),
        ]
        if probe:
            cmd.append("--probe")
        if spans is not None:
            cmd += ["--spans", str(spans)]
        env = dict(os.environ, PYTHONHASHSEED="0")
        # cache bytecode as an installed package would have it; the first
        # child of a fresh checkout compiles, and the median of setup_s
        # absorbs that one sample
        env.pop("PYTHONDONTWRITEBYTECODE", None)
        with open(err, "wb") as err_fh:
            proc = subprocess.Popen(
                cmd, cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
                stdout=subprocess.DEVNULL, stderr=err_fh,
            )
            timed_out = False
            try:
                while True:
                    # wait4 gives this child's own rusage (CPU time, peak RSS)
                    pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
                    if pid:
                        break
                    if time.monotonic() - launched > timeout:
                        proc.kill()
                        _, status, usage = os.wait4(proc.pid, 0)
                        timed_out = True
                        break
                    time.sleep(0.005)
            except BaseException:
                proc.kill()
                os.wait4(proc.pid, 0)
                raise
            proc.returncode = os.waitstatus_to_exitcode(status)
        sample = {"case": case.name, "probe": probe, "trace": trace}
        try:
            sample.update(json.loads(out.read_text()))
        except (OSError, ValueError):
            sample.update(ok=False, detail="no result written")
        if timed_out:
            sample.update(ok=False, detail=f"timed out after {timeout:.0f} s")
        elif proc.returncode != 0 and sample.get("ok"):
            sample.update(ok=False, detail=f"exit status {proc.returncode}")
        if not sample["ok"]:
            tail = err.read_text(errors="replace").strip().splitlines()[-3:]
            sample["stderr"] = tail
            print(f"FAILED {self.workload}/{case.name}: {sample['detail']}", file=sys.stderr)
            for line in tail:
                print("  " + line, file=sys.stderr)
        sample["cpu_raw_s"] = usage.ru_utime + usage.ru_stime - sample.get("probe_s", 0.0)
        sample["rss_mb"] = usage.ru_maxrss / 1024.0  # ru_maxrss is in KiB on Linux
        if "setup_raw_s" in sample:
            sample["setup_s"] = sample["setup_raw_s"] / sample["setup_slowdown"]
        if sample["ok"] and not probe:
            sample["wall_s"] = sample["wall_raw_s"] / sample["slowdown"]
            sample["cpu_s"] = sample["cpu_raw_s"] / sample["slowdown"]
        elif not sample["ok"]:
            sample["wall_s"] = sample["cpu_s"] = timeout
        out.unlink(missing_ok=True)
        err.unlink(missing_ok=True)
        self.samples.append(sample)
        return sample

    def run_pass(self, trace=False, spans_dir=None) -> list[dict] | None:
        """One sample per case, or None when the run ran out of time."""
        out = []
        for case in self.cases:
            spans = spans_dir / f"{case.name}.json.gz" if spans_dir is not None else None
            sample = self.launch(case, trace=trace, spans=spans)
            if sample is None:
                return None
            out.append(sample)
        return out


def _median(values):
    return statistics.median(values) if values else 0.0


def _pass_wall(pass_samples) -> float:
    """Uncorrected wall time of one pass; a failed case counts its timeout."""
    return sum(s["wall_raw_s"] if s["ok"] else s["wall_s"] for s in pass_samples)


def end_to_end(passes, samples) -> dict:
    """Per case, the median over passes of its corrected time; summed over cases."""
    wall: dict[str, list[float]] = {}
    cpu: dict[str, list[float]] = {}
    rss: dict[str, list[float]] = {}
    for pass_samples in passes:
        for s in pass_samples:
            wall.setdefault(s["case"], []).append(s["wall_s"])
            cpu.setdefault(s["case"], []).append(s["cpu_s"])
            rss.setdefault(s["case"], []).append(s["rss_mb"])
    setups = [s["setup_s"] for s in samples if "setup_s" in s]
    passed = sum(1 for s in samples if s["ok"])
    return {
        "wall_s": sum(_median(v) for v in wall.values()),
        "cpu_s": sum(_median(v) for v in cpu.values()),
        "setup_s": _median(setups),
        "peak_rss_mb": max((_median(v) for v in rss.values()), default=0.0),
        "pass_ratio": passed / len(samples) if samples else 0.0,
    }


EMPTY_TRACE = {"self_s": {}, "calls": {}, "counts": {}, "crit_s": {}}


def per_layer(passes, baseline) -> dict:
    """Per-layer self time (median over traced passes), calls, counts."""
    traced = [[s.get("trace", EMPTY_TRACE) for s in p] for p in passes]
    first = traced[0]
    out = {}
    for layer in tracing.LAYERS:
        per_pass = [sum(t["self_s"].get(layer, 0.0) for t in p) for p in traced]
        out[f"{layer}.self_s"] = _median(per_pass)
        out[f"{layer}.calls"] = sum(t["calls"].get(layer, 0) for t in first)
    counts = tracing.summarize_counts(tracing.merge_counts(t["counts"] for t in first))
    out.update(counts)
    for num in range(1, 15):
        key = f"acceptance.crit{num:02d}_s"
        out[key] = _median([sum(t["crit_s"].get(key, 0.0) for t in p) for p in traced])
    out["trace.overhead_s"] = _median([_pass_wall(p) for p in passes]) - _pass_wall(baseline)
    return out


def units(kind: str) -> dict:
    """Metric name -> unit, for "end_to_end" or "per_layer", from BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--size", choices=["full", "smoke"], default="full",
                   help="smoke: tiny inputs, for the benchmark's own tests")
    args = p.parse_args(argv)

    if not __debug__ or os.environ.get("PYTHONOPTIMIZE"):
        print("refusing to run with asserts disabled: the library's debug checks are part "
              "of the measured program", file=sys.stderr)
        return 2
    if not (ROOT / "src" / "rookpart" / "__init__.py").is_file():
        print(f"no rookpart sources under {ROOT / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2

    runner = Runner(args.workload, args.seed, args.size)
    cases = runner.cases
    for i in range(PROBES):
        if runner.launch(cases[i % len(cases)], probe=True) is None:
            break

    spans_dir = None
    baseline = None
    passes: list[list[dict]] = []
    if args.trace:
        spans_dir = OUT / "spans" / f"{args.workload}-seed{args.seed}"
        spans_dir.mkdir(parents=True, exist_ok=True)
        baseline = runner.run_pass()
    durations = []
    while baseline is not None or not args.trace:
        need_more = len(passes) < (1 if args.trace else MIN_PASSES)
        est = _median(durations)
        if not need_more and runner.elapsed() + est > args.seconds:
            break
        if runner.elapsed() + est > HARD_LIMIT_S:
            break
        t0 = time.monotonic()
        done = runner.run_pass(trace=bool(args.trace), spans_dir=spans_dir if not passes else None)
        if done is None:
            break
        passes.append(done)
        durations.append(time.monotonic() - t0)

    samples = runner.samples
    failed = sum(1 for s in samples if not s["ok"])
    correct = failed == 0 and bool(passes)
    if args.trace:
        values = per_layer(passes, baseline) if passes else {}
        declared = units("per_layer")
    else:
        values = end_to_end(passes, samples)
        declared = units("end_to_end")
    if values and set(values) != set(declared):
        raise SystemExit(f"metrics {sorted(set(values) ^ set(declared))} disagree with BENCHMARK.json")
    metrics = {k: {"value": v, "unit": declared[k]} for k, v in values.items()}
    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": args.size,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "commit": git_commit(),
        "passes": len(passes),
        "setup_samples": sum(1 for s in samples if "setup_s" in s),
        "elapsed_s": runner.elapsed(),
    }
    record = {"meta": meta, "metrics": values, "samples": samples}
    OUT.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(record, indent=1))
    print(json.dumps({"meta": meta}))
    print(json.dumps({
        "correct": correct,
        "attempted": len(samples),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
