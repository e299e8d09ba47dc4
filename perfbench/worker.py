"""One workload in one process: build the seeded inputs, send operations
one after another for a fixed time (a closed loop with a single
client), check every output, and print one JSON line.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/worker.py --workload NAME --seed N --setup-only

``run.py`` starts it with ``src`` on ``PYTHONPATH``.  With ``--trace 1``
it first runs untraced for half the time, then traced for the full time
from the same first operation, and reports per-layer numbers from the
spans plus the tracing overhead.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import signal
import statistics
import subprocess
import sys
import time

import refspeed

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
#: Per-solve cap and total budget for the hard inverse probes (seconds).
PROBE_CAP = 10.0
PROBE_BUDGET = 40.0
IMPORT_REPEATS = 3
#: Seconds of operations between two runs of the calibration kernel.
CALIBRATE_EVERY = 0.2


class Run:
    """Outcome of one closed-loop phase: raw latencies, the calibration
    kernel times measured between operations, and the rounds."""

    def __init__(self):
        self.latencies: list[float] = []
        self.kernel_before: list[int] = []
        self.kernels: list[float] = []
        self.rounds: list[list[int]] = []
        self.failures: list[dict] = []
        self.by_kind: dict[str, list[float]] = {}
        self.busy = 0.0

    def scaled(self) -> list[float]:
        """Latencies at the reference speed, each scaled by the mean of
        the kernel times measured just before and just after it."""
        ks = self.kernels
        return [dt * refspeed.scale((ks[j] + ks[min(j + 1, len(ks) - 1)]) / 2)
                for dt, j in zip(self.latencies, self.kernel_before)]

    def per_round(self, stat) -> float:
        """Median over complete rounds of ``stat`` of their scaled
        latencies (over all of them when no round completed)."""
        lat = self.scaled()
        groups = [[lat[i] for i in r] for r in self.rounds] or [lat]
        return statistics.median(map(stat, groups))

    @property
    def ops_per_s(self) -> float:
        return self.per_round(lambda lat: len(lat) / sum(lat))


def drive(rounds, run, checks, seconds: float, tracer=None) -> Run:
    """Closed loop over the rounds (cycled): send one operation, wait
    for it, check its output, send the next, until the operations have
    taken ``seconds`` or the tracer is full.  Only the program calls are
    timed; the checks between them are not, and every failure is kept
    with its reason.  The calibration kernel runs at the start, after
    every ``CALIBRATE_EVERY`` seconds of operations, and at the end."""
    import blaschkediv as bd
    res = Run()
    res.kernels.append(refspeed.kernel())
    since = 0.0
    i = 0
    while True:
        for rnd in rounds:
            members = []
            for op in rnd:
                if res.busy >= seconds or (tracer is not None and tracer.full):
                    res.kernels.append(refspeed.kernel())
                    return res
                if since >= CALIBRATE_EVERY:
                    res.kernels.append(refspeed.kernel())
                    since = 0.0
                if tracer is not None:
                    tracer.op = i
                t = time.perf_counter()
                try:
                    out, reason = run[op.kind](*op.args), None
                except bd.CalculusError as exc:
                    out, reason = None, f"{type(exc).__name__}: {exc}"
                dt = time.perf_counter() - t
                members.append(len(res.latencies))
                res.latencies.append(dt)
                res.kernel_before.append(len(res.kernels) - 1)
                res.busy += dt
                since += dt
                res.by_kind.setdefault(op.kind, []).append(dt)
                if reason is None:
                    if tracer is not None:
                        tracer.paused = True
                    reason = checks[op.kind](op, out)
                    if tracer is not None:
                        tracer.paused = False
                if reason is not None:
                    res.failures.append(
                        {"op": i, "kind": op.kind, "reason": reason})
                i += 1
            res.rounds.append(members)


def p90(values: list[float]) -> float:
    """Nearest-rank 90th percentile."""
    v = sorted(values)
    return v[max(0, math.ceil(0.9 * len(v)) - 1)]


class ProbeTimeout(Exception):
    pass


def run_probes(probes, tracer) -> dict:
    """Solve the hard inverse inputs, each under ``PROBE_CAP`` seconds,
    and count how many fail (stall, other package error, time cap, or
    a round trip off by more than the tolerance)."""
    import blaschkediv as bd
    import workloads as wl
    outcomes = []
    fired = []

    def alarm(signum, frame):
        fired.append(True)
        raise ProbeTimeout()

    previous = signal.signal(signal.SIGALRM, alarm)
    start = time.perf_counter()
    try:
        for k, (R, m) in enumerate(probes):
            if time.perf_counter() - start > PROBE_BUDGET:
                break
            tracer.op = -1 - k
            fired.clear()
            signal.setitimer(signal.ITIMER_REAL, PROBE_CAP)
            try:
                out = wl.run_roundtrip(R, m)
                reason = wl.check_roundtrip(wl.Op("roundtrip", (R, m)), out)
                outcomes.append(reason or "ok")
            except bd.ContinuationError as exc:
                outcomes.append(f"stall at t={exc.last_good_t:.4g}")
            except bd.CalculusError as exc:
                outcomes.append(type(exc).__name__)
            except Exception:
                # numpy may re-raise the alarm as its own error
                if not fired:
                    raise
                outcomes.append(f"over {PROBE_CAP:g} s")
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
    finally:
        signal.signal(signal.SIGALRM, previous)
    failed = sum(o != "ok" for o in outcomes)
    return {"outcomes": outcomes,
            "fail_share": failed / len(outcomes) if outcomes else 0.0}


def _import_profile(stderr: str) -> dict[str, float]:
    """Total import time and the self time of numpy, scipy and mpmath
    modules, in ms, from ``python -X importtime`` output."""
    total = 0.0
    own = {"numpy": 0.0, "scipy": 0.0, "mpmath": 0.0}
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "self [us]" in line:
            continue
        self_us, _, name = line[len("import time:"):].split("|")
        name = name.strip()
        total += float(self_us) / 1e3
        top = name.split(".")[0]
        if top in own:
            own[top] += float(self_us) / 1e3
    return {"cli.import_ms": total,
            **{f"cli.import.{k}_ms": v for k, v in own.items()}}


def import_times() -> dict[str, float]:
    """Median import profile of a few ``critpts`` cold starts."""
    runs = []
    for _ in range(IMPORT_REPEATS):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-m", "blaschkediv.cli",
             "critpts", "--zeros", "[0.5]", "--m", "1"],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
        runs.append(_import_profile(proc.stderr))
    return {k: statistics.median(r[k] for r in runs) for k in runs[0]}


def summarize(runs: list[Run]) -> dict:
    latencies = [t for r in runs for t in r.latencies]
    failures = [f for r in runs for f in r.failures]
    p90_s = p90(latencies)
    kinds: dict[str, list[float]] = {}
    for r in runs:
        for k, v in r.by_kind.items():
            kinds.setdefault(k, []).extend(v)
    return {
        "samples": len(latencies),
        "rounds": sum(len(r.rounds) for r in runs),
        "kernel_ms": statistics.median(k for r in runs for k in r.kernels) * 1e3,
        "pooled_p50_ms": statistics.median(latencies) * 1e3,
        "pooled_p90_ms": p90_s * 1e3,
        "above_p90": sum(t > p90_s for t in latencies),
        "attempted": len(latencies),
        "failed": len(failures),
        "fail_share": len(failures) / len(latencies),
        "failures": failures,
        "kinds": {k: {"count": len(v), "p50_ms": statistics.median(v) * 1e3}
                  for k, v in kinds.items()},
        "busy_s": sum(r.busy for r in runs),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    start = time.perf_counter()
    import workloads as wl
    rounds = wl.GENERATE[args.workload](args.seed)
    if args.setup_only:
        print(json.dumps({"setup_s": time.perf_counter() - start}))
        return 0

    run = dict(wl.RUN)
    if args.workload == "cli":
        run["cli"] = wl.CliRunner(ROOT)
    if not args.trace:
        timed = drive(rounds, run, wl.CHECK, args.seconds)
        metrics = {
            "ops_per_s": timed.ops_per_s,
            "op_p50_ms": timed.per_round(statistics.median) * 1e3,
            "op_p90_ms": timed.per_round(p90) * 1e3,
            "peak_rss_mb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        summary = summarize([timed])
    else:
        from tracer import Tracer, layer_metrics
        untraced = drive(rounds, run, wl.CHECK, args.seconds / 2)
        tracer = Tracer()
        with tracer:
            traced = drive(rounds, run, wl.CHECK, args.seconds, tracer)
            probe = (run_probes(wl.hard_probes(args.seed), tracer)
                     if args.workload == "roundtrip" else None)
        metrics = layer_metrics(tracer)
        metrics.update(import_times() if args.workload == "cli" else
                       {k: 0.0 for k in _import_profile("")})
        metrics["blaschke.zeros_from_critical.probe_fail_share"] = (
            probe["fail_share"] if probe else 0.0)
        metrics["trace.untraced_ops_per_s"] = untraced.ops_per_s
        metrics["trace.ops_per_s"] = traced.ops_per_s
        metrics["trace.overhead_share"] = \
            1.0 - traced.ops_per_s / untraced.ops_per_s
        os.makedirs(OUT_DIR, exist_ok=True)
        spans = os.path.join(OUT_DIR,
                             f"spans-{args.workload}-{args.seed}.jsonl.gz")
        tracer.write_jsonl(spans)
        summary = summarize([untraced, traced])
        summary["spans_file"] = os.path.relpath(spans, ROOT)
        summary["spans"] = len(tracer)
        if probe:
            summary["hard_probes"] = probe["outcomes"]
    print(json.dumps({"metrics": metrics, "summary": summary}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
