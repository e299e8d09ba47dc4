"""Benchmark of the blaschkediv package: one command, four workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src``, nothing is installed.  With ``--trace 0`` it measures set-up
time in fresh interpreters, then runs the workload in its own process
and prints the end-to-end metrics of ``BENCHMARK.json``; with
``--trace 1`` it prints the per-layer metrics instead.  The line before
the result holds the provenance and a summary: sample counts, failed
operations with their reasons, and ``fail_share``.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import statistics
import subprocess
import sys
import time

import refspeed

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
#: Fresh interpreters timed for ``setup_s``; the median is reported.
SETUP_REPEATS = 5
WORKLOADS = ("roundtrip", "sweep", "circle", "cli")


def _git(args: list[str]) -> str | None:
    try:
        proc = subprocess.run(
            ["git", "-C", ROOT, *args], capture_output=True, text=True,
            timeout=30,
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT)))
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def provenance(args: argparse.Namespace) -> dict:
    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    versions = {}
    for pkg in ("numpy", "scipy", "mpmath"):
        try:
            versions[pkg] = importlib.metadata.version(pkg)
        except importlib.metadata.PackageNotFoundError:
            versions[pkg] = None
    top = _git(["rev-parse", "--show-toplevel"])
    in_repo = top is not None and os.path.realpath(top) == os.path.realpath(ROOT)
    sha = _git(["rev-parse", "HEAD"]) if in_repo else None
    dirty = bool(_git(["status", "--porcelain"])) if in_repo else None
    return {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu, "python": platform.python_version(), **versions,
        "git_sha": sha, "git_dirty": dirty,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    bench_file = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(os.path.join(ROOT, "src", "blaschkediv",
                                       "__init__.py")) \
            or not os.path.isfile(bench_file):
        print("perfbench: run from a checkout holding src/blaschkediv and "
              "BENCHMARK.json", file=sys.stderr)
        return 2
    with open(bench_file, encoding="utf-8") as fh:
        spec = json.load(fh)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    src = os.path.join(ROOT, "src")
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))
    worker = [sys.executable, os.path.join(HERE, "worker.py"),
              "--workload", args.workload, "--seed", str(args.seed)]

    def setup_once() -> float:
        """Set-up time at the reference speed (see ``refspeed``)."""
        before = refspeed.kernel()
        t = time.perf_counter()
        subprocess.run(worker + ["--setup-only"], cwd=ROOT, env=env,
                       stdout=subprocess.DEVNULL, check=True, timeout=300)
        elapsed = time.perf_counter() - t
        return elapsed * refspeed.scale((before + refspeed.kernel()) / 2)

    try:
        setup_once()  # fills the bytecode caches; not timed
        metrics = {}
        if not args.trace:
            metrics["setup_s"] = statistics.median(
                setup_once() for _ in range(SETUP_REPEATS))
        proc = subprocess.run(
            worker + ["--seconds", str(args.seconds),
                      "--trace", str(args.trace)],
            cwd=ROOT, env=env, capture_output=True, text=True,
            timeout=3 * args.seconds + 120)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: worker failed: {exc}", file=sys.stderr)
        return 1
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        print(f"perfbench: worker exited with {proc.returncode}",
              file=sys.stderr)
        return 1
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    metrics.update(result["metrics"])
    names = [m["name"] for m in wanted]
    if sorted(metrics) != sorted(names):
        print("perfbench: metrics differ from BENCHMARK.json: "
              f"{sorted(set(metrics) ^ set(names))}", file=sys.stderr)
        return 1
    summary = result["summary"]
    print(json.dumps({"provenance": provenance(args), "summary": summary}))
    print(json.dumps({
        "correct": summary["failed"] == 0,
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
