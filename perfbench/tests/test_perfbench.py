"""Tests of the benchmark itself: its output contract, its output
checks, its seeding, and that tracing leaves the package untouched."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import tracer as tr  # noqa: E402
import worker  # noqa: E402
import workloads as wl  # noqa: E402
from blaschkediv import blaschke as bl  # noqa: E402
from blaschkediv import divisor as dv  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _names(kind: str) -> set[str]:
    return {m["name"] for m in SPEC[kind]}


def _package_bindings() -> dict:
    """Identity of every attribute of every package module and of every
    wrapped class, keyed by where it is bound."""
    import importlib
    out = {}
    for suffix in tr.BINDING_MODULES:
        mod = importlib.import_module(tr.PACKAGE + suffix)
        out.update({(mod.__name__, k): id(v) for k, v in vars(mod).items()
                    if callable(v)})
    for _, owner, _ in tr.public_targets():
        if isinstance(owner, type):
            out.update({(owner.__qualname__, k): id(v)
                        for k, v in vars(owner).items() if callable(v)})
    return out


def test_run_prints_end_to_end_metrics_of_benchmark_json():
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "circle",
         "--seed", "3", "--seconds", "0.2", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert set(result["metrics"]) == _names("end_to_end")
    assert result["correct"] and result["failed"] == 0
    assert all(m["value"] > 0 for m in result["metrics"].values())
    info = json.loads(lines[-2])
    assert info["provenance"]["seed"] == 3
    assert {"nproc", "cpu_model", "python", "numpy", "scipy", "mpmath",
            "git_sha", "git_dirty"} <= set(info["provenance"])


def test_traced_run_reports_every_per_layer_metric(capsys):
    before = _package_bindings()
    assert worker.main(["--workload", "circle", "--seed", "4",
                        "--seconds", "0.2", "--trace", "1"]) == 0
    out = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(out["metrics"]) == _names("per_layer")
    assert out["summary"]["failed"] == 0
    assert _package_bindings() == before


def test_untraced_run_leaves_package_functions_identical():
    before = _package_bindings()
    rounds = [[op for op in rnd if op.kind == "verdicts"]
              for rnd in wl.GENERATE["circle"](5)]
    run = worker.drive(rounds, wl.RUN, wl.CHECK, 0.05)
    assert run.latencies and run.failures == []
    assert _package_bindings() == before


def test_tracer_wraps_every_binding_and_restores_it():
    from blaschkediv import boundary, experiments
    original = bl.critical_divisor
    with tr.Tracer() as t:
        assert bl.critical_divisor is not original
        assert boundary.critical_divisor is bl.critical_divisor
        assert experiments.critical_divisor is bl.critical_divisor
        B = bl.from_zero_divisor(dv.Divisor([(0.5, 1)], "interior"), 1)
        bl.walsh_check(B)
    assert bl.critical_divisor is original
    names = [t.span(i)["name"] for i in range(len(t))]
    assert "blaschke.walsh_check" in names
    walsh = names.index("blaschke.walsh_check")
    crit = names.index("blaschke.critical_divisor")
    assert t.parent[crit] == walsh
    metrics = tr.layer_metrics(t)
    assert metrics["blaschke.critical_divisor.calls"] >= 1


def _fingerprint(rounds) -> str:
    return json.dumps(rounds[:3], default=lambda o: getattr(
        o, "to_json", lambda: repr(o))())


def test_inputs_depend_only_on_the_seed():
    for name, generate in wl.GENERATE.items():
        a, b, c = generate(7), generate(7), generate(8)
        assert _fingerprint(a) == _fingerprint(b), name
        assert _fingerprint(a) != _fingerprint(c), name


def _first(rounds, kind):
    return next(op for rnd in rounds for op in rnd if op.kind == kind)


def test_perturbed_answers_are_caught():
    op = _first(wl.GENERATE["roundtrip"](9), "roundtrip")
    R, m = op.args
    B, dist = wl.run_roundtrip(R, m)
    assert wl.check_roundtrip(op, (B, dist)) is None
    shifted = dv.Divisor([(z + 1e-6, k) for z, k in B.free_zeros.atoms],
                         "interior")
    B2 = bl.from_zero_divisor(shifted, m)
    moved = dv.matching_distance(bl.critical_divisor(B2).free_ram, R)
    assert "round trip off" in wl.check_roundtrip(op, (B2, moved))

    assert wl.check_walsh(_first(wl.GENERATE["sweep"](9), "walsh"),
                          False) is not None

    sweep = wl.GENERATE["sweep"](9)
    op = _first(sweep, "prescribe")
    cert = wl.run_prescribe(*op.args)
    assert wl.check_prescribe(op, cert) is None
    cert.result_divisor = dv.Divisor(
        [(z * (1 - 1e-4), k) for z, k in cert.result_divisor.atoms],
        "interior")
    assert "re-measured" in wl.check_prescribe(op, cert)

    circle = wl.GENERATE["circle"](9)
    case = _first(circle, "table").args[0]
    op = wl.Op("table", (case, 2))
    table = wl.run_table(case, 2)
    assert wl.check_table(op, table) is None
    table.entries[-1].theta_plus += Fraction(1, 10 ** 6)
    assert wl.check_table(op, table) is not None

    op = _first(circle, "verdicts")
    out = wl.run_verdicts(*op.args)
    assert wl.check_verdicts(op, out) is None
    report = out[-1]
    report.verdict = "TypeS" if report.verdict != "TypeS" else "TypeR"
    assert "expected" in wl.check_verdicts(op, out)

    argv = ["critpts", "--zeros", "[[0.5, 0.1]]", "--m", "2"]
    op = wl.Op("cli", (argv,))
    good = wl.CliRunner(str(ROOT))(argv)
    assert wl.check_cli(op, good) is None
    wrong = json.loads(good[1])
    wrong["atoms"][0]["re"] += 1e-12
    assert "differs" in wl.check_cli(op, (0, json.dumps(wrong), None))
    assert "exited" in wl.check_cli(op, (3, good[1], None))


def test_run_refuses_a_tree_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "roundtrip",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_import_profile_sums_self_times():
    prof = worker._import_profile(
        "import time: self [us] | cumulative | imported package\n"
        "import time:      1000 |       1000 |   numpy.core\n"
        "import time:      2000 |       3000 | numpy\n"
        "import time:       500 |        500 | scipy\n")
    assert prof["cli.import_ms"] == pytest.approx(3.5)
    assert prof["cli.import.numpy_ms"] == pytest.approx(3.0)
    assert prof["cli.import.scipy_ms"] == pytest.approx(0.5)
