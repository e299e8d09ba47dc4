"""End-to-end tests of the command-line front end: JSON/CSV emission,
SVG figures, seed handling, determinism, and exit codes."""

from __future__ import annotations

import argparse
import cmath
import csv
import io
import json
import math
import os
import shutil
import subprocess
import sys

import pytest

from blaschkediv import blaschke, cli
from blaschkediv.boundary import DEFAULT_DEPTH, DEFAULT_TOL
from blaschkediv.cli import _build_parser, main

ORBIT_DIVISOR = '{"m": 2, "support": ["1/3", "2/3"]}'


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text: str) -> list[list[str]]:
    return list(csv.reader(io.StringIO(text)))


# ---------------------------------------------------------------------------
# critpts / invert / extend


def test_critpts_stdout(capsys):
    code, out, err = run_cli(
        capsys, ["critpts", "--zeros", "[0.6]", "--m", "1"])
    assert code == 0 and err == ""
    payload = json.loads(out)
    assert payload["region"] == "interior"
    assert len(payload["atoms"]) == 1
    atom = payload["atoms"][0]
    assert atom["mult"] == 1
    assert atom["re"] == pytest.approx(1.0 / 3.0, abs=1e-9)
    assert atom["im"] == pytest.approx(0.0, abs=1e-9)


def test_critpts_tiny_zero_keeps_its_critical_point(capsys):
    code, out, err = run_cli(
        capsys, ["critpts", "--zeros", "[1e-100, 0.5]", "--m", "1"])
    assert code == 0 and err == ""
    small, big = json.loads(out)["atoms"]
    assert small["mult"] == big["mult"] == 1
    assert small["re"] == pytest.approx(5e-101, rel=1e-9)
    assert big["re"] == pytest.approx(0.3441311542550502, abs=1e-12)


def test_critpts_files_and_deterministic_svg(tmp_path, capsys):
    out_path = tmp_path / "crit.json"
    svg_path = tmp_path / "crit.svg"
    argv = ["critpts", "--zeros", "[0.6]", "--m", "1",
            "--out", str(out_path), "--svg", str(svg_path),
            "--deterministic"]
    code, out, _ = run_cli(capsys, argv)
    assert code == 0 and out == ""
    payload = json.loads(out_path.read_text())
    assert payload["atoms"][0]["re"] == pytest.approx(1.0 / 3.0, abs=1e-9)
    svg = svg_path.read_text()
    assert svg.count('class="zero"') == 2       # origin plus the input zero
    assert svg.count('class="critical"') == 1
    assert svg.count('class="hull-edge"') == 1  # two-point hull, one edge
    assert "<!-- generated" not in svg
    first_bytes = svg_path.read_bytes()
    run_cli(capsys, argv)
    assert svg_path.read_bytes() == first_bytes


def test_critpts_svg_timestamp_without_flag(tmp_path, capsys):
    svg_path = tmp_path / "crit.svg"
    code, _, _ = run_cli(capsys, ["critpts", "--zeros", "[0.6]", "--m", "1",
                                  "--out", str(tmp_path / "o.json"),
                                  "--svg", str(svg_path)])
    assert code == 0
    assert svg_path.read_text().startswith("<!-- generated ")


def test_critpts_origin_cross_for_higher_m(tmp_path, capsys):
    svg_path = tmp_path / "crit.svg"
    code, _, _ = run_cli(capsys, ["critpts", "--zeros", "[0.5]", "--m", "2",
                                  "--out", str(tmp_path / "o.json"),
                                  "--svg", str(svg_path), "--deterministic"])
    assert code == 0
    # the forced critical point at the origin is drawn when m >= 2
    assert svg_path.read_text().count('class="critical"') == 2


def test_invert_recovers_zero(capsys):
    code, out, _ = run_cli(
        capsys, ["invert", "--ram", "[0.3333333333333333]", "--m", "1"])
    assert code == 0
    payload = json.loads(out)
    assert len(payload["atoms"]) == 1
    assert payload["atoms"][0]["re"] == pytest.approx(0.6, abs=1e-9)
    assert payload["atoms"][0]["im"] == pytest.approx(0.0, abs=1e-9)


def test_extend_inline_divisor(capsys):
    code, out, _ = run_cli(
        capsys, ["extend", "--divisor",
                 '{"m": 1, "zeros": [0.6], "support": ["1/4"]}',
                 "--m", "1"])
    assert code == 0
    payload = json.loads(out)
    assert payload["region"] == "closed"
    assert len(payload["atoms"]) == 2
    by_modulus = sorted(payload["atoms"],
                        key=lambda a: abs(complex(a["re"], a["im"])))
    assert by_modulus[0]["re"] == pytest.approx(1.0 / 3.0, abs=1e-9)
    circle = complex(by_modulus[1]["re"], by_modulus[1]["im"])
    assert circle == pytest.approx(cmath.exp(0.5j * math.pi), abs=1e-15)


def test_extend_m_defaults_to_interior(capsys):
    code, out, _ = run_cli(
        capsys, ["extend", "--divisor", '{"m": 2, "support": ["1/4"]}'])
    assert code == 0
    payload = json.loads(out)
    assert len(payload["atoms"]) == 1
    atom = complex(payload["atoms"][0]["re"], payload["atoms"][0]["im"])
    assert atom == pytest.approx(1j, abs=1e-12)


# ---------------------------------------------------------------------------
# classify


def test_classify_dynamical_relation(capsys):
    code, out, _ = run_cli(
        capsys, ["classify", "--divisor", ORBIT_DIVISOR])
    assert code == 0
    report = json.loads(out)
    assert set(report) == {"regular", "simple", "one_in_support", "dynrel",
                           "verdict", "reason", "singular_value"}
    assert report["regular"] is True
    assert report["simple"] is True
    assert report["one_in_support"] is False
    assert report["verdict"] == "NoExtension"
    assert report["dynrel"]["l"] == 1
    assert set(report["dynrel"]) == {"status", "l", "q", "q_prime",
                                     "depth", "tol"}


def test_classify_singular_instance(capsys):
    code, out, _ = run_cli(
        capsys, ["classify", "--divisor", '{"m": 1, "support": ["1/4"]}'])
    assert code == 0
    report = json.loads(out)
    assert report["verdict"] == "TypeS"
    assert report["singular_value"] == "z+z^2"


def test_classify_regular_extension(capsys):
    code, out, _ = run_cli(
        capsys, ["classify", "--divisor", '{"m": 2, "support": ["1/4"]}'])
    assert code == 0
    report = json.loads(out)
    assert report["verdict"] == "TypeR"
    assert "exact" in report["reason"]
    assert report["singular_value"] is None


# ---------------------------------------------------------------------------
# lamination


def test_lamination_default_depth(capsys):
    code, out, _ = run_cli(
        capsys, ["lamination", "--divisor", '{"m": 2, "support": ["1/2"]}'])
    assert code == 0
    rows = parse_csv(out)
    assert rows[0] == ["point_re", "point_im", "level",
                       "theta_minus_num", "theta_minus_den",
                       "theta_plus_num", "theta_plus_den", "nu"]
    assert len(rows) == 1 + 8  # header plus the tree down to depth 3
    root = rows[1]
    assert [float(root[0]), float(root[1])] == [1.0, 0.0]
    assert root[2:] == ["0", "0", "1", "0", "1", "0"]


def test_lamination_depth_flag_and_svg(tmp_path, capsys):
    svg_path = tmp_path / "lam.svg"
    code, out, _ = run_cli(
        capsys, ["lamination", "--divisor", '{"m": 2, "support": ["1/2"]}',
                 "--depth", "1", "--svg", str(svg_path), "--deterministic"])
    assert code == 0
    assert len(parse_csv(out)) == 1 + 2
    assert svg_path.read_text().count('class="leaf"') == 1


def test_lamination_svg_leaf_count_depth_three(tmp_path, capsys):
    svg_path = tmp_path / "lam.svg"
    code, _, _ = run_cli(
        capsys, ["lamination", "--divisor", '{"m": 2, "support": ["1/2"]}',
                 "--out", str(tmp_path / "t.csv"), "--svg", str(svg_path),
                 "--deterministic"])
    assert code == 0
    assert svg_path.read_text().count('class="leaf"') == 7


# ---------------------------------------------------------------------------
# experiments


CONVERGE_CONFIG = json.dumps({
    "divisor": {"m": 1, "zeros": [0.6], "support": ["1/4"]},
    "m": 1,
    "epsilons": [1e-2, 1e-3],
    "samples_per_epsilon": 4,
    "rng_seed": 5,
})


def test_experiment_converge_json_and_csv(tmp_path, capsys):
    csv_path = tmp_path / "profile.csv"
    code, out, _ = run_cli(
        capsys, ["experiment", "converge", "--config", CONVERGE_CONFIG,
                 "--csv", str(csv_path)])
    assert code == 0
    report = json.loads(out)
    assert report["config"]["rng_seed"] == 5
    assert [row["epsilon"] for row in report["profile"]] == [1e-2, 1e-3]
    rows = parse_csv(csv_path.read_text())
    assert rows[0] == ["epsilon", "max_distance", "mean_distance",
                       "projected_max", "failures"]
    assert len(rows) == 3
    assert float(rows[1][0]) == 1e-2


def test_experiment_seed_override(capsys):
    code, out, _ = run_cli(
        capsys, ["experiment", "converge", "--config", CONVERGE_CONFIG,
                 "--seed", "9"])
    assert code == 0
    assert json.loads(out)["config"]["rng_seed"] == 9


def test_experiment_stdout_deterministic(capsys):
    argv = ["experiment", "converge", "--config", CONVERGE_CONFIG]
    _, first, _ = run_cli(capsys, argv)
    _, second, _ = run_cli(capsys, argv)
    assert first == second


def test_experiment_cont_orbit(tmp_path, capsys):
    config = json.dumps({
        "divisor": json.loads(ORBIT_DIVISOR),
        "q": "1/3",
        "l": 1,
        "n_schedule": [100, 1000],
    })
    csv_path = tmp_path / "orbit.csv"
    code, out, _ = run_cli(
        capsys, ["experiment", "cont-orbit", "--config", config,
                 "--csv", str(csv_path)])
    assert code == 0
    report = json.loads(out)
    assert report["n_schedule"] == [100, 1000]
    rows = parse_csv(csv_path.read_text())
    assert rows[0] == ["n", "distance", "circle_distance"]
    assert len(rows) == 3
    assert float(rows[2][1]) < float(rows[1][1])


def test_experiment_multiplier(tmp_path, capsys):
    config = json.dumps({
        "divisor": {"m": 1, "support": ["1/4", "3/4"]},
        "n_schedule": [10, 100],
    })
    csv_path = tmp_path / "mult.csv"
    code, out, _ = run_cli(
        capsys, ["experiment", "multiplier", "--config", config,
                 "--csv", str(csv_path)])
    assert code == 0
    rows = parse_csv(csv_path.read_text())
    assert rows[0] == ["n", "deviation"]
    assert float(rows[1][1]) == pytest.approx(1.0 - 0.9 ** 2, abs=1e-12)


def test_experiment_prescribe(tmp_path, capsys):
    config = json.dumps({
        "divisor": json.loads(ORBIT_DIVISOR),
        "q": "1/3",
        "l": 1,
        "L": 1.0,
        "eps": 0.2,
    })
    csv_path = tmp_path / "solve.csv"
    cert_path = tmp_path / "cert.json"
    code, _, _ = run_cli(
        capsys, ["experiment", "prescribe", "--config", config,
                 "--out", str(cert_path), "--csv", str(csv_path)])
    assert code == 0
    cert = json.loads(cert_path.read_text())
    assert cert["target_L"] == 1.0
    assert cert["residual"] <= 1e-6
    rows = parse_csv(csv_path.read_text())
    assert rows[0] == ["target_L", "achieved", "residual", "iterations"]
    assert len(rows) == 2
    assert float(rows[1][2]) <= 1e-6


# ---------------------------------------------------------------------------
# render


def test_render_lamination_csv(tmp_path, capsys):
    table_path = tmp_path / "table.csv"
    run_cli(capsys, ["lamination", "--divisor",
                     '{"m": 2, "support": ["1/2"]}',
                     "--out", str(table_path)])
    svg_path = tmp_path / "fig.svg"
    code, _, _ = run_cli(
        capsys, ["render", "--input", str(table_path),
                 "--out", str(svg_path), "--deterministic"])
    assert code == 0
    svg = svg_path.read_text()
    assert svg.count('class="leaf"') == 7
    assert svg.count('class="zero"') == 8


def test_render_divisor_json(capsys):
    payload = json.dumps({
        "region": "closed",
        "atoms": [{"re": 0.5, "im": 0.0, "mult": 1},
                  {"re": 0.0, "im": 1.0, "mult": 1}],
    })
    code, out, _ = run_cli(
        capsys, ["render", "--input", payload, "--deterministic"])
    assert code == 0
    assert out.count('class="zero"') == 2
    assert out.count('class="critical"') == 0


def test_render_solve_certificate(tmp_path, capsys):
    config = json.dumps({
        "divisor": json.loads(ORBIT_DIVISOR),
        "q": "1/3",
        "l": 1,
        "L": 0.5,
        "eps": 0.2,
    })
    cert_path = tmp_path / "cert.json"
    run_cli(capsys, ["experiment", "prescribe", "--config", config,
                     "--out", str(cert_path)])
    code, out, _ = run_cli(
        capsys, ["render", "--input", str(cert_path), "--deterministic"])
    assert code == 0
    assert out.count('class="zero"') == 2
    assert out.count('class="critical"') == 1


def test_render_profile_report(tmp_path, capsys):
    config = json.dumps({
        "divisor": {"m": 1, "support": ["1/4", "3/4"]},
        "n_schedule": [10, 100, 1000],
    })
    report_path = tmp_path / "report.json"
    run_cli(capsys, ["experiment", "multiplier", "--config", config,
                     "--out", str(report_path)])
    code, out, _ = run_cli(
        capsys, ["render", "--input", str(report_path), "--deterministic"])
    assert code == 0
    assert "<polyline" in out
    assert "log10 n" in out
    assert "multiplier deviation" in out


@pytest.mark.parametrize("report", [
    '{"profile": [1]}',
    '{"profile": {"n": 1, "deviation": 0.1}}',
    '{"profile": [{"n": "a", "deviation": 0.1}]}',
    '{"profile": [{"n": 1, "deviation": "x"}]}',
    '{"profile": [{"n": 1, "deviation": 0.1}, {"n": 10}]}',
    '{"result_divisor": [0.5], "orbit_value": "x"}',
    '{"result_divisor": [0.5], "orbit_value": [0.1, 0.2, 0.3]}',
    '{"result_divisor": [0.5]}',
])
def test_render_malformed_report_is_a_schema_error(report, capsys):
    code, out, err = run_cli(capsys, ["render", "--input", report])
    assert code == 4 and out == ""
    assert json.loads(err)["error"] == "SchemaError"


@pytest.mark.parametrize("row", ["0.5,0.0,1", "0.5,0.0,1,x,3,2,3,1",
                                 "0.5,0.0,1,1,0,2,3,1"])
def test_render_malformed_lamination_csv_is_a_schema_error(row, tmp_path,
                                                           capsys):
    table_path = tmp_path / "table.csv"
    table_path.write_text(",".join(cli.LAMINATION_CSV_HEADER) + "\n"
                          + row + "\n")
    code, out, err = run_cli(capsys, ["render", "--input", str(table_path)])
    assert code == 4 and out == ""
    assert "line 2" in json.loads(err)["message"]


# ---------------------------------------------------------------------------
# exit codes and diagnostics


def test_exit_precondition(capsys):
    code, _, err = run_cli(capsys, ["critpts", "--zeros", "[]", "--m", "1"])
    assert code == 2
    diagnostic = json.loads(err)
    assert diagnostic["error"] == "PreconditionError"
    assert diagnostic["message"]


def test_exit_numerical(capsys):
    config = json.dumps({
        "divisor": json.loads(ORBIT_DIVISOR),
        "q": "1/3",
        "l": 1,
        "L": 50.0,
        "eps": 0.1,
        "max_attempts": 1,
    })
    code, _, err = run_cli(
        capsys, ["experiment", "prescribe", "--config", config])
    assert code == 3
    assert json.loads(err)["error"] == "NumericalError"


def test_exit_numerical_table_too_large_for_memory(capsys, refused_slots):
    code, out, err = run_cli(
        capsys, ["lamination", "--divisor", '{"m": 2}', "--depth", "41"])
    assert code == 3 and out == ""
    diagnostic = json.loads(err)
    assert diagnostic["error"] == "NumericalError"
    assert "2^41" in diagnostic["message"]


def test_exit_numerical_subnormal_zero(capsys):
    code, out, err = run_cli(
        capsys, ["critpts", "--zeros", "[2.2250738585e-313]", "--m", "1"])
    assert code == 3 and out == ""
    assert json.loads(err)["error"] == "NumericalError"


@pytest.mark.parametrize("scalar_d", [0, blaschke._SCALAR_D])
def test_exit_numerical_subnormal_zero_on_both_routes(capsys, monkeypatch,
                                                      scalar_d):
    # the zero's lone product on numpy, and on the scalar route
    monkeypatch.setattr(blaschke, "_SCALAR_D", scalar_d)
    code, out, err = run_cli(
        capsys, ["critpts", "--zeros", "[1e-320]", "--m", "1"])
    assert code == 3 and out == ""
    diagnostic = json.loads(err)
    assert sorted(diagnostic) == ["error", "message"]
    assert diagnostic["error"] == "NumericalError"


def test_exit_numerical_continuation_stall(capsys, monkeypatch):
    monkeypatch.setattr(blaschke, "_inverse_newton", lambda *args: None)
    code, out, err = run_cli(
        capsys, ["invert", "--ram", "[0.3333333333333333]", "--m", "1"])
    assert code == 3 and out == ""
    diagnostic = json.loads(err)
    assert diagnostic["error"] == "ContinuationError"
    assert diagnostic["last_good_t"] == 0.0


@pytest.mark.parametrize("epsilons", ["[NaN]", "[1e400]", "[Infinity]"])
def test_exit_precondition_non_finite_epsilon(epsilons, capsys, deadline):
    config = ('{"divisor": {"m": 1, "zeros": [0.6], "support": ["1/4"]}, '
              f'"m": 1, "epsilons": {epsilons}, "samples_per_epsilon": 4, '
              '"rng_seed": 5}')
    code, out, err = run_cli(
        capsys, ["experiment", "converge", "--config", config])
    assert code == 2 and out == ""
    assert json.loads(err)["error"] == "PreconditionError"


@pytest.mark.parametrize("key, value", [
    ("L", math.nan), ("L", math.inf), ("eps", math.nan), ("tau", math.nan)])
def test_exit_precondition_non_finite_prescribe_scalar(key, value, capsys,
                                                       deadline):
    # json.dumps writes NaN and Infinity, which the CLI's parser reads
    config = {"divisor": json.loads(ORBIT_DIVISOR), "q": "1/3", "l": 1,
              "L": 1.0, "eps": 0.2, key: value}
    code, out, err = run_cli(
        capsys, ["experiment", "prescribe", "--config", json.dumps(config)])
    assert code == 2 and out == ""
    assert json.loads(err)["error"] == "PreconditionError"


def test_exit_precondition_prescribe_tau_one(capsys, deadline):
    # tau = 1 would place the target's zero at the origin
    config = {"divisor": json.loads(ORBIT_DIVISOR), "q": "1/3", "l": 1,
              "L": 1.0, "eps": 0.2, "tau": 1.0}
    code, out, err = run_cli(
        capsys, ["experiment", "prescribe", "--config", json.dumps(config)])
    assert code == 2 and out == ""
    assert json.loads(err)["error"] == "PreconditionError"


def test_exit_numerical_prescribe_disk_without_a_root(capsys, deadline):
    config = {"divisor": json.loads(ORBIT_DIVISOR), "q": "1/3", "l": 1,
              "L": 1.0, "eps": 1e-12}
    code, out, err = run_cli(
        capsys, ["experiment", "prescribe", "--config", json.dumps(config)])
    assert code == 3 and out == ""
    diagnostic = json.loads(err)
    assert diagnostic["error"] == "NumericalError"
    assert diagnostic["message"]


def test_exit_precondition_negative_rng_seed(capsys):
    config = json.loads(CONVERGE_CONFIG)
    config["rng_seed"] = -1
    code, out, err = run_cli(
        capsys, ["experiment", "converge", "--config", json.dumps(config)])
    assert code == 2 and out == ""
    assert json.loads(err)["error"] == "PreconditionError"


def test_exit_schema_unknown_divisor_key(capsys):
    code, _, err = run_cli(
        capsys, ["extend", "--divisor", '{"m": 1, "bogus": []}'])
    assert code == 4
    assert json.loads(err)["error"] == "SchemaError"


def test_exit_schema_invalid_json(capsys):
    code, _, _ = run_cli(capsys, ["critpts", "--zeros", "[0.6", "--m", "1"])
    assert code == 4


def test_exit_schema_nan_zero(capsys):
    code, out, err = run_cli(
        capsys, ["critpts", "--zeros", "[[NaN,0],[0.1,0]]", "--m", "1"])
    assert code == 4 and out == ""
    assert json.loads(err)["error"] == "SchemaError"


def test_exit_schema_missing_file(capsys, tmp_path):
    code, _, err = run_cli(
        capsys, ["critpts", "--zeros", str(tmp_path / "absent.json"),
                 "--m", "1"])
    assert code == 4
    assert "cannot read" in json.loads(err)["message"]


def test_exit_schema_unknown_config_key(capsys):
    config = json.loads(CONVERGE_CONFIG)
    config["bogus"] = 1
    code, _, err = run_cli(
        capsys, ["experiment", "converge", "--config", json.dumps(config)])
    assert code == 4
    assert "unknown keys" in json.loads(err)["message"]


def test_exit_schema_unrenderable_input(capsys):
    code, _, _ = run_cli(capsys, ["render", "--input", '{"foo": 1}'])
    assert code == 4


def test_exit_schema_prescribe_has_no_figure(tmp_path, capsys):
    config = json.dumps({
        "divisor": json.loads(ORBIT_DIVISOR),
        "q": "1/3",
        "l": 1,
        "L": 0.0,
        "eps": 0.2,
    })
    code, _, err = run_cli(
        capsys, ["experiment", "prescribe", "--config", config,
                 "--svg", str(tmp_path / "fig.svg")])
    assert code == 4
    assert json.loads(err)["error"] == "SchemaError"


def test_exit_oserror_unwritable_out(capsys):
    code, _, err = run_cli(
        capsys, ["critpts", "--zeros", "[0.6]", "--m", "1",
                 "--out", "/nonexistent-dir-q7/out.json"])
    assert code == 4
    assert json.loads(err)["error"] in ("FileNotFoundError", "OSError")


@pytest.mark.parametrize("zeros", ['[["a", 0]]', '[{"re": "x", "im": 0}]',
                                   '[[null, 0]]'])
def test_exit_schema_non_numeric_atom(zeros, capsys):
    code, out, err = run_cli(capsys, ["critpts", "--zeros", zeros, "--m", "1"])
    assert code == 4 and out == ""
    assert json.loads(err)["error"] == "SchemaError"


@pytest.mark.parametrize("argv", [
    ["extend", "--divisor", '{"m": true, "support": ["1/3"]}'],
    ["critpts", "--zeros", '[{"re": 0.5, "im": 0, "mult": true}]', "--m",
     "1"],
])
def test_exit_schema_boolean_integer(argv, capsys):
    # JSON true is not the integer 1, in a divisor as in a config
    code, out, err = run_cli(capsys, argv)
    assert code == 4 and out == ""
    assert json.loads(err)["error"] == "SchemaError"


def experiment_config(name: str) -> dict:
    return {
        "cont-orbit": {"divisor": json.loads(ORBIT_DIVISOR), "q": "1/3",
                       "l": 1, "n_schedule": [100, 1000]},
        "multiplier": {"divisor": {"m": 1, "support": ["1/4", "3/4"]},
                       "n_schedule": [10, 100]},
        "converge": json.loads(CONVERGE_CONFIG),
        "prescribe": {"divisor": json.loads(ORBIT_DIVISOR), "q": "1/3",
                      "l": 1, "L": 1.0, "eps": 0.2},
    }[name]


@pytest.mark.parametrize("name, key, value", [
    ("cont-orbit", "q", ["a", 1]),
    ("cont-orbit", "q", {"angle_turns": "1/3", "mult": 2}),
    ("cont-orbit", "l", "x"),
    ("multiplier", "n_schedule", 5),
    ("converge", "m", "x"),
    # an integer key refuses a non-integral number instead of truncating it
    ("cont-orbit", "l", 1.5),
    ("cont-orbit", "n_schedule", [100.5, 1000]),
    ("multiplier", "n_schedule", [2.5]),
    ("converge", "m", 1.5),
    ("converge", "samples_per_epsilon", 2.5),
    ("converge", "rng_seed", 1.5),
    ("converge", "rng_seed", math.nan),
    ("prescribe", "l", 1.5),
    ("prescribe", "max_attempts", 2.5),
    # nor does it read a string or a boolean as a number
    ("multiplier", "n_schedule", ["10", 100]),
    ("cont-orbit", "l", True),
])
def test_exit_schema_wrong_typed_config_value(name, key, value, capsys):
    config = experiment_config(name)
    config[key] = value
    code, out, err = run_cli(
        capsys, ["experiment", name, "--config", json.dumps(config)])
    assert code == 4 and out == ""
    diagnostic = json.loads(err)
    assert diagnostic["error"] == "SchemaError"
    assert repr(key) in diagnostic["message"]


def test_integral_json_floats_are_integers(capsys):
    outputs = []
    for schedule in ([10, 100], [10.0, 100.0]):
        config = experiment_config("multiplier")
        config["n_schedule"] = schedule
        code, out, _ = run_cli(
            capsys, ["experiment", "multiplier", "--config",
                     json.dumps(config)])
        assert code == 0
        outputs.append(out)
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("argv, message", [
    (["extend", "--divisor", '{"m": 1, "support": ["1/3"]}', "--m", "0"],
     "m must be a positive integer"),
    (["classify", "--divisor", '{"m": 2, "support": ["1/3"]}',
      "--depth", "-5"], "depth must be a positive integer"),
    (["classify", "--divisor", '{"m": 2, "support": ["1/3"]}',
      "--depth", "0"], "depth must be a positive integer"),
])
def test_exit_precondition_out_of_range_argument(argv, message, capsys):
    code, out, err = run_cli(capsys, argv)
    assert code == 2 and out == ""
    diagnostic = json.loads(err)
    assert diagnostic == {"error": "PreconditionError", "message": message}


@pytest.mark.parametrize("argv, message", [
    (["invert", "--ram", "[0.3]", "--m", "1", "--tol", tol],
     "newton_tol must be finite and positive") for tol in ("0", "-1", "nan")
] + [
    (["classify", "--divisor", ORBIT_DIVISOR, "--tol", tol],
     "tol must be finite and positive") for tol in ("0", "nan", "inf")
])
def test_exit_precondition_invalid_tolerance(argv, message, capsys):
    code, out, err = run_cli(capsys, argv)
    assert code == 2 and out == ""
    assert json.loads(err) == {"error": "PreconditionError",
                               "message": message}


@pytest.mark.parametrize("argv", [
    ["classify", "--divisor", ORBIT_DIVISOR, "--svg", "f.svg"],
    ["render", "--input", '{"foo": 1}', "--svg", "f.svg"],
    ["critpts", "--zeros", "[0.6]", "--m", "1", "--depth", "3"],
    ["extend", "--divisor", '{"m": 2, "support": ["1/4"]}', "--tol", "1"],
])
def test_unread_option_is_a_usage_error(argv, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "usage:" in capsys.readouterr().err
    assert not (tmp_path / "f.svg").exists()


def test_seed_on_experiment_without_rng_seed(capsys):
    config = json.dumps({"divisor": json.loads(ORBIT_DIVISOR), "q": "1/3",
                         "l": 1, "n_schedule": [100, 1000]})
    code, out, err = run_cli(
        capsys, ["experiment", "cont-orbit", "--config", config,
                 "--seed", "3"])
    assert code == 4 and out == ""
    assert "unknown keys ['rng_seed']" in json.loads(err)["message"]


def test_prescribe_figure_refused_before_the_solve(tmp_path, capsys):
    config = json.dumps({"divisor": json.loads(ORBIT_DIVISOR), "q": "1/3",
                         "l": 1, "L": 1.0, "eps": 0.2})
    cert_path = tmp_path / "c.json"
    code, _, err = run_cli(
        capsys, ["experiment", "prescribe", "--config", config,
                 "--svg", str(tmp_path / "f.svg"), "--out", str(cert_path)])
    assert code == 4
    assert json.loads(err)["error"] == "SchemaError"
    assert not cert_path.exists()
    assert not (tmp_path / "f.svg").exists()


# Each subcommand's settable options: adding or dropping one is a
# visible change to this table.
SUBCOMMAND_OPTIONS = {
    "critpts": {"--zeros", "--m", "--out", "--svg", "--deterministic"},
    "invert": {"--ram", "--m", "--tol", "--out", "--svg", "--deterministic"},
    "extend": {"--divisor", "--m", "--out", "--svg", "--deterministic"},
    "classify": {"--divisor", "--depth", "--tol", "--out"},
    "lamination": {"--divisor", "--depth", "--out", "--svg",
                   "--deterministic"},
    "experiment": {"name", "--config", "--csv", "--seed", "--out", "--svg",
                   "--deterministic"},
    "render": {"--input", "--out", "--deterministic"},
}


def test_subcommand_option_table():
    parser = _build_parser()
    (subparsers,) = [a for a in parser._actions
                     if isinstance(a, argparse._SubParsersAction)]
    options = {name: {a.option_strings[0] if a.option_strings else a.dest
                      for a in sub._actions if a.dest != "help"}
               for name, sub in subparsers.choices.items()}
    assert options == SUBCOMMAND_OPTIONS
    assert sum(map(len, options.values())) == 35


def test_subcommand_defaults():
    parse = _build_parser().parse_args
    assert parse(["invert", "--ram", "[]", "--m", "1"]).tol == 1e-12
    args = parse(["classify", "--divisor", "{}"])
    assert (args.depth, args.tol) == (DEFAULT_DEPTH, DEFAULT_TOL)
    assert parse(["lamination", "--divisor", "{}"]).depth == 3
    assert parse(["experiment", "converge", "--config", "{}"]).seed is None


# ---------------------------------------------------------------------------
# one parser per process


def test_parser_is_built_once():
    assert _build_parser() is _build_parser()


def test_no_option_leaks_between_calls(tmp_path, capsys):
    out_path = tmp_path / "crit.json"
    argv = ["critpts", "--zeros", "[0.6]", "--m", "1"]
    code, out, _ = run_cli(capsys, argv + ["--out", str(out_path)])
    assert code == 0 and out == ""
    code, out, _ = run_cli(capsys, argv)
    assert code == 0
    assert out == out_path.read_text()


def test_valid_call_after_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["critpts", "--zeros", "[0.6]"])
    assert exc.value.code == 2
    capsys.readouterr()
    code, out, err = run_cli(
        capsys, ["critpts", "--zeros", "[0.6]", "--m", "1"])
    assert code == 0 and err == ""
    assert json.loads(out)["atoms"][0]["re"] == pytest.approx(1.0 / 3.0,
                                                              abs=1e-9)


def test_dispatch_finds_a_rebound_command(monkeypatch):
    _build_parser()
    calls = []

    def fake(args):
        calls.append(args)
        return 7

    monkeypatch.setattr(cli, "cmd_critpts", fake)
    assert main(["critpts", "--zeros", "[0.6]", "--m", "1"]) == 7
    assert [(a.command, a.zeros, a.m) for a in calls] == [
        ("critpts", "[0.6]", 1)]


def test_import_leaves_the_parser_unbuilt():
    src = os.path.dirname(os.path.dirname(cli.__file__))
    proc = subprocess.run(
        [sys.executable, "-c",
         "import blaschkediv.cli as c; "
         "print(c._build_parser.cache_info().currsize)"],
        capture_output=True, text=True, timeout=60,
        env=dict(os.environ, PYTHONPATH=src))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "0"


# ---------------------------------------------------------------------------
# installed entry point


def test_console_script_runs():
    exe = shutil.which("blaschkediv")
    assert exe is not None
    proc = subprocess.run(
        [exe, "critpts", "--zeros", "[0.6]", "--m", "1"],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    assert payload["atoms"][0]["re"] == pytest.approx(1.0 / 3.0, abs=1e-9)
