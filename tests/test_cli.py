"""Command-line interface tests.

Everything goes through main() in-process with captured stdout/stderr;
a tiny harness below keeps each case to one line.  File outputs land in
tmp_path, and the rerun tests compare raw bytes, not parsed content.
"""

import json
import os
import warnings

import pytest

from lacuna.cli import main


def run_cli(capsys, *argv):
    """Invoke main, returning (exit_code, stdout, stderr)."""
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_poly(tmp_path, name, data):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


WALSH_POLY = {"kind": "walsh", "coefficients": [{"value_m": 6, "coeff": 2.5}]}
TRIG_POLY = {
    "kind": "trig",
    "coefficients": [
        {"freq": 20, "re": 1.0, "im": 0.0},
        {"freq": 68, "re": -0.5, "im": 0.5},
    ],
}


# the README's CLI lines by subcommand, in README order; "poly.json"
# stands for the Walsh or trig file the line's --kind needs
README_LINES = {
    "lambda": ["--l", "3"],
    "validate": ["--terms", "2,4,8", "--lam", "3"],
    "enumerate": ["--terms", "4,16,64", "--lam", "3", "--l", "2"],
    "reps": ["--terms", "4,16,64", "--lam", "3", "--m", "12", "--l", "2"],
    "heads": ["--terms", "4,16,64", "--lam", "3", "--l", "2"],
    "counterexample": ["--l", "2", "--m-max", "20"],
    "walsh-shift": ["--n", "6", "--m", "6", "--alpha", "0/1"],
    "find-alpha": ["--set", "0/1:4/5", "--exponents", "2,1"],
    "recover": ["--poly", "poly.json", "--m", "6", "--alpha", "3/8"],
    "norm": ["--poly", "poly.json", "--kind", "walsh", "--p", "4"],
    "ratio": ["--poly", "poly.json", "--kind", "walsh", "--p", "4"],
    "riesz": ["--freqs", "4,16,64"],
    "project": ["--m", "12", "--freqs", "4,16"],
    "energy": ["--poly", "poly.json", "--kind", "trig", "--set", "0/1:1/2"],
    "inverse-check": [
        "--poly", "poly.json", "--kind", "trig", "--set", "0/1:63/64",
        "--terms", "4,16,64,256", "--lam", "3", "--l", "2", "--d", "1",
    ],
    "matrix-experiment": [
        "--coeffs", "poly.json", "--kind", "trig", "--set", "0/1:1/1",
        "--terms", "4,16,64,256", "--lam", "3", "--l", "2", "--d", "1",
        "--matrix-kind", "prefix-of-rearrangement", "--order", "20,68",
    ],
    "extremal": ["--family", "walsh", "--l", "2", "--exponent-budget", "6", "--p", "4"],
    "growth": [
        "--family", "walsh", "--l", "2", "--exponent-budget", "8",
        "--p-list", "4,8,16,32", "--format", "csv",
    ],
    "blowup": ["--l", "2", "--p", "4", "--degree-list", "2,4,8"],
}
CSV_COMMANDS = ("matrix-experiment", "growth", "blowup")


def readme_argv(tmp_path, name):
    """The README line of ``name`` with poly.json written to tmp_path."""
    args = README_LINES[name]
    data = TRIG_POLY if "trig" in args else WALSH_POLY
    poly = write_poly(tmp_path, "poly.json", data)
    return [name] + [poly if token == "poly.json" else token for token in args]


# --- scalar commands ------------------------------------------------------


def test_lambda_prints_correctly_rounded_constant(capsys):
    code, out, err = run_cli(capsys, "lambda", "--l", "3")
    assert code == 0
    assert out.strip() == "1.618033988749895"
    assert err == ""


def test_walsh_shift_prints_integer(capsys):
    code, out, _ = run_cli(capsys, "walsh-shift", "--n", "6", "--m", "6", "--alpha", "0/1")
    assert code == 0
    assert out.strip() == "4"
    code, out, _ = run_cli(capsys, "walsh-shift", "--n", "10", "--m", "6", "--alpha", "0/1")
    assert code == 0
    assert out.strip() == "0"


def test_project_prints_fraction(capsys):
    code, out, _ = run_cli(capsys, "project", "--m", "12", "--freqs", "4,16")
    assert code == 0
    assert out.strip() == "1/4"


def test_find_alpha_prints_point_or_absent(capsys):
    code, out, _ = run_cli(
        capsys, "find-alpha", "--set", "0/1:4/5", "--exponents", "2,1"
    )
    assert code == 0
    assert out.strip() == "0"
    code, out, _ = run_cli(
        capsys, "find-alpha", "--set", "0/1:2/5", "--exponents", "1"
    )
    assert code == 0
    assert out.strip() == "absent"


def test_recover_prints_coefficient(capsys, tmp_path):
    poly = write_poly(tmp_path, "w.json", WALSH_POLY)
    code, out, _ = run_cli(
        capsys, "recover", "--poly", poly, "--m", "6", "--alpha", "0/1"
    )
    assert code == 0
    assert out.strip() == "2.5"


def test_norm_and_ratio(capsys, tmp_path):
    poly = write_poly(tmp_path, "w.json", WALSH_POLY)
    code, out, _ = run_cli(
        capsys, "norm", "--poly", poly, "--kind", "walsh", "--p", "4"
    )
    assert code == 0
    assert float(out.strip()) == pytest.approx(2.5, abs=1e-12)
    code, out, _ = run_cli(
        capsys, "ratio", "--poly", poly, "--kind", "walsh", "--p", "4"
    )
    assert code == 0
    assert float(out.strip()) == pytest.approx(1.0, abs=1e-12)


def test_energy_scalar(capsys, tmp_path):
    poly = write_poly(tmp_path, "t.json", TRIG_POLY)
    code, out, _ = run_cli(
        capsys, "energy", "--poly", poly, "--kind", "trig", "--set", "0/1:1/1"
    )
    assert code == 0
    assert float(out.strip()) == pytest.approx(1.0 + 0.5, abs=1e-10)


# --- structured commands --------------------------------------------------


def test_validate_report(capsys):
    code, out, _ = run_cli(capsys, "validate", "--terms", "2,4,8", "--lam", "3")
    assert code == 0
    body = json.loads(out)
    assert body["ok"] is False
    assert body["first_violation"] == {"index": 0, "pair": [2, 4]}


def test_enumerate_report(capsys):
    code, out, _ = run_cli(
        capsys, "enumerate", "--terms", "4,16,64", "--lam", "3", "--l", "2"
    )
    assert code == 0
    body = json.loads(out)
    values = [e["value"] for e in body["entries"]]
    assert sorted(abs(v) for v in values) == sorted(
        [12, 12, 20, 20, 48, 48, 60, 60, 68, 68, 80, 80]
    )
    assert body["variant"] == "signed"


def test_counterexample_terms_are_decimal_strings(capsys):
    code, out, _ = run_cli(capsys, "counterexample", "--l", "2", "--m-max", "9")
    assert code == 0
    body = json.loads(out)
    assert body["terms"][:2] == [str(10**18 + 3), str(10**18 + 12)]
    assert body["coverage_ok"] is True


def test_riesz_report(capsys):
    code, out, _ = run_cli(capsys, "riesz", "--freqs", "4,16,64")
    assert code == 0
    body = json.loads(out)
    coeffs = {c["freq"]: c for c in body["coefficients"]}
    assert coeffs[0]["re"] == 1.0 and coeffs[0]["im"] == 0.0
    assert coeffs[84]["re"] == 0.125


def test_inverse_check_report(capsys, tmp_path):
    poly = write_poly(tmp_path, "t.json", TRIG_POLY)
    code, out, _ = run_cli(
        capsys,
        "inverse-check",
        "--poly", poly,
        "--kind", "trig",
        "--set", "0/1:1/1",
        "--terms", "4,16,64,256",
        "--lam", "3",
        "--l", "2",
        "--d", "1",
    )
    assert code == 0
    body = json.loads(out)
    assert body["pass"] is True
    assert body["threshold"] == 0.875


# --- exit codes -----------------------------------------------------------


def test_unknown_subcommand_is_64(capsys):
    code, out, err = run_cli(capsys, "no-such-thing")
    assert code == 64
    assert json.loads(err)["error"] == "unknown-subcommand"


def test_validation_failure_is_2_with_payload(capsys):
    code, _, err = run_cli(capsys, "lambda", "--l", "1")
    assert code == 2
    payload = json.loads(err)
    assert payload["error"] == "invalid-order"
    assert "l" in payload["message"] or "order" in payload["message"]


def test_bad_flag_value_is_2(capsys):
    code, _, err = run_cli(capsys, "lambda", "--l", "three")
    assert code == 2
    assert json.loads(err)["error"] == "invalid-input"


def test_missing_poly_file_is_2(capsys, tmp_path):
    code, _, err = run_cli(
        capsys, "norm", "--poly", str(tmp_path / "gone.json"),
        "--kind", "walsh", "--p", "4",
    )
    assert code == 2


MATRIX_ARGV = [
    "matrix-experiment", "--kind", "trig", "--set", "0/1:63/64",
    "--terms", "4,16,64,256", "--lam", "3", "--l", "2", "--d", "1",
]


_NORM = ["norm", "--kind", "trig", "--p", "4", "--poly"]
_CUSTOM = [*MATRIX_ARGV, "--matrix-kind", "custom", "--matrix-file"]
_NESTED = [*MATRIX_ARGV, "--matrix-kind", "nested-sets", "--matrix-file"]


@pytest.mark.parametrize(
    "argv, data",
    [
        pytest.param(_NORM, [1], id="poly-not-an-object"),
        pytest.param(_NORM, {}, id="poly-without-coefficients"),
        pytest.param(_NORM, {"coefficients": [{"freq": 20}]}, id="trig-row-without-re"),
        pytest.param(_NORM, {"coefficients": [20]}, id="trig-row-not-an-object"),
        pytest.param(
            _NORM, {"coefficients": [{"freq": 20.7, "re": 1.0}]}, id="trig-freq-not-an-integer"
        ),
        pytest.param(
            ["norm", "--kind", "walsh", "--p", "4", "--poly"],
            {"coefficients": 6},
            id="walsh-coefficients-not-a-list",
        ),
        pytest.param(
            ["recover", "--m", "6", "--alpha", "0/1", "--poly"],
            {"coefficients": [{}]},
            id="walsh-row-without-keys",
        ),
        pytest.param(
            ["recover", "--m", "6", "--alpha", "0/1", "--poly"],
            {"coefficients": [{"value_m": 6.9, "coeff": 1.0}]},
            id="walsh-value_m-not-an-integer",
        ),
        pytest.param(_CUSTOM, {"rows": [[20, 1.0]]}, id="matrix-row-not-an-object"),
        pytest.param(_CUSTOM, [1, 2], id="matrix-not-an-object"),
        pytest.param(_CUSTOM, {"rows": [{"20": [1]}]}, id="matrix-entry-not-a-number"),
        pytest.param(_CUSTOM, {"bound": 2.0}, id="custom-without-rows"),
        pytest.param(_CUSTOM, {"rows": [], "bound": []}, id="bound-not-a-number"),
        pytest.param(_NESTED, {"sets": [20]}, id="set-not-a-list"),
        pytest.param(
            _NESTED, {"sets": [[20.7], [20.7, 68]]}, id="set-member-not-an-integer"
        ),
        pytest.param(
            _NESTED, {"sets": [[20], [20, 68]], "bound": 0.5}, id="nested-bound-violated"
        ),
    ],
)
def test_malformed_input_file_is_2_with_payload(capsys, tmp_path, argv, data):
    path = write_poly(tmp_path, "bad.json", data)
    if argv[0] == "matrix-experiment":
        argv = argv + [path, "--coeffs", write_poly(tmp_path, "poly.json", TRIG_POLY)]
    else:
        argv = argv + [path]
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert "Traceback" not in err
    assert json.loads(err)["error"]


# a trig key past the float range
BIG_KEY_POLY = {"coefficients": [{"freq": 10**400, "re": 1.0}, {"freq": 1, "re": 1.0}]}

_INVERSE_TRIG = [
    "inverse-check", "--kind", "trig", "--set", "0/1:63/64",
    "--terms", "4,16,64,256", "--lam", "3",
]


@pytest.mark.parametrize(
    "argv, poly, kind",
    [
        pytest.param(
            ["norm", "--kind", "walsh", "--p", "nan", "--poly"], WALSH_POLY,
            "invalid-input", id="norm-p-nan",
        ),
        pytest.param(
            ["norm", "--kind", "trig", "--p", "inf", "--poly"], TRIG_POLY,
            "invalid-input", id="norm-p-inf",
        ),
        pytest.param(
            ["extremal", "--family", "walsh", "--l", "2", "--exponent-budget", "4",
             "--p", "nan"],
            None, "invalid-input", id="extremal-p-nan",
        ),
        pytest.param(
            ["growth", "--family", "walsh", "--l", "2", "--exponent-budget", "4",
             "--p-list", "4,8,16,nan"],
            None, "invalid-input", id="growth-p-nan",
        ),
        pytest.param(
            ["growth", "--family", "walsh", "--l", "2", "--exponent-budget", "4",
             "--p-list", "4,8,16,inf"],
            None, "invalid-input", id="growth-p-inf",
        ),
        pytest.param(
            ["blowup", "--l", "2", "--p", "nan", "--degree-list", "2,4"],
            None, "invalid-input", id="blowup-p-nan",
        ),
        pytest.param(
            [*_INVERSE_TRIG, "--l", "2", "--d", "0", "--poly"], TRIG_POLY,
            "invalid-input", id="inverse-check-d-0",
        ),
        pytest.param(
            [*_INVERSE_TRIG, "--l", "2", "--d", "-1", "--poly"], TRIG_POLY,
            "invalid-input", id="inverse-check-d-minus-1",
        ),
        pytest.param(
            [*_INVERSE_TRIG, "--l", "1", "--d", "1", "--poly"], TRIG_POLY,
            "invalid-order", id="inverse-check-l-1",
        ),
        pytest.param(
            ["project", "--m", "4", "--freqs", "0,4"], None,
            "invalid-input", id="project-freq-0",
        ),
        pytest.param(
            ["project", "--m", "4", "--freqs", "4,4"], None,
            "invalid-input", id="project-freq-repeated",
        ),
        pytest.param(
            ["energy", "--kind", "trig", "--set", "0/1:1/3", "--poly"], BIG_KEY_POLY,
            "resource-limit", id="energy-key-10^400",
        ),
        pytest.param(
            ["norm", "--kind", "trig", "--p", "4", "--poly"], BIG_KEY_POLY,
            "resource-limit", id="norm-key-10^400",
        ),
    ],
)
def test_out_of_domain_input_is_2_with_payload(capfd, tmp_path, argv, poly, kind):
    if poly is not None:
        argv = argv + [write_poly(tmp_path, "poly.json", poly)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(capfd, *argv)
    assert (code, out) == (2, "")
    payload = json.loads(err)
    assert payload["error"] == kind, payload


def test_resource_guard_is_2(capsys):
    code, _, err = run_cli(capsys, "counterexample", "--l", "2", "--m-max", "2000")
    assert code == 2
    assert json.loads(err)["error"] == "resource-limit"


# --- config files ---------------------------------------------------------


def test_config_satisfies_required_flags(capsys, tmp_path):
    cfg = tmp_path / "lam.cfg"
    cfg.write_text("l = 4\n# comment line\n")
    code, out, _ = run_cli(capsys, "lambda", "--config", str(cfg))
    assert code == 0
    assert out.strip() == "1.8392867552141612"


def test_cli_flag_wins_over_config(capsys, tmp_path):
    cfg = tmp_path / "lam.cfg"
    cfg.write_text("l = 4\n")
    code, out, _ = run_cli(capsys, "lambda", "--config", str(cfg), "--l", "3")
    assert code == 0
    assert out.strip() == "1.618033988749895"


def test_last_repeated_config_wins(capsys, tmp_path):
    # argparse keeps the last of a repeated flag, and so does the config scan
    first, last = tmp_path / "a.cfg", tmp_path / "b.cfg"
    first.write_text("l = 4\n")
    last.write_text("l = 3\n")
    code, out, _ = run_cli(capsys, "lambda", "--config", str(first), "--config", str(last))
    assert code == 0
    assert out.strip() == "1.618033988749895"
    code, out, _ = run_cli(capsys, "lambda", f"--config={last}", "--config", str(first))
    assert code == 0
    assert out.strip() == "1.8392867552141612"


def test_walsh_growth_at_one_restart_runs_past_the_cell_cap(capsys):
    code, out, _ = run_cli(
        capsys, "growth", "--family", "walsh", "--l", "2", "--exponent-budget", "40",
        "--p-list", "4,8,16,32", "--restarts", "1",
    )
    assert code == 0
    report = json.loads(out)
    assert report["skipped"] == []
    assert report["ratio"] == report["probe_ratio"]


def test_config_dashed_keys_map_to_flags(capsys, tmp_path):
    cfg = tmp_path / "ce.cfg"
    cfg.write_text("l = 2\nm-max = 9\n")
    code, out, _ = run_cli(capsys, "counterexample", "--config", str(cfg))
    assert code == 0
    assert json.loads(out)["coverage_ok"] is True


@pytest.mark.parametrize(
    "argv",
    [
        ["--l", "2", "--conf", "{cfg}"],
        ["--l", "2", "--conf={cfg}"],
        ["--l", "2", "--out", "{out}"],
    ],
    ids=["conf", "conf-equals", "out"],
)
def test_abbreviated_flags_are_2(capsys, tmp_path, argv):
    # with abbreviations on, argparse reads "--conf" as --config while the
    # config scan sees only the full name, so the file is silently ignored
    cfg = tmp_path / "lam.cfg"
    cfg.write_text("l = 4\n")
    out_file = tmp_path / "out.json"
    argv = [a.format(cfg=cfg, out=out_file) for a in argv]
    code, out, err = run_cli(capsys, "lambda", *argv)
    assert code == 2
    assert out == ""
    assert json.loads(err)["error"] == "invalid-input"
    assert not out_file.exists()


def test_unknown_config_key_is_65(capsys, tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("not_a_flag = 7\n")
    code, _, err = run_cli(capsys, "lambda", "--config", str(cfg), "--l", "3")
    assert code == 65
    assert json.loads(err)["error"] == "malformed-config"


def test_malformed_config_line_is_65(capsys, tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("l: 3\n")
    code, _, err = run_cli(capsys, "lambda", "--config", str(cfg))
    assert code == 65


def test_unreadable_config_is_65(capsys, tmp_path):
    code, _, err = run_cli(
        capsys, "lambda", "--l", "3", "--config", str(tmp_path / "none.cfg")
    )
    assert code == 65


def test_config_bad_value_type_is_65(capsys, tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("l = three\n")
    code, _, err = run_cli(capsys, "lambda", "--config", str(cfg))
    assert code == 65


@pytest.mark.parametrize(
    "line, argv",
    [
        (
            "family = foo",
            ["extremal", "--l", "2", "--exponent-budget", "4", "--p", "4"],
        ),
        ("format = csv", ["lambda", "--l", "3"]),
    ],
)
def test_config_value_outside_choices_is_65(capsys, tmp_path, line, argv):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(line + "\n")
    code, out, err = run_cli(capsys, *argv, "--config", str(cfg))
    assert code == 65
    assert out == ""
    assert json.loads(err)["error"] == "malformed-config"


# --- report files ---------------------------------------------------------


def test_output_report_embeds_schema_and_config(capsys, tmp_path):
    out_file = tmp_path / "lam.json"
    code, out, _ = run_cli(
        capsys, "lambda", "--l", "3", "--output", str(out_file)
    )
    assert code == 0
    data = json.loads(out_file.read_text())
    assert data["schema_version"] == "1"
    assert data["config"]["l"] == 3
    assert "output" not in data["config"]
    assert "command" not in data["config"]
    assert data["value"] == 1.618033988749895


def test_output_rerun_is_byte_identical(capsys, tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    argv = [
        "growth", "--family", "walsh", "--l", "2", "--exponent-budget", "5",
        "--p-list", "3,4,6,8", "--restarts", "1", "--max-iter", "15",
    ]
    assert run_cli(capsys, *argv, "--output", str(a))[0] == 0
    assert run_cli(capsys, *argv, "--output", str(b))[0] == 0
    assert a.read_bytes() == b.read_bytes()
    assert b"schema_version" in a.read_bytes()


def test_growth_report_carries_cli_config(capsys, tmp_path):
    out_file = tmp_path / "g.json"
    code, _, _ = run_cli(
        capsys,
        "growth", "--family", "walsh", "--l", "2", "--exponent-budget", "5",
        "--p-list", "3,4,6,8", "--restarts", "1", "--max-iter", "10",
        "--output", str(out_file),
    )
    assert code == 0
    config = json.loads(out_file.read_text())["config"]
    assert config["family"] == "walsh"
    assert config["p_list"] == "3,4,6,8"
    assert config["restarts"] == 1


def test_output_has_no_timestamps(capsys, tmp_path):
    out_file = tmp_path / "r.json"
    run_cli(capsys, "project", "--m", "12", "--freqs", "4,16", "--output", str(out_file))
    text = out_file.read_text().lower()
    for needle in ("time", "date", "stamp"):
        assert needle not in text


def test_growth_csv_format(capsys):
    code, out, _ = run_cli(
        capsys,
        "growth", "--family", "walsh", "--l", "2", "--exponent-budget", "5",
        "--p-list", "3,4,6,8", "--restarts", "1", "--max-iter", "10",
        "--format", "csv",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "p,ratio"
    assert len(lines) == 5
    assert float(lines[1].split(",")[0]) == 3.0


def test_scalar_commands_reject_csv(capsys, tmp_path):
    json_only = [name for name in README_LINES if name not in CSV_COMMANDS]
    assert len(json_only) == 16
    for name in json_only:
        argv = readme_argv(tmp_path, name)
        code, out, err = run_cli(capsys, *argv, "--format", "csv")
        assert code == 2, name
        assert out == ""
        assert json.loads(err)["error"] == "invalid-input"


def test_matrix_experiment_csv(capsys, tmp_path):
    argv = readme_argv(tmp_path, "matrix-experiment")
    code, out, _ = run_cli(capsys, *argv, "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "n,energy,mass,bound,pass"
    assert [line.split(",")[0] for line in lines[1:]] == ["1", "2"]
    assert all(line.endswith(",true") for line in lines[1:])
    # a custom row that selects no coefficient has float zeros throughout
    rows = tmp_path / "rows.json"
    rows.write_text(json.dumps({"rows": [{"20": 1.0}, {"4": 1.0}]}))
    code, out, _ = run_cli(
        capsys, *argv, "--matrix-kind", "custom", "--matrix-file", str(rows),
        "--format", "csv",
    )
    assert code == 0
    assert out.strip().splitlines()[2] == "2,0.0,0.0,0.0,false"


def test_help_lists_subcommands_in_readme_order(capsys):
    code, out, _ = run_cli(capsys, "--help")
    assert code == 0
    assert len(README_LINES) == 19
    assert out.splitlines()[1] == "subcommands: " + ", ".join(README_LINES)


def test_matrix_experiment_jsonl(capsys, tmp_path):
    poly = write_poly(tmp_path, "t.json", TRIG_POLY)
    code, out, _ = run_cli(
        capsys,
        "matrix-experiment",
        "--coeffs", poly,
        "--set", "0/1:1/1",
        "--kind", "trig",
        "--terms", "4,16,64,256",
        "--lam", "3",
        "--l", "2",
        "--d", "1",
        "--matrix-kind", "prefix-of-rearrangement",
        "--order", "20,68",
    )
    assert code == 0
    lines = [json.loads(line) for line in out.strip().splitlines()]
    assert lines[0]["schema_version"] == "1"
    rows = [x for x in lines if "n" in x]
    assert [set(r) for r in rows] == [{"n", "energy", "mass", "bound", "pass"}] * 2
    assert "summary" in lines[-1]


def test_extremal_report(capsys):
    code, out, _ = run_cli(
        capsys,
        "extremal", "--family", "walsh", "--l", "2", "--exponent-budget", "4",
        "--p", "4", "--restarts", "1", "--max-iter", "10",
    )
    assert code == 0
    body = json.loads(out)
    assert body["ratio"] >= 1.0
    assert body["kind"] == "walsh"


def test_blowup_csv(capsys):
    code, out, _ = run_cli(
        capsys,
        "blowup", "--l", "2", "--p", "4", "--degree-list", "1,2",
        "--format", "csv",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "budget,ratio_critical,ratio_control"
    assert len(lines) == 3


def test_heads_report(capsys):
    code, out, _ = run_cli(
        capsys, "heads", "--terms", "4,16,64", "--lam", "3", "--l", "2"
    )
    assert code == 0
    body = json.loads(out)
    assert body["a"] == "2/3"
    assert body["b"] == "4/3"
    assert body["containment_ok"] is True


def test_reps_report(capsys):
    code, out, _ = run_cli(
        capsys,
        "reps", "--terms", "4,16,64", "--lam", "3", "--m", "12", "--l", "2",
    )
    assert code == 0
    body = json.loads(out)
    assert len(body["representations"]) == 1
    assert body["representations"][0]["signs"] == [1, -1]


def test_geometric_sequence_flags(capsys):
    code, out, _ = run_cli(
        capsys, "enumerate", "--ratio", "4", "--length", "3", "--l", "2"
    )
    assert code == 0
    values = [e["value"] for e in json.loads(out)["entries"]]
    assert max(values) == 80


def test_atomic_write_leaves_no_partials(capsys, tmp_path):
    out_file = tmp_path / "r.json"
    run_cli(capsys, "lambda", "--l", "3", "--output", str(out_file))
    leftovers = [p for p in os.listdir(tmp_path) if p != "r.json"]
    assert leftovers == []


# --- Walsh contexts, trig families and sequence errors ---------------------


def test_inverse_check_and_matrix_experiment_take_a_walsh_context(capsys, tmp_path):
    poly = write_poly(tmp_path, "w.json", WALSH_POLY)
    code, out, _ = run_cli(
        capsys, "inverse-check", "--poly", poly, "--kind", "walsh", "--set", "0/1:1/1",
        "--l", "2",
    )
    assert code == 0
    body = json.loads(out)
    assert body["threshold"] == 1 - 2**-8
    assert body["lower_constant"] == pytest.approx(1 - 2**-0.25)
    assert body["pass"] is True and body["notes"][0].startswith("walsh threshold")
    code, out, _ = run_cli(
        capsys, "matrix-experiment", "--coeffs", poly, "--kind", "walsh",
        "--set", "0/1:1/1", "--l", "2", "--format", "csv",
    )
    assert code == 0
    assert out.splitlines() == [
        "n,energy,mass,bound,pass",
        f"1,6.25,6.25,{6.25 * (1 - 2**-0.25)!r},true",
    ]


TRIG_FAMILY = ["--family", "trig", "--ratio", "2", "--length", "6", "--l", "1"]


def test_extremal_and_growth_take_a_trig_family(capsys):
    search = ["--restarts", "1", "--max-iter", "5"]
    code, out, _ = run_cli(capsys, "extremal", *TRIG_FAMILY, "--p", "4", *search)
    assert code == 0
    body = json.loads(out)
    assert body["kind"] == "trig"
    assert sorted(row["freq"] for row in body["coefficients"]) == [2, 4, 8, 16, 32, 64]
    assert body["ratio"] >= 1.0
    code, out, _ = run_cli(
        capsys, "growth", *TRIG_FAMILY, "--p-list", "4,8,16,32", *search, "--format", "csv"
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "p,ratio"
    assert [line.split(",")[0] for line in lines[1:]] == ["4.0", "8.0", "16.0", "32.0"]


@pytest.mark.parametrize(
    "argv",
    [
        pytest.param(["--terms", "4,16,64"], id="terms-without-lam"),
        pytest.param([], id="no-sequence"),
    ],
)
def test_missing_sequence_flags_are_2_with_payload(capsys, argv):
    code, out, err = run_cli(capsys, "enumerate", *argv, "--l", "2")
    assert (code, out) == (2, "")
    payload = json.loads(err)
    assert payload["error"] == "invalid-input"
    assert "--lam" in payload["message"]
