import dataclasses
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import diqkd_bounds
from diqkd_bounds import SimulationReport, dephasing_simulation, make_isotropic, save_state
from diqkd_bounds.cli import build_parser, main
from diqkd_bounds.fileio import behavior_from_dict, save_behavior
from diqkd_bounds import behavior_from, chsh_value, honest_chsh_device


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_curve_pironio_csv(capsys):
    code, out, _ = run_cli(capsys, "curve", "pironio", "--grid", "5", "--format", "csv")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "param,omega,qber,value"
    assert len(lines) == 6
    first = [float(v) for v in lines[1].split(",")]
    last = [float(v) for v in lines[-1].split(",")]
    # nu axis runs from the Tsirelson point (value 1) down to the local bound
    assert abs(first[3] - 1.0) < 1e-9 and abs(first[1] - 2 * math.sqrt(2)) < 1e-9
    assert abs(last[3]) < 1e-9 and abs(last[1] - 2.0) < 1e-9


def test_curve_channel_erasure(capsys):
    code, out, _ = run_cli(capsys, "curve", "channel", "--kind", "erasure",
                           "--p-max", "1", "--grid", "3")
    assert code == 0
    rows = [line.split(",") for line in out.strip().split("\n")[1:]]
    ps = [float(r[0]) for r in rows]
    vals = [float(r[3]) for r in rows]
    assert ps == [0.0, 0.5, 1.0]
    assert abs(vals[0] - 1.0) < 1e-9
    assert vals[1] == 0.0 and vals[2] == 0.0


def test_curve_json_schema(capsys):
    code, out, _ = run_cli(capsys, "curve", "fractional", "--grid", "4",
                           "--format", "json", "--axis", "omega")
    assert code == 0
    doc = json.loads(out)
    assert doc["name"] == "fractional"
    assert doc["axis"] == "omega"
    assert len(doc["samples"]) == 4
    assert set(doc["samples"][0]) == {"param", "omega", "qber", "value"}


def test_device_dump_has_tsirelson_value(capsys):
    code, out, _ = run_cli(capsys, "device", "--nu", "0")
    assert code == 0
    behavior = behavior_from_dict(json.loads(out))
    assert abs(chsh_value(behavior) - 2 * math.sqrt(2)) < 1e-10


def test_device_csv_rows(capsys):
    code, out, _ = run_cli(capsys, "device", "--nu", "0.3", "--format", "csv")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "x,y,a,b,p"
    assert len(lines) == 1 + 3 * 2 * 2 * 2


def test_localweight_round_trip(tmp_path, capsys):
    state, fam = honest_chsh_device(0.4)
    path = tmp_path / "behavior.json"
    save_behavior(behavior_from(state, fam), path)
    code, out, _ = run_cli(capsys, "localweight", "--file", str(path))
    assert code == 0
    doc = json.loads(out)
    assert abs(doc["local_weight"] - 1.0) < 1e-8
    code, out, _ = run_cli(capsys, "localweight", "--file", str(path),
                           "--format", "csv")
    assert code == 0
    assert out.startswith("quantity,value\nlocal_weight,")


def test_er_subcommand(tmp_path, capsys):
    path = tmp_path / "state.json"
    save_state(make_isotropic(1 - 2.4 / (2 * math.sqrt(2))), path)
    code, out, _ = run_cli(capsys, "er", "--file", str(path),
                           "--restarts", "2", "--seed", "0")
    assert code == 0
    value = json.loads(out)["value"]
    lam = 3 * 2.4 / (8 * math.sqrt(2)) + 0.25
    expected = 1 + lam * math.log2(lam) + (1 - lam) * math.log2(1 - lam)
    assert abs(value - expected) < 1e-3


def test_simulate_report(capsys):
    code, out, _ = run_cli(capsys, "simulate", "--kind", "depolarizing", "--p", "0.1")
    assert code == 0
    doc = json.loads(out)
    assert doc["chsh_match"] is True
    assert doc["qber_match"] is True
    assert abs(doc["omega_target"] - 0.9 * 2 * math.sqrt(2)) < 1e-9


@pytest.mark.parametrize("kind", ["depolarizing", "erasure"])
def test_simulate_report_fields_are_bool_str_or_float(kind, capsys):
    # the simulate document is built from the report's fields, which it
    # passes through only for these three types
    report = dephasing_simulation(kind, 0.1)
    fields = dataclasses.fields(SimulationReport)
    for f in fields:
        assert f.type in ("bool", "str", "float"), f.name
        assert type(getattr(report, f.name)).__name__ == f.type, f.name
    _, out, _ = run_cli(capsys, "simulate", "--kind", kind, "--p", "0.1")
    assert list(json.loads(out)) == [f.name for f in fields]


def test_byte_identical_reruns(capsys):
    _, out1, _ = run_cli(capsys, "curve", "fbjl", "--grid", "4", "--seed", "5")
    _, out2, _ = run_cli(capsys, "curve", "fbjl", "--grid", "4", "--seed", "5")
    assert out1 == out2


def test_curve_hull_is_below_inputs(capsys):
    code, out, _ = run_cli(capsys, "curve", "hull", "--grid", "4")
    assert code == 0
    hull_vals = [float(line.split(",")[3]) for line in out.strip().split("\n")[1:]]
    _, al_out, _ = run_cli(capsys, "curve", "al", "--grid", "4")
    al_vals = [float(line.split(",")[3]) for line in al_out.strip().split("\n")[1:]]
    assert all(h <= a + 1e-12 for h, a in zip(hull_vals, al_vals))


def test_main_calls_in_one_process_match_fresh_processes(capsys):
    # the parser is built once per process; parsing must leave it as it was
    sequence = [("curve", "hull", "--grid", "5"),
                ("curve", "al", "--grid", "five"),  # usage error: exit 2
                ("device", "--nu", "0.1", "--format", "csv"),
                ("curve", "hull", "--grid", "5")]
    src = str(Path(diqkd_bounds.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    fresh = [subprocess.run([sys.executable, "-m", "diqkd_bounds.cli", *argv],
                            capture_output=True, text=True, env=env)
             for argv in sequence]
    build_parser.cache_clear()
    for argv, proc in zip(sequence, fresh):
        assert run_cli(capsys, *argv)[:2] == (proc.returncode, proc.stdout), argv
    assert [proc.returncode for proc in fresh] == [0, 2, 0, 0]


def test_output_file(tmp_path, capsys):
    target = tmp_path / "curve.csv"
    code, out, _ = run_cli(capsys, "curve", "pironio", "--grid", "3",
                           "--output", str(target))
    assert code == 0
    assert out == ""
    assert target.read_text().startswith("param,omega,qber,value\n")


def test_usage_error_exit_code(capsys):
    assert run_cli(capsys, "curve", "nonsense")[0] == 2
    assert run_cli(capsys, "er")[0] == 2  # missing --file


@pytest.mark.parametrize("flag,value", [("--restarts", "0"), ("--restarts", "-1"),
                                        ("--ensemble-size", "0"),
                                        ("--ensemble-size", "-3"),
                                        ("--seed", "-1")])
def test_er_empty_search_is_usage_error(tmp_path, capsys, flag, value):
    path = tmp_path / "state.json"
    save_state(make_isotropic(0.1), path)
    code, out, err = run_cli(capsys, "er", "--file", str(path), flag, value)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert flag in err


def test_er_seed_is_checked_before_the_state_file_is_read(tmp_path, capsys):
    code, _, err = run_cli(capsys, "er", "--file", str(tmp_path / "missing.json"),
                           "--seed", "-1")
    assert (code, err) == (2, "error: --seed must be non-negative\n")


def test_er_ensemble_beyond_squared_dimension_is_usage_error(tmp_path, capsys):
    # a separable state on d = 4 dimensions mixes at most d**2 = 16 product states
    path = tmp_path / "state.json"
    save_state(make_isotropic(0.1), path)
    code, out, err = run_cli(capsys, "er", "--file", str(path), "--ensemble-size", "17")
    assert (code, out) == (2, "")
    assert err.startswith("error: --ensemble-size must be at most 16 ")
    assert err.count("\n") == 1


def test_numerical_error_exit_code(tmp_path, capsys):
    code, _, err = run_cli(capsys, "er", "--file", str(tmp_path / "missing.json"))
    assert code == 1
    assert "error:" in err


def test_channel_requires_kind(capsys):
    code, out, err = run_cli(capsys, "curve", "channel")
    assert code == 2
    assert out == ""
    assert err == "error: curve channel requires --kind\n"


@pytest.mark.parametrize("argv, flag", [
    (["al", "--kind", "erasure"], "--kind"),
    (["hull", "--p-min", "0.1"], "--p-min"),
    (["fbjl", "--axis", "nu", "--p-max", "0.5"], "--p-max"),
    (["channel", "--kind", "dephasing", "--axis", "omega", "--min", "5"], "--axis"),
    (["channel", "--kind", "erasure", "--min", "0.1"], "--min"),
    (["channel", "--max", "0.2"], "--max"),
])
def test_curve_option_of_the_other_kind_is_usage_error(capsys, argv, flag):
    code, out, err = run_cli(capsys, "curve", *argv, "--grid", "3")
    assert code == 2
    assert out == ""
    assert err == f"error: {flag} does not apply to curve {argv[0]}\n"


@pytest.mark.parametrize("command", ["curve", "er", "localweight", "device", "simulate"])
def test_unwritable_output_is_one_line_error(tmp_path, capsys, command):
    state_path = tmp_path / "state.json"
    save_state(make_isotropic(0.1), state_path)
    behavior_path = tmp_path / "behavior.json"
    save_behavior(behavior_from(*honest_chsh_device(0.1)), behavior_path)
    argv = {
        "curve": ["curve", "hull", "--grid", "3"],
        "er": ["er", "--file", str(state_path), "--restarts", "1"],
        "localweight": ["localweight", "--file", str(behavior_path)],
        "device": ["device", "--nu", "0.1"],
        "simulate": ["simulate", "--kind", "depolarizing", "--p", "0.1"],
    }[command]
    target = tmp_path / "missing" / "out.txt"
    code, out, err = run_cli(capsys, *argv, "--output", str(target))
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err
    assert not target.exists()


def test_curve_omega_max_rounded_past_tsirelson(capsys):
    code, out, err = run_cli(capsys, "curve", "al", "--axis", "omega",
                             "--max", "2.8284271247465", "--grid", "3")
    assert code == 0 and err == ""
    assert out.strip().split("\n")[-1].split(",")[2:] == ["0", "1"]


def test_device_out_of_range_is_numerical_error(capsys):
    assert run_cli(capsys, "device", "--nu", "1.5")[0] == 1


@pytest.mark.parametrize("args", [("--grid", "1"), ("--grid", "0"), ("--min", "nan"),
                                  ("--min", "0.5", "--max", "0.1")])
def test_curve_argument_outside_domain_is_numerical_error(capsys, args):
    code, out, err = run_cli(capsys, "curve", "al", *args)
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err


@pytest.mark.parametrize("argv", [["hull"], ["channel", "--kind", "depolarizing"]])
def test_curve_grid_too_large_to_allocate_is_numerical_error(capsys, argv):
    # numpy refuses 10**11 float64 points (745 GiB) at once, before any
    # allocation; a grid that could really be allocated would exhaust memory
    code, out, err = run_cli(capsys, "curve", *argv, "--grid", str(10**11))
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err


def test_localweight_nan_behavior_is_one_line_error(tmp_path, capsys):
    table = [[[[0.25] * 2 for _ in range(2)] for _ in range(2)] for _ in range(2)]
    table[1][0][0][1] = math.nan
    path = tmp_path / "nan.json"
    path.write_text(json.dumps({"x_count": 2, "y_count": 2, "a_count": 2, "b_count": 2,
                                "p": table}))  # json writes the non-standard NaN token
    code, out, err = run_cli(capsys, "localweight", "--file", str(path))
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("command,text", [
    ("localweight", "5"),
    ("localweight", '{"x_count": null, "y_count": 2, "a_count": 2, "b_count": 2, "p": []}'),
    ("er", '{"dims": null, "entries": []}'),
    ("er", '{"dims": [2, 2], "entries": ' + json.dumps(["10"] * 16) + "}"),
], ids=["json-number", "null-count", "null-dims", "string-entries"])
def test_malformed_input_file_is_one_line_error(tmp_path, capsys, command, text):
    path = tmp_path / "doc.json"
    path.write_text(text)
    code, out, err = run_cli(capsys, command, "--file", str(path))
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err


def test_state_file_with_negative_dims_is_rejected(tmp_path, capsys):
    # prod([-2, -2]) = 4 matches the 16 entries
    path = tmp_path / "state.json"
    entries = [[0.25 if i % 5 == 0 else 0.0, 0.0] for i in range(16)]
    path.write_text(json.dumps({"dims": [-2, -2], "entries": entries}))
    code, out, err = run_cli(capsys, "er", "--file", str(path))
    assert code == 1
    assert out == ""
    assert err == "error: tensor factor dimensions (-2, -2) must be at least 1\n"


@pytest.mark.parametrize("field", ["x_count", "b_count"])
def test_behavior_counts_must_be_integers(field):
    doc = {"x_count": 2, "y_count": 2, "a_count": 2, "b_count": 2,
           "p": [[[[0.25] * 2] * 2] * 2] * 2}
    doc[field] = 2.7  # int() would truncate it to 2, which matches p
    with pytest.raises(ValueError, match="malformed behavior document"):
        behavior_from_dict(doc)
