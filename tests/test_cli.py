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
from diqkd_bounds.fileio import behavior_from_dict, load_behavior, load_state, save_behavior
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


def test_er_csv_value_is_the_json_value(tmp_path, capsys):
    path = tmp_path / "state.json"
    save_state(make_isotropic(0.1), path)
    runs = [run_cli(capsys, "er", "--file", str(path), "--restarts", "1", *fmt)
            for fmt in ((), ("--format", "csv"))]
    (json_code, json_out, _), (csv_code, csv_out, _) = runs
    assert (json_code, csv_code) == (0, 0)
    header, value = csv_out.splitlines()
    assert header == "value"
    assert float(value) == json.loads(json_out)["value"]


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


@pytest.mark.parametrize("kind", ["depolarizing", "erasure"])
def test_simulate_csv_is_the_json_document(kind, capsys):
    code, out, _ = run_cli(capsys, "simulate", "--kind", kind, "--p", "0.1")
    assert code == 0
    doc = json.loads(out)
    code, out, _ = run_cli(capsys, "simulate", "--kind", kind, "--p", "0.1", "--format", "csv")
    assert code == 0
    header, row = (line.split(",") for line in out.splitlines())
    assert header == list(doc)
    # booleans as JSON writes them, true and false; floats as their JSON numbers
    assert row == [v if isinstance(v, str) else json.dumps(v) for v in doc.values()]
    assert row[-2:] == ["true", "true"]  # chsh_match, qber_match


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


def test_localweight_too_large_to_hold_is_one_line_error(tmp_path, capsys):
    # 923,521 vertices of 3,844 cells: the LP matrix alone would take 28 GB
    path = tmp_path / "large.json"
    path.write_text(json.dumps({"x_count": 2, "y_count": 2, "a_count": 31, "b_count": 31,
                                "p": [[[[1 / 31**2] * 31] * 31] * 2] * 2}))
    code, out, err = run_cli(capsys, "localweight", "--file", str(path))
    assert (code, out) == (1, "")
    assert err == "error: 923521 vertices of 3844 cells exceed the cap of 16777216 cells\n"


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


@pytest.mark.parametrize("command,doc,message", [
    ("er", {"dims": [1], "entries": [[0.25]]},
     "malformed state document: expected an entry [re, im], got [0.25]"),
    ("er", {"dims": [1], "entries": [[0.25, 0, 0]]},
     "malformed state document: expected an entry [re, im], got [0.25, 0, 0]"),
    ("localweight", {"x_count": 1, "y_count": 1, "a_count": 2, "b_count": 2,
                     "p": [[[["x", 0.0], [0.0, 0.5]]]]},
     'malformed behavior document: expected a number, got "x"'),
], ids=["short-entry", "long-entry", "non-numeric-string"])
def test_malformed_leaf_is_named_in_the_error(tmp_path, capsys, command, doc, message):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, command, "--file", str(path))
    assert (code, out, err) == (1, "", f"error: {message}\n")


BEYOND_FLOAT = "1" + "0" * 400  # an integer literal that no float holds
BEHAVIOR_HEAD = '{"x_count": 1, "y_count": 1, "a_count": 2, "b_count": 2, "p": '


@pytest.mark.parametrize("command,text,message", [
    ("localweight", BEHAVIOR_HEAD + "[" * 1000 + "]" * 1000 + "}",
     "malformed behavior document: nested too deeply"),
    ("localweight", BEHAVIOR_HEAD + f"[[[[{BEYOND_FLOAT}, 0.0], [0.0, 0.5]]]]}}",
     "malformed behavior document: a number is beyond float range"),
    ("er", f'{{"dims": [1], "entries": [[{BEYOND_FLOAT}, 0]]}}',
     "malformed state document: a number is beyond float range"),
    ("localweight", BEHAVIOR_HEAD + "[[[[0.5, 0.0], [0.0]]]]}",
     "malformed behavior document: expected a number, got [0.5, 0.0]"),
    ("localweight", BEHAVIOR_HEAD + "[[[[0.5, null], [0.0, 0.5]]]]}",
     "malformed behavior document: expected a number, got null"),
    ("er", '{"dims": [1], "entries": [[null, 0]]}',
     "malformed state document: expected a number, got null"),
], ids=["deep", "p-beyond-float", "entry-beyond-float", "ragged-p", "null-p", "null-entry"])
def test_malformed_document_is_one_malformed_line(tmp_path, capsys, command, text, message):
    path = tmp_path / "doc.json"
    path.write_text(text)
    code, out, err = run_cli(capsys, command, "--file", str(path))
    assert (code, out, err) == (1, "", f"error: {message}\n")


STRUCTURAL_REFUSALS = {
    "behavior-missing-p": ("localweight", load_behavior,
                           {"x_count": 1, "y_count": 1, "a_count": 2, "b_count": 2},
                           "behavior document is missing field 'p'"),
    "state-missing-entries": ("er", load_state, {"dims": [2, 2]},
                              "state document is missing field 'entries'"),
    "p-shape": ("localweight", load_behavior,
                {"x_count": 1, "y_count": 1, "a_count": 2, "b_count": 3,
                 "p": [[[[0.5, 0.0], [0.0, 0.5]]]]},
                "malformed behavior document: p has shape (1, 1, 2, 2), fields say (1, 1, 2, 3)"),
    "entry-count": ("er", load_state, {"dims": [2, 2], "entries": [[1.0, 0.0]]},
                    "malformed state document: expected 16 entries, got 1"),
}


@pytest.mark.parametrize("case", list(STRUCTURAL_REFUSALS))
def test_document_of_the_wrong_structure_is_refused(tmp_path, capsys, case):
    command, load, doc, message = STRUCTURAL_REFUSALS[case]
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError) as refused:
        load(path)
    assert str(refused.value) == message
    code, out, err = run_cli(capsys, command, "--file", str(path))
    assert (code, out, err) == (1, "", f"error: {message}\n")


@pytest.mark.parametrize("argv,message", [
    (("simulate", "--kind", "depolarizing", "--p", "1.5"), "p=1.5 outside [0, 1]"),
    (("curve", "channel", "--kind", "dephasing", "--grid", "1"), "grid must be at least 2"),
    (("curve", "channel", "--kind", "erasure", "--p-min", "0.7", "--p-max", "0.3"),
     "p range [0.7, 0.3] invalid"),
    (("curve", "al", "--axis", "omega", "--min", "3"),
     "omega range [3.0, 2.8284271247461903] invalid"),
], ids=["simulate-p", "channel-grid", "channel-p-range", "omega-range"])
def test_argument_outside_its_domain_is_one_line_error(capsys, argv, message):
    assert run_cli(capsys, *argv) == (1, "", f"error: {message}\n")


@pytest.mark.parametrize("command,text,head", [
    ("localweight", BEHAVIOR_HEAD + "[" * 900 + "0.5" + "]" * 900 + "}",
     "malformed behavior document: expected a number, got "),
    ("er", '{"dims": [1], "entries": [' + json.dumps([0.125] * 400) + "]}",
     "malformed state document: expected an entry [re, im], got "),
], ids=["p-900-deep", "long-entry"])
def test_refused_value_is_shown_in_80_characters(tmp_path, capsys, command, text, head):
    # a p nested 900 deep names a leaf nested ~870 deep: its ~1,700 characters
    # of JSON are cut to 79 and an ellipsis
    path = tmp_path / "doc.json"
    path.write_text(text)
    code, out, err = run_cli(capsys, command, "--file", str(path))
    assert (code, out) == (1, "")
    shown = err.removeprefix(f"error: {head}").removesuffix("\n")
    assert len(shown) == 80 and shown.endswith("…") and "\n" not in shown
    assert err == f"error: {head}{shown}\n"


def test_er_names_the_scipy_version_when_the_optimizer_refuses_its_arguments(
        tmp_path, capsys, monkeypatch):
    import types

    import scipy

    from diqkd_bounds import measures

    def setulb(m, x, l, u, nbd, f, g, factr, pgtol, wa, iwa, task, lsave, isave, dsave, maxls):
        """A routine that no longer takes ln_task: each call is a TypeError."""

    monkeypatch.setattr(measures, "_lbfgsb_routine", lambda: types.SimpleNamespace(setulb=setulb))
    path = tmp_path / "state.json"
    save_state(make_isotropic(0.1), path)
    code, out, err = run_cli(capsys, "er", "--file", str(path))
    assert (code, out) == (1, "")
    assert err == (f"error: scipy {scipy.__version__}'s private L-BFGS-B routine _lbfgsb.setulb "
                   "refused the arguments of the form it has had since scipy 1.15\n")


def test_localweight_names_one_minus_q_l_when_the_residual_fails(tmp_path, capsys):
    # 1 - q_L ~ 5e-8: the division pushes the residual's slice sums past 1e-9
    path = tmp_path / "device.json"
    assert run_cli(capsys, "device", "--nu", "0.29289318", "--output", str(path))[0] == 0
    code, out, err = run_cli(capsys, "localweight", "--file", str(path))
    assert (code, out) == (1, "")
    assert err.startswith("error: nonlocal residual fails the behavior check after division "
                          "by 1 - q_L = ") and err.count("\n") == 1


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


# JSON true is a Python bool, and operator.index(True) == 1: each of these
# documents would load as a 1-by-1 behavior or as dims (1, 2) if booleans passed
BOOLEAN_DOCS = {
    "behavior-counts": ("localweight", "behavior",
                        {"x_count": True, "y_count": True, "a_count": 2, "b_count": 2,
                         "p": [[[[0.25, 0.25], [0.25, 0.25]]]]}),
    "state-dims": ("er", "state",
                   {"dims": [True, 2], "entries": [[0.5, 0.0], [0.0, 0.0], [0.0, 0.0], [0.5, 0.0]]}),
}


@pytest.mark.parametrize("case", list(BOOLEAN_DOCS))
def test_boolean_counts_and_dims_are_refused_on_load(tmp_path, case):
    _, kind, doc = BOOLEAN_DOCS[case]
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    load = load_behavior if kind == "behavior" else load_state
    with pytest.raises(ValueError, match=f"^malformed {kind} document: expected an integer, got true$"):
        load(path)


@pytest.mark.parametrize("case", list(BOOLEAN_DOCS))
def test_boolean_counts_and_dims_are_one_line_errors(tmp_path, capsys, case):
    command, kind, doc = BOOLEAN_DOCS[case]
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, command, "--file", str(path))
    assert (code, out) == (1, "")
    assert err == f"error: malformed {kind} document: expected an integer, got true\n"


# numpy reads true as 1.0 and complex() reads it as 1: these documents once
# gave local weight 1 and relative entropy 0.0 with exit 0
BOOLEAN_VALUE_DOCS = {
    "behavior-p": ("localweight", "behavior", load_behavior,
                   {"x_count": 1, "y_count": 1, "a_count": 2, "b_count": 2,
                    "p": [[[[True, False], [False, False]]]]}),
    "state-entries": ("er", "state", load_state, {"dims": [1], "entries": [[True, False]]}),
}


@pytest.mark.parametrize("case", list(BOOLEAN_VALUE_DOCS))
def test_boolean_probabilities_and_entries_are_refused(tmp_path, capsys, case):
    command, kind, load, doc = BOOLEAN_VALUE_DOCS[case]
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    message = f"malformed {kind} document: expected a number, got true"
    with pytest.raises(ValueError, match=f"^{message}$"):
        load(path)
    code, out, err = run_cli(capsys, command, "--file", str(path))
    assert (code, out, err) == (1, "", f"error: {message}\n")


def test_string_probability_is_refused():
    doc = {"x_count": 1, "y_count": 1, "a_count": 2, "b_count": 2,
           "p": [[[["0.5", 0.0], [0.0, 0.5]]]]}  # numpy reads "0.5" as 0.5
    with pytest.raises(ValueError, match='^malformed behavior document: expected a number, got "0.5"$'):
        behavior_from_dict(doc)
