import csv
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from bootperc.cli import main
from bootperc.montecarlo import EventSpec, estimate_p_alpha
from bootperc.structures import StructureSpec


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_beta_command(capsys):
    code, out, _ = run(capsys, "beta", "--k", "1", "--u", "0.5")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("config:")
    assert float(lines[-1]) == pytest.approx((1 + math.sqrt(5)) / 4, abs=1e-6)


def test_beta_domain_error(capsys):
    code, _, err = run(capsys, "beta", "--k", "0", "--u", "0.5")
    assert code == 1
    assert "error" in err


def test_g_command(capsys):
    code, out, _ = run(capsys, "g", "--k", "2", "--z", "1.0")
    assert code == 0
    assert float(out.strip().splitlines()[-1]) > 0


def test_lambda_command(capsys):
    code, out, _ = run(capsys, "lambda", "--d", "2", "--r", "2")
    assert code == 0
    assert float(out.strip().splitlines()[-1]) == pytest.approx(
        math.pi ** 2 / 18, abs=1e-6)


def test_lambda_convergence_error(capsys):
    code, _, err = run(capsys, "lambda", "--d", "2", "--r", "2",
                       "--tol", "1e-300")
    assert code == 2
    assert "numeric" in err


def test_lambda_table_command(capsys, tmp_path):
    out_file = tmp_path / "table.csv"
    code, out, _ = run(capsys, "lambda-table", "--dmax", "3",
                       "--out", str(out_file))
    assert code == 0
    with open(out_file) as handle:
        rows = list(csv.DictReader(handle))
    assert [(r["d"], r["r"]) for r in rows] == [("2", "2"), ("3", "2"), ("3", "3")]
    # Without --out the same CSV goes to stdout, after the config line.
    code, out, _ = run(capsys, "lambda-table", "--dmax", "3")
    assert code == 0
    assert out.split("\n", 1)[1] == out_file.read_text()


def test_lgap_exact_and_mc(capsys):
    code, out, _ = run(capsys, "lgap", "--ell", "1", "--m", "4", "--u", "0.5",
                       "--exact")
    assert code == 0
    exact = float(out.strip().splitlines()[-1])
    code, out, _ = run(capsys, "lgap", "--ell", "1", "--m", "4", "--u", "0.5",
                       "--trials", "20000", "--seed", "3")
    assert code == 0
    assert "seed=3" in out
    phat = float(out.strip().splitlines()[-1].split()[0].split("=")[1])
    assert abs(phat - exact) < 0.02
    # Missing trials/seed without --exact is a config error.
    code, _, err = run(capsys, "lgap", "--ell", "1", "--m", "4", "--u", "0.5")
    assert code == 1


@pytest.mark.parametrize("flags", [["--trials", "7"], ["--seed", "3"],
                                   ["--trials", "7", "--seed", "3"]])
def test_lgap_exact_refuses_monte_carlo_flags(capsys, flags):
    # lgap --exact --trials 7 --seed 3 exited 0 and ignored both flags.
    result = run(capsys, "lgap", "--ell", "1", "--m", "4", "--u", "0.5", "--exact", *flags)
    assert_clean_config_error(*result)
    assert "lgap --exact reads no --trials or --seed" in result[2]


def write_grid(tmp_path):
    grid = {
        "structure": {"family": "plain", "n": 4, "d": 2, "r": 2},
        "infected": [[1, 1], [2, 2], [3, 3], [4, 4]],
    }
    path = tmp_path / "grid.json"
    path.write_text(json.dumps(grid))
    return str(path)


def test_closure_command(capsys, tmp_path):
    code, out, _ = run(capsys, "closure", "--input", write_grid(tmp_path))
    assert code == 0
    payload = json.loads(out.strip().splitlines()[-1])
    assert payload["percolates"] is True
    assert len(payload["closure"]) == 16


def test_span_command(capsys, tmp_path):
    code, out, _ = run(capsys, "span", "--input", write_grid(tmp_path))
    assert code == 0
    payload = json.loads(out.strip().splitlines()[-1])
    assert payload["rectangles"] == [[[1, 1], [4, 4]]]


def test_witness_command(capsys, tmp_path):
    code, out, _ = run(capsys, "witness", "--input", write_grid(tmp_path),
                       "--L", "2")
    assert code == 0
    payload = json.loads(out.strip().splitlines()[-1])
    lo, hi = payload["rectangle"]
    assert 2 <= max(b - a + 1 for a, b in zip(lo, hi)) <= 4
    assert payload["component"] is not None


def test_missing_input_is_io_error(capsys, tmp_path):
    code, _, err = run(capsys, "closure", "--input",
                       str(tmp_path / "nope.json"))
    assert code == 3
    assert "I/O" in err


def test_malformed_json_is_config_error(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, _ = run(capsys, "closure", "--input", str(bad))
    assert code == 1


def test_estimate_command(capsys, tmp_path):
    struct = tmp_path / "s.json"
    struct.write_text(json.dumps({"family": "plain", "n": 3, "d": 2, "r": 2}))
    code, out, _ = run(capsys, "estimate", "--event", "percolates",
                       "--structure", str(struct), "--p", "0.5",
                       "--trials", "200", "--seed", "9")
    assert code == 0
    assert "seed=9" in out
    assert "pHat=" in out
    # The config line names an event with fields by its JSON.
    code, out, _ = run(capsys, "estimate", "--event", "long-span", "--long-threshold", "2",
                       "--structure", str(struct), "--p", "0.5", "--trials", "20", "--seed", "9")
    assert code == 0
    event = re.search(r"event=(\{.*?\}) structure=", out).group(1)
    assert json.loads(event) == {"kind": "long_span", "longThreshold": 2.0}


def test_threshold_command(capsys, tmp_path):
    struct = tmp_path / "s.json"
    struct.write_text(json.dumps({"family": "plain", "n": 2, "d": 2, "r": 2}))
    code, out, _ = run(capsys, "threshold", "--alpha", "0.5",
                       "--structure", str(struct), "--event", "percolates",
                       "--trials", "2000", "--seed", "17", "--ptol", "0.02")
    assert code == 0
    value = float(out.strip().splitlines()[-1].split()[0].split("=")[1])
    assert abs(value - 0.54120) < 0.05


def test_threshold_output_is_pinned(capsys, tmp_path):
    # Each trial is drawn once and read at every step, so totalTrials is
    # --trials.
    struct = tmp_path / "s.json"
    struct.write_text(json.dumps({"family": "plain", "n": 4, "d": 2, "r": 2}))
    code, out, _ = run(capsys, "threshold", "--alpha", "0.5", "--structure", str(struct),
                       "--event", "percolates", "--trials", "500", "--seed", "17",
                       "--ptol", "0.01")
    assert code == 0
    assert out.splitlines()[-1] == "pAlpha=0.3632812 bracket=[0.359375, 0.3671875] totalTrials=500"


def test_threshold_prints_a_narrow_bracket_exactly(capsys, tmp_path):
    # A bracket 2**-52 wide: its ends agree to 15 significant digits.
    struct = write_json(tmp_path, "s.json", {"family": "plain", "n": 4, "d": 2, "r": 2})
    code, out, _ = run(capsys, "threshold", "--alpha", "0.5", "--structure", struct,
                       "--event", "percolates", "--trials", "150", "--seed", "0",
                       "--ptol", "3e-16")
    assert code == 0
    low, high = re.search(r"bracket=\[(\S+), (\S+)\]", out).groups()
    assert low != high
    spec = StructureSpec.plain(4, 2, 2)
    est = estimate_p_alpha(spec, EventSpec("percolates", spec), 0.5, 150, 0, 3e-16)
    assert (float(low), float(high)) == (est.ci_low, est.ci_high)


def test_threshold_refuses_spans(capsys, tmp_path):
    struct = write_json(tmp_path, "s.json", {"family": "plain", "n": 4, "d": 2, "r": 2})
    result = run(capsys, "threshold", "--alpha", "0.5", "--structure", struct,
                 "--event", "spans", "--rect", "1,1,2,2", "--trials", "20", "--seed", "1",
                 "--ptol", "0.1")
    assert_clean_config_error(*result)
    assert "does not increase with p" in result[2]


def test_sweep_command(capsys, tmp_path):
    config = {
        "masterSeed": 5,
        "grid": [{"structure": {"family": "plain", "n": 3, "d": 2, "r": 2},
                  "event": {"kind": "percolates"},
                  "p": 0.4, "trials": 100}],
    }
    cfg = tmp_path / "sweep.json"
    cfg.write_text(json.dumps(config))
    out_file = tmp_path / "rows.csv"
    code, out, _ = run(capsys, "sweep", "--config", str(cfg),
                       "--out", str(out_file))
    assert code == 0
    with open(out_file) as handle:
        rows = list(csv.DictReader(handle))
    assert len(rows) == 1 and rows[0]["event"] == "percolates"
    # An output path that cannot be opened is an I/O error.
    code, _, err = run(capsys, "sweep", "--config", str(cfg),
                       "--out", str(tmp_path / "missing" / "rows.csv"))
    assert code == 3
    assert "cannot open sweep output" in err


def assert_clean_config_error(code, out, err):
    """Exit 1 with one stderr line and no traceback."""
    assert code == 1
    assert len(err.strip().splitlines()) == 1 and err.startswith("error:")
    assert "Traceback" not in err + out


def write_json(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


def test_non_integer_ell_is_config_error(capsys, tmp_path):
    grid = {"structure": {"family": "star", "n": 4, "d": 2, "r": 2, "ell": "one"},
            "infected": []}
    result = run(capsys, "closure", "--input", write_json(tmp_path, "g.json", grid))
    assert_clean_config_error(*result)


def test_non_list_infected_is_config_error(capsys, tmp_path):
    grid = {"structure": {"family": "plain", "n": 4, "d": 2, "r": 2}, "infected": 5}
    result = run(capsys, "closure", "--input", write_json(tmp_path, "g.json", grid))
    assert_clean_config_error(*result)


def test_float_cell_is_config_error(capsys, tmp_path):
    grid = {"structure": {"family": "plain", "n": 4, "d": 2, "r": 2},
            "infected": [[1.7, 2.9]]}
    result = run(capsys, "closure", "--input", write_json(tmp_path, "g.json", grid))
    assert_clean_config_error(*result)


def test_structure_over_vertex_budget_is_config_error(capsys, tmp_path):
    grid = {"structure": {"family": "plain", "n": 100000, "d": 3, "r": 3},
            "infected": []}
    result = run(capsys, "closure", "--input", write_json(tmp_path, "g.json", grid))
    assert_clean_config_error(*result)
    assert "vertices" in result[2]


def test_semi_crossed_rectangle_out_of_bounds_is_config_error(capsys, tmp_path):
    struct = write_json(tmp_path, "s.json",
                        {"family": "star", "n": 6, "d": 2, "r": 2, "ell": 1})
    result = run(capsys, "estimate", "--event", "semi-crossed",
                 "--structure", struct, "--rect", "2,2,8,5", "--axis", "1",
                 "--p", "0.3", "--trials", "5", "--seed", "1")
    assert_clean_config_error(*result)
    assert "out of bounds" in result[2]


@pytest.mark.parametrize("structure,event", [
    ({"family": "star", "n": 4, "d": 2, "r": 2, "ell": 1},
     {"kind": "semi_crossed", "rect": [[1, 1], [4, 4]], "axis": "1"}),
    ({"family": "plain", "n": 4, "d": 2, "r": 2},
     {"kind": "long_span", "longThreshold": "3"}),
    ({"family": "slab", "n": 4, "d": 2, "r": 2, "ell": 1, "k": 3},
     {"kind": "crossed", "rect": [[1, 1], [4, 4]], "direction": {"axis": 1.7, "reverse": "false"}}),
    ({"family": "plain", "n": 4, "d": 2, "r": 2},
     {"kind": "spans", "rect": [[1, 1], [4, 4]], "axis": [1]}),
], ids=["axis-string", "long-threshold-string", "direction-float-and-string", "spans-axis"])
def test_sweep_event_with_mistyped_field_is_config_error(capsys, tmp_path, structure, event):
    config = {"masterSeed": 5,
              "grid": [{"structure": structure, "event": event, "p": 0.3, "trials": 10}]}
    result = run(capsys, "sweep", "--config", write_json(tmp_path, "c.json", config),
                 "--out", str(tmp_path / "rows.csv"))
    assert_clean_config_error(*result)


def test_semi_crossed_axis_zero_is_config_error(capsys, tmp_path):
    # Axis 0 used to run as axis 1.
    struct = write_json(tmp_path, "s.json",
                        {"family": "star", "n": 6, "d": 2, "r": 2, "ell": 1})
    result = run(capsys, "estimate", "--event", "semi-crossed",
                 "--structure", struct, "--rect", "2,2,5,5", "--axis", "0",
                 "--p", "0.3", "--trials", "5", "--seed", "1")
    assert_clean_config_error(*result)
    assert "axis" in result[2]


def test_crossed_axis_is_config_error(capsys, tmp_path):
    # A crossing reads its axis from --orientation; --axis 2 used to be
    # printed in the config line and then ignored.
    struct = write_json(tmp_path, "s.json",
                        {"family": "slab", "n": 6, "d": 2, "r": 2, "ell": 1, "k": 3})
    result = run(capsys, "estimate", "--event", "crossed",
                 "--structure", struct, "--rect", "1,1,6,3", "--axis", "2",
                 "--p", "0.3", "--trials", "5", "--seed", "1")
    assert_clean_config_error(*result)
    assert "crossed" in result[2] and "axis" in result[2]


def test_spans_rectangle_of_wrong_arity_is_config_error(capsys, tmp_path):
    # A three-axis rectangle on a two-axis structure used to give pHat=0.
    struct = write_json(tmp_path, "s.json", {"family": "plain", "n": 6, "d": 2, "r": 2})
    result = run(capsys, "estimate", "--event", "spans", "--structure", struct,
                 "--rect", "1,1,1,9,9,9", "--p", "0.3", "--trials", "5", "--seed", "1")
    assert_clean_config_error(*result)
    assert "arity" in result[2]


@pytest.mark.parametrize("field,value", [("masterSeed", 7.9), ("trials", 10.7)])
def test_sweep_with_fractional_seed_or_trials_is_config_error(capsys, tmp_path, field, value):
    # Both used to be truncated: seed 7.9 ran as 7 and 10.7 trials as 10.
    point = {"structure": {"family": "plain", "n": 4, "d": 2, "r": 2},
             "event": {"kind": "percolates"}, "p": 0.3, "trials": 10}
    config = {"masterSeed": 7, "grid": [point]}
    (config if field == "masterSeed" else point)[field] = value
    result = run(capsys, "sweep", "--config", write_json(tmp_path, "c.json", config),
                 "--out", str(tmp_path / "rows.csv"))
    assert_clean_config_error(*result)


@pytest.mark.parametrize("point,field,value", [
    (0, "p", "abc"),
    (None, "grid", 5),
    (1, "p", 1.5),
    (1, "trials", 0),
    (1, "p", True),
    (1, "p", "0.3"),
    (1, "trials", True),
    (None, "masterSeed", True),
], ids=["p-not-a-number", "grid-not-a-list", "p-above-one", "no-trials",
        "p-boolean", "p-numeric-string", "trials-boolean", "seed-boolean"])
def test_bad_sweep_config_writes_no_csv(capsys, tmp_path, point, field, value):
    # A bad second point used to be refused only after the CSV header and the
    # first row were written.
    good = {"structure": {"family": "plain", "n": 4, "d": 2, "r": 2},
            "event": {"kind": "percolates"}, "p": 0.3, "trials": 10}
    config = {"masterSeed": 7, "grid": [good, dict(good)]}
    (config if point is None else config["grid"][point])[field] = value
    out = tmp_path / "rows.csv"
    result = run(capsys, "sweep", "--config", write_json(tmp_path, "c.json", config),
                 "--out", str(out))
    assert_clean_config_error(*result)
    assert not out.exists()


@pytest.mark.parametrize("command,obj", [
    ("closure", {"structure": {"family": "plain", "n": 4, "d": 2, "r": True},
                 "infected": [[2, 1]]}),
    ("closure", {"structure": {"family": "plain", "n": 4, "d": 2, "r": 2},
                 "infected": [[True, 1], [2, 1]]}),
    ("sweep", {"masterSeed": 7, "grid": [{
        "structure": {"family": "plain", "n": 4, "d": 2, "r": 2},
        "event": {"kind": "spans", "rect": [[True, 1], [4, 4]]}, "p": 0.3, "trials": 10}]}),
    ("sweep", {"masterSeed": 7, "grid": [{
        "structure": {"family": "slab", "n": 4, "d": 2, "r": 2, "ell": 1, "k": 3},
        "event": {"kind": "crossed", "rect": [[1, 1], [4, 4]], "direction": {"axis": True}},
        "p": 0.3, "trials": 10}]}),
], ids=["structure-size", "infected-cell", "sweep-rect", "direction-axis"])
def test_json_true_is_not_an_integer(capsys, tmp_path, command, obj):
    # Each used to run as the integer 1.
    path = write_json(tmp_path, "in.json", obj)
    flags = ["--input", path] if command == "closure" else \
        ["--config", path, "--out", str(tmp_path / "rows.csv")]
    result = run(capsys, command, *flags)
    assert_clean_config_error(*result)
    assert "must be an integer, not True" in result[2]


UNREADABLE_FILES = {
    "not-utf8": b'{"structure": "\xff"}',
    "5000-digits": b'{"structure": {"family": "plain", "n": ' + b"9" * 5000
                   + b', "d": 2, "r": 2}, "infected": []}',
    "deep-nesting": b"[" * 200_000 + b"]" * 200_000,
}


@pytest.mark.parametrize("data", UNREADABLE_FILES.values(), ids=UNREADABLE_FILES.keys())
def test_unreadable_file_is_config_error(capsys, tmp_path, data):
    # Each used to end in a traceback: UnicodeDecodeError, ValueError from
    # Python's 4300-digit limit and RecursionError.
    path = tmp_path / "in.json"
    path.write_bytes(data)
    assert_clean_config_error(*run(capsys, "closure", "--input", str(path)))


@pytest.mark.parametrize("command,d", [("span", 40), ("closure", 64), ("closure", 70)])
def test_structure_over_axis_budget_is_config_error(capsys, tmp_path, command, d):
    # One vertex, within the vertex budget.  The span asked numpy for a
    # 3**41-cell labelling structure; the closures raised IndexError (d = 64)
    # and numpy's 64-axis ValueError (d = 70).
    grid = {"structure": {"family": "plain", "n": 1, "d": d, "r": 2}, "infected": []}
    result = run(capsys, command, "--input", write_json(tmp_path, "g.json", grid))
    assert_clean_config_error(*result)
    assert "axes" in result[2]


@pytest.mark.parametrize("argv", [
    ["lgap", "--ell", "0", "--m", str(10 ** 12), "--u", "0.5", "--trials", "1", "--seed", "1"],
    ["threshold", "--alpha", "0.5", "--structure", "S", "--event", "percolates",
     "--trials", "0", "--seed", "1", "--ptol", "2"],
    ["estimate", "--event", "long-span", "--structure", "S", "--long-threshold", "nan",
     "--p", "0.3", "--trials", "5", "--seed", "1"],
    ["beta", "--k", "1" + "0" * 400, "--u", "0.5"],
    ["lgap", "--ell", "1" + "0" * 400, "--m", "3", "--u", "0.5", "--exact"],
    ["lambda", "--d", "1" + "0" * 400, "--r", "2"],
    ["lambda-table", "--dmax", "1" + "0" * 400],
    ["estimate", "--event", "long-span", "--structure", "S", "--long-threshold", "inf",
     "--p", "0.3", "--trials", "5", "--seed", "1"],
    ["g", "--k", "2", "--z", "inf"],
    ["estimate", "--event", "spans", "--rect", "1,a", "--structure", "S",
     "--p", "0.3", "--trials", "5", "--seed", "1"],
    ["estimate", "--event", "spans", "--rect", "1,2,3", "--structure", "S",
     "--p", "0.3", "--trials", "5", "--seed", "1"],
], ids=["lgap-trial-over-budget", "threshold-no-trials", "long-threshold-nan",
        "beta-k-past-float", "lgap-ell-past-float", "lambda-d-past-float",
        "lambda-table-dmax-past-float", "long-threshold-inf", "g-z-inf", "rect-not-integer",
        "rect-odd-count"])
def test_number_outside_its_rule_is_config_error(capsys, tmp_path, argv):
    # The lgap trial asked numpy for 7.28 TiB; the next two exited 0, with
    # totalTrials=0 and with pHat=0; the next two printed an OverflowError's
    # traceback; lambda printed 0 and the lambda table looped with no
    # practical end.  An infinite length threshold ran and printed
    # "longThreshold": Infinity, which is not JSON, and g of an infinite z
    # printed 0.
    struct = write_json(tmp_path, "s.json", {"family": "plain", "n": 3, "d": 2, "r": 2})
    assert_clean_config_error(*run(capsys, *[struct if a == "S" else a for a in argv]))


@pytest.mark.parametrize("argv,message", [
    (["beta", "--k", "abc", "--u", "0.3"], "bootperc beta: argument --k: invalid int value: 'abc'"),
    (["beta", "--k", "2"], "bootperc beta: the following arguments are required: --u"),
    (["no-such-command"], "bootperc: argument command: invalid choice: 'no-such-command'"),
    (["estimate", "--event", "crossed", "--rect", "1,1,3,3", "--structure", "S", "--p", "0.3",
      "--trials", "5", "--seed", "1", "--orientation", "sideways"],
     "unknown crossing direction 'sideways', not one of left-to-right, "),
], ids=["bad-int", "missing-flag", "unknown-command", "unknown-orientation"])
def test_malformed_command_line_is_config_error(capsys, tmp_path, argv, message):
    # argparse printed its usage block and exited 2, the code of a numeric
    # error.
    struct = write_json(tmp_path, "s.json", {"family": "plain", "n": 3, "d": 2, "r": 2})
    code, out, err = run(capsys, *[struct if a == "S" else a for a in argv])
    assert_clean_config_error(code, out, err)
    assert err.startswith(f"error: {message}")


def test_help_exits_zero(capsys):
    with pytest.raises(SystemExit) as info:
        main(["beta", "-h"])
    assert info.value.code == 0
    assert capsys.readouterr().out.startswith("usage: bootperc beta")


PLAIN4 = {"family": "plain", "n": 4, "d": 2, "r": 2}
POINT = {"structure": PLAIN4, "event": {"kind": "percolates"}, "p": 0.3, "trials": 10}

# (reader, the value it is given, the reader's name and the rest of the message)
BAD_OBJECTS = [
    ("structure", [1, 2], "structure JSON", "must be a JSON object, not list"),
    ("structure", {"family": "plain", "n": 4, "d": 2}, "structure JSON", "has no 'r'"),
    ("event", "plain", "event JSON", "must be a JSON object, not str"),
    ("event", {"rect": [[1, 1], [4, 4]]}, "event JSON", "has no 'kind'"),
    ("direction", 5, "event direction", "must be a JSON object, not int"),
    ("config", [1, 2], "sweep config", "must be a JSON object, not list"),
    ("config", {"grid": [POINT]}, "sweep config", "has no 'masterSeed'"),
    ("entry", 5, "sweep grid entry", "must be a JSON object, not int"),
    ("entry", {"structure": PLAIN4, "event": {"kind": "percolates"}, "p": 0.3},
     "sweep grid entry", "has no 'trials'"),
    ("grid", "plain", "grid file", "must be a JSON object, not str"),
    ("grid", {"structure": PLAIN4}, "grid file", "has no 'infected'"),
]
# A key that the reader does not know was ignored: "orientation" (the CLI
# flag's name, not the JSON key) gave a left-to-right crossing, "K" gave k = 1.
UNKNOWN_KEYS = [
    ("structure", {**PLAIN4, "K": 3}, "structure JSON", "has an unknown key 'K'"),
    ("event", {"kind": "crossed", "rect": [[1, 1], [4, 4]], "orientation": "bottom-to-top"},
     "event JSON", "has an unknown key 'orientation'"),
    ("direction", {"axis": 2, "reversed": True}, "event direction",
     "has an unknown key 'reversed'"),
    ("config", {"masterSeed": 7, "grid": [POINT], "seed": 3}, "sweep config",
     "has an unknown key 'seed'"),
    ("entry", {**POINT, "seeds": [1]}, "sweep grid entry", "has an unknown key 'seeds'"),
    ("grid", {"structure": PLAIN4, "infected": [], "closure": []}, "grid file",
     "has an unknown key 'closure'"),
]


@pytest.mark.parametrize("reader,value,name,message", BAD_OBJECTS + UNKNOWN_KEYS,
                         ids=[f"{c[0]}-{type(c[1]).__name__}" for c in BAD_OBJECTS]
                         + [f"{c[0]}-unknown-key" for c in UNKNOWN_KEYS])
def test_json_object_reader_names_itself_and_the_field(capsys, tmp_path, reader, value,
                                                       name, message):
    # A value that is not an object used to let Python's own error through,
    # such as "'int' object is not subscriptable", and a missing field was
    # named by its key alone.
    if reader == "structure":
        argv = ["estimate", "--event", "percolates", "--structure",
                write_json(tmp_path, "s.json", value), "--p", "0.3", "--trials", "5", "--seed", "1"]
    elif reader == "grid":
        argv = ["closure", "--input", write_json(tmp_path, "g.json", value)]
    else:
        point = dict(POINT)
        config = {"masterSeed": 7, "grid": [point]}
        if reader == "event":
            point["event"] = value
        elif reader == "direction":
            point["event"] = {"kind": "crossed", "rect": [[1, 1], [4, 4]], "direction": value}
        elif reader == "entry":
            config["grid"] = [value]
        else:
            config = value
        argv = ["sweep", "--config", write_json(tmp_path, "c.json", config),
                "--out", str(tmp_path / "rows.csv")]
    result = run(capsys, *argv)
    assert_clean_config_error(*result)
    err = result[2]
    assert name in err and message in err
    assert "subscriptable" not in err and "indices must be" not in err


def test_readme_inputs_run(capsys, tmp_path):
    # The grid file and the sweep config that README.md shows stay readable.
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    grid, config = re.findall(r"```json\n(.*?)```", readme, re.S)
    (tmp_path / "grid.json").write_text(grid)
    (tmp_path / "sweep.json").write_text(config)
    path = str(tmp_path / "grid.json")
    for argv in (["closure", "--input", path], ["span", "--input", path],
                 ["witness", "--input", path, "--L", "3"],
                 ["sweep", "--config", str(tmp_path / "sweep.json"),
                  "--out", str(tmp_path / "results.csv")]):
        code, _, err = run(capsys, *argv)
        assert code == 0, (argv[0], err)


def test_readme_library_example_prints_its_comments(capsys):
    # Each line README.md's library example prints is its print's trailing
    # comment, or starts with it less a closing "...".
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    [example] = re.findall(r"```python\n(.*?)```", readme, re.S)
    comments = re.findall(r"^print\(.*# (.*)$", example, re.M)
    exec(example, {})
    printed = capsys.readouterr().out.splitlines()
    assert len(printed) == len(comments) == 3
    for line, comment in zip(printed, comments):
        assert (line.startswith(comment[:-3]) if comment.endswith("...") else line == comment)


@pytest.mark.parametrize("tol", ["inf", "nan"])
def test_lambda_non_finite_tolerance_is_config_error(capsys, tol):
    result = run(capsys, "lambda", "--d", "3", "--r", "2", "--tol", tol)
    assert_clean_config_error(*result)
    assert "abs_tol" in result[2]


def test_lambda_of_large_dimension(capsys):
    # z^(d-r+1) underflowed for d - r + 1 >= 13 and ended in a domain error.
    code, out, _ = run(capsys, "lambda", "--d", "14", "--r", "2")
    assert code == 0
    assert out.strip().splitlines()[-1] == "6.484005"


SRC = str(Path(__file__).resolve().parents[1] / "src")


# Every event but the span events on one trial and on blocks of bit planes.
CLOSURE_EVENTS = (
    "from bootperc.montecarlo import EventSpec, estimate_event_prob; "
    "from bootperc.structures import Rectangle, StructureSpec; "
    "slab, star, rect = StructureSpec.slab(6, 2, 1, 3, 2), StructureSpec.star(6, 2, 1, 2), "
    "Rectangle((2, 1), (5, 6)); "
    "[estimate_event_prob(event, 0.2, trials, 1) for trials in (1, 100) for event in "
    "(EventSpec('crossed', slab, rect), EventSpec('percolates', slab), "
    "EventSpec('semi_percolates', star), EventSpec('semi_crossed', star, rect, axis=2))]"
)


@pytest.mark.parametrize("code", [
    "import bootperc",
    "from bootperc.cli import main; assert main(['beta', '--k', '2', '--u', '0.5']) == 0",
    pytest.param(CLOSURE_EVENTS, id="closure_events"),
])
def test_scalar_work_does_not_load_scipy(code):
    # scipy.ndimage is imported by the labelling functions that use it, so
    # importing the package, a scalar command or an estimate of an event
    # decided on the closure alone loads numpy only.
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    check = "; import sys; assert not [m for m in sys.modules if m.split('.')[0] == 'scipy'], 'scipy loaded'"
    proc = subprocess.run([sys.executable, "-c", code + check], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
