import csv
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from bootperc.cli import main


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


def test_threshold_command(capsys, tmp_path):
    struct = tmp_path / "s.json"
    struct.write_text(json.dumps({"family": "plain", "n": 2, "d": 2, "r": 2}))
    code, out, _ = run(capsys, "threshold", "--alpha", "0.5",
                       "--structure", str(struct), "--event", "percolates",
                       "--trials", "2000", "--seed", "17", "--ptol", "0.02")
    assert code == 0
    value = float(out.strip().splitlines()[-1].split()[0].split("=")[1])
    assert abs(value - 0.54120) < 0.05


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
], ids=["axis-string", "long-threshold-string", "direction-float-and-string"])
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


@pytest.mark.parametrize("code", [
    "import bootperc",
    "from bootperc.cli import main; assert main(['beta', '--k', '2', '--u', '0.5']) == 0",
])
def test_scalar_work_does_not_load_scipy(code):
    # scipy.ndimage is imported by the labelling functions that use it, so
    # importing the package or a scalar command loads numpy only.
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    check = "; import sys; assert not [m for m in sys.modules if m.split('.')[0] == 'scipy'], 'scipy loaded'"
    proc = subprocess.run([sys.executable, "-c", code + check], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
