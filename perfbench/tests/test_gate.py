"""Output gate: tolerance, excluded columns, and the sanity rules."""

import csv
import os

import gate

REFERENCE = os.path.join(os.path.dirname(gate.__file__), "reference")


def write(path, header, rows):
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        writer.writerows(rows)
    return path


LOSS_HEADER = ["p", "c", "estimator", "mean_loss", "se", "mean_runtime_s"]


def losses(tmp_path, name, olse_loss="0.101621466241", runtime="0.0012", est="olse"):
    rows = [
        ["250", "0.5", "sample-mean", "0.493103816029", "0.00430675645222", runtime],
        ["250", "0.5", est, olse_loss, "0.0014810471048", runtime],
    ]
    return write(tmp_path / name, LOSS_HEADER, rows)


def test_identical_tables_pass_and_runtime_is_ignored(tmp_path):
    a = losses(tmp_path, "a.csv", runtime="0.0012")
    b = losses(tmp_path, "b.csv", runtime="0.0099")
    assert gate.compare_tables(a, b) == []


def test_roundoff_passes_but_a_wrong_value_fails(tmp_path):
    expected = losses(tmp_path, "e.csv")
    assert gate.compare_tables(losses(tmp_path, "r.csv", "0.101621466242"), expected) == []
    wrong = gate.compare_tables(losses(tmp_path, "w.csv", "0.101621566241"), expected)
    assert len(wrong) == 1 and "mean_loss" in wrong[0]


def test_text_integer_and_shape_mismatches_fail(tmp_path):
    expected = losses(tmp_path, "e.csv")
    assert gate.compare_tables(losses(tmp_path, "t.csv", est="js"), expected)
    header = ["window_n", "windows_evaluated"]
    assert gate.compare_tables(
        write(tmp_path / "i.csv", header, [["25", "12"]]),
        write(tmp_path / "j.csv", header, [["25", "11"]]),
    )
    assert gate.compare_tables(write(tmp_path / "s.csv", LOSS_HEADER, []), expected)


def test_small_values_are_judged_against_their_column_scale(tmp_path):
    header = ["alpha", "beta"]
    expected = write(tmp_path / "e.csv", header, [["0.2", "-0.18"], ["0.06", "1.22654789335e-05"]])
    near = write(tmp_path / "n.csv", header, [["0.2", "-0.18"], ["0.06", "1.22654789349e-05"]])
    far = write(tmp_path / "f.csv", header, [["0.2", "-0.18"], ["0.06", "1.3e-05"]])
    assert gate.compare_tables(near, expected) == []
    assert gate.compare_tables(far, expected)


def test_nan_matches_only_nan():
    assert gate.cells_agree("nan", "nan")
    assert not gate.cells_agree("nan", "0.5", 1.0)
    assert not gate.cells_agree("0.5", "nan", 1.0)


def test_perturbed_reference_csv_is_rejected(tmp_path):
    path = os.path.join(REFERENCE, "mc-high", "seed-0", "losses.csv")
    header, rows = gate.read_table(path)
    col = header.index("mean_loss")
    assert gate.compare_tables(write(tmp_path / "same.csv", header, rows), path) == []
    rows[1][col] = repr(float(rows[1][col]) * (1 + 1e-6))
    problems = gate.compare_tables(write(tmp_path / "bad.csv", header, rows), path)
    assert problems and "row 3 mean_loss" in problems[0]


def test_mc_sanity_requires_counted_failures_for_missing_values(tmp_path):
    write(tmp_path / "losses.csv", LOSS_HEADER[:5], [["250", "0.5", "olse", "nan", "nan"]])
    write(
        tmp_path / "intensities.csv",
        ["p", "c", "kind", "replication", "alpha", "beta"],
        [["250", "0.5", "bona-fide", "0", "nan", "nan"], ["250", "0.5", "bona-fide", "1", "0.3", "0.1"]],
    )
    assert len(gate.mc_sanity(tmp_path, {"olse": 0}, n_reps=2)) == 3
    assert gate.mc_sanity(tmp_path, {"olse": 2}, n_reps=2) == []


def test_backtest_sanity_checks_failures_and_pairing(tmp_path):
    header = ["window_n", "c_hat", "estimator", "target", "loss_x1e4", "windows_evaluated", "failures"]

    def table(evaluated, failures):
        return write(
            tmp_path / "backtest.csv",
            header,
            [
                ["25", "8", "olse", "ones", "1.5", str(evaluated[0]), str(failures[0])],
                ["25", "8", "wang", "ones", "1.7", str(evaluated[1]), str(failures[1])],
            ],
        )

    table((12, 12), (0, 0))
    assert gate.backtest_sanity(tmp_path, periods=12) == []
    table((11, 11), (0, 1))
    assert gate.backtest_sanity(tmp_path, periods=12) == []
    table((11, 11), (0, 0))
    assert gate.backtest_sanity(tmp_path, periods=12)
    table((12, 11), (0, 1))
    assert gate.backtest_sanity(tmp_path, periods=12)
