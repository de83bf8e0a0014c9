"""Exit codes, error output and settings precedence of the command-line
interface."""

import csv

import numpy as np
import pytest

from shrinkmean import cli
from shrinkmean.cli import main
from shrinkmean.estimators import ESTIMATORS, limit_intensities
from shrinkmean.finance import BacktestConfig, synthetic_panel, write_returns_csv
from shrinkmean.harness import McConfig, cell_population, cell_sample_size, run_cell
from test_asymptotics import oracle_variances_closed_form


def run(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr().err


def assert_one_error_line(err):
    assert err.startswith("error:")
    assert err.strip().count("\n") == 0
    assert "Traceback" not in err


def test_demo(tmp_path, capsys):
    code, err = run(capsys, "demo", "--out", str(tmp_path))
    assert code == 0, err
    assert (tmp_path / "backtest.csv").exists()
    assert (tmp_path / "losses.csv").exists()


@pytest.mark.parametrize("argv, files", [
    (("simulate", "--p", "30", "--c", "0.5,2", "--n-reps", "6", "--law", "t:6",
      "--estimators", ",".join(ESTIMATORS)), ["intensities.csv", "losses.csv"]),
    (("demo",), ["backtest.csv", "demo_returns.csv", "intensities.csv", "losses.csv"]),
], ids=["simulate", "demo"])
def test_same_seed_gives_byte_identical_files(tmp_path, capsys, argv, files):
    # simulate covers both sides of p = n (the whitened frame and R z) and
    # the helper thread that draws the next replication
    written = []
    for out in (tmp_path / "first", tmp_path / "second"):
        out.mkdir()
        code, err = run(capsys, *argv, "--seed", "4", "--out", str(out))
        assert code == 0, err
        assert sorted(path.name for path in out.iterdir()) == files
        written.append([(out / name).read_bytes() for name in files])
    assert written[0] == written[1]


def test_small_simulate(tmp_path, capsys):
    code, err = run(capsys, "simulate", "--p", "20", "--c", "0.5", "--n-reps", "5",
                    "--estimators", "sample-mean,olse,js", "--out", str(tmp_path))
    assert code == 0, err
    lines = (tmp_path / "losses.csv").read_text().splitlines()
    assert len(lines) == 1 + 3


def test_small_table1(tmp_path, capsys):
    code, err = run(capsys, "table1", "--p", "20", "--c", "0.5,2", "--n-reps", "5",
                    "--out", str(tmp_path))
    assert code == 0, err
    lines = (tmp_path / "table1.csv").read_text().splitlines()
    assert lines[0] == "p,c,oracle_negative_freq,bona_fide_negative_freq"
    assert [line.split(",")[:2] for line in lines[1:]] == [["20", "0.5"], ["20", "2"]]


@pytest.mark.parametrize("lines, flags, n_reps", [
    ("n_reps = 5", ("--n-reps", "3"), 3),
    ("n_reps = 5", (), 5),
    ("", (), McConfig(p_grid=(4,), c_grid=(0.5,)).n_reps),
], ids=["flag", "file", "default"])
def test_simulate_flag_beats_file_beats_default(tmp_path, capsys, lines, flags, n_reps):
    path = tmp_path / "sim.cfg"
    path.write_text(f"p_grid = 4\n{lines}\n")
    code, err = run(capsys, "simulate", "--config", str(path), *flags, "--out", str(tmp_path))
    assert code == 0, err
    # one bona fide (alpha, beta) row per replication of the one cell
    assert len((tmp_path / "intensities.csv").read_text().splitlines()) == 1 + n_reps


def backtest_rows(capsys, out, *argv):
    code, err = run(capsys, "backtest", *argv, "--out", str(out))
    assert code == 0, err
    with open(out / "backtest.csv", newline="") as handle:
        return list(csv.DictReader(handle))


@pytest.mark.parametrize("lines, flags, evaluated", [
    ("windows = 5,10\nalign_start = true", ("--windows", "6,8", "--no-align-start"),
     {6: 95, 8: 93}),
    ("windows = 5,10\nalign_start = true", (), {5: 91, 10: 91}),
    ("windows = 5,10\nalign_start = off", (), {5: 96, 10: 91}),
    ("has_header = false", ("--header",), None),
    ("fixed_target = true", ("--no-fixed-target",), None),
    ("", (), {n: 101 - n for n in BacktestConfig().windows}),
], ids=["flag", "file", "file-false", "header-flag", "fixed-target-flag", "default"])
def test_backtest_flag_beats_file_beats_default(tmp_path, capsys, lines, flags, evaluated):
    # a 101-period panel: window n evaluates 101 - n periods unless aligned
    # at the largest window; a False flag must beat a true file value too,
    # and a True flag a false one.  With ``evaluated`` None the flag undoes
    # the file, so the run matches the default run row for row.
    assert not BacktestConfig().align_start
    assert not BacktestConfig().fixed_target
    returns = tmp_path / "returns.csv"
    write_returns_csv(synthetic_panel(p=4, periods=101), returns)
    path = tmp_path / "back.cfg"
    path.write_text(f"{lines}\n")
    rows = backtest_rows(capsys, tmp_path / "run", str(returns), "--config", str(path), *flags)
    if evaluated is None:
        assert rows == backtest_rows(capsys, tmp_path / "default", str(returns))
    else:
        assert {int(r["window_n"]): int(r["windows_evaluated"]) for r in rows} == evaluated


@pytest.mark.parametrize(
    "config",
    [
        "law = cauchy",
        "law = t:inf",
        "law = t:nan",
        "override_lambda_max = big",
        "override_lambda_max = nan",
        "eigen_recipe = 0.5:1,0.4:2",
        "eigen_recipe = 0.5",
        "eigen_recipe = nan:1",
        "eigen_recipe = 1:inf",
        "gamma = x",
        "threads = 2",
        "no_such_key = 1",
        "jsplus_as_printed = false",
    ],
)
def test_simulate_bad_config_exits_2(tmp_path, capsys, config):
    path = tmp_path / "sim.cfg"
    path.write_text(f"p_grid = 20\nn_reps = 5\n{config}\n")
    code, err = run(capsys, "simulate", "--config", str(path), "--out", str(tmp_path))
    assert code == 2
    assert_one_error_line(err)
    assert config.split("=")[0].strip() in err


@pytest.mark.parametrize("text, match", [
    (None, "config file not found"),
    ("n_reps = 5\np_grid 20", "sim.cfg:2: expected 'key = value'"),
], ids=["missing", "no-equals"])
def test_unreadable_config_file_exits_2(tmp_path, capsys, text, match):
    path = tmp_path / "sim.cfg"
    if text is not None:
        path.write_text(f"{text}\n")
    code, err = run(capsys, "simulate", "--config", str(path), "--out", str(tmp_path / "out"))
    assert code == 2
    assert_one_error_line(err)
    assert match in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("flags", [("--c", "0"), ("--p", "1"), ("--c", "-1"),
                                   ("--p", "20,20"), ("--estimators", "olse,olse")])
def test_simulate_bad_grid_exits_2(tmp_path, capsys, flags):
    code, err = run(capsys, "simulate", *flags, "--n-reps", "5", "--out", str(tmp_path))
    assert code == 2
    assert_one_error_line(err)


@pytest.mark.parametrize("quantity, flags", [("alpha-bf", ("--c", "0")),
                                             ("alpha-bf", ("--p", "0")),
                                             ("alpha-oracle", ("--c", "nan"))])
def test_qq_bad_cell_exits_2(tmp_path, capsys, quantity, flags):
    # the cell is validated before its sample size and p/n are computed
    code, err = run(capsys, "qq", quantity, *flags, "--n-reps", "10", "--out", str(tmp_path))
    assert code == 2
    assert_one_error_line(err)


@pytest.mark.parametrize("command", ["simulate", "backtest"])
def test_empty_estimator_list_exits_2(tmp_path, capsys, command):
    # a run of no estimator would write CSVs that hold only a header
    if command == "simulate":
        argv = ["simulate", "--p", "20", "--n-reps", "5"]
    else:
        returns = tmp_path / "returns.csv"
        write_returns_csv(synthetic_panel(p=4, periods=20), returns)
        argv = ["backtest", str(returns), "--windows", "5"]
    code, err = run(capsys, *argv, "--estimators", ",", "--out", str(tmp_path / "out"))
    assert code == 2
    assert_one_error_line(err)
    assert "estimators" in err
    assert not (tmp_path / "out").exists()


def test_backtest_population_estimator_exits_2(tmp_path, capsys):
    # the oracle is a known estimator that a returns panel cannot feed
    returns = tmp_path / "returns.csv"
    write_returns_csv(synthetic_panel(p=4, periods=20), returns)
    code, err = run(capsys, "backtest", str(returns), "--windows", "5",
                    "--estimators", "sample-mean,olse-oracle", "--out", str(tmp_path / "out"))
    assert code == 2
    assert_one_error_line(err)
    assert "['olse-oracle'] need the true population" in err
    assert "accepts sample-mean, olse, js," in err and "unknown" not in err


@pytest.mark.parametrize("config", ["windows = 5,x", "align_start = maybe", "seed = 1.5",
                                    "targets = ,", "windows = ,",
                                    "windows = 5\njsplus_as_printed = false"])
def test_backtest_bad_config_exits_2(tmp_path, capsys, config):
    # every case starts from a window that fits the 20-period panel (a later
    # line overrides it), so only the key under test can fail the run
    returns = tmp_path / "returns.csv"
    write_returns_csv(synthetic_panel(p=4, periods=20), returns)
    path = tmp_path / "back.cfg"
    path.write_text(f"windows = 5\n{config}\n")
    code, err = run(capsys, "backtest", str(returns), "--config", str(path),
                    "--out", str(tmp_path))
    assert code == 2
    assert_one_error_line(err)
    assert config.splitlines()[-1].split("=")[0].strip() in err



@pytest.mark.parametrize("field, lines", [("windows", "windows = 6,6"),
                                          ("targets", "windows = 6\ntargets = ones,ones"),
                                          ("estimators", "windows = 6\nestimators = olse,olse")],
                         ids=["windows", "targets", "estimators"])
def test_backtest_duplicate_entries_exit_2(tmp_path, capsys, field, lines):
    # a repeated entry would run twice and write duplicate rows
    returns = tmp_path / "returns.csv"
    write_returns_csv(synthetic_panel(p=4, periods=20), returns)
    path = tmp_path / "back.cfg"
    path.write_text(f"{lines}\n")
    code, err = run(capsys, "backtest", str(returns), "--config", str(path),
                    "--out", str(tmp_path))
    assert code == 2
    assert_one_error_line(err)
    assert field in err
    assert not (tmp_path / "backtest.csv").exists()


def test_qq_bona_fide_out_of_scope_exits_2(tmp_path, capsys):
    code, err = run(capsys, "qq", "alpha-bf", "--c", "2", "--out", str(tmp_path))
    assert code == 2
    assert_one_error_line(err)


@pytest.mark.parametrize("p, c", [(20, 0.98), (250, 0.999)])
def test_qq_bona_fide_rounded_c_out_of_scope_exits_2(tmp_path, capsys, monkeypatch, p, c):
    # n = round(p / c) = p, so the cell's c is 1 although the nominal c is not
    def no_population(*args):
        raise AssertionError("qq built a population outside its scope")

    monkeypatch.setattr(cli, "cell_population", no_population)
    code, err = run(capsys, "qq", "alpha-bf", "--p", str(p), "--c", str(c),
                    "--n-reps", "10", "--out", str(tmp_path))
    assert code == 2
    assert_one_error_line(err)
    assert not (tmp_path / "qq.csv").exists()


def test_qq_too_few_samples_exits_3(tmp_path, capsys, monkeypatch):
    def no_population(*args):
        raise AssertionError("qq built a population for too few samples")

    monkeypatch.setattr(cli, "cell_population", no_population)
    code, err = run(capsys, "qq", "alpha-oracle", "--n-reps", "5",
                    "--out", str(tmp_path))
    assert code == 3
    assert_one_error_line(err)


def test_qq_writes_pairs_and_ks_line(tmp_path, capsys):
    code = main(["qq", "alpha-bf", "--p", "20", "--n-reps", "20", "--out", str(tmp_path)])
    out = capsys.readouterr().out
    assert code == 0
    assert len((tmp_path / "qq.csv").read_text().splitlines()) == 1 + 20
    assert "KS statistic:" in out


def test_qq_oracle_writes_pairs_and_ks_line(tmp_path, capsys):
    code = main(["qq", "beta-oracle", "--p", "20", "--n-reps", "20", "--out", str(tmp_path)])
    out = capsys.readouterr().out
    assert code == 0
    assert len((tmp_path / "qq.csv").read_text().splitlines()) == 1 + 20
    assert "KS statistic:" in out


def test_qq_growing_means_match_the_paper_standardization(tmp_path, capsys):
    # at gamma = 1 qq standardizes at sqrt(n) with variances of the unscaled
    # Gram; the paper standardizes at sqrt(p^gamma n) with the variances of
    # the p^{-gamma}-scaled Gram.  The factors p^gamma cancel, so the
    # empirical column is the paper's, recomputed here from the same cell
    p, c = 40, cli.QQ_C
    code = main(["qq", "alpha-oracle", "--gamma", "1", "--p", str(p), "--n-reps", "20",
                 "--out", str(tmp_path)])
    capsys.readouterr()
    assert code == 0
    with open(tmp_path / "qq.csv", newline="") as handle:
        got = [float(row["empirical"]) for row in csv.DictReader(handle)]

    config = McConfig(p_grid=(p,), c_grid=(c,), gamma=1, n_reps=20, estimators=("olse-oracle",))
    pop = cell_population(config, p, c)
    alpha = run_cell(config, pop, c).weights["olse-oracle"][:, 0]
    n = cell_sample_size(p, c)
    var_alpha, _ = oracle_variances_closed_form(pop, p / n, 1)
    want = np.sort(np.sqrt(p * n) * (alpha - limit_intensities(pop, p / n).alpha)
                   / np.sqrt(var_alpha))
    assert len(got) == 20
    np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-10)


@pytest.mark.parametrize(
    "argv, flag",
    [(("simulate", "--law", "cauchy"), "--law"),
     (("backtest", "RETURNS", "--windows", "5,x"), "--windows"),
     # qq runs one cell: it takes one p and one c, not a list or nothing
     (("qq", "alpha-oracle", "--p", ""), "--p"),
     (("qq", "alpha-oracle", "--p", "20,40"), "--p"),
     (("qq", "alpha-oracle", "--c", "0.5,2"), "--c"),
     (("simulate", "--law", "t:inf"), "--law"),
     # the positive-part forms are estimator names, not a flag
     (("simulate", "--p", "20", "--n-reps", "2", "--no-as-printed-jsplus"),
      "--no-as-printed-jsplus"),
     (("backtest", "RETURNS", "--windows", "5", "--no-as-printed-jsplus"),
      "--no-as-printed-jsplus")],
)
def test_bad_flag_exits_2_with_one_line(tmp_path, capsys, argv, flag):
    returns = tmp_path / "returns.csv"
    write_returns_csv(synthetic_panel(p=4, periods=20), returns)
    argv = [str(returns) if a == "RETURNS" else a for a in argv]
    code, err = run(capsys, *argv, "--out", str(tmp_path))
    assert code == 2
    assert_one_error_line(err)
    assert flag in err and "usage:" not in err


@pytest.mark.parametrize("source", ["flag", "config"])
def test_simulate_custom_target_exits_2(tmp_path, capsys, source):
    # no flag or key supplies the custom target vector, so the mode is not
    # offered; the error names the modes that are
    if source == "flag":
        argv = ["--target", "custom"]
    else:
        path = tmp_path / "sim.cfg"
        path.write_text("target_mode = custom\n")
        argv = ["--config", str(path)]
    code, err = run(capsys, "simulate", "--p", "20", "--n-reps", "5", *argv,
                    "--out", str(tmp_path))
    assert code == 2
    assert_one_error_line(err)
    assert "drawn" in err and "equal-to-mu_n" in err
