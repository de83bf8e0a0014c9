"""Command-line interface.

Commands: ``simulate`` (loss/intensity study), ``table1`` (negative-weight
frequency grid), ``qq`` (normality diagnostics for one standardized
quantity), ``backtest`` (rolling-window portfolio backtest on a returns
CSV) and ``demo`` (writes a synthetic panel and runs a small end-to-end
pass).  Exit codes: 0 success, 2 usage/config error, 3 numerical failure.
Errors go to stderr with the prefix ``error:``.

Configuration files are flat ``key = value`` text; ``#`` starts a comment.
CLI flags override file values.  A value that does not parse is a
configuration error (exit 2) naming its key or flag.
"""

from __future__ import annotations

import argparse
import sys
from functools import partial
from pathlib import Path

import numpy as np

from .asymptotics import (
    bona_fide_covariance,
    oracle_weight_variances,
    standardize,
)
from .errors import (
    ConfigError,
    InvalidRecipeError,
    ParseError,
    ScopeError,
    ShrinkmeanError,
    TooFewSamplesError,
)
from .estimators import ESTIMATOR_KINDS, SAMPLE_ESTIMATORS, limit_intensities
from .finance import (
    BacktestConfig,
    TARGET_STRATEGIES,
    load_returns_csv,
    rolling_backtest,
    synthetic_panel,
    write_backtest_csv,
    write_returns_csv,
)
from .harness import (
    KS_COEFF_1PCT,
    QQ_MIN_SAMPLES,
    TARGET_MODES,
    McConfig,
    cell_population,
    cell_sample_size,
    ks_statistic,
    negative_frequency_table,
    qq_data,
    run_cell,
    run_study,
    write_intensities_csv,
    write_losses_csv,
    write_qq_csv,
    write_table1_csv,
)
from .model import DEFAULT_RECIPE, EigenRecipe, InnovationLaw

TABLE1_P_GRID = (20, 100, 250, 500)
TABLE1_C_GRID = (0.5, 0.9, 2.0)
QQ_QUANTITIES = ("alpha-oracle", "beta-oracle", "alpha-bf", "beta-bf")


def _parse_ints(text: str) -> tuple[int, ...]:
    return tuple(int(part) for part in str(text).split(",") if part.strip())


def _parse_floats(text: str) -> tuple[float, ...]:
    return tuple(float(part) for part in str(text).split(",") if part.strip())


def _parse_strs(text: str) -> tuple[str, ...]:
    return tuple(part.strip() for part in str(text).split(",") if part.strip())


def _parse_bool(text: str) -> bool:
    lowered = str(text).strip().lower()
    if lowered in ("true", "yes", "1", "on"):
        return True
    if lowered in ("false", "no", "0", "off"):
        return False
    raise ConfigError(f"expected a boolean, got {text!r}")


def _parse_recipe(file_values: dict[str, str]) -> EigenRecipe:
    """The recipe of ``eigen_recipe = fraction:eigenvalue,...`` (default
    groups when absent) with the optional ``override_lambda_max``."""
    override = _pick(file_values, None, "override_lambda_max", float, None)
    text = file_values.get("eigen_recipe")
    try:
        groups = DEFAULT_RECIPE.proportions
        if text is not None:
            pairs = (part.split(":") for part in _parse_strs(text))
            groups = tuple((float(frac), float(val)) for frac, val in pairs)
        return EigenRecipe(groups, override_lambda_max=override)
    except (ValueError, InvalidRecipeError) as exc:
        raise ConfigError(
            f"eigen_recipe = {text!r}, override_lambda_max = {override!r}: {exc}"
        ) from None


def read_flat_config(path) -> dict[str, str]:
    """Read flat key = value configuration text."""
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    values: dict[str, str] = {}
    for lineno, raw in enumerate(path.read_text(encoding="utf-8").splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, value = line.split("=", 1)
        values[key.strip()] = value.strip()
    return values


_SIMULATE_KEYS = {
    "p_grid", "c_grid", "gamma", "n_reps", "estimators", "target_mode",
    "seed", "eigen_recipe", "override_lambda_max", "law",
}

_BACKTEST_KEYS = {
    "windows", "estimators", "targets", "seed", "align_start",
    "fixed_target", "has_header",
}


def _file_values(path, allowed: set[str]) -> dict[str, str]:
    """The values of the config file at ``path`` ({} for none); keys outside
    ``allowed`` are an error."""
    if path is None:
        return {}
    values = read_flat_config(path)
    unknown = sorted(set(values) - allowed)
    if unknown:
        raise ConfigError(f"{path}: unknown keys {unknown}")
    return values


def _pick(file_values: dict[str, str], flag_value, key: str, parse, default):
    """The flag value if given, else the parsed file value, else the default."""
    if flag_value is not None:
        return flag_value
    if key not in file_values:
        return default
    try:
        return parse(file_values[key])
    except ValueError as exc:
        raise ConfigError(f"{key} = {file_values[key]!r}: {exc}") from None


def _mc_config_from_args(args) -> McConfig:
    file_values = _file_values(args.config, _SIMULATE_KEYS)
    pick = partial(_pick, file_values)
    return McConfig(
        p_grid=pick(args.p, "p_grid", _parse_ints, (100,)),
        c_grid=pick(args.c, "c_grid", _parse_floats, (0.5,)),
        gamma=pick(args.gamma, "gamma", float, 0.0),
        n_reps=pick(args.n_reps, "n_reps", int, 1000),
        estimators=pick(args.estimators, "estimators", _parse_strs,
                        ("sample-mean", "olse")),
        target_mode=pick(args.target, "target_mode", str, "drawn"),
        seed=pick(args.seed, "seed", int, 0),
        eigen_recipe=_parse_recipe(file_values),
        law=pick(args.law, "law", InnovationLaw.parse, InnovationLaw()),
    )


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def cmd_simulate(args) -> int:
    config = _mc_config_from_args(args)
    report = run_study(config)
    out = _out_dir(args)
    write_losses_csv(report, out / "losses.csv")
    write_intensities_csv(report, out / "intensities.csv")
    print(f"wrote {out / 'losses.csv'} and {out / 'intensities.csv'}")
    return 0


def cmd_table1(args) -> int:
    config = McConfig(
        p_grid=args.p if args.p is not None else TABLE1_P_GRID,
        c_grid=args.c if args.c is not None else TABLE1_C_GRID,
        gamma=0.0,
        n_reps=args.n_reps if args.n_reps is not None else 1000,
        estimators=("olse", "olse-oracle"),
        seed=args.seed if args.seed is not None else 0,
    )
    rows = negative_frequency_table(config)
    out = _out_dir(args)
    write_table1_csv(rows, out / "table1.csv")
    print(f"wrote {out / 'table1.csv'} ({len(rows)} cells)")
    return 0


def cmd_qq(args) -> int:
    quantity = args.quantity
    p = args.p if args.p is not None else 250
    c = args.c if args.c is not None else 0.5
    n_reps = args.n_reps if args.n_reps is not None else 1000
    gamma = float(args.gamma) if args.gamma is not None else 0.0
    seed = args.seed if args.seed is not None else 0
    if quantity.endswith("-bf") and c >= 1:
        raise ScopeError(
            f"bona fide standardization requires c < 1, got c={c}"
        )

    estimator = "olse-oracle" if quantity.endswith("-oracle") else "olse"
    config = McConfig(
        p_grid=(p,), c_grid=(c,), gamma=gamma, n_reps=n_reps,
        estimators=(estimator,), seed=seed,
    )
    # refuse before the cell runs; qq_data checks again, since failed
    # replications can still leave too few samples
    if n_reps < QQ_MIN_SAMPLES:
        raise TooFewSamplesError(
            f"need at least {QQ_MIN_SAMPLES} samples, got --n-reps {n_reps}"
        )
    pop = cell_population(config, p, c)
    cell = run_cell(config, pop, c)
    n = cell_sample_size(p, c)
    c_used = p / n

    column = 0 if quantity.startswith("alpha") else 1
    limit = limit_intensities(pop, c_used)
    center = (limit.alpha, limit.beta)[column]
    if quantity.endswith("-oracle"):
        variance = oracle_weight_variances(pop, c_used)[column]
        rate = float(np.sqrt(p**gamma * n))
        weights = cell.oracle_weights
    else:
        variance = float(bona_fide_covariance(pop, c_used)[column, column])
        rate = float(np.sqrt(n))
        weights = cell.bona_fide_weights

    raw = weights[:, column]
    raw = raw[np.isfinite(raw)]
    z = standardize(raw, center, variance, rate)
    pairs = qq_data(z)
    stat = ks_statistic(z)
    out = _out_dir(args)
    write_qq_csv(pairs, quantity, p, c, out / "qq.csv")
    critical = KS_COEFF_1PCT / np.sqrt(len(z))
    print(f"KS statistic: {stat:.6f} (1% critical value {critical:.6f}, "
          f"N={len(z)})")
    print(f"wrote {out / 'qq.csv'}")
    return 0


def _backtest_config_from_args(args) -> tuple[BacktestConfig, bool]:
    pick = partial(_pick, _file_values(args.config, _BACKTEST_KEYS))
    config = BacktestConfig(
        windows=pick(args.windows, "windows", _parse_ints, (25, 50, 75, 100)),
        estimators=pick(args.estimators, "estimators", _parse_strs,
                        ("sample-mean", "olse")),
        targets=pick(args.target, "targets", _parse_strs, TARGET_STRATEGIES),
        seed=pick(args.seed, "seed", int, 0),
        align_start=pick(args.align_start, "align_start", _parse_bool, False),
        fixed_target=pick(None, "fixed_target", _parse_bool, False),
    )
    has_header = pick(args.no_header if args.no_header is None else not args.no_header,
                      "has_header", _parse_bool, True)
    return config, has_header


def cmd_backtest(args) -> int:
    config, has_header = _backtest_config_from_args(args)
    panel = load_returns_csv(args.returns, has_header=has_header)
    report = rolling_backtest(panel, config)
    out = _out_dir(args)
    write_backtest_csv(report, out / "backtest.csv")
    print(f"wrote {out / 'backtest.csv'} ({len(report.rows)} rows, "
          f"panel {panel.n_periods} periods x {panel.n_assets} assets)")
    return 0


def cmd_demo(args) -> int:
    seed = args.seed if args.seed is not None else 0
    out = _out_dir(args)

    panel = synthetic_panel(p=30, periods=140, seed=seed)
    panel_path = out / "demo_returns.csv"
    write_returns_csv(panel, panel_path)

    config = BacktestConfig(
        windows=(25,),
        estimators=("sample-mean", "olse", "js-high-dim", "js-positive-part", "wang"),
        targets=("uniform-range-draw", "signs", "ones"),
        seed=seed,
    )
    report = rolling_backtest(panel, config)
    write_backtest_csv(report, out / "backtest.csv")

    mc = McConfig(
        p_grid=(20,), c_grid=(0.5,), gamma=0.0, n_reps=50,
        estimators=("sample-mean", "olse", "olse-oracle"), seed=seed,
    )
    study = run_study(mc)
    write_losses_csv(study, out / "losses.csv")
    write_intensities_csv(study, out / "intensities.csv")

    cell = study.cells[0]
    print(f"demo panel: {panel_path}")
    print(f"backtest rows: {len(report.rows)} -> {out / 'backtest.csv'}")
    print(
        "mini study (p=20, c=0.5, N=50): "
        f"sample-mean loss {cell.mean_loss('sample-mean'):.4f}, "
        f"olse loss {cell.mean_loss('olse'):.4f} -> {out / 'losses.csv'}"
    )
    return 0


class _Parser(argparse.ArgumentParser):
    """Reports a usage error as one ``error:`` line and exit code 2; its
    subcommand parsers are of the same class."""

    def error(self, message):
        self.exit(2, f"error: {message}\n")


def _flag(parse):
    """``parse`` as an argparse type whose error names the value and the reason."""

    def convert(text: str):
        try:
            return parse(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(f"{text!r}: {exc}") from None

    return convert


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--out", default=".", help="output directory (default %(default)s)")
    parser.add_argument("--seed", type=int, default=None,
                        help="root seed; identical seeds give identical outputs (default 0)")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="shrinkmean",
        description="Shrinkage estimation of high-dimensional mean vectors: "
                    "Monte Carlo studies and rolling-window backtests.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run a loss/intensity study grid")
    _add_common(sim)
    sim.add_argument("--config", default=None, help="flat key = value config file")
    sim.add_argument("--p", type=_flag(_parse_ints), default=None,
                     help="comma list of dimensions, e.g. 50,100")
    sim.add_argument("--c", type=_flag(_parse_floats), default=None,
                     help="comma list of concentrations p/n, e.g. 0.5,2.0")
    sim.add_argument("--n-reps", type=int, default=None, help="replications per cell (default 1000)")
    sim.add_argument("--gamma", type=int, choices=(0, 1), default=None,
                     help="mean-norm growth regime (default 0)")
    sim.add_argument("--estimators", type=_parse_strs, default=None,
                     help=f"comma list from {', '.join(ESTIMATOR_KINDS)}")
    sim.add_argument("--target", choices=TARGET_MODES, default=None,
                     help="target mode (default drawn)")
    sim.add_argument("--law", type=_flag(InnovationLaw.parse), default=None,
                     help="innovation law: normal, t:<df>, exponential")

    tab = sub.add_parser("table1", help="negative-weight frequency grid")
    _add_common(tab)
    tab.add_argument("--p", type=_flag(_parse_ints), default=None,
                     help=f"override the default grid {TABLE1_P_GRID}")
    tab.add_argument("--c", type=_flag(_parse_floats), default=None,
                     help=f"override the default grid {TABLE1_C_GRID}")
    tab.add_argument("--n-reps", type=int, default=None, help="replications per cell (default 1000)")

    qq = sub.add_parser("qq", help="normality diagnostics of a standardized quantity")
    _add_common(qq)
    qq.add_argument("quantity", choices=QQ_QUANTITIES)
    qq.add_argument("--p", type=_flag(int), default=None, help="dimension (default 250)")
    qq.add_argument("--c", type=_flag(float), default=None,
                    help="concentration p/n (default 0.5)")
    qq.add_argument("--n-reps", type=int, default=None, help="sample count (default 1000)")
    qq.add_argument("--gamma", type=int, choices=(0, 1), default=None)

    back = sub.add_parser("backtest", help="rolling-window backtest on a returns CSV")
    _add_common(back)
    back.add_argument("returns", help="CSV of returns, rows = dates, columns = assets")
    back.add_argument("--config", default=None, help="flat key = value config file")
    back.add_argument("--windows", type=_flag(_parse_ints), default=None,
                      help="comma list of window sizes (default 25,50,75,100)")
    back.add_argument("--estimators", type=_parse_strs, default=None,
                      help=f"comma list from {', '.join(SAMPLE_ESTIMATORS)} "
                           "(default sample-mean,olse)")
    back.add_argument("--target", type=_parse_strs, default=None,
                      help=f"comma list from {', '.join(TARGET_STRATEGIES)}")
    back.add_argument("--align-start", action=argparse.BooleanOptionalAction,
                      default=None, help="start every window size at the largest window")
    back.add_argument("--no-header", action="store_true", default=None,
                      help="returns CSV has no header row")

    demo = sub.add_parser("demo", help="write a synthetic panel and run a small pass")
    _add_common(demo)
    return parser


_COMMANDS = {
    "simulate": cmd_simulate,
    "table1": cmd_table1,
    "qq": cmd_qq,
    "backtest": cmd_backtest,
    "demo": cmd_demo,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _COMMANDS[args.command](args)
    except (ConfigError, ParseError, ScopeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ShrinkmeanError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except np.linalg.LinAlgError as exc:
        print(f"error: numerical failure: {exc}", file=sys.stderr)
        return 3


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
