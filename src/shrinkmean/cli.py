"""Command-line interface.

Commands: ``simulate`` (loss/intensity study), ``table1`` (negative-weight
frequency grid), ``qq`` (normality diagnostics for one standardized
quantity), ``backtest`` (rolling-window portfolio backtest on a returns
CSV) and ``demo`` (writes a synthetic panel and runs a small end-to-end
pass).  Exit codes: 0 success, 2 usage/config error, 3 numerical failure.
Errors go to stderr with the prefix ``error:``.

Configuration files are flat ``key = value`` text; ``#`` starts a comment.
A command's file takes the config keys of its flags, and ``simulate``'s
also the two recipe keys that no flag sets.  CLI flags override file
values.  The CLI forwards only the settings a flag or the file gives, so the
defaults live in one place: ``McConfig``, ``BacktestConfig`` and
``load_returns_csv``, and the constants below for the grids and the cell
that no class fixes.  A value that does not parse is a configuration error
(exit 2) naming its key or flag.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from .errors import (
    ConfigError,
    ParseError,
    ScopeError,
    ShrinkmeanError,
)
from .estimators import ESTIMATORS, NEEDS_POPULATION, limit_weights
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
    TARGET_MODES,
    McConfig,
    cell_population,
    cell_sample_size,
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
#: the grid ``simulate`` runs when neither a flag nor the config file sets one
SIMULATE_P_GRID = (100,)
SIMULATE_C_GRID = (0.5,)
#: the one cell ``qq`` runs when no flag sets it
QQ_P = 250
QQ_C = 0.5
QQ_QUANTITIES = ("alpha-oracle", "beta-oracle", "alpha-bf", "beta-bf")


def _comma_list(parse_item):
    """A parser of comma lists: each nonblank entry, stripped, by ``parse_item``."""
    return lambda text: tuple(parse_item(part.strip()) for part in text.split(",") if part.strip())


def _parse_bool(text: str) -> bool:
    lowered = str(text).strip().lower()
    if lowered in ("true", "yes", "1", "on"):
        return True
    if lowered in ("false", "no", "0", "off"):
        return False
    raise ValueError(f"expected a boolean, got {text!r}")


def _parse_group(text: str) -> tuple[float, float]:
    """One ``fraction:eigenvalue`` group of an eigenvalue recipe."""
    frac, val = text.split(":")
    return float(frac), float(val)


def read_flat_config(path) -> dict[str, str]:
    """Read flat key = value configuration text."""
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    try:
        text = path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text ({exc.reason})") from None
    values: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, value = line.split("=", 1)
        values[key.strip()] = value.strip()
    return values


#: The parser of every config-file key, and of the flag that sets it.  A key
#: is also the argparse dest of that flag, or of a ``set_defaults`` entry for
#: a key that no flag sets, and the keyword it sets: of McConfig, of
#: BacktestConfig, or ``has_header`` of load_returns_csv; ``eigen_recipe``
#: and ``override_lambda_max`` together make McConfig's recipe.
_PARSERS = {
    "p_grid": _comma_list(int),
    "c_grid": _comma_list(float),
    "gamma": float,
    "n_reps": int,
    "estimators": _comma_list(str),
    "target_mode": str,
    "seed": int,
    "eigen_recipe": _comma_list(_parse_group),
    "override_lambda_max": float,
    "law": InnovationLaw.parse,
    "windows": _comma_list(int),
    "targets": _comma_list(str),
    "align_start": _parse_bool,
    "fixed_target": _parse_bool,
    "has_header": _parse_bool,
}


def _settings(args) -> dict:
    """The settings that the user gave, by keyword: the flag if given, else
    the parsed value in the ``--config`` file, if the command takes one.  A
    command's keys are the dests of its namespace that ``_PARSERS`` knows.  A
    key set by neither is left out, so the class or function it goes to
    supplies its own default.  Other keys in the file, and values that do not
    parse, are a :class:`ConfigError` naming the key."""
    flags = {key: value for key, value in vars(args).items() if key in _PARSERS}
    path = getattr(args, "config", None)
    file_values = {} if path is None else read_flat_config(path)
    unknown = sorted(set(file_values) - set(flags))
    if unknown:
        raise ConfigError(f"{path}: unknown keys {unknown}")
    settings = {}
    for key, value in flags.items():
        if value is None and key in file_values:
            try:
                value = _PARSERS[key](file_values[key])
            except (ValueError, ConfigError) as exc:
                raise ConfigError(f"{key} = {file_values[key]!r}: {exc}") from None
        if value is not None:
            settings[key] = value
    return settings


def _take(settings: dict, *keys: str) -> dict:
    """Remove ``keys`` from ``settings``; return the ones it held."""
    return {key: settings.pop(key) for key in keys if key in settings}


def _mc_config_from_args(args) -> McConfig:
    settings = _settings(args)
    recipe = _take(settings, "eigen_recipe", "override_lambda_max")
    if recipe:
        given = ", ".join(recipe)
        groups = recipe.pop("eigen_recipe", DEFAULT_RECIPE.proportions)
        try:
            settings["eigen_recipe"] = EigenRecipe(groups, **recipe)
        except ConfigError as exc:
            raise ConfigError(f"{given}: {exc}") from None
    return McConfig(**{"p_grid": SIMULATE_P_GRID, "c_grid": SIMULATE_C_GRID, **settings})


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
    # only the two estimators that record weights run
    settings = {"p_grid": TABLE1_P_GRID, "c_grid": TABLE1_C_GRID, **_settings(args)}
    report = run_study(McConfig(**settings, estimators=("olse", "olse-oracle")))
    out = _out_dir(args)
    write_table1_csv(report, out / "table1.csv")
    print(f"wrote {out / 'table1.csv'} ({len(report.cells)} cells)")
    return 0


def cmd_qq(args) -> int:
    # imported here, since they load the standard library's statistics
    # (and decimal and fractions), which no other command needs
    from .asymptotics import (
        KS_COEFF_1PCT,
        QQ_MIN_SAMPLES,
        bona_fide_covariance,
        ks_statistic,
        oracle_weight_covariance,
        qq_data,
        standardize,
    )

    quantity, p, c = args.quantity, args.p, args.c
    estimator = "olse-oracle" if quantity.endswith("-oracle") else "olse"
    # the config validates the cell before n and p / n are taken from it
    config = McConfig(p_grid=(p,), c_grid=(c,), estimators=(estimator,), **_settings(args))
    n = cell_sample_size(p, c)
    c_used = p / n  # the cell's c, after n is rounded
    if quantity.endswith("-bf") and c_used >= 1:
        raise ScopeError(f"bona fide standardization requires c < 1, got "
                         f"c = p/n = {p}/{n}")
    # a setting that can never give enough samples, refused before the
    # population is built; qq_data checks again, since failed replications
    # can still leave too few samples
    if config.n_reps < QQ_MIN_SAMPLES:
        raise ConfigError(f"qq needs --n-reps >= {QQ_MIN_SAMPLES}, got {config.n_reps}")
    pop = cell_population(config, p, c)
    cell = run_cell(config, pop, c)

    column = 0 if quantity.startswith("alpha") else 1
    gram = pop.precision_gram(pop.mu_n, pop.mu_0)
    center = limit_weights(gram, c_used)[column]
    covariance = oracle_weight_covariance if estimator == "olse-oracle" else bona_fide_covariance
    variance = float(covariance(gram, c_used)[column, column])

    raw = cell.weights[estimator][:, column]
    raw = raw[np.isfinite(raw)]
    z = standardize(raw, center, variance, float(np.sqrt(n)))
    pairs = qq_data(z)
    stat = ks_statistic(z)
    out = _out_dir(args)
    write_qq_csv(pairs, quantity, p, c, out / "qq.csv")
    critical = KS_COEFF_1PCT / np.sqrt(len(z))
    print(f"KS statistic: {stat:.6f} (1% critical value {critical:.6f}, "
          f"N={len(z)})")
    print(f"wrote {out / 'qq.csv'}")
    return 0


def cmd_backtest(args) -> int:
    settings = _settings(args)
    load = _take(settings, "has_header")
    config = BacktestConfig(**settings)
    panel = load_returns_csv(args.returns, **load)
    report = rolling_backtest(panel, config)
    out = _out_dir(args)
    write_backtest_csv(report, out / "backtest.csv")
    print(f"wrote {out / 'backtest.csv'} ({len(report.rows)} rows, "
          f"panel {panel.n_periods} periods x {panel.n_assets} assets)")
    return 0


def cmd_demo(args) -> int:
    seed = _settings(args)
    # the configs check the seed before --out is made
    config = BacktestConfig(
        windows=(25,),
        estimators=("sample-mean", "olse", "js-high-dim", "js-positive-part", "wang"),
        **seed,
    )
    mc = McConfig(
        p_grid=(20,), c_grid=(0.5,), n_reps=50,
        estimators=("sample-mean", "olse", "olse-oracle"), **seed,
    )
    out = _out_dir(args)

    panel = synthetic_panel(p=30, periods=140, **seed)
    panel_path = out / "demo_returns.csv"
    write_returns_csv(panel, panel_path)
    report = rolling_backtest(panel, config)
    write_backtest_csv(report, out / "backtest.csv")

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
        except (ValueError, ConfigError) as exc:
            raise argparse.ArgumentTypeError(f"{text!r}: {exc}") from None

    return convert


def _show(value) -> str:
    """A default as --help shows it: a tuple as a comma list, floats as %g."""
    items = value if isinstance(value, tuple) else (value,)
    return ",".join(format(v, "g") if isinstance(v, float) else str(v) for v in items)


def _default(cls, name: str) -> str:
    """The default of the dataclass field ``cls.name``, as --help shows it."""
    return _show(cls.__dataclass_fields__[name].default)


def _add_setting(parser: argparse.ArgumentParser, flag: str, dest: str, **kwargs) -> None:
    """Add ``flag``, which sets the config key ``dest``: it parses as the key
    does and defaults to None, meaning unset."""
    parser.add_argument(flag, dest=dest, type=_flag(_PARSERS[dest]), default=None, **kwargs)


def _add_common(parser: argparse.ArgumentParser, config_class) -> None:
    parser.add_argument("--out", default=".", help="output directory (default %(default)s)")
    _add_setting(parser, "--seed", "seed",
                 help="root seed; identical seeds give identical outputs "
                      f"(default {_default(config_class, 'seed')})")


def _add_n_reps(parser: argparse.ArgumentParser, what: str) -> None:
    _add_setting(parser, "--n-reps", "n_reps",
                 help=f"{what} (default {_default(McConfig, 'n_reps')})")


def build_parser() -> argparse.ArgumentParser:
    """The argument parser.  A flag's dest is the config key it overrides
    (see :func:`_settings`), and a flag whose default lives in a class or a
    constant defaults to None, meaning unset.  Each command's ``run``
    default is the handler :func:`main` calls."""
    parser = _Parser(
        prog="shrinkmean",
        description="Shrinkage estimation of high-dimensional mean vectors: "
                    "Monte Carlo studies and rolling-window backtests.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    gamma_help = f"mean-norm growth regime (default {_default(McConfig, 'gamma')})"

    sim = sub.add_parser("simulate", help="run a loss/intensity study grid")
    _add_common(sim, McConfig)
    sim.add_argument("--config", default=None, help="flat key = value config file")
    _add_setting(sim, "--p", "p_grid", metavar="P",
                 help="comma list of dimensions, e.g. 50,100 "
                      f"(default {_show(SIMULATE_P_GRID)})")
    _add_setting(sim, "--c", "c_grid", metavar="C",
                 help="comma list of concentrations p/n, e.g. 0.5,2.0 "
                      f"(default {_show(SIMULATE_C_GRID)})")
    _add_n_reps(sim, "replications per cell")
    _add_setting(sim, "--gamma", "gamma", choices=(0, 1), help=gamma_help)
    _add_setting(sim, "--estimators", "estimators",
                 help=f"comma list from {', '.join(ESTIMATORS)} "
                      f"(default {_default(McConfig, 'estimators')})")
    _add_setting(sim, "--target", "target_mode", choices=TARGET_MODES,
                 help=f"target mode (default {_default(McConfig, 'target_mode')})")
    _add_setting(sim, "--law", "law",
                 help="innovation law: normal, t:<df>, exponential "
                      f"(default {InnovationLaw().spec_string()})")
    # the config-file keys that no flag sets
    sim.set_defaults(run=cmd_simulate, eigen_recipe=None, override_lambda_max=None)

    tab = sub.add_parser("table1", help="negative-weight frequency grid")
    _add_common(tab, McConfig)
    _add_setting(tab, "--p", "p_grid", metavar="P",
                 help=f"override the default grid {TABLE1_P_GRID}")
    _add_setting(tab, "--c", "c_grid", metavar="C",
                 help=f"override the default grid {TABLE1_C_GRID}")
    _add_n_reps(tab, "replications per cell")
    tab.set_defaults(run=cmd_table1)

    qq = sub.add_parser("qq", help="normality diagnostics of a standardized quantity")
    _add_common(qq, McConfig)
    qq.add_argument("quantity", choices=QQ_QUANTITIES)
    qq.add_argument("--p", type=_flag(int), default=QQ_P,
                    help="dimension (default %(default)s)")
    qq.add_argument("--c", type=_flag(float), default=QQ_C,
                    help="concentration p/n (default %(default)s)")
    _add_n_reps(qq, "sample count")
    _add_setting(qq, "--gamma", "gamma", choices=(0, 1), help=gamma_help)
    qq.set_defaults(run=cmd_qq)

    back = sub.add_parser("backtest", help="rolling-window backtest on a returns CSV")
    _add_common(back, BacktestConfig)
    back.add_argument("returns", help="CSV of returns, rows = dates, columns = assets")
    back.add_argument("--config", default=None, help="flat key = value config file")
    _add_setting(back, "--windows", "windows",
                 help="comma list of window sizes "
                      f"(default {_default(BacktestConfig, 'windows')})")
    _add_setting(back, "--estimators", "estimators",
                 help="comma list from "
                      f"{', '.join(e for e in ESTIMATORS if e not in NEEDS_POPULATION)} "
                      f"(default {_default(BacktestConfig, 'estimators')})")
    _add_setting(back, "--target", "targets", metavar="TARGET",
                 help=f"comma list from {', '.join(TARGET_STRATEGIES)} "
                      f"(default {_default(BacktestConfig, 'targets')})")
    back.add_argument("--align-start", action=argparse.BooleanOptionalAction,
                      default=None, help="start every window size at the largest window")
    back.add_argument("--header", dest="has_header", action=argparse.BooleanOptionalAction,
                      default=None, help="the CSV's first row holds asset labels")
    back.add_argument("--fixed-target", action=argparse.BooleanOptionalAction, default=None,
                      help="draw the targets once per window size, not per period")
    back.set_defaults(run=cmd_backtest)

    demo = sub.add_parser("demo", help="write a synthetic panel and run a small pass")
    _add_common(demo, McConfig)
    demo.set_defaults(run=cmd_demo)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.run(args)
    except (ConfigError, ParseError, ScopeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ShrinkmeanError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
