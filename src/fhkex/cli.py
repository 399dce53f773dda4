"""Command-line front end: config loading, subcommand dispatch, output writing."""

from __future__ import annotations

import argparse
import dataclasses
import functools
import math
import os
import secrets
import sys
from pathlib import Path

import numpy as np

from . import adversary, analysis, channel, experiments, protocol, scenario

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_INFEASIBLE = 3
EXIT_IO = 4

OUTPUT_DIR_ENV = "FHKEX_OUTPUT_DIR"

# demo sequences for the six-slot toy run
FIXTURE_ALICE = (0, 0, 1, 0, 0, 1)
FIXTURE_BOB = (0, 1, 0, 1, 0, 1)

def _fail(code: str, message: str) -> None:
    print(f"error: {code}: {message}", file=sys.stderr)


def _parse_range(text: str, cast, limit: int):
    """start, stop, step and value count of an inclusive range 'start:stop:step' of <= limit values."""
    parts = text.split(":")
    if len(parts) != 3:
        raise scenario.ConfigError("invalid-axis", f"range must be start:stop:step, got {text!r}")
    start, stop, step = (cast(p) for p in parts)
    if not all(math.isfinite(v) for v in (start, stop, step)) or step <= 0 or stop < start:
        raise scenario.ConfigError("invalid-axis", f"bad range {text!r}")
    # the tolerance keeps an endpoint that float rounding puts just past stop
    span = (stop - start) / step + 1e-9
    if not span < limit:  # also catches a span that overflowed to inf
        raise scenario.ConfigError("invalid-axis", f"range {text!r} has more than {limit} values")
    return start, stop, step, int(span) + 1


def _axis_size(text: str, cast, limit: int) -> int:
    """The number of values _parse_axis gives for text, counted without building any."""
    text = text.strip()
    if ":" in text:
        return _parse_range(text, cast, limit)[3]
    return text.count(",") + 1 if text else 0


def _parse_axis(text: str, cast, limit: int):
    """Axis syntax: comma list '60,80,100' or inclusive range 'start:stop:step' of <= limit values."""
    text = text.strip()
    if ":" in text:
        start, stop, step, count = _parse_range(text, cast, limit)
        # start + i*step rather than repeated addition, which drifts
        values = [start + i * step for i in range(count)]
        if abs(values[-1] - stop) <= 1e-9 * step:
            values[-1] = stop
        return tuple(cast(v) for v in values)
    if not text:
        return ()
    return tuple(cast(p) for p in text.split(","))


def _build_scenario(args: argparse.Namespace) -> scenario.ScenarioConfig:
    cfg = scenario.load_config(args.config) if args.config else scenario.ScenarioConfig()
    overrides = {
        name: getattr(args, name) for name in _READS[args.command] if getattr(args, name) is not None
    }
    if overrides:
        cfg = dataclasses.replace(cfg, **overrides)
    return scenario.validate_config(cfg)


def _output_dir(args: argparse.Namespace) -> Path:
    """The output directory; it must exist, and is checked before anything is drawn or read."""
    out = Path(args.out or os.environ.get(OUTPUT_DIR_ENV) or ".")
    if not out.is_dir():
        raise NotADirectoryError(f"output directory {out} does not exist")
    return out


def _resolve_seed(args: argparse.Namespace, cfg: scenario.ScenarioConfig) -> tuple[int, str]:
    """The seed, and the line that echoes it if generated ("" otherwise):
    the --seed flag wins, then a config-file value; otherwise one is generated."""
    if args.seed is not None:
        return args.seed, ""
    if args.config is not None:
        return cfg.seed, ""
    seed = secrets.randbits(63)
    return seed, f"seed={seed} (auto-generated; pass --seed to reproduce)\n"


# The ScenarioConfig fields each command reads. A sweep takes sigma and n from
# its axes, and pl0 and pt cancel from every adversary decision.
_READS = {
    "fixture": (),
    "session": scenario.CONFIG_FIELDS,
    "analyze": ("gamma", "sigma", "d0"),
    "sweep": ("gamma", "d0", "seed"),
    "frontier": ("gamma", "d0", "seed"),
}
_WRITES_FILES = ("session", "sweep", "frontier")


def _add_scenario_flags(p: argparse.ArgumentParser, command: str) -> None:
    """Flags for the scenario fields the command reads, --config if it reads any, --out if it writes."""
    reads = _READS[command]
    if reads:
        p.add_argument("--config", help="JSON config file mirroring the scenario fields")
    for f in dataclasses.fields(scenario.ScenarioConfig):
        if f.name in reads:
            p.add_argument("--" + f.name.replace("_", "-"), type=type(f.default), help=f.metadata["help"])
    if command in _WRITES_FILES:
        p.add_argument("--out", help=f"output directory (default ${OUTPUT_DIR_ENV} or '.')")


class _Typed(argparse.Action):
    """Stores a flag's value, as argparse's default action does, and notes the
    flag in the namespace's `typed`: a default value is not a typed one."""

    def __call__(self, parser, namespace, values, option_string=None):
        setattr(namespace, self.dest, values)
        namespace.typed = (*namespace.typed, option_string)


class _Parser(argparse.ArgumentParser):
    """Refuses an unknown flag, a bad type or a bad choice with one error line, as every failure does.

    A flag must be typed in full: an abbreviation such as --sigma for
    --sigma-list is an unknown flag. Subparsers are made with the parser's
    own class, so they refuse alike.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, allow_abbrev=False, **kwargs)

    def error(self, message: str):
        _fail("usage", message)
        self.exit(EXIT_CONFIG)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The fhkex argument parser, built on first use and shared by every later call."""
    parser = _Parser(
        prog="fhkex",
        description="Simulation lab for key establishment via frequency-hopping collisions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_fixture = sub.add_parser("fixture", help="run the scripted six-slot toy example")
    _add_scenario_flags(p_fixture, "fixture")

    p_session = sub.add_parser("session", help="run one seeded protocol session")
    _add_scenario_flags(p_session, "session")
    p_session.add_argument("--d-be", type=float, default=20.0, help="adversary distance behind Bob, m")
    p_session.add_argument("--eve", action="store_true",
                           help="also simulate the eavesdropper and write her trace")
    p_session.add_argument("--rule", choices=adversary.RULES, default=adversary.RULE_ML)

    p_analyze = sub.add_parser("analyze", help="closed-form secrecy table")
    _add_scenario_flags(p_analyze, "analyze")
    p_analyze.add_argument("--k", type=int, default=128, help="key size, bits")
    p_analyze.add_argument("--target", type=float, default=0.99)
    given_or_derived = p_analyze.add_mutually_exclusive_group()
    given_or_derived.add_argument(
        "--pb", type=float, help="per-slot secret-bit probability (overrides the channel-derived value)"
    )
    given_or_derived.add_argument("--d-be", type=float, default=20.0)
    p_analyze.add_argument("--n", type=int, help="evaluate the key probability at this many slots")

    for name in ("sweep", "frontier"):
        p = sub.add_parser(name, help=f"Monte Carlo {name} over a parameter grid")
        _add_scenario_flags(p, name)
        # the grid flags note themselves when typed, since frontier --from-csv refuses them
        p.set_defaults(typed=())
        grid = functools.partial(p.add_argument, action=_Typed)
        grid("--k-list", default="128", help="key sizes, comma list or start:stop:step")
        grid("--n-list", default="60:600:10", help="transmission counts")
        grid("--d-be-list", default="20", help="adversary distances, m")
        grid("--sigma-list", default="8", help="shadowing std-devs, dB")
        grid("--trials", type=int, default=2000)
        grid("--rule", choices=adversary.RULES, default=adversary.RULE_ML)
        grid("--metric", choices=experiments.METRICS, default=experiments.METRIC_PER_BIT)
        grid("--geometry", choices=scenario.GEOMETRIES, default=scenario.GEOMETRY_CANONICAL)
        grid("--budget", type=int, default=experiments.SLOT_BUDGET)
        if name == "frontier":
            p.add_argument("--target", type=float, default=0.99)
            p.add_argument("--column", choices=("p_hat", "p_analytic"), default="p_hat")
            p.add_argument("--from-csv", help="reuse an existing sweep CSV instead of simulating")
    return parser


def _cmd_fixture(args: argparse.Namespace) -> int:
    bits = np.column_stack((FIXTURE_ALICE, FIXTURE_BOB))
    protocol.write_transcript_csv([bits], sys.stdout)
    collisions = ",".join(map(str, np.flatnonzero(bits[:, 0] == bits[:, 1]) + 1))
    print(f"collisions at slots: {collisions}")
    print(f"key: {protocol.key_text(bits)}")
    return EXIT_OK


def _cmd_session(args: argparse.Namespace) -> int:
    cfg = _build_scenario(args)
    d_ae, d_be = scenario.build_deployment(args.d_be)
    if args.eve:
        scenario.check_adversary_distance(d_be, cfg.d0)
    if cfg.n_rounds > experiments.SLOT_BUDGET:
        raise experiments.BudgetError(f"{cfg.n_rounds} slots exceed budget {experiments.SLOT_BUDGET}")
    out = _output_dir(args)
    seed, echo = _resolve_seed(args, cfg)
    sys.stdout.write(echo)
    cfg = dataclasses.replace(cfg, seed=seed)
    coins, decisions, trace = experiments.session_streams(cfg.seed)
    # listed: the transcript reads the blocks twice, for its key line and its rows
    blocks = list(experiments.draw_slot_bits(coins, cfg.n_rounds))
    if args.eve:
        judged = experiments.session_blocks(decisions, trace, blocks, d_ae, d_be, cfg, args.rule)
    path = out / "transcript.csv"
    generated = protocol.write_transcript_csv(blocks, dest=str(path), seed=cfg.seed)
    print(f"wrote {path}")
    print(f"generated {generated} bits over {cfg.n_rounds} slots "
          f"(~{cfg.n_rounds * cfg.slot_duration:.3f} s of air time)")
    print("key: ", end="")
    sys.stdout.writelines(map(protocol.key_text, blocks))
    print()
    if args.eve:
        trace = out / "eve_trace.csv"
        guessed = adversary.write_adversary_trace_csv(judged, dest=str(trace))
        print(f"wrote {trace}")
        print(f"adversary ({args.rule}): guessed {guessed} of "
              f"{generated} bits; {generated - guessed} secret")
    return EXIT_OK


def _cmd_analyze(args: argparse.Namespace) -> int:
    if args.pb is not None:  # a given p_b leaves the channel unread: its flags are refused, not ignored
        for name in _READS["analyze"]:
            if getattr(args, name) is not None:
                raise scenario.ConfigError("usage", f"argument --{name}: not allowed with argument --pb")
    if args.n is not None and args.n < 1:
        raise ValueError(f"--n must be >= 1, got {args.n}")
    if args.n is not None and args.n > analysis.MAX_N:
        raise ValueError(f"--n {args.n} is above {analysis.MAX_N}")
    cfg = _build_scenario(args)
    req = analysis.KeyRequest(k=args.k, target=args.target)
    # every line is computed before any is printed: an infeasible request prints nothing
    if args.pb is not None:
        pb = analysis.Probability(args.pb)
        lines = [f"p_b = {float(pb):.6g} (given)"]
    else:
        d_ae, d_be = scenario.build_deployment(args.d_be)
        scenario.check_adversary_distance(d_be, cfg.d0)
        delta = channel.delta_mean_pathloss(d_ae, d_be, cfg.gamma)
        pg = adversary.pg_closed_form(delta, cfg.sigma)
        pb = analysis.secret_bit_prob(analysis.COLLISION_PROB, pg)
        lines = [
            f"d_be = {d_be} m, sigma = {cfg.sigma} dB, gamma = {cfg.gamma}",
            f"delta = {delta:.4f} dB, p_g = {pg:.6g}, p_b = {float(pb):.6g}",
        ]
    min_n = analysis.min_transmissions(req, pb)
    lines.append(f"minimum transmissions for k={req.k} at target {req.target}: {min_n}")
    n = args.n
    if n is not None:
        p = analysis.key_prob(req.k, n, pb)
        lines.append(f"P(L >= {req.k} | N={n}) = {float(p):.6g}")
        if args.pb is None and cfg.sigma > 0:
            radius = analysis.privacy_radius(req, n, cfg.sigma, cfg.gamma, d_min=cfg.d0)
            lines.append(f"privacy radius at N={n}: {radius:.3f} m "
                         f"around ({scenario.NODE_HALF_SPACING}, 0.0)")
    print(*lines, sep="\n")
    return EXIT_OK


def _make_spec(args: argparse.Namespace) -> experiments.SweepSpec:
    """The sweep's spec, built once and checked in full before an auto seed is echoed.

    The grid's rows are counted from the typed axes first, so a grid over
    the row limit is refused before any axis is built.
    """
    if args.budget < 1:  # it also caps the axes' ranges, which would take the blame
        raise scenario.ConfigError("invalid-budget", f"--budget must be >= 1, got {args.budget}")
    cfg = _build_scenario(args)
    limit = min(args.budget, experiments.ROW_LIMIT)  # no axis is longer than the grid
    axes = ((args.k_list, int), (args.n_list, int), (args.d_be_list, float), (args.sigma_list, float))
    experiments.SweepSpec.check_rows(math.prod(_axis_size(text, cast, limit) for text, cast in axes))
    seed, echo = _resolve_seed(args, cfg)
    spec = experiments.SweepSpec(
        *(_parse_axis(text, cast, limit) for text, cast in axes),  # k, n_rounds, d_be, sigma
        trials=args.trials,
        base_seed=seed,
        rule=args.rule,
        metric=args.metric,
        geometry=args.geometry,
        budget=args.budget,
        scenario=cfg,
    )
    if spec.grid_size == 0:
        raise scenario.ConfigError("empty-grid", "every sweep axis needs at least one value")
    slices = len(set(spec.k)) * len(set(spec.sigma))  # the rule and the metric are single
    if args.command == "frontier" and slices != 1:
        raise ValueError(f"frontier needs a single (k, sigma, rule, metric) slice, got {slices}")
    sys.stdout.write(echo)
    return spec


def _cmd_sweep(args: argparse.Namespace) -> int:
    out = _output_dir(args)
    spec = _make_spec(args)
    rows = experiments.sweep(spec)
    csv_path = out / "sweep.csv"
    experiments.write_result_csv(rows, str(csv_path))
    experiments.write_sweep_plot_script("sweep.csv", str(out / "sweep.gp"))
    print(f"wrote {csv_path} ({len(rows)} grid points, {spec.trials} trials each)")
    return EXIT_OK


def _cmd_frontier(args: argparse.Namespace) -> int:
    if args.from_csv:  # the CSV is read as it is: a flag that shapes a sweep is refused, not ignored
        given = [f"--{name}" for name in _READS["frontier"] if getattr(args, name) is not None]
        for flag in (*args.typed, *given):
            raise scenario.ConfigError("usage", f"argument {flag}: not allowed with argument --from-csv")
    target = analysis.check_target(args.target)
    out = _output_dir(args)
    if args.from_csv:
        rows = experiments.read_result_csv(args.from_csv)
    else:
        spec = _make_spec(args)
        rows = experiments.sweep(spec)
        csv_path = out / "sweep.csv"
        experiments.write_result_csv(rows, str(csv_path))
        print(f"wrote {csv_path}")
    front = experiments.frontier(rows, target=target, column=args.column)
    frontier_path = out / "frontier.csv"
    experiments.write_frontier_csv(front, str(frontier_path))
    experiments.write_frontier_plot_script("frontier.csv", str(out / "frontier.gp"))
    print(f"wrote {frontier_path} ({len(front)} distances, target {target}, {args.column})")
    return EXIT_OK


_COMMANDS = {
    "fixture": _cmd_fixture,
    "session": _cmd_session,
    "analyze": _cmd_analyze,
    "sweep": _cmd_sweep,
    "frontier": _cmd_frontier,
}


def dispatch(args: argparse.Namespace) -> int:
    """Run one parsed command line; every error path maps to a documented exit code."""
    try:
        return _COMMANDS[args.command](args)
    except scenario.ConfigError as exc:
        _fail(exc.code, str(exc))
        return EXIT_CONFIG
    except ValueError as exc:
        _fail("invalid-value", str(exc))
        return EXIT_CONFIG
    except analysis.InfeasibleError as exc:
        _fail("infeasible", str(exc))
        return EXIT_INFEASIBLE
    except OSError as exc:
        _fail("io-error", str(exc))
        return EXIT_IO


def main(argv=None) -> int:
    return dispatch(build_parser().parse_args(argv))


def entry_point() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry_point()
