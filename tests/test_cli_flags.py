"""Every flag the parser offers is read, and no argv ends outside the documented exit codes."""

import argparse
import contextlib
import io
import json
import math
import tempfile
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fhkex.cli import EXIT_CONFIG, EXIT_INFEASIBLE, EXIT_IO, EXIT_OK, build_parser, main
from fhkex.scenario import CONFIG_FIELDS


def _offered_actions():
    """(command, flag) -> the argparse action, for every flag but -h the parser offers."""
    (sub,) = (a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    return {
        (command, option): action
        for command, parser in sub.choices.items()
        for action in parser._actions
        for option in action.option_strings
        if option not in ("-h", "--help")
    }


OFFERED = _offered_actions()


def _call(argv, out: Path):
    """(exit code, stdout, {file name: bytes}, stderr) of one CLI call; out is emptied first."""
    for path in out.iterdir():
        path.unlink()
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    files = {path.name: path.read_bytes() for path in sorted(out.iterdir())}
    return code, stdout.getvalue(), files, stderr.getvalue()


def _run(argv, out: Path):
    """(exit code, stdout, {file name: bytes}) of one CLI call; out is emptied first."""
    return _call(argv, out)[:3]


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """A good and a bad config file, a sweep CSV to read back, and the empty output directory."""
    root = tmp_path_factory.mktemp("flags")
    config = root / "config.json"
    config.write_text(json.dumps({"gamma": 2.0, "seed": 3}))
    bad_config = root / "bad.json"
    bad_config.write_text(json.dumps({"sigma": -1.0}))
    source = root / "source"
    source.mkdir()
    argv = ["sweep", "--seed", "5", "--k-list", "4", "--n-list", "20,40", "--trials", "10", "--out", str(source)]
    assert _run(argv, source)[0] == EXIT_OK
    out = root / "out"
    out.mkdir()
    return {"config": str(config), "bad_config": str(bad_config), "source": str(source / "sweep.csv"), "out": out}


_SWEEP_BASE = ["--seed", "1", "--k-list", "1", "--n-list", "20,40", "--trials", "10", "--out", "{out}"]
BASE = {
    "session": ["session", "--seed", "1", "--n-rounds", "20", "--out", "{out}"],
    "analyze": ["analyze", "--k", "64", "--n", "400"],
    "sweep": ["sweep", *_SWEEP_BASE],
    "frontier": ["frontier", *_SWEEP_BASE, "--target", "0.3"],
}

# (command, flag) -> (context, change): the flag is read if BASE + context and
# BASE + context + change differ in exit code, stdout or an output file's bytes.
# The config file sets gamma 2. --out is the one flag not listed: it names
# where the files go, and changes none of them.
_SWEEP_CASES = {
    "--config": ([], ["--config", "{config}"]),
    "--gamma": ([], ["--gamma", "3"]),
    "--d0": ([], ["--d0", "30"]),  # refuses the default d_be of 20 m
    "--seed": ([], ["--seed", "2"]),
    "--k-list": ([], ["--k-list", "2"]),
    "--n-list": ([], ["--n-list", "20,60"]),
    "--d-be-list": ([], ["--d-be-list", "35"]),
    "--sigma-list": ([], ["--sigma-list", "4"]),
    "--trials": ([], ["--trials", "20"]),
    "--rule": ([], ["--rule", "random-guess"]),
    "--metric": ([], ["--metric", "whole-key"]),
    "--geometry": (["--d-be-list", "30"], ["--geometry", "equidistant"]),
    "--budget": ([], ["--budget", "100"]),
}
CASES = {
    ("session", "--config"): (["--eve"], ["--config", "{config}"]),
    ("session", "--gamma"): (["--eve"], ["--gamma", "3"]),
    ("session", "--sigma"): (["--eve"], ["--sigma", "4"]),
    ("session", "--pl0"): (["--eve"], ["--pl0", "30"]),
    ("session", "--d0"): (["--eve"], ["--d0", "2"]),
    ("session", "--pt"): (["--eve"], ["--pt", "10"]),
    ("session", "--slot-duration"): ([], ["--slot-duration", "0.002"]),
    ("session", "--n-rounds"): ([], ["--n-rounds", "30"]),
    ("session", "--seed"): ([], ["--seed", "2"]),
    ("session", "--d-be"): (["--eve"], ["--d-be", "35"]),
    ("session", "--eve"): ([], ["--eve"]),
    ("session", "--rule"): (["--eve"], ["--rule", "random-guess"]),
    ("analyze", "--config"): ([], ["--config", "{config}"]),
    ("analyze", "--gamma"): ([], ["--gamma", "3"]),
    ("analyze", "--sigma"): ([], ["--sigma", "4"]),
    ("analyze", "--d0"): ([], ["--d0", "30"]),  # refuses the default d_be of 20 m
    ("analyze", "--k"): ([], ["--k", "32"]),
    ("analyze", "--target"): ([], ["--target", "0.9"]),
    ("analyze", "--pb"): ([], ["--pb", "0.5"]),
    ("analyze", "--d-be"): ([], ["--d-be", "35"]),
    ("analyze", "--n"): ([], ["--n", "500"]),
    **{("sweep", flag): case for flag, case in _SWEEP_CASES.items()},
    **{("frontier", flag): case for flag, case in _SWEEP_CASES.items()},
    ("frontier", "--target"): ([], ["--target", "0.5"]),
    ("frontier", "--column"): ([], ["--column", "p_analytic"]),
    ("frontier", "--from-csv"): ([], ["--from-csv", "{source}"]),
}


def test_parser_offers_each_command_only_its_flags():
    per_command = Counter(command for command, _ in OFFERED)
    assert per_command == {"session": 13, "analyze": 9, "sweep": 14, "frontier": 17}  # fixture: none


@pytest.mark.parametrize(
    "command, flag",
    sorted({pair for pair in OFFERED if pair[1] != "--out"} | set(CASES)),
)
def test_every_offered_flag_changes_the_outcome(inputs, command, flag):
    assert (command, flag) in OFFERED, f"{command} no longer offers {flag}"
    assert (command, flag) in CASES, f"{command} offers {flag}, and no case shows that it reads it"
    context, change = CASES[command, flag]
    base = [arg.format(**inputs) for arg in BASE[command] + context]
    moved = base + [arg.format(**inputs) for arg in change]
    assert _run(base, inputs["out"]) != _run(moved, inputs["out"])


# values off every flag's happy path; huge ones overflow an int64 or a float's range
_EDGES = ["nan", "inf", "-inf", "-1", "0", "1e308", "-1e308", "99999999999999999999", ""]
# values most flags accept, drawn as often, so that an example gets past its first bad value
_PLAIN = ["1", "2", "0.5", "20", "35", "1:3:1", "20,40"]
# these set the simulated slots, so they stay small: no example simulates more than 10^4 slots
_SIZE_FLAGS = ("--trials", "--n-rounds", "--budget")
_SMALL = ["-1", "0", "1", "10", "nan", ""]
# prepended, so that a drawn value wins; sweep and frontier are held to 10^4 slots
_PREFIX = {"session": ["--n-rounds", "20"], "sweep": ["--budget", "10000"], "frontier": ["--budget", "10000"]}
_PATHS = {
    "--config": ["{config}", "{bad_config}", "/nonexistent/config.json", ""],
    "--from-csv": ["{source}", "/nonexistent/sweep.csv", ""],
}


@st.composite
def _argvs(draw):
    """A command and up to four of its flags, --out aside, each with a value from the pools."""
    command = draw(st.sampled_from(["fixture", *BASE]))
    flags = sorted(flag for cmd, flag in OFFERED if cmd == command and flag != "--out")
    argv = [command, *_PREFIX.get(command, [])]
    for flag in draw(st.lists(st.sampled_from(flags), max_size=4, unique=True)) if flags else []:
        action = OFFERED[command, flag]
        if action.nargs == 0:
            argv.append(flag)
            continue
        if action.choices:
            values = st.sampled_from([*action.choices, ""])
        elif flag in _SIZE_FLAGS:
            values = st.sampled_from(_SMALL)
        elif flag in _PATHS:
            values = st.sampled_from(_PATHS[flag])
        else:
            values = st.one_of(st.sampled_from(_PLAIN), st.sampled_from(_EDGES))
        argv += [flag, draw(values)]
    return argv


@settings(max_examples=500, deadline=None, derandomize=True, database=None)
@given(argv=_argvs())
@example(argv=["analyze", "--d0", "2", "--n", "99999999999999999999"])  # ran over a minute before --n was capped
def test_fuzzed_argv_ends_in_a_documented_exit_code(inputs, argv):
    argv = [arg.format(**inputs) for arg in argv]
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp)
        if (argv[0], "--out") in OFFERED:
            argv += ["--out", str(out)]
        code, _, files, err = _call(argv, out)
        assert code in (EXIT_OK, EXIT_CONFIG, EXIT_INFEASIBLE, EXIT_IO), argv
        assert code == EXIT_OK or files == {}, argv
        if code != EXIT_OK:  # one machine-parseable line, whoever refused
            assert err.count("\n") == 1 and err.startswith("error: "), (argv, err)


# config-file values off the happy path, and plain ones drawn as often; json writes the
# non-finite floats as NaN and Infinity, which its reader takes back. No integer here
# but 10^400 is above 20, and 10^400 slots exceed the budget: no session simulates more
# than 20 slots.
_FILE_EDGES = [math.nan, math.inf, -math.inf, 10**400, 1e308, -1e308, -1, -0.5, 0, 0.0,
               True, False, None, "", "8", {"sigma": 1.0}, [], [1, 2]]
_FILE_PLAIN = [1, 2, 20, 0.5, 3.5, 1e-3]
_FILE_KEYS = [*CONFIG_FIELDS, "bogus", "n-rounds", "SIGMA"]


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(config=st.dictionaries(
    st.sampled_from(_FILE_KEYS),
    st.one_of(st.sampled_from(_FILE_PLAIN), st.sampled_from(_FILE_EDGES)),
    max_size=4,
))
@example(config={"sigma": 1e308})  # exits 0 with numpy overflow warnings: a known open defect
def test_fuzzed_config_file_ends_in_a_documented_exit_code(config):
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        path = root / "config.json"
        path.write_text(json.dumps(config))
        out = root / "out"
        out.mkdir()
        for argv in (
            ["session", "--eve", "--config", str(path), "--out", str(out)],
            ["analyze", "--k", "64", "--n", "400", "--config", str(path)],
        ):
            code, _, files, err = _call(argv, out)
            assert code in (EXIT_OK, EXIT_CONFIG, EXIT_INFEASIBLE, EXIT_IO), (argv, config)
            assert code == EXIT_OK or files == {}, (argv, config)
            if code != EXIT_OK:
                assert err.count("\n") == 1 and err.startswith("error: "), (argv, config, err)


@pytest.mark.parametrize("argv", [["sweep", "--sigma", "3"], ["analyze", "--tar", "0.9"]])
def test_abbreviated_flag_is_refused(tmp_path, capsys, argv):
    # argparse's default would read --sigma as --sigma-list and --tar as --target
    with pytest.raises(SystemExit) as exc:
        main([*argv, *(["--out", str(tmp_path)] if argv[0] == "sweep" else [])])
    assert exc.value.code == EXIT_CONFIG
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: usage: unrecognized arguments: ") and err.count("\n") == 1
    assert list(tmp_path.iterdir()) == []
