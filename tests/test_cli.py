import csv
import dataclasses
import itertools
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import fhkex
from fhkex import adversary, experiments, protocol
from fhkex.analysis import InfeasibleError, KeyRequest, privacy_radius
from fhkex.cli import (
    EXIT_CONFIG,
    EXIT_INFEASIBLE,
    EXIT_IO,
    EXIT_OK,
    _build_scenario,
    _parse_axis,
    build_parser,
    dispatch,
    main,
)
from fhkex.experiments import SLOT_BUDGET
from fhkex.scenario import CONFIG_FIELDS, ConfigError, ScenarioConfig, build_deployment
from oracle import trace_csv_text, transcript_text


def test_invocation_validates_subcommand():
    with pytest.raises(SystemExit) as exc:
        main(["teleport"])
    assert exc.value.code == EXIT_CONFIG


def test_dispatch_direct_invocation(tmp_path, capsys):
    args = build_parser().parse_args(
        ["session", "--d-be", "20", "--n-rounds", "12", "--out", str(tmp_path), "--seed", "4"]
    )
    assert dispatch(args) == EXIT_OK
    assert (tmp_path / "transcript.csv").exists()
    assert "key:" in capsys.readouterr().out


def test_fixture_prints_key_and_collisions(capsys):
    assert main(["fixture"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "collisions at slots: 1,5,6" in out
    assert "key: 010" in out
    assert "# key=010" in out


def test_analyze_with_direct_pb(capsys):
    assert main(["analyze", "--k", "128", "--pb", "0.5", "--target", "0.99"]) == EXIT_OK
    out = capsys.readouterr().out
    # oracle-exact minimum, within the documented +-3 of the nominal 300
    assert "minimum transmissions for k=128 at target 0.99: 295" in out


def test_analyze_channel_route(capsys):
    code = main(["analyze", "--k", "64", "--sigma", "8", "--d-be", "20", "--n", "400"])
    assert code == EXIT_OK
    out = capsys.readouterr().out
    assert "p_b = 0.0230877" in out
    assert "privacy radius at N=400: 267.677 m around (25.0, 0.0)" in out


@pytest.mark.parametrize("d0", ["1", "5", "30"])
def test_analyze_privacy_radius_not_below_reference_distance(capsys, d0):
    code = main(["analyze", "--d0", d0, "--k", "64", "--sigma", "8", "--d-be", "40", "--n", "1000000"])
    assert code == EXIT_OK
    line = capsys.readouterr().out.splitlines()[-1]
    assert line.startswith("privacy radius at N=1000000: ")
    assert float(line.split(": ")[1].split()[0]) >= float(d0)


def test_cli_import_leaves_scipy_out():
    src = str(Path(fhkex.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = "import sys, fhkex.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert result.stdout.strip() == "[]"


def test_analyze_infeasible_pb(capsys):
    assert main(["analyze", "--k", "8", "--pb", "0"]) == EXIT_INFEASIBLE
    err = capsys.readouterr().err
    assert err.startswith("error: infeasible:")
    assert err.count("\n") == 1


@pytest.mark.parametrize("args", [
    ["--k", "64", "--sigma", "0", "--d-be", "20"],  # p_b = 0: no minimum n
    ["--k", "64", "--sigma", "8", "--d-be", "20", "--n", "100"],  # no privacy radius
    ["--k", "8", "--pb", "0", "--n", "5"],
])
def test_analyze_infeasible_prints_nothing(capsys, args):
    # every line is computed before the first is printed
    assert main(["analyze", *args]) == EXIT_INFEASIBLE
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: infeasible:") and err.count("\n") == 1


@pytest.mark.parametrize("d_be", ["nan", "-5", "20"])
def test_analyze_refuses_adversary_distance_with_given_pb(capsys, d_be):
    # a given p_b leaves no use for the distance, so the pair is refused, not ignored
    with pytest.raises(SystemExit) as exc:
        main(["analyze", "--k", "8", "--pb", "0.5", "--d-be", d_be])
    assert exc.value.code == EXIT_CONFIG
    out, err = capsys.readouterr()
    assert out == ""
    assert "argument --d-be: not allowed with argument --pb" in err


def test_invalid_scenario_flag(capsys):
    assert main(["session", "--gamma", "0", "--seed", "1"]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("error: invalid-gamma:")


def test_unknown_flag_exits_two():
    with pytest.raises(SystemExit) as exc:
        main(["fixture", "--warp-speed"])
    assert exc.value.code == 2


@pytest.mark.parametrize("argv, message", [
    (["fixture", "--sigma", "-5"], "unrecognized arguments: --sigma -5"),
    (["sweep", "--trials", "x"], "argument --trials: invalid int value: 'x'"),
    (["frontier", "--rule", "foo"], "argument --rule: invalid choice: 'foo'"),
    (["teleport"], "argument command: invalid choice: 'teleport'"),
])
def test_parser_refusal_is_one_error_line(capsys, argv, message):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == EXIT_CONFIG
    out, err = capsys.readouterr()
    assert out == ""
    assert err.count("\n") == 1
    assert err.startswith(f"error: usage: {message}")


@pytest.mark.parametrize("n", ["0", "-3"])
def test_analyze_refuses_n_below_one_before_any_output(capsys, n):
    assert main(["analyze", "--k", "8", "--pb", "0.5", "--n", n]) == EXIT_CONFIG
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: invalid-value: --n must be >= 1, got {n}\n"


@pytest.mark.parametrize("n, tail", [("1", "0.5"), ("1000000000", "1")])
def test_analyze_takes_n_at_both_ends_of_its_range(capsys, n, tail):
    assert main(["analyze", "--k", "1", "--pb", "0.5", "--n", n]) == EXIT_OK
    assert capsys.readouterr().out.splitlines() == [
        "p_b = 0.5 (given)",
        "minimum transmissions for k=1 at target 0.99: 7",
        f"P(L >= 1 | N={n}) = {tail}",
    ]


def test_analyze_at_sigma_zero_prints_no_privacy_radius(capsys):
    # sigma 0 has no privacy radius, yet the command succeeds: at 1e300 m delta rounds
    # to 0 dB and p_b is 1/2, so the radius line is left out instead of failing the call
    with pytest.raises(InfeasibleError):
        privacy_radius(KeyRequest(64), 400, 0.0)
    assert main(["analyze", "--k", "64", "--sigma", "0", "--d-be", "1e300", "--n", "400"]) == EXIT_OK
    out, err = capsys.readouterr()
    assert out.splitlines()[1:] == [
        "delta = 0.0000 dB, p_g = 0, p_b = 0.5",
        "minimum transmissions for k=64 at target 0.99: 156",
        "P(L >= 64 | N=400) = 1",
    ]
    assert err == ""


def test_session_outputs_are_deterministic(tmp_path, capsys):
    args = ["session", "--seed", "5", "--n-rounds", "50", "--out", str(tmp_path)]
    assert main(args) == EXIT_OK
    first = (tmp_path / "transcript.csv").read_bytes()
    assert main(args) == EXIT_OK
    assert (tmp_path / "transcript.csv").read_bytes() == first
    out = capsys.readouterr().out
    assert "key:" in out


def test_session_with_eavesdropper(tmp_path, capsys):
    args = [
        "session", "--seed", "5", "--n-rounds", "60", "--d-be", "20",
        "--eve", "--out", str(tmp_path),
    ]
    assert main(args) == EXIT_OK
    assert (tmp_path / "transcript.csv").exists()
    assert (tmp_path / "eve_trace.csv").exists()
    assert "adversary (ml-pairwise)" in capsys.readouterr().out


def test_session_auto_seed_is_echoed(tmp_path, capsys):
    assert main(["session", "--n-rounds", "10", "--out", str(tmp_path)]) == EXIT_OK
    assert "auto-generated" in capsys.readouterr().out


def test_sweep_writes_csv_and_plot(tmp_path, capsys):
    args = [
        "sweep", "--seed", "9", "--k-list", "4", "--n-list", "20,40",
        "--d-be-list", "20", "--sigma-list", "8", "--trials", "50",
        "--out", str(tmp_path),
    ]
    assert main(args) == EXIT_OK
    sweep_csv = (tmp_path / "sweep.csv").read_bytes()
    assert (tmp_path / "sweep.gp").exists()
    assert sweep_csv.startswith(b"k,n,d_be,sigma,rule,metric,trials,p_hat,ci_lo,ci_hi,p_analytic\n")
    # same invocation, same bytes
    assert main(args) == EXIT_OK
    assert (tmp_path / "sweep.csv").read_bytes() == sweep_csv


def test_sweep_axis_range_syntax(tmp_path):
    args = [
        "sweep", "--seed", "2", "--k-list", "2", "--n-list", "10:30:10",
        "--d-be-list", "20", "--sigma-list", "8", "--trials", "10",
        "--out", str(tmp_path),
    ]
    assert main(args) == EXIT_OK
    text = (tmp_path / "sweep.csv").read_text()
    assert len(text.splitlines()) == 1 + 3  # header + n in {10, 20, 30}


def test_float_range_keeps_its_endpoint():
    assert _parse_axis("0.1:0.3:0.1", float) == (0.1, 0.2, 0.3)
    assert _parse_axis("0:1:0.3", float) == (0.0, 0.3, 0.6, pytest.approx(0.9))


# the last two would need terabytes if built; they are refused by their count
@pytest.mark.parametrize("text", ["1:inf:1", "nan:2:1", "0:1:0", "2:1:1", "1:2", "1:1e12:1", "0:1e300:1e-300"])
def test_bad_range_is_rejected(text):
    with pytest.raises(ConfigError):
        _parse_axis(text, float)


@given(start=st.integers(-10**6, 10**6), step=st.integers(1, 10**4),
       count=st.integers(1, 200), slack=st.integers(0, 10**4))
def test_int_range_roundtrip(start, step, count, slack):
    stop = start + step * (count - 1)
    expected = tuple(range(start, stop + 1, step))
    assert _parse_axis(f"{start}:{stop}:{step}", int) == expected
    assert _parse_axis(f"{start}:{stop + slack % step}:{step}", int) == expected


@given(start=st.integers(0, 10**5), step=st.integers(1, 10**3),
       count=st.integers(1, 60), digits=st.integers(0, 3))
def test_float_range_roundtrip(start, step, count, digits):
    # decimal ranges as a user types them, e.g. 0.1:0.3:0.1
    def typed(units):
        return f"{units}e-{digits}"

    stop = start + step * (count - 1)
    values = _parse_axis(f"{typed(start)}:{typed(stop)}:{typed(step)}", float)
    assert len(values) == count
    assert values[0] == float(typed(start)) and values[-1] == float(typed(stop))
    for i, value in enumerate(values):
        assert value == pytest.approx(float(typed(start + i * step)), rel=1e-12, abs=1e-12)


@pytest.mark.parametrize("flag, value", [("--n-list", "20,0"), ("--k-list", "-1")])
def test_sweep_rejects_out_of_range_axis(tmp_path, capsys, flag, value):
    args = [
        "sweep", "--seed", "1", "--k-list", "4", "--n-list", "20",
        "--d-be-list", "20", "--sigma-list", "8", "--trials", "10", "--out", str(tmp_path),
    ]
    args[args.index(flag) + 1] = value
    assert main(args) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not (tmp_path / "sweep.csv").exists()


def test_sweep_empty_grid_is_config_error(tmp_path, capsys):
    args = [
        "sweep", "--seed", "1", "--k-list", "", "--n-list", "20",
        "--d-be-list", "20", "--sigma-list", "8", "--out", str(tmp_path),
    ]
    assert main(args) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("error: empty-grid:")


def test_sweep_budget_exceeded(tmp_path, capsys):
    args = [
        "sweep", "--seed", "1", "--k-list", "4", "--n-list", "20",
        "--d-be-list", "20", "--sigma-list", "8", "--trials", "100",
        "--budget", "10", "--out", str(tmp_path),
    ]
    assert main(args) == EXIT_CONFIG


def test_frontier_from_sweep(tmp_path):
    args = [
        "frontier", "--seed", "4", "--k-list", "2", "--n-list", "8,16,32",
        "--d-be-list", "20,60", "--sigma-list", "8", "--trials", "200",
        "--target", "0.3", "--out", str(tmp_path),
    ]
    assert main(args) == EXIT_OK
    lines = (tmp_path / "frontier.csv").read_text().splitlines()
    assert lines[0] == "d_be,min_n,status"
    assert len(lines) == 3
    assert (tmp_path / "frontier.gp").exists()
    assert (tmp_path / "sweep.csv").exists()


def test_frontier_from_existing_csv(tmp_path):
    sweep_args = [
        "sweep", "--seed", "4", "--k-list", "2", "--n-list", "8,16",
        "--d-be-list", "20", "--sigma-list", "8", "--trials", "100",
        "--out", str(tmp_path),
    ]
    assert main(sweep_args) == EXIT_OK
    args = [
        "frontier", "--from-csv", str(tmp_path / "sweep.csv"),
        "--target", "0.3", "--column", "p_analytic", "--out", str(tmp_path),
    ]
    assert main(args) == EXIT_OK
    assert (tmp_path / "frontier.csv").exists()


@pytest.mark.parametrize("cut", [
    lambda fields: fields[:7],  # a row cut off after `trials`
    lambda fields: fields[:7] + ["x"] + fields[8:],  # a p_hat that is no number
])
def test_frontier_from_csv_rejects_bad_row(tmp_path, capsys, cut):
    sweep_args = [
        "sweep", "--seed", "4", "--k-list", "2", "--n-list", "8,16",
        "--d-be-list", "20", "--sigma-list", "8", "--trials", "10",
        "--out", str(tmp_path),
    ]
    assert main(sweep_args) == EXIT_OK
    csv_path = tmp_path / "sweep.csv"
    lines = csv_path.read_text().splitlines()
    lines[-1] = ",".join(cut(lines[-1].split(",")))
    csv_path.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    args = ["frontier", "--from-csv", str(csv_path), "--target", "0.3", "--out", str(tmp_path)]
    assert main(args) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("error: invalid-value: result CSV line 3:")
    assert err.count("\n") == 1
    assert not (tmp_path / "frontier.csv").exists()


def test_io_error_exit_code(tmp_path, capsys):
    missing = tmp_path / "no" / "such" / "dir"
    assert main(["session", "--seed", "1", "--n-rounds", "5", "--out", str(missing)]) == EXIT_IO
    assert capsys.readouterr().err.startswith("error: io-error:")


@pytest.mark.parametrize("args", [
    ["session", "--n-rounds", "5", "--eve"],
    ["sweep", "--k-list", "4", "--n-list", "8", "--trials", "10"],
    ["frontier", "--k-list", "4", "--n-list", "8", "--trials", "10"],
    ["frontier", "--from-csv", "{source}"],
])
def test_missing_output_dir_fails_before_any_work(tmp_path, capsys, monkeypatch, args):
    source = tmp_path / "source.csv"
    source.write_text("k,n,d_be,sigma,rule,metric,trials,p_hat,ci_lo,ci_hi,p_analytic\n")

    def refuse(*args, **kwargs):
        raise AssertionError("drew or read before checking the output directory")

    for name in ("draw_slot_bits", "sweep", "read_result_csv"):
        monkeypatch.setattr(experiments, name, refuse)
    missing = tmp_path / "no" / "such" / "dir"
    # no --seed: an auto-generated seed would be echoed to stdout
    argv = [arg.format(source=source) for arg in args] + ["--out", str(missing)]
    assert main(argv) == EXIT_IO
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: io-error:") and err.count("\n") == 1
    assert list(tmp_path.iterdir()) == [source]


def test_output_dir_env_var(tmp_path, monkeypatch):
    monkeypatch.setenv("FHKEX_OUTPUT_DIR", str(tmp_path))
    assert main(["session", "--seed", "3", "--n-rounds", "5"]) == EXIT_OK
    assert (tmp_path / "transcript.csv").exists()


def test_config_file_and_flag_override(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"sigma": 2.0, "n_rounds": 25, "seed": 6}))
    args = ["session", "--config", str(cfg_path), "--out", str(tmp_path)]
    assert main(args) == EXIT_OK
    text = (tmp_path / "transcript.csv").read_text()
    assert text.splitlines()[0] == "# seed=6"
    assert len(text.splitlines()) == 2 + 1 + 25  # two comments, header, 25 slots

    # the flag wins over the file value
    assert main(args + ["--n-rounds", "10"]) == EXIT_OK
    assert len((tmp_path / "transcript.csv").read_text().splitlines()) == 2 + 1 + 10


# one value per ScenarioConfig field for the config file, and another for its flag
_FILE_VALUES = dict(
    gamma=3.0, sigma=2.0, pl0=30.0, d0=2.0, pt=10.0, slot_duration=0.002, n_rounds=25, seed=6
)
_FLAG_VALUES = dict(
    gamma=4.0, sigma=5.0, pl0=50.0, d0=3.0, pt=15.0, slot_duration=0.005, n_rounds=10, seed=9
)


@pytest.mark.parametrize("field", dataclasses.fields(ScenarioConfig), ids=lambda f: f.name)
def test_every_config_flag_overrides_the_file(tmp_path, field):
    assert set(_FILE_VALUES) == set(_FLAG_VALUES) == set(CONFIG_FIELDS)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(_FILE_VALUES))
    flag = "--" + field.name.replace("_", "-")
    args = build_parser().parse_args(
        ["session", "--config", str(cfg_path), flag, str(_FLAG_VALUES[field.name])]
    )
    cfg = _build_scenario(args)
    assert getattr(cfg, field.name) == _FLAG_VALUES[field.name]
    # every other field keeps its file value
    assert dataclasses.replace(cfg, **{field.name: _FILE_VALUES[field.name]}) == ScenarioConfig(
        **_FILE_VALUES
    )


def test_config_file_unknown_key(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"bogus": 1}))
    assert main(["session", "--config", str(cfg_path)]) == EXIT_CONFIG
    assert capsys.readouterr().err.startswith("error: unknown-config-key:")


@pytest.mark.parametrize("field", ["gamma", "sigma", "pl0", "d0", "pt", "slot_duration"])
def test_config_number_too_large_for_float(tmp_path, capsys, field):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({field: 10**400}))
    assert main(["session", "--config", str(cfg_path), "--out", str(tmp_path)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith(f"error: invalid-{field.replace('_', '-')}:")
    assert err.count("\n") == 1


@pytest.mark.parametrize("args", [["--d-be", "0.5"], ["--d0", "2", "--d-be", "1.5"]])
def test_analyze_rejects_adversary_below_reference_distance(capsys, args):
    assert main(["analyze", "--k", "64", *args]) == EXIT_CONFIG
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: invalid-value:")
    assert err.count("\n") == 1


@pytest.mark.parametrize("command", [
    ["session", "--seed", "1", "--n-rounds", "20", "--eve", "--d-be", "0.1", "--out", "{out}"],
    ["sweep", "--seed", "1", "--n-list", "20", "--trials", "5", "--d-be-list", "0.1", "--out", "{out}"],
    ["analyze", "--k", "64", "--d-be", "0.1"],  # analyze writes no file, so takes no --out
])
def test_below_reference_distance_names_the_typed_distance(tmp_path, capsys, command):
    assert main([arg.format(out=tmp_path) for arg in command]) == EXIT_CONFIG
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: invalid-value: adversary distance 0.1 m below reference distance 1.0 m\n"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("d_be", ["inf", "nan"])
def test_analyze_rejects_non_finite_adversary_distance(capsys, d_be):
    assert main(["analyze", "--k", "64", "--d-be", d_be, "--n", "400"]) == EXIT_CONFIG
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: invalid-dbe: d_be must be finite, got {d_be}\n"


def _oracle_session_files(cfg, rule, d_be, dest):
    """transcript.csv and eve_trace.csv from the per-round engine, seeded as the CLI seeds."""
    rng = np.random.default_rng(cfg.seed)
    transcript = protocol.run_session(cfg, rng)
    observations, guesses = adversary.simulate_eavesdropper(
        transcript, *build_deployment(d_be), cfg, rng, rule=rule
    )
    (dest / "transcript.csv").write_text(transcript_text(transcript, cfg.seed))
    (dest / "eve_trace.csv").write_text(trace_csv_text(transcript, observations, guesses))


@pytest.mark.parametrize("n", [1, 6, 2000])
@pytest.mark.parametrize("sigma", [0.0, 8.0])
@pytest.mark.parametrize("rule", adversary.RULES)
def test_session_files_match_per_round_oracle(tmp_path, capsys, rule, sigma, n):
    cli_dir, oracle_dir = tmp_path / "cli", tmp_path / "oracle"
    cli_dir.mkdir()
    oracle_dir.mkdir()
    args = [
        "session", "--seed", "2024", "--sigma", str(sigma), "--n-rounds", str(n),
        "--d-be", "35", "--eve", "--rule", rule, "--out", str(cli_dir),
    ]
    assert main(args) == EXIT_OK
    _oracle_session_files(ScenarioConfig(sigma=sigma, n_rounds=n, seed=2024), rule, 35.0, oracle_dir)
    for name in ("transcript.csv", "eve_trace.csv"):
        assert (cli_dir / name).read_bytes() == (oracle_dir / name).read_bytes()


@pytest.mark.parametrize("args", [["--d-be", "0.5"], ["--d0", "30", "--d-be", "20"]])
def test_session_rejects_adversary_below_reference_distance(tmp_path, capsys, args):
    code = main(["session", "--seed", "1", "--n-rounds", "20", "--eve", *args, "--out", str(tmp_path)])
    assert code == EXIT_CONFIG
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: invalid-value:")
    assert err.count("\n") == 1
    assert list(tmp_path.iterdir()) == []


def test_session_accepts_adversary_at_reference_distance(tmp_path, capsys):
    # the typed distance is the modeled one, so d_be = d0 is admitted
    args = ["session", "--seed", "1", "--n-rounds", "20", "--eve", "--d0", "0.7", "--d-be", "0.7"]
    assert main([*args, "--out", str(tmp_path)]) == EXIT_OK
    assert capsys.readouterr().err == ""
    assert sorted(p.name for p in tmp_path.iterdir()) == ["eve_trace.csv", "transcript.csv"]
    rows = (tmp_path / "eve_trace.csv").read_text().splitlines()
    assert len(rows) == 21


def _numbers(path):
    """Every non-empty field of a CSV that reads as a float, header aside."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    numbers = []
    for field in itertools.chain.from_iterable(rows):
        try:
            numbers.append(float(field))
        except ValueError:
            pass  # an empty field, a rule or metric name, a decision
    return numbers


# the corners of the config domain, and the adversary distance at its least over
# the least d0 the ratio check admits, and at its largest over d0 = 1 m
@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("d0, d_be", [("1e-306", "1e-306"), ("1", "1e308")])
@pytest.mark.parametrize("gamma", ["5e-324", "100"])
@pytest.mark.parametrize("sigma", ["0", "1000"])
def test_domain_corners_stay_finite(tmp_path, capsys, d0, d_be, gamma, sigma):
    channel = ["--gamma", gamma, "--d0", d0]
    for pl0, pt in itertools.product(["-1e6", "1e6"], repeat=2):
        argv = [
            "session", "--seed", "1", "--n-rounds", "64", "--eve", "--d-be", d_be, "--sigma", sigma,
            f"--pl0={pl0}", f"--pt={pt}", *channel, "--out", str(tmp_path),
        ]
        assert main(argv) == EXIT_OK, argv
        samples = _numbers(tmp_path / "eve_trace.csv")
        assert samples and all(math.isfinite(x) for x in samples), argv
    argv = [
        "sweep", "--seed", "1", "--k-list", "0,8", "--n-list", "64", "--trials", "5",
        "--d-be-list", d_be, "--sigma-list", sigma, *channel, "--out", str(tmp_path),
    ]
    assert main(argv) == EXIT_OK
    assert all(math.isfinite(x) for x in _numbers(tmp_path / "sweep.csv"))
    argv = ["analyze", "--k", "8", "--n", "400", "--d-be", d_be, "--sigma", sigma, *channel]
    assert main(argv) in (EXIT_OK, EXIT_INFEASIBLE)
    capsys.readouterr()


@pytest.mark.parametrize("command", [
    ["session", "--seed", "1", "--n-rounds", "20", "--eve", "--d-be", "{d_be}", "--out", "{out}"],
    ["sweep", "--seed", "1", "--n-list", "20", "--trials", "5", "--d-be-list", "{d_be}", "--out", "{out}"],
    ["analyze", "--k", "64", "--d-be", "{d_be}"],
])
@pytest.mark.parametrize("d0, d_be", [("1e-307", "1e-307"), ("0.5", "1e308")])
def test_distance_over_reference_that_overflows_is_refused(tmp_path, capsys, command, d0, d_be):
    # (d_be + 50) / d0 overflows: the path loss would be infinite
    argv = [arg.format(d_be=d_be, out=tmp_path) for arg in command] + ["--d0", d0]
    assert main(argv) == EXIT_CONFIG
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: invalid-value:") and "overflows a float" in err
    assert err.count("\n") == 1
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("seeded", [True, False])
@pytest.mark.parametrize("via_config", [False, True])
def test_session_rejects_rounds_over_slot_budget(tmp_path, capsys, seeded, via_config):
    # refused before the seed is echoed or a single bit is drawn
    rounds = SLOT_BUDGET + 1
    if via_config:
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"n_rounds": rounds, "seed": 1}))
        args = ["--config", str(config)]
    else:
        args = ["--n-rounds", str(rounds)]
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    args += ["--seed", "1"] if seeded else []
    assert main(["session", *args, "--eve", "--out", str(out_dir)]) == EXIT_CONFIG
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: invalid-value:") and err.count("\n") == 1
    assert list(out_dir.iterdir()) == []


def test_axis_range_is_counted_before_it_is_built():
    assert _parse_axis("1:10:1", int, limit=10) == tuple(range(1, 11))
    for text, cast in [("1:10:1", int), ("0:0.9:0.1", float)]:
        with pytest.raises(ConfigError, match="more than 9 values") as info:
            _parse_axis(text, cast, limit=9)
        assert info.value.code == "invalid-axis"


@pytest.mark.parametrize("flag, value", [
    ("--n-list", "1:1000000000000:1"), ("--k-list", "0:1000000000000:1"),
    ("--d-be-list", "20:1e15:1"), ("--sigma-list", "0:1e308:1e-308"), ("--k-list", "0:10:1"),
])
def test_sweep_refuses_range_longer_than_budget(tmp_path, capsys, flag, value):
    args = [
        "sweep", "--seed", "1", "--k-list", "4", "--n-list", "5", "--d-be-list", "20",
        "--sigma-list", "8", "--trials", "1", "--budget", "10", "--out", str(tmp_path),
    ]
    args[args.index(flag) + 1] = value
    assert main(args) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("error: invalid-axis:") and err.count("\n") == 1
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("target", ["2", "0", "1", "nan", "-0.5"])
@pytest.mark.parametrize("from_csv", [False, True])
def test_frontier_rejects_target_outside_unit_interval(tmp_path, capsys, target, from_csv):
    source = tmp_path / "source.csv"
    source.write_text("k,n,d_be,sigma,rule,metric,trials,p_hat,ci_lo,ci_hi,p_analytic\n")
    out = tmp_path / "out"
    out.mkdir()
    if from_csv:
        args = ["frontier", "--from-csv", str(source)]
    else:
        args = ["frontier", "--seed", "1", "--k-list", "2", "--n-list", "8", "--trials", "10"]
    assert main([*args, "--target", target, "--out", str(out)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("error: invalid-value: target must lie in (0, 1)")
    assert err.count("\n") == 1
    assert list(out.iterdir()) == []


def test_parser_is_built_once():
    assert build_parser() is build_parser()


@pytest.mark.parametrize("command", ["sweep", "frontier"])
@pytest.mark.parametrize("sigmas", ["8,inf", "nan", "-3"])
@pytest.mark.parametrize("seeded", [True, False])
def test_sweep_sigma_axis_checked_before_any_work(tmp_path, capsys, monkeypatch, command, sigmas, seeded):
    # the one scenario rule refuses the axis before the seed is echoed or a bit is drawn
    def refuse(*args, **kwargs):
        raise AssertionError("simulated despite a bad sigma axis")

    monkeypatch.setattr(experiments, "slice_successes", refuse)
    seed = ["--seed", "1"] if seeded else []
    args = [
        command, *seed, "--sigma-list", sigmas, "--n-list", "600", "--k-list", "64",
        "--trials", "20000", "--out", str(tmp_path),
    ]
    assert main(args) == EXIT_CONFIG
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: invalid-sigma:") and err.count("\n") == 1
    if sigmas != "-3":  # inf and nan are named as non-finite, not as out of range
        assert f"sigma must be finite, got {sigmas.split(',')[-1]}" in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("axis", [["--k-list", "8,16"], ["--sigma-list", "0,8"]])
@pytest.mark.parametrize("seeded", [True, False])
def test_frontier_refuses_several_slices_before_any_work(tmp_path, capsys, monkeypatch, axis, seeded):
    def refuse(*args, **kwargs):
        raise AssertionError("simulated a sweep that frontier cannot use")

    monkeypatch.setattr(experiments, "slice_successes", refuse)
    seed = ["--seed", "1"] if seeded else []
    args = ["frontier", *seed, "--n-list", "20,40", "--trials", "10", *axis, "--out", str(tmp_path)]
    assert main(args) == EXIT_CONFIG
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: invalid-value: frontier needs a single (k, sigma, rule, metric) slice, got 2\n"
    assert list(tmp_path.iterdir()) == []
