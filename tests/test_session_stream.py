"""`fhkex session` drawn and written in blocks of slots: pinned bytes, block-size invariance.

The hashes were taken from the per-slot csv.writer implementation, before
the session was drawn and written in blocks of slots; any byte the block
writers change fails here.
"""

import contextlib
import hashlib
import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fhkex import adversary, experiments, protocol
from fhkex.cli import EXIT_OK, main
from fhkex.scenario import ScenarioConfig

# (rule, sigma, n) -> SHA-256 of transcript.csv, eve_trace.csv and stdout of
# `fhkex session --seed 2024 --d-be 35 --eve --out .`; n = 40000 spans three blocks
SESSION_SHA256 = {
    ("ml-pairwise", 0.0, 1): (
        "9f1dc92eb60710b31ad396d7a432d0dd09648be3d27ac2ef0d36770c51ef0277",
        "be27273d846e8103cd2244ab96d1cb15ea06e0d9af66814adaad6d1de33dba4a",
        "598d90ca2b9159b42a438197999edde9ed96c97d48d8f91e864e7c6f03a584b8",
    ),
    ("ml-pairwise", 0.0, 6): (
        "1cbc3f22714262fca1fea44661ddf8834750010d67d372ff5d105d29c5145dec",
        "393f6052466a3b060f376fc2b310b8e471de6d6966659ede81462f05df46dcae",
        "923e69b9651252775eef48a2a24696820d4057e776cb4d55ceb5152012d515df",
    ),
    ("ml-pairwise", 0.0, 2000): (
        "6087efd0b470c71f724f22d01230749105bec2054adbd428cd9ada5b612ebea5",
        "00c507d37ce52bf36862efd78ca624e90db7adf1b8cbfd5003da882cd54fec32",
        "fbc523674c4e94b4613e2e7b4210ea7bbf144f0fc0a87f2f5a995bb5b2d2701b",
    ),
    ("ml-pairwise", 0.0, 40000): (
        "fee43b64e7ac28f0c14061255824b400ed2a4ebffc1234d42659d48e4fc21976",
        "1e06d7c60a3423b073fa104f3c0053a728e04f9ce7af77c8a1846f7972f4c309",
        "06062c6cf52db6c7969d4e1e2ee633f30c58f290db4c6b2f6e4e8df5b201881f",
    ),
    ("ml-pairwise", 8.0, 1): (
        "9f1dc92eb60710b31ad396d7a432d0dd09648be3d27ac2ef0d36770c51ef0277",
        "de4cf6a6797d7d17d7a37646b8bff767e79e6af29f310d426feaed80d64ef1e5",
        "598d90ca2b9159b42a438197999edde9ed96c97d48d8f91e864e7c6f03a584b8",
    ),
    ("ml-pairwise", 8.0, 6): (
        "1cbc3f22714262fca1fea44661ddf8834750010d67d372ff5d105d29c5145dec",
        "e97e19a8f21aad86c47c597eb00b565d4f0015b5d4ca2cb2b25d759202b33bfe",
        "923e69b9651252775eef48a2a24696820d4057e776cb4d55ceb5152012d515df",
    ),
    ("ml-pairwise", 8.0, 2000): (
        "6087efd0b470c71f724f22d01230749105bec2054adbd428cd9ada5b612ebea5",
        "88f4bb207da874854613d0b5ad0a83ab8eba09956708e6d9fc988528bf417978",
        "08764ee28e08fd611b7b684173138ed591cc4a3bd866f491dbc14851033d1668",
    ),
    ("ml-pairwise", 8.0, 40000): (
        "fee43b64e7ac28f0c14061255824b400ed2a4ebffc1234d42659d48e4fc21976",
        "5fcfb26f3cdb247869ebf05f494fbff7125c5eb5054532f1a5b5e7a0c2be1ea6",
        "b014567f5b61eb4d289f71d82121ea304ea7997058c5ccbdd99b4d6c6b33c98b",
    ),
    ("random-guess", 0.0, 1): (
        "9f1dc92eb60710b31ad396d7a432d0dd09648be3d27ac2ef0d36770c51ef0277",
        "062344a0eaa610299df8f9637ea91eb10dcf5a40e30d4a37aeebd257603ccc1c",
        "e63ab337d709240a68a3ad1e8e67c7050abcdcfa4f9e756b223b124c3b8e9fee",
    ),
    ("random-guess", 0.0, 6): (
        "1cbc3f22714262fca1fea44661ddf8834750010d67d372ff5d105d29c5145dec",
        "842e053a5a2562bb45bec6fde14a41fcbb0071c9b0589923c645e116062ff919",
        "161d435bd80280b650d1c2c629aedf69db4dc70b10ed1b04839d27c16c235a55",
    ),
    ("random-guess", 0.0, 2000): (
        "6087efd0b470c71f724f22d01230749105bec2054adbd428cd9ada5b612ebea5",
        "d0cc06dcc37621ceb05bce85d529783b075466e7b66b6b3c3844ab8b3c5b99a4",
        "fc25957775478eda53d59b6f4b2cbc496ee6535040983783d9280bb4fff95251",
    ),
    ("random-guess", 0.0, 40000): (
        "fee43b64e7ac28f0c14061255824b400ed2a4ebffc1234d42659d48e4fc21976",
        "d126b1d77e0b34380a6c3d918025cbb820c5b09ce61174109b60f4123cd39be4",
        "2588f661cab66bca0dd59d59a94d8e93c8f5bda330bab141b7da6503807038e5",
    ),
    ("random-guess", 8.0, 1): (
        "9f1dc92eb60710b31ad396d7a432d0dd09648be3d27ac2ef0d36770c51ef0277",
        "1e59e86ca0631e912403063b4e3dbc231932d8486a4bced1539f43f4986edcc4",
        "e63ab337d709240a68a3ad1e8e67c7050abcdcfa4f9e756b223b124c3b8e9fee",
    ),
    ("random-guess", 8.0, 6): (
        "1cbc3f22714262fca1fea44661ddf8834750010d67d372ff5d105d29c5145dec",
        "bcfafc211c0e88c5c9a7563bd565692cf834d1773fd29951e63751670395931a",
        "161d435bd80280b650d1c2c629aedf69db4dc70b10ed1b04839d27c16c235a55",
    ),
    ("random-guess", 8.0, 2000): (
        "6087efd0b470c71f724f22d01230749105bec2054adbd428cd9ada5b612ebea5",
        "69d7e0ca122fc6f9a9c801f255614008d2dcb1f43550268320e0f74d49099e79",
        "fc25957775478eda53d59b6f4b2cbc496ee6535040983783d9280bb4fff95251",
    ),
    ("random-guess", 8.0, 40000): (
        "fee43b64e7ac28f0c14061255824b400ed2a4ebffc1234d42659d48e4fc21976",
        "f91f77296064cfa0dac8e6b9a25c29e775041e6e98422ef17e971a2b54e31c22",
        "2588f661cab66bca0dd59d59a94d8e93c8f5bda330bab141b7da6503807038e5",
    ),
}

FIXTURE_STDOUT = (
    "# key=010\n"
    "round,a_bit,b_bit,outcome,bit_value\n"
    "1,0,0,collision,\n"
    "2,0,1,bit,0\n"
    "3,1,0,bit,1\n"
    "4,0,1,bit,0\n"
    "5,0,0,collision,\n"
    "6,1,1,collision,\n"
    "collisions at slots: 1,5,6\n"
    "key: 010\n"
)


def run_cli(argv):
    """Exit code and stdout of one in-process CLI call."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    return code, buf.getvalue()


@pytest.mark.parametrize("rule, sigma, n", sorted(SESSION_SHA256))
def test_session_bytes_are_frozen(tmp_path, monkeypatch, rule, sigma, n):
    monkeypatch.chdir(tmp_path)
    code, stdout = run_cli([
        "session", "--seed", "2024", "--sigma", str(sigma), "--n-rounds", str(n),
        "--d-be", "35", "--eve", "--rule", rule, "--out", ".",
    ])
    assert code == EXIT_OK
    digests = tuple(
        hashlib.sha256(data).hexdigest()
        for data in ((tmp_path / "transcript.csv").read_bytes(),
                     (tmp_path / "eve_trace.csv").read_bytes(), stdout.encode())
    )
    assert digests == SESSION_SHA256[rule, sigma, n]


def test_fixture_output_is_frozen():
    assert run_cli(["fixture"]) == (EXIT_OK, FIXTURE_STDOUT)


def _session_outputs(tmp_path, rule):
    code, stdout = run_cli([
        "session", "--seed", "7", "--n-rounds", "50", "--eve", "--rule", rule, "--out", str(tmp_path),
    ])
    assert code == EXIT_OK
    return stdout, (tmp_path / "transcript.csv").read_bytes(), (tmp_path / "eve_trace.csv").read_bytes()


@pytest.mark.parametrize("block", [1, 7])
@pytest.mark.parametrize("rule", adversary.RULES)
def test_session_bytes_do_not_depend_on_block_size(tmp_path, monkeypatch, rule, block):
    one_block = _session_outputs(tmp_path, rule)
    monkeypatch.setattr(experiments, "BLOCK_SLOTS", block)
    assert _session_outputs(tmp_path, rule) == one_block


def _blocked_session(rule, d_ae, d_be):
    """Session joined from its blocks, and both CSVs written block by block."""
    cfg = ScenarioConfig(sigma=8.0)
    rng = np.random.default_rng(11)
    blocks = experiments.draw_slot_bits(rng, 50)
    transcript, trace = io.StringIO(), io.StringIO()
    protocol.write_transcript_csv(blocks, transcript, seed=11)
    judged = list(experiments.session_blocks(rng, blocks, d_ae, d_be, cfg, rule))
    adversary.write_adversary_trace_csv(judged, trace)
    session = experiments.Session(*map(np.concatenate, zip(*judged)))
    return session, transcript.getvalue(), trace.getvalue()


@pytest.mark.parametrize("block", [1, 7])
@pytest.mark.parametrize("rule", adversary.RULES)
@pytest.mark.parametrize("d_ae, d_be", [(85.0, 35.0), (40.0, 40.0)])
def test_session_blocks_do_not_depend_on_block_size(monkeypatch, rule, d_ae, d_be, block):
    session, *files = _blocked_session(rule, d_ae, d_be)
    if rule == adversary.RULE_ML and d_ae == d_be:
        # Eve equidistant: every ML call is a tie, which abstains
        assert session.abstain.all() and "abstain" in files[1]
    monkeypatch.setattr(experiments, "BLOCK_SLOTS", block)
    blocked, *blocked_files = _blocked_session(rule, d_ae, d_be)
    assert blocked_files == files
    for ours, theirs in zip(blocked, session):
        assert np.array_equal(ours, theirs)


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(0, 2**64 - 1),
    cuts=st.lists(st.tuples(st.integers(0, 40), st.integers(0, 40), st.integers(0, 40)), max_size=5),
)
def test_draws_in_blocks_equal_one_call(seed, cuts):
    # a session's three draws in stream order: int32 slot bits (against the
    # int64 stream of 2n interleaved bits), shadowing pairs, int64 guesses
    slots, pairs, guesses = (sum(sizes) for sizes in zip((0, 0, 0), *cuts))
    rng = np.random.default_rng(seed)
    whole = (
        rng.integers(0, 2, size=2 * slots).reshape(-1, 2),
        rng.standard_normal((pairs, 2)),
        rng.integers(0, 2, size=guesses),
    )
    rng = np.random.default_rng(seed)
    blocks = (
        [rng.integers(0, 2, size=(m, 2), dtype=np.int32) for m, _, _ in cuts],
        [rng.standard_normal((m, 2)) for _, m, _ in cuts],
        [rng.integers(0, 2, size=m) for _, _, m in cuts],
    )
    for one_call, parts in zip(whole, blocks):
        assert np.array_equal(np.concatenate([one_call[:0], *parts]), one_call)
