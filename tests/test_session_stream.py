"""`fhkex session` drawn and written in blocks of slots: pinned bytes, block-size invariance.

The hashes were taken when the draws last changed (one PCG64 stream per
purpose, coins and decisions read as raw words), from the CLI's output once it had matched the
per-round oracle byte for byte and did not depend on the block size; any byte
a later change moves fails here.
"""

import contextlib
import csv
import hashlib
import io
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fhkex import adversary, experiments, protocol
from fhkex.cli import EXIT_OK, main
from fhkex.experiments import session_streams
from fhkex.scenario import ScenarioConfig

# (rule, sigma, n) -> SHA-256 of transcript.csv, eve_trace.csv and stdout of
# `fhkex session --seed 2024 --d-be 35 --eve --out .`; n = 40000 spans three blocks
SESSION_SHA256 = {
    ("ml-pairwise", 0.0, 1): (
        "a5e4df1bf601313d78b74f95ff5ea9919f55ed752524ed5d336d955cc3622b4b",
        "35e1c7f685ce9d1882f08c53d2918a64b0eacc0c84831a0927eaedad4c7baf71",
        "6c3c6caa0384d1e41cdcf3e087f5cd9ec4cea629473fb78e8749a5d97a6d76bc",
    ),
    ("ml-pairwise", 0.0, 6): (
        "a77adb52dd058308241a03881819c3694269971e32c1a4fb2414fbc6e2fe3b1d",
        "22964cb04a9250ff4f393bb284c9c3d7a55ba21e97ca6f9556e04d3723db19db",
        "03e12511db0339ee68c9521b844859bddc4e93cd0bccf2ea3f5a82eeb9b5854f",
    ),
    ("ml-pairwise", 0.0, 2000): (
        "4f6e16dc651624bf8e9604770d62bb66f66a676799732571baa7e4d53a9e3745",
        "59c8e0e6b6e22af2224a653d43343e7e6ea156e5b8cebb597d6f8ce7f0c564e6",
        "d4da89dcbaded93586fa68ae15dadb6b8cebaa42806c4543ba6696e4ad2f27eb",
    ),
    ("ml-pairwise", 0.0, 40000): (
        "bea7ecd8a334de88a3a69145ff1c548ea3d4b85276ff6cb447f254f6fc6da811",
        "7516958d747bb04c107d0ad6ea6fe4b9acbf5b341a53446c1cc163439e04b271",
        "9234752fef5cd22d2cbbbab507a8aba2e0262fcbb59609df1714c412646a2f35",
    ),
    ("ml-pairwise", 8.0, 1): (
        "a5e4df1bf601313d78b74f95ff5ea9919f55ed752524ed5d336d955cc3622b4b",
        "35e1c7f685ce9d1882f08c53d2918a64b0eacc0c84831a0927eaedad4c7baf71",
        "6c3c6caa0384d1e41cdcf3e087f5cd9ec4cea629473fb78e8749a5d97a6d76bc",
    ),
    ("ml-pairwise", 8.0, 6): (
        "a77adb52dd058308241a03881819c3694269971e32c1a4fb2414fbc6e2fe3b1d",
        "79fb4825f5e421a17e075e28f4e7f41256156707d996d4ff5cade8582f4c3ee4",
        "d19bd90da8859d636c6d31e17ae22b4c323eeedb1378d374b58b0955ae0eff63",
    ),
    ("ml-pairwise", 8.0, 2000): (
        "4f6e16dc651624bf8e9604770d62bb66f66a676799732571baa7e4d53a9e3745",
        "8f68b5eb3b4bd0646c5e8c25bb5a75539eff93e6302bd0f70e47bc5cdc646476",
        "76a1da68806115f0e306bd35b0472e7fddf390c0aa25fdde77d9e0a8ccb567d3",
    ),
    ("ml-pairwise", 8.0, 40000): (
        "bea7ecd8a334de88a3a69145ff1c548ea3d4b85276ff6cb447f254f6fc6da811",
        "0aff989ca6db205c76669c8e10c672795d103406545febbf33433c0c2d9ac88e",
        "984a74b2e117045316b19519858d6f57d2aa09b613a977b33cae7ed3555869a3",
    ),
    ("random-guess", 0.0, 1): (
        "a5e4df1bf601313d78b74f95ff5ea9919f55ed752524ed5d336d955cc3622b4b",
        "35e1c7f685ce9d1882f08c53d2918a64b0eacc0c84831a0927eaedad4c7baf71",
        "748659b3d9b1662c0dc0d690cadddbe51d6d2978ffb672e2bccca2014f5f560b",
    ),
    ("random-guess", 0.0, 6): (
        "a77adb52dd058308241a03881819c3694269971e32c1a4fb2414fbc6e2fe3b1d",
        "404dd4ea6612ea595a9c0fe73cf61f102d5ab6b76c1a4bb8b044b04089d7c85e",
        "2f804646bd3b88df2ca3c704ade4a2cb1e661a5a62bbb108bd91ab4ab291cbc7",
    ),
    ("random-guess", 0.0, 2000): (
        "4f6e16dc651624bf8e9604770d62bb66f66a676799732571baa7e4d53a9e3745",
        "a2676c96cde01c7a28ad7370dfb6caf332a90240c870bc27b2bf3d68b7889176",
        "2d417c6f4a65a1ae084102fe6cd2819b57ad569c4ce17abb77465f57edcc573f",
    ),
    ("random-guess", 0.0, 40000): (
        "bea7ecd8a334de88a3a69145ff1c548ea3d4b85276ff6cb447f254f6fc6da811",
        "50ef613fdf1aea7f10637d9e232057ae780731b055fc9070ed01932647dd88d1",
        "44a4080f34bd4067a2484c0813878537b06f68a4c2389df831e848eddd0c813c",
    ),
    ("random-guess", 8.0, 1): (
        "a5e4df1bf601313d78b74f95ff5ea9919f55ed752524ed5d336d955cc3622b4b",
        "35e1c7f685ce9d1882f08c53d2918a64b0eacc0c84831a0927eaedad4c7baf71",
        "748659b3d9b1662c0dc0d690cadddbe51d6d2978ffb672e2bccca2014f5f560b",
    ),
    ("random-guess", 8.0, 6): (
        "a77adb52dd058308241a03881819c3694269971e32c1a4fb2414fbc6e2fe3b1d",
        "de2eda40c1013f374bd3191de6134dcb1072e9b7746bf7e5377d74d4531ff4b6",
        "2f804646bd3b88df2ca3c704ade4a2cb1e661a5a62bbb108bd91ab4ab291cbc7",
    ),
    ("random-guess", 8.0, 2000): (
        "4f6e16dc651624bf8e9604770d62bb66f66a676799732571baa7e4d53a9e3745",
        "65ae64bf67de312f99940026a90a66def92abb4c645de7954a2f6da3a203a79c",
        "2d417c6f4a65a1ae084102fe6cd2819b57ad569c4ce17abb77465f57edcc573f",
    ),
    ("random-guess", 8.0, 40000): (
        "bea7ecd8a334de88a3a69145ff1c548ea3d4b85276ff6cb447f254f6fc6da811",
        "d3e13eff6b10c6184e91c5cbb421124af628db6c540b6fabc0b589f37a3dca2b",
        "44a4080f34bd4067a2484c0813878537b06f68a4c2389df831e848eddd0c813c",
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


@pytest.mark.parametrize("block", [1, 7, 16, 48])
def test_slot_bits_are_one_call_cut_at_block_size(monkeypatch, block):
    monkeypatch.setattr(experiments, "BLOCK_SLOTS", block)
    blocks = list(experiments.draw_slot_bits(protocol.stream((5,), protocol.COINS), 101))
    assert [len(b) for b in blocks] == [block] * (101 // block) + [101 % block] * (101 % block > 0)
    one_call = protocol.draw_coins(protocol.stream((5,), protocol.COINS), 202).reshape(-1, 2)
    assert np.array_equal(np.concatenate(blocks), one_call)


@pytest.mark.parametrize("block", [1, 7, 16, 48])
@pytest.mark.parametrize("rule", adversary.RULES)
def test_session_bytes_do_not_depend_on_block_size(tmp_path, monkeypatch, rule, block):
    one_block = _session_outputs(tmp_path, rule)
    monkeypatch.setattr(experiments, "BLOCK_SLOTS", block)
    assert _session_outputs(tmp_path, rule) == one_block


def _blocked_session(rule, d_ae, d_be):
    """Session joined from its blocks, and both CSVs written block by block."""
    cfg = ScenarioConfig(sigma=8.0)
    coins, decisions, normals = session_streams(11)
    blocks = list(experiments.draw_slot_bits(coins, 50))
    transcript, trace = io.StringIO(), io.StringIO()
    protocol.write_transcript_csv(blocks, transcript, seed=11)
    judged = list(experiments.session_blocks(decisions, normals, blocks, d_ae, d_be, cfg, rule))
    adversary.write_adversary_trace_csv(judged, trace)
    session = experiments.Session(*map(np.concatenate, zip(*judged)))
    return session, transcript.getvalue(), trace.getvalue()


@pytest.mark.parametrize("block", [1, 7, 16, 48])
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


def _split(items, cuts):
    """items cut into consecutive blocks at the given offsets (clipped; empty blocks kept)."""
    bounds = [0, *sorted(min(c, len(items)) for c in cuts), len(items)]
    return [items[a:b] for a, b in zip(bounds, bounds[1:])]


def _csv_text(rows):
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerows(rows)
    return out.getvalue()


#: Samples whose repr switches notation, beside any float hypothesis draws
_NOTATION_SWITCHES = (
    1e16, 1e-05, -0.0, 5e-324, 9999999999999998.0, 0.0001, 1e22, 1.7976931348623157e308,
)

_SLOTS = st.lists(
    st.tuples(
        st.integers(0, 1),  # Alice's bit
        st.integers(0, 1),  # Bob's bit
        st.one_of(st.sampled_from(_NOTATION_SWITCHES), st.floats()),  # Alice's sample
        st.one_of(st.sampled_from(_NOTATION_SWITCHES), st.floats()),  # Bob's sample
        st.sampled_from(("wrong", "abstain", "correct")),
    ),
    max_size=40,
)
_CUTS = st.lists(st.integers(0, 40), max_size=6)

# collision-only and bit-only blocks, and abstain rows for both values
_EDGE_SLOTS = [
    (0, 0, 0.0, 0.0, "wrong"), (1, 1, 0.0, 0.0, "correct"),
    (0, 1, 1e16, -0.0, "abstain"), (1, 0, 1e-05, 5e-324, "abstain"),
    (1, 0, -0.0, 1e16, "correct"), (0, 1, 5e-324, 1e-05, "wrong"),
]


@settings(max_examples=200, deadline=None)
@given(slots=_SLOTS, cuts=_CUTS)
@example(slots=_EDGE_SLOTS, cuts=[2])
@example(slots=_EDGE_SLOTS, cuts=[0, 0, 6])
def test_trace_writer_matches_per_row_reference(slots, cuts):
    rows = [("round", "rss_f0", "rss_f1", "decision", "correct")]
    for slot, (a_bit, b_bit, alice, bob, verdict) in enumerate(slots, start=1):
        if a_bit == b_bit:
            rows.append((slot, "", "", "", ""))
            continue
        f0, f1 = (alice, bob) if a_bit == 0 else (bob, alice)  # Alice transmits on f_(her bit)
        decision = {"correct": a_bit, "abstain": "abstain", "wrong": 1 - a_bit}[verdict]
        rows.append((slot, repr(f0), repr(f1), decision, int(verdict == "correct")))
    blocks = []
    for part in _split(slots, cuts):
        bit_slots = [s for s in part if s[0] != s[1]]
        blocks.append((
            np.array([s[0] for s in part], dtype=np.uint8),
            np.array([s[1] for s in part], dtype=np.uint8),
            np.array([s[2:4] for s in bit_slots], dtype=float).reshape(-1, 2),
            np.array([s[4] == "correct" for s in bit_slots], dtype=bool),
            np.array([s[4] == "abstain" for s in bit_slots], dtype=bool),
        ))
    trace = io.StringIO()
    guessed = adversary.write_adversary_trace_csv(blocks, trace)
    assert trace.getvalue() == _csv_text(rows)
    assert guessed == sum(s[0] != s[1] and s[4] == "correct" for s in slots)


@settings(max_examples=200, deadline=None)
@given(slots=_SLOTS, cuts=_CUTS, seed=st.none() | st.integers(0, 2**63 - 1))
@example(slots=_EDGE_SLOTS, cuts=[2], seed=None)
def test_transcript_writer_matches_per_row_reference(slots, cuts, seed):
    bits = [s[:2] for s in slots]
    key = "".join(str(a) for a, b in bits if a != b)
    rows = [("round", "a_bit", "b_bit", "outcome", "bit_value")]
    rows += [
        (slot, a, b, "bit" if a != b else "collision", a if a != b else "")
        for slot, (a, b) in enumerate(bits, start=1)
    ]
    blocks = [np.array(part, dtype=np.uint8).reshape(-1, 2) for part in _split(bits, cuts)]
    transcript = io.StringIO()
    generated = protocol.write_transcript_csv(blocks, transcript, seed=seed)
    header = "" if seed is None else f"# seed={seed}\n"
    assert transcript.getvalue() == f"{header}# key={key}\n" + _csv_text(rows)
    assert generated == len(key)


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(0, 2**64 - 1),
    block=st.integers(1, 40),
    slots=st.integers(0, 200),
    cuts=st.lists(st.tuples(st.integers(0, 40), st.integers(0, 40)), max_size=5),
)
def test_draws_in_blocks_equal_one_call(seed, block, slots, cuts):
    # a session's draws, each from its own stream: its coins in blocks of any
    # size (against one call of 2n coins), and per block its decision words
    # and its shadowing normals
    coins, decisions, trace = session_streams(seed)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(experiments, "BLOCK_SLOTS", block)
        blocks = list(experiments.draw_slot_bits(coins, slots))
    parts = [decisions.random_raw(m) for m, _ in cuts], [trace.standard_normal((m, 2)) for _, m in cuts]
    words, pairs = (sum(sizes) for sizes in zip((0, 0), *cuts))
    coins, decisions, trace = session_streams(seed)
    whole = (
        protocol.draw_coins(coins, 2 * slots).reshape(-1, 2),
        decisions.random_raw(words),
        trace.standard_normal((pairs, 2)),
    )
    for one_call, blocked in zip(whole, (blocks, *parts)):
        assert np.array_equal(np.concatenate([one_call[:0], *blocked]), one_call)


class _Scripted:
    """Stand-in for a session's decision stream and trace Generator: its one
    random_raw call returns the scripted decision words, its one
    standard_normal call the scripted u."""

    def __init__(self, words, u):
        self.words, self.u = words, u

    def random_raw(self, size):
        assert size == self.words.size
        return self.words.copy()

    def standard_normal(self, size):
        assert size == self.u.size
        return self.u.copy()


def _trace_calls(text, bits, delta):
    """Per bit row of eve_trace.csv: (A - B, the row's decision, Alice's bit)."""
    rows = list(csv.reader(io.StringIO(text)))[1:]
    calls = []
    for (f0, f1, decision), (a_bit, b_bit) in zip((row[1:4] for row in rows), bits.tolist()):
        if a_bit != b_bit:
            # Alice transmits on f_(her bit)
            alice, bob = (float(f0), float(f1)) if a_bit == 0 else (float(f1), float(f0))
            calls.append((alice - bob, decision, a_bit))
    return calls


def _call(a_bit, score):
    """The trace's decision for a score (A - B) * delta: a negative one names the bit."""
    return "abstain" if score == 0.0 else str(a_bit if score < 0.0 else 1 - a_bit)


def _scripted_trace(words, cfg, d_ae, d_be):
    """eve_trace.csv of one block whose decision words are scripted, with its
    bit columns: a bit in every slot, Alice's alternating from 0, and u
    scripted at several scales."""
    u = np.random.default_rng(3).standard_normal(words.size) * 10.0 ** np.arange(-3, 3).repeat(15)[:words.size]
    a_bits = np.arange(words.size) % 2
    bits = np.column_stack((a_bits, 1 - a_bits)).astype(np.uint8)
    trace = io.StringIO()
    scripted = _Scripted(words, u)
    blocks = experiments.session_blocks(scripted, scripted, [bits], d_ae, d_be, cfg)
    adversary.write_adversary_trace_csv(blocks, trace)
    return trace.getvalue(), bits


def _words(steps, low=0):
    """Decision words whose uniforms U = (w >> 11) 2^-53 are steps * 2^-53, with the given 11 low bits."""
    return np.array([step << 11 | low for step in steps], dtype=np.uint64)


def test_trace_near_ties_follow_v():
    # the decision word's uniform U calls the bit: the decision column names
    # the bit iff U lies on delta's side of the tie Phi(-delta / (sigma sqrt 2)),
    # even where the samples written from (u, v = Phi^-1(U)) round to the
    # other sign; off near-ties (|A - B| > 1e-9) the written (A - B) * delta
    # agrees with it. Words 40 steps of 2^-53 either side of the tie, their
    # low bits set, then spread ones
    cfg = ScenarioConfig(sigma=8.0)
    d_ae, d_be = 85.0, 35.0
    delta = 10.0 * cfg.gamma * math.log10(d_ae / d_be)
    tie = 0.5 * math.erfc(delta / (2.0 * cfg.sigma))
    at_tie = math.floor(tie * 2.0**53)
    spread = [int(x * 2.0**53) for x in (0.02, 0.3, 0.5, 0.7, 0.98)]
    words = np.concatenate([_words(range(at_tie - 40, at_tie + 41), 2**11 - 1), _words(spread)])
    draws = (words >> 11) * 2.0**-53
    text, bits = _scripted_trace(words, cfg, d_ae, d_be)
    calls = _trace_calls(text, bits, delta)
    near = 0
    for (gap, decision, a_bit), draw in zip(calls, draws.tolist()):
        assert decision == ("abstain" if draw == tie else str(a_bit if draw > tie else 1 - a_bit))
        if abs(gap) > 1e-9:
            assert decision == _call(a_bit, gap * delta)
        else:
            near += 1
    assert near > 0  # the case exercises near-ties


@pytest.mark.parametrize("sigma", [0.5, 8.0])
def test_trace_samples_are_finite_at_the_extreme_draws(sigma):
    # U = 0, which a decision word below 2^11 gives, is read as U_FLOOR: v stays
    # finite, and at sigma 0.5, where the tie lies below U_FLOOR, U = 0 still
    # names the bit as v's written gap does. The words give U = 0, 0, 2^-53,
    # 1/2, 1 - 2^-53 and 1 - 2^-53
    cfg = ScenarioConfig(sigma=sigma)
    d_ae, d_be = 85.0, 35.0
    delta = 10.0 * cfg.gamma * math.log10(d_ae / d_be)
    words = np.array([0, 2**11 - 1, 2**11, 2**63, 2**64 - 2**11, 2**64 - 1], dtype=np.uint64)
    text, bits = _scripted_trace(words, cfg, d_ae, d_be)
    calls = _trace_calls(text, bits, delta)
    assert len(calls) == words.size
    for gap, decision, a_bit in calls:
        assert math.isfinite(gap) and abs(gap) > 1e-9
        assert decision == _call(a_bit, gap * delta)
    rows = list(csv.reader(io.StringIO(text)))[1:]
    assert all(math.isfinite(float(x)) for row in rows for x in row[1:3])


@pytest.mark.parametrize("sigma", [0.0, 8.0])
def test_trace_samples_agree_with_decisions_off_near_ties(tmp_path, sigma):
    code, _ = run_cli([
        "session", "--seed", "2024", "--sigma", str(sigma), "--n-rounds", "20000",
        "--d-be", "35", "--eve", "--out", str(tmp_path),
    ])
    assert code == EXIT_OK
    text = (tmp_path / "transcript.csv").read_text()
    bits = np.array([row[1:3] for row in csv.reader(io.StringIO(text)) if row[0].isdigit()], dtype=int)
    delta = 10.0 * 3.5 * math.log10(85.0 / 35.0)
    calls = _trace_calls((tmp_path / "eve_trace.csv").read_text(), bits, delta)
    assert len(calls) == int((bits[:, 0] != bits[:, 1]).sum())
    for gap, decision, a_bit in calls:
        if abs(gap) > 1e-9:
            assert decision == _call(a_bit, gap * delta)


@pytest.mark.parametrize("rule", adversary.RULES)
def test_shadowing_rebuilt_from_u_v_is_independent_unit_normal(rule):
    # z_a and z_b read back from a session's samples: zero mean, unit
    # variance, uncorrelated, each within 4 standard errors over 10^5 bits
    cfg = ScenarioConfig(sigma=8.0)
    d_ae, d_be = 85.0, 35.0
    session = experiments.simulate_session_counts(7, 210_000, d_ae, d_be, cfg, rule)
    m = 10**5
    assert session.samples.shape[0] >= m
    pl = np.array([cfg.pl0 + 10.0 * cfg.gamma * math.log10(d / cfg.d0) for d in (d_ae, d_be)])
    z = (cfg.pt - pl - session.samples[:m]) / cfg.sigma
    se = 1.0 / math.sqrt(m)
    assert np.all(np.abs(z.mean(axis=0)) <= 4 * se)
    assert np.all(np.abs(z.var(axis=0) - 1.0) <= 4 * math.sqrt(2.0) * se)
    assert abs(np.corrcoef(z[:, 0], z[:, 1])[0, 1]) <= 4 * se
