"""`fhkex session` drawn and written in blocks of slots: pinned bytes, block-size invariance.

The hashes were taken when the draws last changed (coins from rng.bytes, one
uniform per ML decision), from the CLI's output once it had matched the
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
from fhkex.scenario import ScenarioConfig

# (rule, sigma, n) -> SHA-256 of transcript.csv, eve_trace.csv and stdout of
# `fhkex session --seed 2024 --d-be 35 --eve --out .`; n = 40000 spans three blocks
SESSION_SHA256 = {
    ("ml-pairwise", 0.0, 1): (
        "69149e419bcb886f7a1ca5f6cd6be5f01ad84a13eff5d1e8be05b5d8efa20a56",
        "35e1c7f685ce9d1882f08c53d2918a64b0eacc0c84831a0927eaedad4c7baf71",
        "6c3c6caa0384d1e41cdcf3e087f5cd9ec4cea629473fb78e8749a5d97a6d76bc",
    ),
    ("ml-pairwise", 0.0, 6): (
        "c458015f2119e78b4f3fcbda49c0c47bb6c35ef3de65ac635254a78273d8c9c0",
        "75e5abd7336fbd9e186a9bee728dd26b673a97b7f36cabc9d680120cc9798e52",
        "4d1833572a7956f22da5d6d5269bafc9f82c711fb0dcff388f44bd1e155dfbb5",
    ),
    ("ml-pairwise", 0.0, 2000): (
        "f0bb5193d4078f9ef904ebe51ac4dd5d811d9d534528baa137278ebc96947550",
        "efbc1de054a20361f4d0f069fe165277ad6f16fd691ac01979f77c255cca7022",
        "96d04ef063af60a2fb3561fc67558d672139e8a21621512678c8f292a86cbeea",
    ),
    ("ml-pairwise", 0.0, 40000): (
        "a7223d5f2631cbc608fc6945efa00c8140edeb6dfea5c5e2ee4aae634ccf6e3f",
        "a513fe4db89fdc7c49ad2839d769053a530253a4e4e8515505453786f3295cb4",
        "a37274261dd93f13c66d1e62bbb09dbf5ce50e606b9f524c531aceed7186e6aa",
    ),
    ("ml-pairwise", 8.0, 1): (
        "69149e419bcb886f7a1ca5f6cd6be5f01ad84a13eff5d1e8be05b5d8efa20a56",
        "35e1c7f685ce9d1882f08c53d2918a64b0eacc0c84831a0927eaedad4c7baf71",
        "6c3c6caa0384d1e41cdcf3e087f5cd9ec4cea629473fb78e8749a5d97a6d76bc",
    ),
    ("ml-pairwise", 8.0, 6): (
        "c458015f2119e78b4f3fcbda49c0c47bb6c35ef3de65ac635254a78273d8c9c0",
        "d774e479d551ee480647d70dc39343d2e61b4a09a6a5f626fba44008fd8f2412",
        "4d1833572a7956f22da5d6d5269bafc9f82c711fb0dcff388f44bd1e155dfbb5",
    ),
    ("ml-pairwise", 8.0, 2000): (
        "f0bb5193d4078f9ef904ebe51ac4dd5d811d9d534528baa137278ebc96947550",
        "11a899a6fc24a196b83888167d8453cf52314ecba883f131f4a4386e576a8410",
        "611533931064560b3977607c3c5639d9ca2f07853d883a9160e30835e104c210",
    ),
    ("ml-pairwise", 8.0, 40000): (
        "a7223d5f2631cbc608fc6945efa00c8140edeb6dfea5c5e2ee4aae634ccf6e3f",
        "dadf3fcea4f2019957999f4efa95531a976fb3b90b83ff044b48aa3607a8f58d",
        "c7371a05c9f58cfc670f4a09eba86482f4f0479a4509ed424c088e2fb1e141ad",
    ),
    ("random-guess", 0.0, 1): (
        "69149e419bcb886f7a1ca5f6cd6be5f01ad84a13eff5d1e8be05b5d8efa20a56",
        "35e1c7f685ce9d1882f08c53d2918a64b0eacc0c84831a0927eaedad4c7baf71",
        "748659b3d9b1662c0dc0d690cadddbe51d6d2978ffb672e2bccca2014f5f560b",
    ),
    ("random-guess", 0.0, 6): (
        "c458015f2119e78b4f3fcbda49c0c47bb6c35ef3de65ac635254a78273d8c9c0",
        "49ba9cacb380d90ffd2900df702f4b5ea0d6b3d6cd161a17a470aff8a6ceda07",
        "0dee377ddb15f39acc1156a66925612c34e4b30fbc089c6e1bae63d620fb2ab1",
    ),
    ("random-guess", 0.0, 2000): (
        "f0bb5193d4078f9ef904ebe51ac4dd5d811d9d534528baa137278ebc96947550",
        "0f5247bdbc98dfcc315eb7bf708204ca5963d454387bc72ecc85db8609e6ca0e",
        "ca0ad5f463cd00af57c9026e4b922ba6c650eac04ff6a84aeb202c08bcc35901",
    ),
    ("random-guess", 0.0, 40000): (
        "a7223d5f2631cbc608fc6945efa00c8140edeb6dfea5c5e2ee4aae634ccf6e3f",
        "63436c862b2b73a0821e41d1dba724e3730c5127e77e3f49159e3099b7469b26",
        "65d394d85cbe395be1ff9ed400957eb3c5c0a98c0786758b17ecc20e53de2240",
    ),
    ("random-guess", 8.0, 1): (
        "69149e419bcb886f7a1ca5f6cd6be5f01ad84a13eff5d1e8be05b5d8efa20a56",
        "35e1c7f685ce9d1882f08c53d2918a64b0eacc0c84831a0927eaedad4c7baf71",
        "748659b3d9b1662c0dc0d690cadddbe51d6d2978ffb672e2bccca2014f5f560b",
    ),
    ("random-guess", 8.0, 6): (
        "c458015f2119e78b4f3fcbda49c0c47bb6c35ef3de65ac635254a78273d8c9c0",
        "044c17daf0a32dc6e58bd94ae34fcbee3344bf18ce01a54301cec1e53aded3c1",
        "0dee377ddb15f39acc1156a66925612c34e4b30fbc089c6e1bae63d620fb2ab1",
    ),
    ("random-guess", 8.0, 2000): (
        "f0bb5193d4078f9ef904ebe51ac4dd5d811d9d534528baa137278ebc96947550",
        "dc9d068319f4b208a4ace9484e29693472c76f76b0b9fba38c7c22ab5d9e0e46",
        "ca0ad5f463cd00af57c9026e4b922ba6c650eac04ff6a84aeb202c08bcc35901",
    ),
    ("random-guess", 8.0, 40000): (
        "a7223d5f2631cbc608fc6945efa00c8140edeb6dfea5c5e2ee4aae634ccf6e3f",
        "45f72b075aa619b91a60403d332a3cff2af27b6a4d4dca2f6f809249a6d46c17",
        "65d394d85cbe395be1ff9ed400957eb3c5c0a98c0786758b17ecc20e53de2240",
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
    blocks = experiments.draw_slot_bits(np.random.default_rng(5), 101)
    assert [len(b) for b in blocks] == [block] * (101 // block) + [101 % block] * (101 % block > 0)
    one_call = protocol.draw_coins(np.random.default_rng(5), 202).reshape(-1, 2)
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
    rng = np.random.default_rng(11)
    blocks = experiments.draw_slot_bits(rng, 50)
    transcript, trace = io.StringIO(), io.StringIO()
    protocol.write_transcript_csv(blocks, transcript, seed=11)
    judged = list(experiments.session_blocks(rng, blocks, d_ae, d_be, cfg, rule))
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
    cuts=st.lists(st.tuples(*[st.integers(0, 40)] * 4), max_size=5),
    tail=st.integers(0, 40),
)
def test_draws_in_blocks_equal_one_call(seed, cuts, tail):
    # a session's draws in stream order: its coins, in blocks of whole 16-slot
    # words plus any tail (against one call of 2n coins), ML decision
    # uniforms, shadowing normals, int64 guesses
    words, uniforms, pairs, guesses = (sum(sizes) for sizes in zip((0, 0, 0, 0), *cuts))
    slots = 16 * words + tail
    rng = np.random.default_rng(seed)
    whole = (
        protocol.draw_coins(rng, 2 * slots).reshape(-1, 2),
        rng.random(uniforms),
        rng.standard_normal((pairs, 2)),
        rng.integers(0, 2, size=guesses),
    )
    rng = np.random.default_rng(seed)
    blocks = (
        [protocol.draw_coins(rng, 2 * m).reshape(-1, 2) for m in [16 * w for w, *_ in cuts] + [tail]],
        [rng.random(m) for _, m, _, _ in cuts],
        [rng.standard_normal((m, 2)) for _, _, m, _ in cuts],
        [rng.integers(0, 2, size=m) for *_, m in cuts],
    )
    for one_call, parts in zip(whole, blocks):
        assert np.array_equal(np.concatenate([one_call[:0], *parts]), one_call)


class _ScriptedDraws:
    """Generator stand-in: each random or standard_normal call returns the next scripted array.

    Its bit generator is the list of arrays still to come, so a copy made the
    way session_blocks makes one (the same type on a copy of the bit
    generator) replays them independently.
    """

    def __init__(self, draws):
        self.bit_generator = draws

    def _next(self, size):
        draw = self.bit_generator.pop(0)
        assert draw.shape == (size,)
        return draw.copy()

    random = standard_normal = _next


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


def _scripted_trace(draws, cfg, d_ae, d_be):
    """eve_trace.csv of one block whose decision draws are scripted, with its
    bit columns: a bit in every slot, Alice's alternating from 0, and u
    scripted at several scales."""
    u = np.random.default_rng(3).standard_normal(draws.size) * 10.0 ** np.arange(-3, 3).repeat(15)[:draws.size]
    a_bits = np.arange(draws.size) % 2
    bits = np.column_stack((a_bits, 1 - a_bits)).astype(np.uint8)
    trace = io.StringIO()
    # rng draws the decisions; session_blocks' copy of it skips them, then draws u
    blocks = experiments.session_blocks(_ScriptedDraws([draws, u]), [bits], d_ae, d_be, cfg)
    adversary.write_adversary_trace_csv(blocks, trace)
    return trace.getvalue(), bits


def test_trace_near_ties_follow_v():
    # the decision draw U's call is authoritative: the decision column names
    # the bit iff U lies on delta's side of the tie Phi(-delta / (sigma sqrt 2)),
    # even where the samples written from (u, v = Phi^-1(U)) round to the
    # other sign; off near-ties (|A - B| > 1e-9) the written (A - B) * delta
    # agrees with it
    cfg = ScenarioConfig(sigma=8.0)
    d_ae, d_be = 85.0, 35.0
    delta = 10.0 * cfg.gamma * math.log10(d_ae / d_be)
    tie = 0.5 * math.erfc(delta / (2.0 * cfg.sigma))
    draws = np.array([tie + k * math.ulp(tie) for k in range(-40, 41)] + [0.02, 0.3, 0.5, 0.7, 0.98])
    text, bits = _scripted_trace(draws, cfg, d_ae, d_be)
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
    # U = 0, which Generator.random can return, is read as U_FLOOR: v stays
    # finite, and at sigma 0.5, where the tie lies below U_FLOOR, U = 0 still
    # names the bit as v's written gap does
    cfg = ScenarioConfig(sigma=sigma)
    d_ae, d_be = 85.0, 35.0
    delta = 10.0 * cfg.gamma * math.log10(d_ae / d_be)
    draws = np.array([0.0, 0.0, 2.0**-53, 0.5, 1.0 - 2.0**-53, 1.0 - 2.0**-53])
    text, bits = _scripted_trace(draws, cfg, d_ae, d_be)
    calls = _trace_calls(text, bits, delta)
    assert len(calls) == draws.size
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
    session = experiments.simulate_session_counts(np.random.default_rng(7), 210_000, d_ae, d_be, cfg, rule)
    m = 10**5
    assert session.samples.shape[0] >= m
    pl = np.array([cfg.pl0 + 10.0 * cfg.gamma * math.log10(d / cfg.d0) for d in (d_ae, d_be)])
    z = (cfg.pt - pl - session.samples[:m]) / cfg.sigma
    se = 1.0 / math.sqrt(m)
    assert np.all(np.abs(z.mean(axis=0)) <= 4 * se)
    assert np.all(np.abs(z.var(axis=0) - 1.0) <= 4 * math.sqrt(2.0) * se)
    assert abs(np.corrcoef(z[:, 0], z[:, 1])[0, 1]) <= 4 * se
