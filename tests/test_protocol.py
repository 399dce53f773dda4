import io
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fhkex.protocol import (
    Collision,
    RoundAction,
    RoundRecord,
    SessionTranscript,
    SharedBit,
    resolve_round,
    run_session,
    write_transcript_csv,
)
from fhkex.scenario import ScenarioConfig
from oracle import bit_columns

TOY_ALICE = [0, 0, 1, 0, 0, 1]
TOY_BOB = [0, 1, 0, 1, 0, 1]


def test_round_action_from_bit():
    a0 = RoundAction.from_bit(0)
    assert (a0.bit, a0.tx_freq, a0.rx_freq) == (0, "f0", "f1")
    a1 = RoundAction.from_bit(1)
    assert (a1.bit, a1.tx_freq, a1.rx_freq) == (1, "f1", "f0")


def test_round_action_invariants():
    with pytest.raises(ValueError):
        RoundAction(bit=0, tx_freq="f1", rx_freq="f0")
    with pytest.raises(ValueError):
        RoundAction(bit=1, tx_freq="f1", rx_freq="f1")
    with pytest.raises(ValueError):
        RoundAction(bit=2, tx_freq="f0", rx_freq="f1")


def test_resolve_round_cases():
    a0, a1 = RoundAction.from_bit(0), RoundAction.from_bit(1)
    assert resolve_round(a0, a0) == Collision(freq="f0")
    assert resolve_round(a1, a1) == Collision(freq="f1")
    assert resolve_round(a0, a1) == SharedBit(value=0, alice_freq="f0", bob_freq="f1")
    assert resolve_round(a1, a0) == SharedBit(value=1, alice_freq="f1", bob_freq="f0")


def test_shared_bit_requires_distinct_frequencies():
    with pytest.raises(ValueError):
        SharedBit(value=0, alice_freq="f0", bob_freq="f0")


def test_shared_bit_value_is_a_bit():
    with pytest.raises(ValueError, match="bit must be 0 or 1, got 2"):
        SharedBit(value=2, alice_freq="f0", bob_freq="f1")


def test_toy_session():
    t = run_session(ScenarioConfig(), alice_bits=TOY_ALICE, bob_bits=TOY_BOB)
    assert t.n_rounds == 6
    assert t.collision_slots() == [1, 5, 6]
    assert t.key_bits == (0, 1, 0)
    assert t.key_string == "010"
    assert t.alice_key_view() == t.bob_key_view() == t.key_bits


def test_single_colliding_round_yields_empty_key():
    t = run_session(ScenarioConfig(), alice_bits=[1], bob_bits=[1])
    assert t.key_bits == ()


def test_scripted_validation():
    cfg = ScenarioConfig()
    with pytest.raises(ValueError):
        run_session(cfg, alice_bits=[0, 1])
    with pytest.raises(ValueError):
        run_session(cfg, alice_bits=[0, 1], bob_bits=[0])


def test_session_deterministic_given_seed():
    cfg = ScenarioConfig(n_rounds=500, seed=77)
    assert run_session(cfg) == run_session(cfg)
    assert run_session(cfg) != run_session(cfg.replace(seed=78))


def test_generation_rate_near_half():
    cfg = ScenarioConfig(n_rounds=10**5, seed=31)
    t = run_session(cfg)
    assert len(t.key_bits) / cfg.n_rounds == pytest.approx(0.5, abs=0.005)


def test_collision_rate_within_five_standard_errors():
    n = 10**5
    t = run_session(ScenarioConfig(n_rounds=n, seed=13))
    collisions = len(t.collision_slots())
    se = math.sqrt(0.25 / n)
    assert abs(collisions / n - 0.5) <= 5 * se


def test_generated_bits_uniform_given_no_collision():
    t = run_session(ScenarioConfig(n_rounds=2 * 10**5, seed=17))
    bits = np.array(t.key_bits)
    assert bits.size > 10**5 * 0.9
    se = math.sqrt(0.25 / bits.size)
    assert abs(bits.mean() - 0.5) <= 5 * se


def test_round_frequency_occupancy():
    t = run_session(ScenarioConfig(n_rounds=2000, seed=3))
    for r in t.rounds:
        occupied = {r.alice.tx_freq, r.bob.tx_freq}
        if isinstance(r.outcome, Collision):
            assert len(occupied) == 1
        else:
            assert len(occupied) == 2


@given(st.lists(st.tuples(st.integers(0, 1), st.integers(0, 1)), min_size=1, max_size=200))
@settings(deadline=None, max_examples=50)
def test_key_agreement_on_any_script(pairs):
    alice = [a for a, _ in pairs]
    bob = [b for _, b in pairs]
    t = run_session(ScenarioConfig(), alice_bits=alice, bob_bits=bob)
    assert t.alice_key_view() == t.bob_key_view() == t.key_bits
    expected_bits = tuple(a for a, b in pairs if a != b)
    assert t.key_bits == expected_bits


def test_transcript_invariant_enforced():
    record = RoundRecord(
        slot=1,
        alice=RoundAction.from_bit(0),
        bob=RoundAction.from_bit(1),
        outcome=SharedBit(value=0, alice_freq="f0", bob_freq="f1"),
    )
    with pytest.raises(ValueError):
        SessionTranscript(rounds=(record,), key_bits=(1,))


def test_transcript_csv_format():
    t = run_session(ScenarioConfig(), alice_bits=TOY_ALICE, bob_bits=TOY_BOB)
    buf = io.StringIO()
    write_transcript_csv([np.column_stack(bit_columns(t))], buf, seed=42)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "# seed=42"
    assert lines[1] == "# key=010"
    assert lines[2] == "round,a_bit,b_bit,outcome,bit_value"
    assert lines[3] == "1,0,0,collision,"
    assert lines[4] == "2,0,1,bit,0"
    assert len(lines) == 3 + 6


def test_transcript_csv_roundtrip_bytes(tmp_path):
    cfg = ScenarioConfig(n_rounds=100, seed=9)
    path_a = tmp_path / "a.csv"
    path_b = tmp_path / "b.csv"
    write_transcript_csv([np.column_stack(bit_columns(run_session(cfg)))], str(path_a), seed=cfg.seed)
    write_transcript_csv([np.column_stack(bit_columns(run_session(cfg)))], str(path_b), seed=cfg.seed)
    assert path_a.read_bytes() == path_b.read_bytes()
