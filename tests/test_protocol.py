import io
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fhkex.protocol import COINS, DECISIONS, draw_coins, run_session, stream, write_transcript_csv
from fhkex.scenario import ScenarioConfig
from oracle import bit_columns

TOY_ALICE = [0, 0, 1, 0, 0, 1]
TOY_BOB = [0, 1, 0, 1, 0, 1]


def _bytes_coins(rng, count):
    """count coins straight from rng.bytes of whole 64-bit words, each byte least significant bit first."""
    raw = rng.bytes(8 * -(-count // 64)) if count else b""
    return np.unpackbits(np.frombuffer(raw, dtype=np.uint8), count=count, bitorder="little")


def _streams(seed):
    """A coin stream, its twin read through Generator.bytes, and another purpose's stream."""
    return (
        stream((seed,), COINS), np.random.Generator(stream((seed,), COINS)),
        np.random.Generator(stream((seed,), DECISIONS)),
    )


# Draws made before the coins, then whether they leave a spare 32-bit half held
# on another purpose's stream, which the coins never read: a 32-bit draw holds
# the high half of PCG64's 64-bit word, a second takes it, and a uniform reads
# a whole word and leaves a spare as it is. Coins read their own stream's
# whole words: 129 coins three of them, 65 coins two
_PREFIXES = {
    "none": ([], 0),
    "spare": ([("integers", 1)], 1),
    "spare-taken": ([("integers", 2)], 0),
    "uniforms-over-spare": ([("integers", 3), ("random", 2)], 1),
    "odd-coin-words": ([("coins", 129)], 0),
    "even-coin-words": ([("integers", 1), ("coins", 65)], 1),
}


def _draw(coins, other, kind, size):
    if kind == "coins":
        return draw_coins(coins, size)
    return other.integers(0, 2, size=size) if kind == "integers" else other.random(size)


@pytest.mark.parametrize("prefix", sorted(_PREFIXES))
@pytest.mark.parametrize("count", [0, 1, 31, 32, 33, 63, 64, 65, 32_400])
def test_coins_are_the_bits_of_rng_bytes(prefix, count):
    # draw_coins reads whole raw words of its stream: the bits of rng.bytes of
    # those words on a twin, whatever another purpose's stream holds
    seed = 7919 * count + len(prefix)
    coins, twin, other = _streams(seed)
    draws, spare = _PREFIXES[prefix]
    for kind, size in draws:
        drawn = _draw(coins, other, kind, size)
        if kind == "coins":
            assert np.array_equal(drawn, _bytes_coins(twin, size))
    assert other.bit_generator.state["has_uint32"] == spare
    for step in range(3):  # coins, with a 32-bit draw and a uniform of the other stream between them
        drawn = draw_coins(coins, count)
        assert drawn.dtype == np.uint8 and np.array_equal(drawn, _bytes_coins(twin, count)), step
        other.integers(0, 2)
        assert draw_coins(coins, count + step).tolist() == _bytes_coins(twin, count + step).tolist()
        other.random()
    assert coins.random_raw(3).tolist() == twin.bit_generator.random_raw(3).tolist()


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(0, 2**64 - 1),
    draws=st.lists(
        st.tuples(st.sampled_from(["coins", "integers", "random"]), st.integers(0, 200)), max_size=8
    ),
)
def test_coins_keep_the_stream_of_rng_bytes_among_other_draws(seed, draws):
    coins, twin, other = _streams(seed)
    for kind, size in draws:
        drawn = _draw(coins, other, kind, size)
        if kind == "coins":
            assert np.array_equal(drawn, _bytes_coins(twin, size)), size
    assert coins.random_raw(3).tolist() == twin.bit_generator.random_raw(3).tolist()


def _collision_slots(alice, bob):
    return [slot for slot, (a, b) in enumerate(zip(alice, bob), start=1) if a == b]


def _key_views(alice, bob):
    """The key as Alice reconstructs it (her own bits) and as Bob does (his flipped)."""
    bit_slots = [(a, b) for a, b in zip(alice, bob) if a != b]
    return [a for a, _ in bit_slots], [b ^ 1 for _, b in bit_slots]


def test_toy_session():
    alice, bob, key = run_session(ScenarioConfig(), alice_bits=TOY_ALICE, bob_bits=TOY_BOB)
    assert (alice, bob) == (TOY_ALICE, TOY_BOB)
    assert _collision_slots(alice, bob) == [1, 5, 6]
    assert key == [0, 1, 0]
    assert "".join(map(str, key)) == "010"
    assert _key_views(alice, bob) == (key, key)


def test_single_colliding_round_yields_empty_key():
    _, _, key = run_session(ScenarioConfig(), alice_bits=[1], bob_bits=[1])
    assert key == []


def test_scripted_validation():
    cfg = ScenarioConfig()
    with pytest.raises(ValueError):
        run_session(cfg, alice_bits=[0, 1])
    with pytest.raises(ValueError):
        run_session(cfg, alice_bits=[0, 1], bob_bits=[0])
    with pytest.raises(ValueError, match="bits must be 0 or 1, got 2 and 0"):
        run_session(cfg, alice_bits=[2], bob_bits=[0])


def test_session_deterministic_given_seed():
    cfg = ScenarioConfig(n_rounds=500, seed=77)
    assert run_session(cfg) == run_session(cfg)
    assert run_session(cfg) != run_session(cfg.replace(seed=78))


def test_generation_rate_near_half():
    cfg = ScenarioConfig(n_rounds=10**5, seed=31)
    _, _, key = run_session(cfg)
    assert len(key) / cfg.n_rounds == pytest.approx(0.5, abs=0.005)


def test_collision_rate_within_five_standard_errors():
    n = 10**5
    collisions = len(_collision_slots(*run_session(ScenarioConfig(n_rounds=n, seed=13))[:2]))
    se = math.sqrt(0.25 / n)
    assert abs(collisions / n - 0.5) <= 5 * se


def test_generated_bits_uniform_given_no_collision():
    _, _, key = run_session(ScenarioConfig(n_rounds=2 * 10**5, seed=17))
    bits = np.array(key)
    assert bits.size > 10**5 * 0.9
    se = math.sqrt(0.25 / bits.size)
    assert abs(bits.mean() - 0.5) <= 5 * se


@given(st.lists(st.tuples(st.integers(0, 1), st.integers(0, 1)), min_size=1, max_size=200))
@settings(deadline=None, max_examples=50)
def test_key_agreement_on_any_script(pairs):
    alice = [a for a, _ in pairs]
    bob = [b for _, b in pairs]
    _, _, key = run_session(ScenarioConfig(), alice_bits=alice, bob_bits=bob)
    assert _key_views(alice, bob) == (key, key)
    expected_bits = [a for a, b in pairs if a != b]
    assert key == expected_bits


def test_transcript_csv_format():
    alice, bob, _ = run_session(ScenarioConfig(), alice_bits=TOY_ALICE, bob_bits=TOY_BOB)
    buf = io.StringIO()
    write_transcript_csv([bit_columns(alice, bob)], buf, seed=42)
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
    write_transcript_csv([bit_columns(*run_session(cfg)[:2])], str(path_a), seed=cfg.seed)
    write_transcript_csv([bit_columns(*run_session(cfg)[:2])], str(path_b), seed=cfg.seed)
    assert path_a.read_bytes() == path_b.read_bytes()
