"""Round engine: random frequency selection, collision detection, shared bits.

Each slot both nodes draw a secret bit b, transmit on f_b and listen on the
other frequency. Same frequency -> collision, slot discarded. Different
frequencies -> one shared bit, equal to Alice's draw (Bob derives the same
value by flipping his own draw).

Every draw comes from a PCG64 stream kept for one purpose (COINS, DECISIONS
or TRACE) and seeded SeedSequence([*entropy, purpose]): a session's entropy
is its seed, a sweep slice's is its base seed and parameters (see
experiments). Coins and decisions are read as whole raw 64-bit words, so
they depend on PCG64 and SeedSequence alone, which NumPy's NEP 19 keeps
stable; the trace's samples are Generator.standard_normal's.

A session is single-threaded and deterministic given its seed; sessions
with distinct seeds share no mutable state and may run in parallel.
"""

from __future__ import annotations

from typing import Sequence, TextIO, Union

import numpy as np

from .scenario import ScenarioConfig, text_stream

#: The purposes a stream is drawn for, the last entry of its seed: the coins,
#: the adversary's decision words, and the samples a session's trace writes.
COINS, DECISIONS, TRACE = range(3)


def stream(entropy: Sequence[int], purpose: int) -> np.random.PCG64:
    """The stream drawn for one purpose: PCG64 seeded SeedSequence([*entropy, purpose])."""
    return np.random.PCG64(np.random.SeedSequence([*entropy, purpose]))


def draw_coins(coins: np.random.PCG64, count: int) -> np.ndarray:
    """count fair coins, as a uint8 array of 0/1: the bits of whole raw 64-bit words, least significant first.

    The call reads ceil(count / 64) words (random_raw) and drops the rest of
    the last one, so no coins read nothing. The coins are the bits of
    Generator(coins).bytes of those words, each byte read least significant
    first. 32,000 coins take about 6 us, against 12 us through bytes (2 vCPUs,
    Python 3.11.7, numpy 2.4.6).
    """
    words = np.asarray(coins.random_raw(-(-count // 64)), dtype="<u8")
    return np.unpackbits(words.view(np.uint8), count=count, bitorder="little")


def run_session(
    cfg: ScenarioConfig,
    coins: np.random.PCG64 | None = None,
    *,
    alice_bits: Sequence[int] | None = None,
    bob_bits: Sequence[int] | None = None,
) -> tuple[list[int], list[int], list[int]]:
    """Run cfg.n_rounds slots: Alice's bit per slot, Bob's bit per slot, and the key.

    Equal bits put both nodes on one frequency, a collision; differing bits
    yield Alice's bit (Bob flips his own). Draw order is contractual for
    replay: one draw_coins call of 2n coins, per slot Alice's bit then Bob's,
    from the coin stream of the seed (stream((cfg.seed,), COINS)) unless coins
    is given. Scripted mode replaces the draws with the supplied sequences (both
    must be given, equal length, overriding cfg.n_rounds).
    """
    if alice_bits is not None or bob_bits is not None:
        if alice_bits is None or bob_bits is None:
            raise ValueError("scripted sessions need both alice_bits and bob_bits")
        if len(alice_bits) != len(bob_bits):
            raise ValueError("scripted sequences must have equal length")
    else:
        if coins is None:
            coins = stream((cfg.seed,), COINS)
        alice_bits, bob_bits = draw_coins(coins, 2 * cfg.n_rounds).reshape(-1, 2).T.tolist()

    alice, bob, key = [], [], []
    for a_bit, b_bit in zip(map(int, alice_bits), map(int, bob_bits)):
        if a_bit not in (0, 1) or b_bit not in (0, 1):
            raise ValueError(f"bits must be 0 or 1, got {a_bit} and {b_bit}")
        alice.append(a_bit)
        bob.append(b_bit)
        if a_bit != b_bit:
            key.append(a_bit)
    return alice, bob, key


#: A transcript.csv row as a %-template of its round, indexed by 2 * a_bit + b_bit.
_TRANSCRIPT_ROWS = ("%d,0,0,collision,\n", "%d,0,1,bit,0\n", "%d,1,0,bit,1\n", "%d,1,1,collision,\n")


def key_text(block: np.ndarray) -> str:
    """An (m, 2) block's key as '0'/'1' text: Alice's bit wherever hers and Bob's differ."""
    alice, bob = block[:, 0], block[:, 1]
    return (alice[alice != bob] + ord("0")).astype(np.uint8).tobytes().decode("ascii")


def write_transcript_csv(
    blocks: Sequence[np.ndarray], dest: Union[str, TextIO], *, seed: int | None = None
) -> int:
    """One row per slot: round, a_bit, b_bit, outcome, bit_value; returns the key's length.

    blocks holds the session's slots in order, as (m, 2) arrays of Alice's
    and Bob's bit per slot. A slot whose bits differ yields Alice's bit;
    equal bits collide. The derived key appears as a '# key=' comment line
    ahead of the header, so blocks is read twice.
    """
    generated = 0
    with text_stream(dest, "w") as fh:
        if seed is not None:
            fh.write(f"# seed={seed}\n")
        fh.write("# key=")
        for block in blocks:
            key = key_text(block)
            fh.write(key)
            generated += len(key)
        fh.write("\nround,a_bit,b_bit,outcome,bit_value\n")
        slot = 1
        for block in blocks:
            codes = (2 * block[:, 0] + block[:, 1]).tolist()
            rows = "".join(map(_TRANSCRIPT_ROWS.__getitem__, codes))
            fh.write(rows % tuple(range(slot, slot + len(block))))
            slot += len(block)
    return generated

