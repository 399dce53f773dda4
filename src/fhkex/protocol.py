"""Round engine: random frequency selection, collision detection, shared bits.

Each slot both nodes draw a secret bit b, transmit on f_b and listen on the
other frequency. Same frequency -> collision, slot discarded. Different
frequencies -> one shared bit, equal to Alice's draw (Bob derives the same
value by flipping his own draw).

A session is single-threaded and deterministic given its generator; sessions
with distinct seeds share no mutable state and may run in parallel.
"""

from __future__ import annotations

from typing import Sequence, TextIO, Union

import numpy as np

from .scenario import ScenarioConfig, text_stream


def draw_coins(rng: np.random.Generator, count: int) -> np.ndarray:
    """count fair coins, as a uint8 array of 0/1: the bits of rng.bytes, most significant first.

    rng.bytes reads whole 32-bit words of the stream, so draws split over
    several calls read the stream one call would iff every call but the
    last takes a multiple of 32 coins. No coins read nothing (rng.bytes(0)
    would read a word).

    The engine's generators are default_rng's, PCG64. rng.bytes takes its
    words one 32-bit draw at a time: a held spare half first (state
    has_uint32, uinteger), then each 64-bit word's low half, holding its
    high half as the spare for the next 32-bit draw. The coins read the
    whole 64-bit words raw (bit_generator.random_raw), and take a held
    spare, or an odd last word, by that same 32-bit draw. So the coins, and
    every later draw of any kind, are those of rng.bytes, at about half its
    cost (32,000 coins: 6 against 12 us).
    """
    words = -(-count // 32)
    if not words:
        return np.zeros(0, dtype=np.uint8)
    bit_generator = rng.bit_generator
    spare = bit_generator.state["has_uint32"]
    pairs, odd = divmod(words - spare, 2)
    # each raw word's low half, then its high half, as little-endian 32-bit words
    halves = bit_generator.random_raw(pairs).astype("<u8", copy=False).view("<u4")
    if spare or odd:
        c_api = bit_generator.ctypes
        whole = np.empty(words, dtype="<u4")
        if spare:
            whole[0] = c_api.next_uint32(c_api.state)
        whole[spare:spare + halves.size] = halves
        if odd:
            whole[-1] = c_api.next_uint32(c_api.state)
        halves = whole
    return np.unpackbits(halves.view(np.uint8), count=count)


def run_session(
    cfg: ScenarioConfig,
    rng: np.random.Generator | None = None,
    *,
    alice_bits: Sequence[int] | None = None,
    bob_bits: Sequence[int] | None = None,
) -> tuple[list[int], list[int], list[int]]:
    """Run cfg.n_rounds slots: Alice's bit per slot, Bob's bit per slot, and the key.

    Equal bits put both nodes on one frequency, a collision; differing bits
    yield Alice's bit (Bob flips his own). Draw order is contractual for
    replay: one draw_coins call of 2n coins, per slot Alice's bit then Bob's.
    Scripted mode replaces the rng draws with the supplied sequences (both
    must be given, equal length, overriding cfg.n_rounds).
    """
    if alice_bits is not None or bob_bits is not None:
        if alice_bits is None or bob_bits is None:
            raise ValueError("scripted sessions need both alice_bits and bob_bits")
        if len(alice_bits) != len(bob_bits):
            raise ValueError("scripted sequences must have equal length")
    else:
        if rng is None:
            rng = np.random.default_rng(cfg.seed)
        alice_bits, bob_bits = draw_coins(rng, 2 * cfg.n_rounds).reshape(-1, 2).T.tolist()

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

