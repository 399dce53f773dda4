"""Round engine: random frequency selection, collision detection, shared bits.

Each slot both nodes draw a secret bit b, transmit on f_b and listen on the
other frequency. Same frequency -> collision, slot discarded. Different
frequencies -> one shared bit, equal to Alice's draw (Bob derives the same
value by flipping his own draw).

A session is single-threaded and deterministic given its generator; sessions
with distinct seeds share no mutable state and may run in parallel.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, TextIO, Union

import numpy as np

from .scenario import ScenarioConfig, text_stream

F0 = "f0"
F1 = "f1"


def freq_for_bit(bit: int) -> str:
    return F1 if bit else F0


@dataclass(frozen=True)
class RoundAction:
    bit: int
    tx_freq: str
    rx_freq: str

    def __post_init__(self):
        if self.bit not in (0, 1):
            raise ValueError(f"bit must be 0 or 1, got {self.bit}")
        if self.tx_freq != freq_for_bit(self.bit) or self.rx_freq == self.tx_freq:
            raise ValueError("node must transmit on f_bit and listen on the other frequency")

    @classmethod
    def from_bit(cls, bit: int) -> "RoundAction":
        return cls(bit=bit, tx_freq=freq_for_bit(bit), rx_freq=freq_for_bit(1 - bit))


@dataclass(frozen=True)
class Collision:
    """Both nodes picked the same frequency; the slot yields no key bit."""

    freq: str


@dataclass(frozen=True)
class SharedBit:
    """Collision-free slot: one key bit, equal to Alice's draw."""

    value: int
    alice_freq: str
    bob_freq: str

    def __post_init__(self):
        if self.alice_freq == self.bob_freq:
            raise ValueError("shared bit requires the nodes on different frequencies")
        if self.value not in (0, 1):
            raise ValueError(f"bit must be 0 or 1, got {self.value}")


RoundOutcome = Union[Collision, SharedBit]


@dataclass(frozen=True)
class RoundRecord:
    slot: int  # 1-based slot index
    alice: RoundAction
    bob: RoundAction
    outcome: RoundOutcome


@dataclass(frozen=True)
class SessionTranscript:
    rounds: tuple[RoundRecord, ...]
    key_bits: tuple[int, ...]

    def __post_init__(self):
        generated = tuple(
            r.outcome.value for r in self.rounds if isinstance(r.outcome, SharedBit)
        )
        if self.key_bits != generated:
            raise ValueError("key_bits must equal the ordered shared-bit values")

    @property
    def n_rounds(self) -> int:
        return len(self.rounds)

    @property
    def key_string(self) -> str:
        return "".join(str(b) for b in self.key_bits)

    def collision_slots(self) -> list[int]:
        return [r.slot for r in self.rounds if isinstance(r.outcome, Collision)]

    def alice_key_view(self) -> tuple[int, ...]:
        """Key as Alice reconstructs it: her own bit on each generating slot."""
        return tuple(r.alice.bit for r in self.rounds if isinstance(r.outcome, SharedBit))

    def bob_key_view(self) -> tuple[int, ...]:
        """Key as Bob reconstructs it: his bit flipped on each generating slot."""
        return tuple(r.bob.bit ^ 1 for r in self.rounds if isinstance(r.outcome, SharedBit))


def draw_coins(rng: np.random.Generator, count: int) -> np.ndarray:
    """count fair coins, as a uint8 array of 0/1: the bits of rng.bytes, most significant first.

    rng.bytes reads whole 32-bit words of the stream, so draws split over
    several calls read the stream one call would iff every call but the
    last takes a multiple of 32 coins. No coins read nothing (rng.bytes(0)
    would read a word).
    """
    raw = rng.bytes(-(-count // 8)) if count else b""
    return np.unpackbits(np.frombuffer(raw, dtype=np.uint8), count=count)


def resolve_round(a: RoundAction, b: RoundAction) -> RoundOutcome:
    """Combine Alice's (a) and Bob's (b) actions into the slot outcome."""
    if a.tx_freq == b.tx_freq:
        return Collision(freq=a.tx_freq)
    return SharedBit(value=a.bit, alice_freq=a.tx_freq, bob_freq=b.tx_freq)


def run_session(
    cfg: ScenarioConfig,
    rng: np.random.Generator | None = None,
    *,
    alice_bits: Sequence[int] | None = None,
    bob_bits: Sequence[int] | None = None,
) -> SessionTranscript:
    """Run cfg.n_rounds slots and collect the transcript.

    Draw order is contractual for replay: one draw_coins call of 2n coins,
    per slot Alice's bit then Bob's. Scripted mode replaces the rng draws
    with the supplied sequences (both must be given, equal length,
    overriding cfg.n_rounds).
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

    rounds = []
    key_bits = []
    for slot, (a_bit, b_bit) in enumerate(zip(alice_bits, bob_bits), start=1):
        a = RoundAction.from_bit(int(a_bit))
        b = RoundAction.from_bit(int(b_bit))
        outcome = resolve_round(a, b)
        rounds.append(RoundRecord(slot=slot, alice=a, bob=b, outcome=outcome))
        if isinstance(outcome, SharedBit):
            key_bits.append(outcome.value)
    return SessionTranscript(rounds=tuple(rounds), key_bits=tuple(key_bits))


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

