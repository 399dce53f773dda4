"""The per-round engine's session, in the columns the CSV writers take."""

from fhkex.adversary import KIND_BIT


def bit_columns(transcript):
    """Alice's and Bob's bit per slot, as write_transcript_csv takes them."""
    return [r.alice.bit for r in transcript.rounds], [r.bob.bit for r in transcript.rounds]


def trace_columns(transcript, observations, guesses):
    """(alice bits, bob bits, Alice/Bob samples, correct, abstain), as write_adversary_trace_csv takes them."""
    values = transcript.key_bits
    bit_obs = [obs for obs in observations if obs.kind == KIND_BIT]
    samples = [
        (obs.rss_f0, obs.rss_f1) if value == 0 else (obs.rss_f1, obs.rss_f0)
        for obs, value in zip(bit_obs, values)
    ]
    correct = [g.decision == value for g, value in zip(guesses, values)]
    abstain = [g.decision is None for g in guesses]
    return (*bit_columns(transcript), samples, correct, abstain)


def trace_csv_text(transcript, observations, guesses):
    """eve_trace.csv straight from the per-round engine: each observation's own f0/f1
    samples and each guess's own decision, with no column mapping in between."""
    by_slot = {g.slot: g for g in guesses}
    lines = ["round,rss_f0,rss_f1,decision,correct"]
    for record, obs in zip(transcript.rounds, observations):
        if obs.kind != KIND_BIT:
            lines.append(f"{record.slot},,,,")
            continue
        guess = by_slot[record.slot]
        decision = "abstain" if guess.decision is None else guess.decision
        correct = int(guess.decision == record.outcome.value)
        lines.append(f"{record.slot},{obs.rss_f0!r},{obs.rss_f1!r},{decision},{correct}")
    return "\n".join(lines) + "\n"
