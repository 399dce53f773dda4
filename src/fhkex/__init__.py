"""Simulation lab for crypto-less key establishment via frequency-hopping collisions.

Two full-duplex nodes derive shared secret bits from random frequency
collisions; a passive RSS-measuring eavesdropper tries to identify the
transmitter each slot. The package simulates the protocol under
deterministic and log-normal-shadowed channels, models the adversary, and
evaluates the closed-form secrecy analysis alongside Monte Carlo sweeps.
Its modules are the API: import them, e.g. ``from fhkex import analysis``.
"""

__version__ = "0.1.0"
