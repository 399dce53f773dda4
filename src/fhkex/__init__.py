"""Simulation lab for crypto-less key establishment via frequency-hopping collisions.

Two full-duplex nodes derive shared secret bits from random frequency
collisions; a passive RSS-measuring eavesdropper tries to identify the
transmitter each slot. The package simulates the protocol under
deterministic and log-normal-shadowed channels, models the adversary, and
evaluates the closed-form secrecy analysis alongside Monte Carlo sweeps.
"""

from .scenario import (
    ConfigError,
    ScenarioConfig,
    build_deployment,
    load_config,
    validate_config,
)
from .channel import (
    delta_mean_pathloss,
    path_loss_deterministic,
    path_loss_shadowed,
    rss,
)
from .protocol import (
    Collision,
    RoundAction,
    RoundRecord,
    SessionTranscript,
    SharedBit,
    node_round_action,
    resolve_round,
    run_session,
    write_transcript_csv,
)
from .adversary import (
    Guess,
    Observation,
    RULE_ML,
    RULE_RANDOM,
    SecrecyReport,
    classify_ml,
    classify_random,
    eve_reconstructs_key,
    observe_round,
    pg_closed_form,
    score_session,
    simulate_eavesdropper,
    write_adversary_trace_csv,
)
from .analysis import (
    InfeasibleError,
    KeyRequest,
    Probability,
    fading_pb,
    key_prob,
    min_transmissions,
    privacy_radius,
    secret_bit_prob,
)
from .experiments import (
    FrontierRow,
    GridPoint,
    ResultRow,
    ResultTable,
    SweepSpec,
    frontier,
    read_result_csv,
    run_grid_point,
    sweep,
    wilson_interval,
    write_frontier_csv,
    write_result_csv,
)

__version__ = "0.1.0"
