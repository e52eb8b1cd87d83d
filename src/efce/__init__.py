"""Uncoupled no-regret dynamics converging to extensive-form correlated
equilibrium in n-player general-sum imperfect-information games.

The entry points share these input rules.  Each is checked in one place; a
broken one raises ValueError, and a numerical failure NumericalError.

- A player is an integer from 0 to ``n_players - 1``, and a bool reads as
  0 or 1; a group is a tuple or list of distinct players.  A sequence or
  infoset id is an integer in range.
- A vector over the sequences of a player, or of a group's plan, has shape
  (n,): strategies, continuations, ``x``, utilities and coefficients.  A
  deviation has the plan's number of sequences, or none (the empty
  combination).
- A utility or coefficient vector, and ``extend``'s ``x``, is finite.  A
  played point or profile lies within 1e-9 of [0, 1]; one count checks
  finiteness and range together, before any product can overflow.
- A tolerance is positive and finite.  A round count is an integer of at
  least 1, and an action count one of at least 0; a bool is no count.
- Each array of a round is checked once, where it enters: ``accumulate``
  checks the profile and its utility and hands the meter the checked
  arrays, and the hull's deviation, valid by construction, goes unchecked.
"""

from .deviations import (
    ConvexTriggerDeviation,
    NumericalError,
    TriggerDeviation,
    apply_deviation,
    apply_trigger,
    build_matrix,
    cumulative_weights,
    extend,
    fixed_point,
    is_trunk,
    stationary_distribution,
    validate_deviation,
)
from .dynamics import (
    EmpiricalFrequency,
    GapReport,
    RunLog,
    efce_gap,
    efce_gap_brute,
    run,
    subtree_best_response,
)
from .game import (
    EMPTY_SEQ,
    GameFormatError,
    GameTree,
    GameValidationError,
    InfoSet,
    builtin_game,
    parse_game,
    sequence_precedes,
    sequences_at_or_below,
    serialize_game,
)
from .regret import CallOrderError, CfrMinimizer, RegretMatching
from .strategies import (
    SequenceFormStrategy,
    UtilityVector,
    enumerate_pure,
    evaluate,
    format_strategy,
    is_valid_strategy,
    sample_pure,
    sequence_from_behavioral,
    uniform_strategy,
    utility_vector,
    validate_strategy,
)
from .trigger import (
    HullMinimizer,
    MixedTriggerMinimizer,
    PhiRegretMeter,
    PureTriggerMinimizer,
    split_rngs,
)

__version__ = "0.1.0"

__all__ = [
    "EMPTY_SEQ",
    "CallOrderError",
    "CfrMinimizer",
    "ConvexTriggerDeviation",
    "EmpiricalFrequency",
    "GameFormatError",
    "GameTree",
    "GameValidationError",
    "GapReport",
    "HullMinimizer",
    "InfoSet",
    "MixedTriggerMinimizer",
    "NumericalError",
    "PhiRegretMeter",
    "PureTriggerMinimizer",
    "RegretMatching",
    "RunLog",
    "SequenceFormStrategy",
    "TriggerDeviation",
    "UtilityVector",
    "apply_deviation",
    "apply_trigger",
    "build_matrix",
    "builtin_game",
    "cumulative_weights",
    "efce_gap",
    "efce_gap_brute",
    "enumerate_pure",
    "evaluate",
    "extend",
    "fixed_point",
    "format_strategy",
    "is_trunk",
    "is_valid_strategy",
    "parse_game",
    "run",
    "sample_pure",
    "sequence_from_behavioral",
    "sequence_precedes",
    "sequences_at_or_below",
    "serialize_game",
    "split_rngs",
    "stationary_distribution",
    "subtree_best_response",
    "uniform_strategy",
    "utility_vector",
    "validate_deviation",
    "validate_strategy",
    "__version__",
]
