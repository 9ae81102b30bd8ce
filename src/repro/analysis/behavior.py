"""Behavioral scoring: does the candidate chain *behave* like code?

This is the "behavioral properties of code to flag data" half of the
paper.  For every superset candidate we examine its bounded
fall-through window and combine hard structural violations (falling
through into undecodable bytes) with soft behavioral signals (rare
opcodes, traps mid-stream, def-use discipline) into a single additive
score: positive means code-like, negative means data-like.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..isa.opcodes import FlowKind
from ..superset.superset import Superset
from .chains import behavior_scores
from .defuse import DefUseSignals, analyze_chain

#: Weights of the behavioral score components.  These are coarse,
#: hand-calibrated log-odds-like contributions; the prioritized
#: correction algorithm only relies on their ordering being sensible.
@dataclass(frozen=True)
class BehaviorWeights:
    invalid_fallthrough: float = -4.0
    trap_in_chain: float = -1.5
    rare_instruction: float = -1.0
    defuse_pair: float = 0.35
    flag_pair: float = 0.25
    register_anomaly: float = -0.8
    flag_anomaly: float = -0.4
    terminated_chain: float = 0.3


DEFAULT_WEIGHTS = BehaviorWeights()


@dataclass(frozen=True)
class BehaviorReport:
    """Per-candidate behavioral findings."""

    offset: int
    chain_length: int
    invalid_fallthrough: bool
    traps: int
    rare: int
    signals: DefUseSignals
    terminated: bool

    def score(self, weights: BehaviorWeights = DEFAULT_WEIGHTS) -> float:
        total = 0.0
        if self.invalid_fallthrough:
            total += weights.invalid_fallthrough
        total += weights.trap_in_chain * self.traps
        total += weights.rare_instruction * self.rare
        total += weights.defuse_pair * self.signals.defuse_pairs
        total += weights.flag_pair * self.signals.flag_pairs
        total += weights.register_anomaly * self.signals.register_anomalies
        total += weights.flag_anomaly * self.signals.flag_anomalies
        if self.terminated:
            total += weights.terminated_chain
        return total / max(self.chain_length, 1)


class BehaviorAnalyzer:
    """Computes behavioral reports and scores over a superset."""

    def __init__(self, window: int = 8,
                 weights: BehaviorWeights = DEFAULT_WEIGHTS) -> None:
        self.window = window
        self.weights = weights

    def report(self, superset: Superset, offset: int) -> BehaviorReport:
        chain = superset.fallthrough_chain(offset, self.window)
        if not chain:
            return BehaviorReport(offset, 0, True, 0, 0,
                                  analyze_chain([]), False)
        last = chain[-1]
        terminated = not last.falls_through
        # A chain is cut by invalid bytes when it is shorter than the
        # window, still falls through, and its next offset is inside the
        # section but undecodable.
        invalid_fallthrough = False
        if not terminated and len(chain) < self.window:
            nxt = last.end
            invalid_fallthrough = (nxt < len(superset)
                                   and not superset.is_valid(nxt))

        traps = sum(1 for ins in chain
                    if ins.flow in (FlowKind.TRAP, FlowKind.HALT))
        rare = sum(1 for ins in chain if ins.rare)
        signals = analyze_chain(chain)
        return BehaviorReport(offset=offset, chain_length=len(chain),
                              invalid_fallthrough=invalid_fallthrough,
                              traps=traps, rare=rare, signals=signals,
                              terminated=terminated)

    def score_all(self, superset: Superset) -> np.ndarray:
        """Vector of behavioral scores for every offset of the section.

        Equal, float for float, to ``report(superset, o).score(weights)``
        at every valid offset; the chains are walked in lockstep over the
        superset's cached :class:`~repro.analysis.chains.ChainColumns`.
        """
        scores = np.full(len(superset), self.weights.invalid_fallthrough)
        starts, path = superset.chain_columns.full_walk(
            superset.valid_offsets, self.window)
        scores[starts] = behavior_scores(superset.chain_columns, path,
                                         self.weights)
        return scores

    def rescore(self, superset: Superset, offsets,
                scores: np.ndarray) -> None:
        """Recompute ``scores[o]`` in place for a subset of offsets.

        Behavioral scores depend only on the bounded fall-through
        window, so incremental re-disassembly recomputes just the
        offsets whose window touches changed bytes.  Only the columns
        of rows those chains reach are built; each value is
        bit-identical to a full :meth:`score_all`.
        """
        columns = superset.chain_columns
        starts = columns.valid_starts(offsets)
        scores[offsets] = self.weights.invalid_fallthrough
        scores[starts] = behavior_scores(
            columns, columns.walk(starts, self.window), self.weights)
