"""Per-offset statistical code-vs-data scoring.

For every superset candidate we compare two hypotheses for the bytes it
covers (together with its fall-through window): "this is real code"
(scored by the instruction n-gram model) versus "this is data" (scored
by the data byte model).  The per-byte log-likelihood ratio is the
paper's soft statistical evidence; large positive values say *code*,
large negative values say *data*.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ..analysis.chains import (chain_lengths, code_log_probs, last_rows,
                               span_log_probs)
from ..superset.superset import Superset
from .datamodel import AsciiRun, DataByteModel, find_ascii_runs
from .ngram import NgramModel

#: Score assigned to offsets with no valid candidate at all.
UNDECODABLE_SCORE = -10.0

#: Per-byte penalty applied inside NUL-terminated printable runs: a
#: C-string-shaped region is data no matter how well it decodes.
ASCII_PENALTY = 3.0


@functools.lru_cache(maxsize=16)
def terminated_ascii_runs(text: bytes) -> tuple[AsciiRun, ...]:
    """NUL-terminated printable runs of ``text`` (cached per section).

    Both :meth:`StatisticalScorer.score_offset` and
    :meth:`StatisticalScorer.score_all` consult these runs; scanning the
    whole section again for every scored offset would make per-offset
    scoring O(n^2), so the scan happens once per distinct text.
    """
    return tuple(run for run in find_ascii_runs(text) if run.terminated)


@dataclass
class StatisticalScorer:
    """Combines the code n-gram model and the data byte model."""

    code_model: NgramModel
    data_model: DataByteModel
    window: int = 6

    def score_offset(self, superset: Superset, offset: int) -> float:
        """Per-byte LLR of the candidate chain starting at ``offset``.

        The kernel run for a single start: exactly ``score_all(...)
        [offset]``.
        """
        if not superset.is_valid(offset):
            return UNDECODABLE_SCORE
        starts = np.array([offset], dtype=np.intp)
        path = superset.chain_columns.walk(starts, self.window)
        return float(self._chain_scores(superset, starts, path)[0])

    def score_all(self, superset: Superset) -> np.ndarray:
        """Vector of per-offset scores for a whole section.

        Chains overlap heavily, so every chain is walked in lockstep
        over the superset's cached
        :class:`~repro.analysis.chains.ChainColumns` (the walk is shared
        with behavioral scoring).
        """
        scores = np.full(len(superset), UNDECODABLE_SCORE)
        starts, path = superset.chain_columns.full_walk(
            superset.valid_offsets, self.window)
        scores[starts] = self._chain_scores(superset, starts, path)
        return scores

    def rescore(self, superset: Superset, offsets, scores: np.ndarray
                ) -> None:
        """Recompute ``scores[o]`` in place for a subset of offsets.

        Incremental re-disassembly calls this for the offsets whose
        score support (decode window, fall-through chain, ASCII-run
        membership) touches changed bytes.  Only the columns of rows
        those chains reach are built, and every value written is
        bit-identical to what :meth:`score_all` would produce on the
        same superset: the kernel sums each chain's terms in the same
        order whichever starts it walks.
        """
        starts = superset.chain_columns.valid_starts(offsets)
        scores[offsets] = UNDECODABLE_SCORE
        path = superset.chain_columns.walk(starts, self.window)
        scores[starts] = self._chain_scores(superset, starts, path)

    def _chain_scores(self, superset: Superset, starts: np.ndarray,
                      path: np.ndarray) -> np.ndarray:
        """Scores of the walked chains ``path`` starting at ``starts``."""
        if not len(path):
            raise ValueError("statistical scoring needs window >= 1")
        columns = superset.chain_columns
        last = last_rows(path, chain_lengths(columns, path))
        spans = columns.end[last] - starts
        code_lp = code_log_probs(columns, path, self.code_model)
        data_lp = span_log_probs(self._data_lp_bytes(superset.text),
                                 starts, spans)
        penalty = self._ascii_penalty(superset.text)[starts]
        return (code_lp - data_lp) / spans - penalty

    @cached_property
    def _byte_log_probs(self) -> np.ndarray:
        """``data_model.log_prob_byte`` of every byte value."""
        return np.array([self.data_model.log_prob_byte(b)
                         for b in range(256)])

    def _data_lp_bytes(self, text: bytes) -> np.ndarray:
        return self._byte_log_probs[np.frombuffer(text, dtype=np.uint8)]

    @staticmethod
    def _ascii_penalty(text: bytes) -> np.ndarray:
        penalty = np.zeros(len(text))
        for run in terminated_ascii_runs(text):
            penalty[run.start:run.end] = ASCII_PENALTY
        return penalty
