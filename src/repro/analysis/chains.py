"""Columnar chain scoring: per-offset fact columns and a lockstep walk.

Both soft scores of a superset candidate -- the behavioral score
(:mod:`repro.analysis.behavior`) and the statistical code/data LLR
(:mod:`repro.stats.scoring`) -- are functions of the candidate's
bounded fall-through chain.  Chains from neighbouring offsets overlap
almost completely, so instead of walking every chain in Python this
module extracts each candidate's chain-relevant facts once into
compact offset-indexed columns (:class:`ChainColumns`, cached with the
superset) and advances every start offset in lockstep, one numpy step
per chain position (:meth:`ChainColumns.walk`).

Every float this module returns is bit-identical to the per-offset
reference loops (:meth:`BehaviorAnalyzer.report` and the historical
per-chain scorer): each chain's terms are added left to right in the
same order, integer counts are exact, and the data-model term of a
span is reduced by numpy along a contiguous row of exactly that span
-- the same pairwise summation a 1-D ``slice.sum()`` performs.
"""

from __future__ import annotations

import threading
import weakref
from itertools import repeat
from operator import attrgetter, is_not

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from ..isa.opcodes import FlowKind, NO_FALLTHROUGH
from ..isa.registers import RAX, RBP, RSP
from .defuse import CONVENTIONALLY_LIVE, _is_zeroing_idiom

#: ``bits`` column flags.
READS_FLAGS = 1
WRITES_FLAGS = 2
TRAP = 4        # trap or halt
RARE = 8
CALL = 16       # direct or indirect call
FALLS = 32      # execution can continue at ``end``

_FLOW_BITS = {
    flow.name: ((0 if flow in NO_FALLTHROUGH else FALLS)
                | (TRAP if flow in (FlowKind.TRAP, FlowKind.HALT) else 0)
                | (CALL if flow in (FlowKind.CALL, FlowKind.ICALL) else 0))
    for flow in FlowKind}

#: Register-family masks of :mod:`repro.analysis.defuse`'s sets.
LIVE_MASK = sum(1 << r for r in CONVENTIONALLY_LIVE)
NOT_LIVE_MASK = 0xFFFF & ~LIVE_MASK
#: Defined after a call: the return value and the frame registers.
CALL_DEFINED_MASK = (1 << RAX) | (1 << RSP) | (1 << RBP)

# Row extraction pulls each field with a C-level ``map``; flows are keyed
# by name because enum members hash in Python and their names in C.
_LENGTH = attrgetter("length")
_FLOW_NAME = attrgetter("flow._name_")
_READS = attrgetter("reads")
_WRITES = attrgetter("writes")
_READS_FLAGS = attrgetter("reads_flags")
_WRITES_FLAGS = attrgetter("writes_flags")
_RARE = attrgetter("rare")
_MNEMONIC = attrgetter("mnemonic")
_ZEROING_MNEMONICS = frozenset({"xor", "sub"})

_MASKS: dict[frozenset[int], int] = {}
#: Per n-gram model: (model.total, sorted packed triples, log-probs).
_LP_TABLES: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()
#: Token ids are packed three to an int64 key, ``_ID_BITS`` each (the
#: token vocabulary -- mnemonics times operand shapes -- is a few
#: thousand).
_ID_BITS = 21
_TOKEN_IDS: dict[str, int] = {}
_TOKENS: list[str] = []
_INTERN_LOCK = threading.Lock()


def _mask(registers: frozenset[int]) -> int:
    """16-bit family mask of an effect set (memoized per set)."""
    mask = _MASKS.get(registers)
    if mask is None:
        mask = _MASKS[registers] = sum(1 << r for r in registers)
    return mask


def token_id(token: str) -> int:
    """Process-wide interned id of an n-gram token."""
    tid = _TOKEN_IDS.get(token)
    if tid is None:
        with _INTERN_LOCK:   # ids must stay dense and unique across threads
            tid = _TOKEN_IDS.get(token)
            if tid is None:
                _TOKENS.append(token)
                tid = _TOKEN_IDS[token] = len(_TOKENS) - 1
    return tid


class ChainColumns:
    """Chain-relevant facts of every candidate, one numpy column each.

    Index = section offset; row ``len(text)`` is a dead sentinel (no
    successor, no effects) that chains step onto once they end.

    * ``nxt`` -- fall-through successor, or the sentinel when the
      candidate does not fall through, falls off the section, or falls
      into undecodable bytes;
    * ``end`` -- first byte after the candidate;
    * ``reads`` / ``writes`` -- register-family masks, reads cleared
      for the zeroing idiom (``xor r, r``);
    * ``bits`` -- :data:`READS_FLAGS`, :data:`WRITES_FLAGS`,
      :data:`TRAP`, :data:`RARE`, :data:`CALL`, :data:`FALLS`;
    * ``tok`` -- interned n-gram token id (:func:`token_id`).

    Rows are built lazily, only for candidates a walk reaches: scoring
    a whole section builds every valid row in one pass, an incremental
    rescore only the rows its dirty chains reach (``rows_built``
    counts them).
    """

    def __init__(self, superset) -> None:
        size = len(superset)
        self.size = size
        self._instructions = superset.instructions
        self.nxt = np.full(size + 1, size, dtype=np.int32)
        self.end = np.zeros(size + 1, dtype=np.int32)
        self.reads = np.zeros(size + 1, dtype=np.uint16)
        self.writes = np.zeros(size + 1, dtype=np.uint16)
        self.bits = np.zeros(size + 1, dtype=np.uint8)
        self.tok = np.zeros(size + 1, dtype=np.int32)
        self.built = np.zeros(size + 1, dtype=bool)
        self.built[size] = True
        self.rows_built = 0
        self._starts: np.ndarray | None = None
        self._full_walks: dict[int, np.ndarray] = {}

    # ------------------------------------------------------------------
    # Row extraction
    # ------------------------------------------------------------------

    def _build(self, offsets: list[int]) -> None:
        """Fill the rows of ``offsets`` (valid, not yet built)."""
        from ..stats.ngram import token_of   # stats imports this module
        instructions = self._instructions
        size = self.size
        rows = np.asarray(offsets, dtype=np.intp)
        candidates = list(map(instructions.__getitem__, offsets))
        end = rows + np.fromiter(map(_LENGTH, candidates), np.intp,
                                 len(rows))
        bits = np.fromiter(map(_FLOW_BITS.__getitem__,
                               map(_FLOW_NAME, candidates)),
                           np.uint8, len(rows))
        for flag, attribute in ((READS_FLAGS, _READS_FLAGS),
                                (WRITES_FLAGS, _WRITES_FLAGS),
                                (RARE, _RARE)):
            bits |= flag * np.fromiter(map(attribute, candidates), np.uint8,
                                       len(rows))
        # Fall-through successors inside the section that decode.
        inside = np.flatnonzero((bits & FALLS).astype(bool) & (end < size))
        decodes = np.fromiter(
            map(is_not, map(instructions.__getitem__, end[inside].tolist()),
                repeat(None)), bool, len(inside))
        successor = inside[decodes]
        reads = np.fromiter(map(_mask, map(_READS, candidates)), np.uint16,
                            len(rows))
        zeroing = [i for i, mnemonic in enumerate(map(_MNEMONIC,
                                                      candidates))
                   if mnemonic in _ZEROING_MNEMONICS
                   and _is_zeroing_idiom(candidates[i])]
        reads[zeroing] = 0
        self.nxt[rows[successor]] = end[successor]
        self.end[rows] = end
        self.reads[rows] = reads
        self.writes[rows] = np.fromiter(map(_mask, map(_WRITES, candidates)),
                                        np.uint16, len(rows))
        self.bits[rows] = bits
        self.tok[rows] = np.fromiter(map(token_id,
                                         map(token_of, candidates)),
                                     np.int32, len(rows))
        self.built[rows] = True
        self.rows_built += len(rows)

    def _ensure(self, rows: np.ndarray) -> None:
        """Build whichever of ``rows`` (valid offsets or the sentinel)
        are missing."""
        missing = rows[~self.built[rows]]
        if missing.size:
            wanted = np.zeros(self.size + 1, dtype=bool)
            wanted[missing] = True
            self._build(np.flatnonzero(wanted).tolist())

    # ------------------------------------------------------------------
    # Lockstep walk
    # ------------------------------------------------------------------

    def valid_starts(self, offsets) -> np.ndarray:
        """The offsets among ``offsets`` that decode, as walk starts."""
        instructions = self._instructions
        return np.array([o for o in offsets if instructions[o] is not None],
                        dtype=np.intp)

    def walk(self, starts: np.ndarray, window: int) -> np.ndarray:
        """Chain rows of every start, one numpy step per position.

        Returns a ``(window, len(starts))`` int32 matrix: column ``j``
        is the fall-through chain of ``starts[j]`` (a valid offset),
        padded with the sentinel after the chain ends.  Rows are built
        as the walk first reaches them.
        """
        path = np.empty((window, len(starts)), dtype=np.int32)
        current = np.asarray(starts, dtype=np.intp)
        for step in range(window):
            if step:
                current = self.nxt[current].astype(np.intp)
            self._ensure(current)
            path[step] = current
        return path

    def full_walk(self, valid_offsets: list[int],
                  window: int) -> tuple[np.ndarray, np.ndarray]:
        """``(starts, path)`` for every valid offset of the section.

        ``valid_offsets`` is the superset's own list.  The walk is
        cached per window, so the behavioral and statistical passes of
        one disassembly share it.
        """
        if self._starts is None:
            self._starts = np.asarray(valid_offsets, dtype=np.intp)
        path = self._full_walks.get(window)
        if path is None:
            path = self._full_walks[window] = self.walk(self._starts, window)
        return self._starts, path


# ----------------------------------------------------------------------
# Chain summaries
# ----------------------------------------------------------------------

def chain_lengths(columns: ChainColumns, path: np.ndarray) -> np.ndarray:
    """Number of instructions in each walked chain."""
    return np.count_nonzero(path != columns.size, axis=0)


def last_rows(path: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Row of each chain's last instruction (``-1``, which indexes the
    sentinel row, for an empty window)."""
    if not len(path):
        return np.full(path.shape[1], -1, dtype=np.intp)
    return path[np.maximum(lengths - 1, 0),
                np.arange(path.shape[1])].astype(np.intp)


def behavior_scores(columns: ChainColumns, path: np.ndarray,
                    weights) -> np.ndarray:
    """``BehaviorReport.score(weights)`` of every walked chain."""
    window, count = path.shape
    defined = np.zeros(count, dtype=np.uint16)
    flags_defined = np.zeros(count, dtype=bool)
    defuse_pairs = np.zeros(count, dtype=np.int64)
    register_anomalies = np.zeros(count, dtype=np.int64)
    flag_pairs = np.zeros(count, dtype=np.int64)
    flag_anomalies = np.zeros(count, dtype=np.int64)
    traps = np.zeros(count, dtype=np.int64)
    rare = np.zeros(count, dtype=np.int64)
    for step in range(window):
        row = path[step]
        reads = columns.reads[row]
        bits = columns.bits[row]
        defuse_pairs += np.bitwise_count(reads & defined)
        register_anomalies += np.bitwise_count(
            reads & ~defined & NOT_LIVE_MASK)
        reads_flags = (bits & READS_FLAGS).astype(bool)
        flag_pairs += reads_flags & flags_defined
        flag_anomalies += reads_flags & ~flags_defined
        flags_defined |= (bits & WRITES_FLAGS).astype(bool)
        defined = np.where((bits & CALL).astype(bool),
                           CALL_DEFINED_MASK | (defined & LIVE_MASK),
                           defined | columns.writes[row]).astype(np.uint16)
        traps += (bits & TRAP).astype(bool)
        rare += (bits & RARE).astype(bool)

    lengths = chain_lengths(columns, path)
    last = last_rows(path, lengths)
    last_bits = columns.bits[last]
    falls = (last_bits & FALLS).astype(bool)
    terminated = (lengths > 0) & ~falls
    invalid = (lengths == 0) | ((lengths < window) & falls
                                & (columns.end[last] < columns.size))

    # The same additions, in the same order, as BehaviorReport.score.
    total = np.zeros(count)
    total[invalid] += weights.invalid_fallthrough
    total += weights.trap_in_chain * traps
    total += weights.rare_instruction * rare
    total += weights.defuse_pair * defuse_pairs
    total += weights.flag_pair * flag_pairs
    total += weights.register_anomaly * register_anomalies
    total += weights.flag_anomaly * flag_anomalies
    total[terminated] += weights.terminated_chain
    return total / np.maximum(lengths, 1)


def code_log_probs(columns: ChainColumns, path: np.ndarray,
                   model) -> np.ndarray:
    """n-gram log-probability of every walked chain's token sequence.

    Three step terms are looked up once per distinct row:
    ``lp0[o] = lp(tok[o] | <s>, <s>)``, ``lp1[o]`` the second step of
    the chain at ``o`` and ``lp2[o]`` the trigram starting at ``o``.
    A chain's log-prob is then ``lp0[o] + lp1[o] + lp2[o] + lp2[o1] +
    ...``, added left to right exactly as a per-chain loop would.
    """
    from ..stats.ngram import START   # stats imports this module
    window, count = path.shape
    size = columns.size
    tok = columns.tok.astype(np.int64)
    nxt = columns.nxt
    start = token_id(START)

    def terms(rows, context1, context2, token):
        out = np.zeros(size + 1)
        out[rows] = _log_probs(model, (context1 << (2 * _ID_BITS))
                               | (context2 << _ID_BITS) | token)
        return out

    starts = path[0].astype(np.intp)
    lp0 = terms(starts, start, start, tok[starts])
    code = lp0[starts]
    if window < 2:
        return code
    second = path[1].astype(np.intp)
    alive = second != size
    rows = starts[alive]
    lp1 = terms(rows, start, tok[rows], tok[second[alive]])
    np.add(code, lp1[starts], out=code, where=alive)
    if window < 3:
        return code

    # Trigram terms of every row a chain reaches at a position that
    # still leaves two more instructions inside the window.
    reached = np.zeros(size + 1, dtype=bool)
    reached[path[:window - 2]] = True
    heads = np.flatnonzero(reached[:size])
    first = nxt[heads].astype(np.intp)
    second = nxt[first].astype(np.intp)
    has = second != size
    heads, first, second = heads[has], first[has], second[has]
    lp2 = terms(heads, tok[heads], tok[first], tok[second])
    for step in range(2, window):
        np.add(code, lp2[path[step - 2]], out=code,
               where=path[step] != size)
    return code


def _log_probs(model, keys: np.ndarray) -> np.ndarray:
    """``model.log_prob`` of packed ``(t1, t2, token)`` id triples.

    Each model keeps a sorted table of the triples it has scored, so a
    section pays one Python call per triple the process has not seen
    before and a vectorized search for the rest.  The table is dropped
    when the model's counts change (training grows ``total``).
    """
    cached = _LP_TABLES.get(model)
    if cached is None or cached[0] != model.total:
        cached = (model.total, np.empty(0, dtype=np.int64), np.empty(0))
    _, known, values = cached
    unique, inverse = np.unique(keys, return_inverse=True)
    where = np.searchsorted(known, unique)
    hit = known[np.minimum(where, len(known) - 1)] == unique \
        if len(known) else np.zeros(len(unique), dtype=bool)
    if not hit.all():
        new = unique[~hit]
        mask = (1 << _ID_BITS) - 1
        new_values = np.array([
            model.log_prob(_TOKENS[key & mask],
                           (_TOKENS[key >> (2 * _ID_BITS)],
                            _TOKENS[key >> _ID_BITS & mask]))
            for key in new.tolist()], dtype=float)
        known = np.concatenate((known, new))
        values = np.concatenate((values, new_values))
        order = np.argsort(known)
        known, values = known[order], values[order]
        _LP_TABLES[model] = (model.total, known, values)
        where = np.searchsorted(known, unique)
    return values[where][inverse]


def span_log_probs(byte_lp: np.ndarray, starts: np.ndarray,
                   spans: np.ndarray) -> np.ndarray:
    """``byte_lp[s:s + span].sum()`` for every (start, span) pair.

    Starts are grouped by span length and each group is reduced as a
    contiguous ``(k, span)`` block along its rows, which is the same
    pairwise summation numpy applies to each 1-D slice -- the sums are
    bit-identical, with no prefix-sum rounding.
    """
    out = np.empty(len(starts))
    order = np.argsort(spans, kind="stable")
    ordered = spans[order]
    bounds = np.flatnonzero(np.diff(ordered)) + 1
    for group in np.split(order, bounds):
        if not group.size:
            continue
        span = int(spans[group[0]])
        block = sliding_window_view(byte_lp, span)[starts[group]]
        out[group] = np.add.reduce(block, axis=1)
    return out
