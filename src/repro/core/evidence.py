"""Classification state and evidence types for prioritized correction.

The correction engine maintains a per-byte classification with the
priority of the evidence that produced it.  Stronger evidence may
overwrite weaker decisions (that is the "error correction"); equal or
weaker evidence that contradicts an existing decision is rejected.
"""

from __future__ import annotations

import enum
import re
from dataclasses import dataclass


class Classification(enum.IntEnum):
    UNKNOWN = 0
    CODE_START = 1
    CODE_INTERIOR = 2
    DATA = 3


_CODE_START = Classification.CODE_START.value
_CODE_INTERIOR = Classification.CODE_INTERIOR.value
_DATA = Classification.DATA.value
_INTERIOR_BYTE = bytes([_CODE_INTERIOR])
_DATA_BYTE = bytes([_DATA])
#: Label scans run in the regex engine: the correction loop asks for
#: gaps and regions after every round, over every byte of the section.
_CODE_START_AT = re.compile(bytes([_CODE_START]))
_UNKNOWN_RUN = re.compile(bytes([Classification.UNKNOWN]) + b"+")
_DATA_RUN = re.compile(bytes([_DATA]) + b"+")


class Priority(enum.IntEnum):
    """Evidence strength classes, strongest last."""

    SOFT = 1         # statistical / behavioral scores
    IDIOM = 2        # prologue patterns at aligned offsets
    STRUCTURAL = 3   # detected tables, long padding runs
    ANCHOR = 4       # the entry point and propagation from anchors


#: ``bytes.translate`` tables raising every priority byte to at least
#: ``p``, so a mark updates its whole byte range in C.
_RAISE_TO = [bytes(max(b, p) for b in range(256))
             for p in range(max(Priority) + 1)]


@dataclass(frozen=True)
class Evidence:
    """One piece of evidence about a byte range.

    ``kind`` is ``"code"`` (offset is an instruction start) or ``"data"``
    (the [offset, end) range is data).  ``weight`` orders evidence within
    one priority class; ``source`` names the producing analysis for
    explainability.
    """

    kind: str
    offset: int
    end: int
    priority: Priority
    weight: float
    source: str

    def __post_init__(self) -> None:
        if self.kind not in ("code", "data"):
            raise ValueError(f"bad evidence kind: {self.kind}")
        if self.end < self.offset:
            raise ValueError("evidence range is inverted")


class ConflictError(Exception):
    """Internal signal: an assertion contradicts stronger evidence."""


class ClassificationState:
    """Per-byte labels plus the priority that fixed each byte."""

    def __init__(self, size: int) -> None:
        self.size = size
        self.labels = bytearray(size)        # Classification values
        self.priorities = bytearray(size)    # Priority values (0 = none)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def classification(self, offset: int) -> Classification:
        return Classification(self.labels[offset])

    def is_unknown(self, offset: int) -> bool:
        return self.labels[offset] == Classification.UNKNOWN

    def is_code_start(self, offset: int) -> bool:
        return self.labels[offset] == Classification.CODE_START

    def is_code(self, offset: int) -> bool:
        return self.labels[offset] in (Classification.CODE_START,
                                       Classification.CODE_INTERIOR)

    def is_data(self, offset: int) -> bool:
        return self.labels[offset] == Classification.DATA

    def priority_at(self, offset: int) -> int:
        return self.priorities[offset]

    def instruction_starts(self) -> set[int]:
        return {match.start() for match in _CODE_START_AT.finditer(self.labels)}

    def unknown_gaps(self) -> list[tuple[int, int]]:
        """Maximal [start, end) runs still unclassified."""
        return [match.span() for match in _UNKNOWN_RUN.finditer(self.labels)]

    def data_regions(self) -> list[tuple[int, int]]:
        return [match.span() for match in _DATA_RUN.finditer(self.labels)]

    # ------------------------------------------------------------------
    # Mutations
    # ------------------------------------------------------------------

    def can_mark_instruction(self, offset: int, length: int,
                             priority: Priority) -> bool:
        """Would marking this instruction contradict stronger evidence?"""
        end = min(offset + length, self.size)
        labels, priorities = self.labels, self.priorities
        if labels[offset] == _CODE_INTERIOR \
                and priorities[offset] >= priority:
            return False
        if max(priorities[offset:end], default=0) < priority:
            return True      # nothing here is held at this priority
        for i in range(offset, end):
            label = labels[i]
            if label == _DATA and priorities[i] >= priority:
                return False
            if i > offset and label == _CODE_START \
                    and priorities[i] >= priority:
                return False
        return True

    def mark_instruction(self, offset: int, length: int,
                         priority: Priority) -> None:
        """Record an accepted instruction; caller checked for conflicts."""
        end = min(offset + length, self.size)
        labels, priorities = self.labels, self.priorities
        labels[offset] = _CODE_START
        priorities[offset] = max(priorities[offset], priority)
        if end > offset + 1:
            labels[offset + 1:end] = _INTERIOR_BYTE * (end - offset - 1)
            priorities[offset + 1:end] = \
                priorities[offset + 1:end].translate(_RAISE_TO[priority])

    def can_mark_data(self, start: int, end: int,
                      priority: Priority) -> bool:
        end = min(end, self.size)
        if max(self.priorities[start:end], default=0) < priority:
            return True
        for i in range(start, end):
            if self.labels[i] in (Classification.CODE_START,
                                  Classification.CODE_INTERIOR) \
                    and self.priorities[i] >= priority:
                return False
        return True

    def mark_data(self, start: int, end: int, priority: Priority) -> None:
        end = min(end, self.size)
        if end > start:
            self.labels[start:end] = _DATA_BYTE * (end - start)
            self.priorities[start:end] = \
                self.priorities[start:end].translate(_RAISE_TO[priority])

    def erase(self, offsets: set[int]) -> None:
        """Roll back tentative marks (used when a trace is aborted)."""
        for i in offsets:
            self.labels[i] = Classification.UNKNOWN
            self.priorities[i] = 0
