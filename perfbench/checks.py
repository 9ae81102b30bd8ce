"""Output checks: accuracy against the generator's ground truth.

The reference is always the per-byte truth emitted by
:mod:`repro.synth` alongside each input, never a disassembler output.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class Accuracy:
    """Pooled byte-level and function-level confusion counts."""

    byte_tp: int = 0
    byte_fp: int = 0
    byte_fn: int = 0
    func_tp: int = 0
    func_fp: int = 0
    func_fn: int = 0
    scored: int = 0

    def add(self, result, truth) -> None:
        """Score one :class:`~repro.result.DisassemblyResult`."""
        from repro.eval.metrics import evaluate

        evaluation = evaluate(result, truth)
        errors = evaluation.bytes
        self.byte_tp += errors.code_bytes - errors.missed_code
        self.byte_fp += errors.false_code
        self.byte_fn += errors.missed_code
        functions = evaluation.functions
        self.func_tp += functions.true_positives
        self.func_fp += functions.false_positives
        self.func_fn += functions.false_negatives
        self.scored += 1

    @staticmethod
    def _f1(tp: int, fp: int, fn: int) -> float:
        return 2 * tp / (2 * tp + fp + fn) if tp + fp + fn else 1.0

    @property
    def byte_f1(self) -> float:
        return self._f1(self.byte_tp, self.byte_fp, self.byte_fn)

    @property
    def function_f1(self) -> float:
        return self._f1(self.func_tp, self.func_fp, self.func_fn)

    @property
    def error_bytes(self) -> int:
        """Data bytes claimed as code plus code bytes missed."""
        return self.byte_fp + self.byte_fn


def parse_result(payload: str):
    """A :class:`DisassemblyResult` from JSON, or None when malformed."""
    from repro.result import DisassemblyResult

    try:
        result = DisassemblyResult.from_json(payload)
    except (ValueError, KeyError, TypeError):
        return None
    if not all(isinstance(o, int) and isinstance(n, int) and n > 0
               for o, n in result.instructions.items()):
        return None
    return result
