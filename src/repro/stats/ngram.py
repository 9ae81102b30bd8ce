"""Instruction-sequence n-gram language model.

Real machine code is extremely regular at the level of *normalized*
instructions: ``push rbp`` is followed by ``mov rbp, rsp`` far more often
than chance, ALU results feed stores, compares feed branches.  Byte
sequences that happen to decode (data, or mid-instruction starts)
produce token sequences with very low probability under a model trained
on real code.  This is the "statistical properties" half of the paper's
detector.

Tokens normalize away immediates, displacement values and exact
registers, keeping the mnemonic, coarse operand shapes, and width --
enough structure to be predictive, little enough to generalize.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from collections.abc import Iterable

from ..isa.instruction import Instruction
from ..isa.operands import ImmOp, MemOp, RegOp, RelOp

#: Pseudo-tokens marking sequence boundaries.
START = "<s>"
END = "</s>"


def token_of(instruction: Instruction) -> str:
    """Normalize an instruction to its model token."""
    shapes = []
    for operand in instruction.operands:
        if isinstance(operand, RegOp):
            shapes.append(f"r{operand.register.width}")
        elif isinstance(operand, ImmOp):
            shapes.append("i")
        elif isinstance(operand, MemOp):
            shapes.append("M" if operand.rip_relative else "m")
        elif isinstance(operand, RelOp):
            shapes.append("rel")
    return instruction.mnemonic + ":" + "".join(shapes)


class NgramModel:
    """An interpolated trigram model over instruction tokens.

    Probabilities interpolate trigram, bigram, unigram and a uniform
    floor so unseen sequences score low but never -inf.
    """

    def __init__(self, weights: tuple[float, float, float, float]
                 = (0.55, 0.30, 0.14, 0.01)) -> None:
        if abs(sum(weights) - 1.0) > 1e-9:
            raise ValueError("interpolation weights must sum to 1")
        self.weights = weights
        self.unigrams: Counter[str] = Counter()
        self.bigrams: Counter[tuple[str, str]] = Counter()
        self.trigrams: Counter[tuple[str, str, str]] = Counter()
        self.bigram_context: Counter[str] = Counter()
        self.trigram_context: Counter[tuple[str, str]] = Counter()
        self.total = 0
        # (token, context) -> log-prob memo.  Scoring a section queries
        # the same few thousand pairs hundreds of thousands of times
        # (overlapping fall-through chains), so this is a hot cache; it
        # is invalidated whenever counts change.
        self._log_prob_cache: dict[tuple[str, tuple[str, str]], float] = {}

    # ------------------------------------------------------------------
    # Training
    # ------------------------------------------------------------------

    def train(self, sequences: Iterable[list[str]]) -> None:
        self._log_prob_cache.clear()
        for sequence in sequences:
            padded = [START, START] + list(sequence) + [END]
            for i in range(2, len(padded)):
                t1, t2, t3 = padded[i - 2], padded[i - 1], padded[i]
                self.unigrams[t3] += 1
                self.bigrams[(t2, t3)] += 1
                self.trigrams[(t1, t2, t3)] += 1
                self.bigram_context[t2] += 1
                self.trigram_context[(t1, t2)] += 1
                self.total += 1

    @property
    def vocabulary_size(self) -> int:
        return max(len(self.unigrams), 1)

    # ------------------------------------------------------------------
    # Scoring
    # ------------------------------------------------------------------

    def log_prob(self, token: str, context: tuple[str, str]) -> float:
        """log P(token | context) under the interpolated model (memoized)."""
        key = (token, context)
        cached = self._log_prob_cache.get(key)
        if cached is not None:
            return cached
        w3, w2, w1, w0 = self.weights
        t1, t2 = context
        p = w0 / self.vocabulary_size
        if self.total:
            p += w1 * self.unigrams.get(token, 0) / self.total
        c2 = self.bigram_context.get(t2, 0)
        if c2:
            p += w2 * self.bigrams.get((t2, token), 0) / c2
        c3 = self.trigram_context.get((t1, t2), 0)
        if c3:
            p += w3 * self.trigrams.get((t1, t2, token), 0) / c3
        result = math.log(p)
        self._log_prob_cache[key] = result
        return result

    def score_sequence(self, tokens: list[str]) -> float:
        """Total log-probability of a token sequence (without END)."""
        context = (START, START)
        total = 0.0
        for token in tokens:
            total += self.log_prob(token, context)
            context = (context[1], token)
        return total

    def score_instructions(self, instructions: list[Instruction]) -> float:
        return self.score_sequence([token_of(i) for i in instructions])

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "weights": list(self.weights),
            "total": self.total,
            "unigrams": dict(self.unigrams),
            "bigrams": {f"{a}\t{b}": c
                        for (a, b), c in self.bigrams.items()},
            "trigrams": {f"{a}\t{b}\t{c}": n
                         for (a, b, c), n in self.trigrams.items()},
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict())

    @classmethod
    def from_json(cls, text: str) -> NgramModel:
        return cls.from_dict(json.loads(text))

    @classmethod
    def from_dict(cls, raw: dict) -> NgramModel:
        model = cls(weights=tuple(raw["weights"]))
        model.total = raw["total"]
        model.unigrams = Counter(raw["unigrams"])
        for key, count in raw["bigrams"].items():
            a, b = key.split("\t")
            model.bigrams[(a, b)] = count
            model.bigram_context[a] += count
        for key, count in raw["trigrams"].items():
            a, b, c = key.split("\t")
            model.trigrams[(a, b, c)] = count
            model.trigram_context[(a, b)] += count
        return model
