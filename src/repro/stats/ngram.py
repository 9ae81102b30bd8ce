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
        """The counts as one token table plus flat integer lists.

        ``unigrams`` holds ``token, count`` pairs, ``bigrams`` holds
        ``a, b, count`` triples and ``trigrams`` holds ``a, b, c, count``
        quadruples, each token an index into ``tokens``, in the order
        the counters iterate.  The context counts are derived on load.
        """
        ids: dict[str, int] = {}

        def flat(counter: Counter) -> list[int]:
            out: list[int] = []
            for key, count in counter.items():
                for token in key if isinstance(key, tuple) else (key,):
                    out.append(ids.setdefault(token, len(ids)))
                out.append(count)
            return out

        counts = {"unigrams": flat(self.unigrams),
                  "bigrams": flat(self.bigrams),
                  "trigrams": flat(self.trigrams)}
        return {"weights": list(self.weights), "total": self.total,
                "tokens": list(ids), **counts}

    def to_json(self) -> str:
        return json.dumps(self.to_dict())

    @classmethod
    def from_json(cls, text: str) -> NgramModel:
        return cls.from_dict(json.loads(text))

    @classmethod
    def from_dict(cls, raw: dict) -> NgramModel:
        model = cls(weights=tuple(raw["weights"]))
        model.total = raw["total"]
        tokens = raw["tokens"]
        unigrams, bigrams, trigrams = (raw["unigrams"], raw["bigrams"],
                                       raw["trigrams"])
        if len(unigrams) % 2 or len(bigrams) % 3 or len(trigrams) % 4:
            raise ValueError("n-gram count lists of the wrong length")
        model.unigrams = Counter(dict(zip(
            map(tokens.__getitem__, unigrams[0::2]), unigrams[1::2])))
        firsts = list(map(tokens.__getitem__, bigrams[0::3]))
        model.bigrams = Counter(dict(zip(
            zip(firsts, map(tokens.__getitem__, bigrams[1::3])),
            bigrams[2::3])))
        model.bigram_context = _sums(firsts, bigrams[2::3])
        pairs = list(zip(map(tokens.__getitem__, trigrams[0::4]),
                         map(tokens.__getitem__, trigrams[1::4])))
        model.trigrams = Counter(dict(zip(
            (pair + (token,) for pair, token in
             zip(pairs, map(tokens.__getitem__, trigrams[2::4]))),
            trigrams[3::4])))
        model.trigram_context = _sums(pairs, trigrams[3::4])
        return model


def _sums(keys: list, counts: list[int]) -> Counter:
    """Per-key totals of ``counts``, keys in order of first appearance."""
    sums: dict = {}
    get = sums.get
    for key, count in zip(keys, counts):
        sums[key] = get(key, 0) + count
    return Counter(sums)
