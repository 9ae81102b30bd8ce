"""Differential tests: columnar chain scoring against per-offset oracles.

:mod:`repro.analysis.chains` computes every offset's behavioral and
statistical score in one lockstep numpy walk.  It must be
*bit-identical* (``ndarray.tobytes()``) to the per-offset loops it
replaced, which live on here as oracles:

* behavior -- ``BehaviorAnalyzer.report(...).score(weights)`` at every
  valid offset (still the library's per-offset explain API);
* statistics -- the historical per-chain scoring body, copied below
  verbatim apart from computing each token on the fly.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.behavior import BehaviorAnalyzer, BehaviorWeights
from repro.core.engine.incremental import (IncrementalStats,
                                           _patch_superset, diff_spans)
from repro.stats.ngram import START, token_of
from repro.stats.scoring import StatisticalScorer, UNDECODABLE_SCORE
from repro.superset import Superset
from repro.synth import (BinarySpec, CLANG_LIKE, GCC_LIKE, MSVC_LIKE,
                         generate_binary)

WINDOWS = (1, 2, 6, 8)
CUSTOM_WEIGHTS = BehaviorWeights(invalid_fallthrough=-3.25,
                                 trap_in_chain=-0.7, rare_instruction=-2.1,
                                 defuse_pair=0.6, flag_pair=0.11,
                                 register_anomaly=-1.3, flag_anomaly=-0.9,
                                 terminated_chain=0.45)


# ----------------------------------------------------------------------
# Oracles
# ----------------------------------------------------------------------

def reference_behavior(analyzer: BehaviorAnalyzer,
                       superset: Superset) -> np.ndarray:
    scores = np.full(len(superset), analyzer.weights.invalid_fallthrough)
    for offset in superset.valid_offsets:
        scores[offset] = analyzer.report(superset,
                                         offset).score(analyzer.weights)
    return scores


def reference_chain_score(scorer, superset, offset, data_lp_byte,
                          ascii_penalty) -> float:
    """The pre-columnar per-offset statistical scoring body."""
    chain = superset.fallthrough_chain(offset, scorer.window)
    context = (START, START)
    code_lp = 0.0
    for ins in chain:
        token = token_of(ins)
        code_lp += scorer.code_model.log_prob(token, context)
        context = (context[1], token)
    span = chain[-1].end - offset
    data_lp = data_lp_byte[offset:offset + span].sum()
    return (code_lp - data_lp) / span - ascii_penalty[offset]


def reference_stat(scorer: StatisticalScorer,
                   superset: Superset) -> np.ndarray:
    data_lp_byte = np.array(
        [scorer.data_model.log_prob_byte(b) for b in superset.text])
    ascii_penalty = scorer._ascii_penalty(superset.text)
    scores = np.full(len(superset), UNDECODABLE_SCORE)
    for offset in superset.valid_offsets:
        scores[offset] = reference_chain_score(scorer, superset, offset,
                                               data_lp_byte, ascii_penalty)
    return scores


def assert_kernel_matches_oracles(models, text: bytes, window: int,
                                  weights=BehaviorWeights()) -> None:
    superset = Superset.build(text)
    analyzer = BehaviorAnalyzer(window=window, weights=weights)
    scorer = StatisticalScorer(models.code, models.data, window=window)
    behavior = analyzer.score_all(superset)
    stat = scorer.score_all(superset)
    assert behavior.tobytes() == \
        reference_behavior(analyzer, superset).tobytes()
    assert stat.tobytes() == reference_stat(scorer, superset).tobytes()


# ----------------------------------------------------------------------
# Corpus-wide
# ----------------------------------------------------------------------

@pytest.fixture(scope="module")
def corpus():
    return [generate_binary(BinarySpec(name=f"cols-{style.name}-{count}",
                                       style=style, function_count=count,
                                       seed=23)).text
            for style in (GCC_LIKE, CLANG_LIKE, MSVC_LIKE)
            for count in (4, 16)]


class TestCorpus:
    @pytest.mark.parametrize("window", WINDOWS)
    def test_scores_byte_identical(self, models, corpus, window):
        for text in corpus:
            assert_kernel_matches_oracles(models, text, window)

    @pytest.mark.parametrize("window", (1, 6))
    def test_custom_weights_byte_identical(self, models, corpus, window):
        for text in corpus:
            superset = Superset.build(text)
            analyzer = BehaviorAnalyzer(window=window,
                                        weights=CUSTOM_WEIGHTS)
            assert analyzer.score_all(superset).tobytes() == \
                reference_behavior(analyzer, superset).tobytes()

    def test_behavior_and_scoring_share_one_walk(self, models, corpus):
        superset = Superset.build(corpus[1])
        BehaviorAnalyzer(window=6).score_all(superset)
        columns = superset.chain_columns
        built = columns.rows_built
        assert built == len(superset.valid_offsets)
        _, path = columns.full_walk(superset.valid_offsets, 6)
        StatisticalScorer(models.code, models.data,
                          window=6).score_all(superset)
        assert columns.rows_built == built
        assert columns.full_walk(superset.valid_offsets, 6)[1] is path


# ----------------------------------------------------------------------
# Random texts
# ----------------------------------------------------------------------

#: Encodings to cut short at the end of a section (movabs, call rel32,
#: mov r/m64 imm32 with SIB + disp32, a REX-prefixed two-byte opcode).
LONG_ENCODINGS = (
    bytes.fromhex("48b8" + "11" * 8),
    bytes.fromhex("e8" + "22" * 4),
    bytes.fromhex("48c78424" + "33" * 4 + "44" * 4),
    bytes.fromhex("480fb6843d" + "55" * 4),
)

chunks = st.one_of(
    st.binary(max_size=24),
    st.integers(1, 40).map(lambda n: b"\x00" * n),
    st.integers(1, 40).map(lambda n: b"\x90" * n),
    st.text(alphabet=st.characters(min_codepoint=0x20, max_codepoint=0x7E),
            min_size=1, max_size=24).map(lambda s: s.encode() + b"\x00"),
    st.sampled_from([b"\x55\x48\x89\xe5", b"\xc3", b"\xcc\xcc",
                     b"\x31\xc0", b"\xe8\x00\x00\x00\x00", b"\x0f\x0b"]),
)


@st.composite
def texts(draw):
    body = b"".join(draw(st.lists(chunks, max_size=12)))
    if draw(st.booleans()):
        encoding = draw(st.sampled_from(LONG_ENCODINGS))
        body += encoding[:draw(st.integers(1, len(encoding) - 1))]
    return body


class TestRandomTexts:
    @settings(max_examples=150, deadline=None)
    @given(texts(), st.sampled_from(WINDOWS))
    def test_scores_byte_identical(self, models, text, window):
        assert_kernel_matches_oracles(models, text, window)

    @pytest.mark.parametrize("text", [b"", b"\x90", b"\x06", b"\xc3",
                                      b"\x48", b"\x00" * 64,
                                      b"\x90" * 64,
                                      b"a C string\x00" * 3])
    @pytest.mark.parametrize("window", WINDOWS)
    def test_edge_texts(self, models, text, window):
        assert_kernel_matches_oracles(models, text, window)

    @settings(max_examples=60, deadline=None)
    @given(texts(), st.sampled_from(WINDOWS))
    def test_score_offset_equals_score_all(self, models, text, window):
        superset = Superset.build(text)
        scorer = StatisticalScorer(models.code, models.data, window=window)
        scores = scorer.score_all(superset)
        for offset in range(len(text)):
            assert scorer.score_offset(superset, offset) == scores[offset]


# ----------------------------------------------------------------------
# Rescoring a dirty subset
# ----------------------------------------------------------------------

def patched_superset(base_text: bytes, edits: dict[int, int]):
    text = bytearray(base_text)
    for offset, value in edits.items():
        text[offset % len(text)] = value
    text = bytes(text)
    base = Superset.build(base_text)
    stats = IncrementalStats(total=len(text))
    return text, _patch_superset(base, text,
                                 diff_spans(base_text, text), stats)


class TestRescore:
    @settings(max_examples=25, deadline=None)
    @given(st.dictionaries(st.integers(0, 1 << 16), st.integers(0, 255),
                           min_size=1, max_size=3),
           st.sets(st.integers(0, 1 << 16), max_size=40),
           st.sampled_from(WINDOWS))
    def test_rescore_equals_score_all(self, models, corpus, edits, picks,
                                      window):
        text, superset = patched_superset(corpus[2], edits)
        cold = Superset.build(text)
        dirty = sorted({offset % len(text) for offset in picks}
                       | {offset % len(text) for offset in edits})
        analyzer = BehaviorAnalyzer(window=window)
        scorer = StatisticalScorer(models.code, models.data, window=window)
        for component in (analyzer, scorer):
            expected = component.score_all(cold)
            scores = np.full(len(text), np.nan)
            component.rescore(superset, dirty, scores)
            assert scores[dirty].tobytes() == expected[dirty].tobytes()
            untouched = np.ones(len(text), dtype=bool)
            untouched[dirty] = False
            assert np.isnan(scores[untouched]).all()

    def test_rescore_builds_only_reached_rows(self, models, corpus):
        window = 6
        text, superset = patched_superset(corpus[3], {300: 0xC3})
        dirty = list(range(250, 301))
        BehaviorAnalyzer(window=window).rescore(superset, dirty,
                                                np.zeros(len(text)))
        columns = superset.chain_columns
        reach = (window - 1) * 15
        built = np.flatnonzero(columns.built[:len(text)])
        assert built.min() >= dirty[0]
        assert built.max() < dirty[-1] + 1 + reach
        assert columns.rows_built == len(built) < len(superset) // 4
