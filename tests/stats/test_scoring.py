"""Tests for the combined statistical scorer."""

import numpy as np

from repro.stats.scoring import StatisticalScorer, UNDECODABLE_SCORE
from repro.superset import Superset


class TestScoreAll:
    def test_vector_shape(self, models, msvc_case, msvc_superset):
        scorer = StatisticalScorer(models.code, models.data)
        scores = scorer.score_all(msvc_superset)
        assert scores.shape == (len(msvc_case.text),)

    def test_invalid_offsets_get_floor_score(self, models):
        scorer = StatisticalScorer(models.code, models.data)
        superset = Superset.build(b"\x06\x90\xc3")
        scores = scorer.score_all(superset)
        assert scores[0] == UNDECODABLE_SCORE

    def test_score_all_matches_score_offset(self, models, msvc_superset):
        """Exactly, at every valid offset: both run the same kernel."""
        scorer = StatisticalScorer(models.code, models.data)
        scores = scorer.score_all(msvc_superset)
        for offset in msvc_superset.valid_offsets:
            individual = scorer.score_offset(msvc_superset, offset)
            assert individual == scores[offset], offset

    def test_separation_on_real_binary(self, models, msvc_case,
                                       msvc_superset):
        """True instruction starts outscore data offsets on average."""
        scorer = StatisticalScorer(models.code, models.data)
        scores = scorer.score_all(msvc_superset)
        truth = msvc_case.truth
        start_scores = [scores[o] for o in truth.instruction_starts]
        data_offsets = [o for s, e in truth.data_regions()
                        for o in range(s, e)]
        data_scores = [scores[o] for o in data_offsets]
        assert np.mean(start_scores) > np.mean(data_scores) + 1.0

    def test_window_controls_chain_length(self, models):
        short = StatisticalScorer(models.code, models.data, window=1)
        superset = Superset.build(b"\x90" * 8 + b"\xc3")
        value = short.score_offset(superset, 0)
        assert np.isfinite(value)

class TestAsciiRunCaching:
    def test_ascii_scan_runs_once_per_section(self, models):
        """score_offset must not rescan the section for ASCII runs on
        every call (that made per-offset scoring O(n^2))."""
        from repro.stats.scoring import terminated_ascii_runs

        scorer = StatisticalScorer(models.code, models.data)
        text = b"\x90" * 64 + b"a string literal!\x00" + b"\xc3"
        superset = Superset.build(text)
        terminated_ascii_runs.cache_clear()
        for offset in range(32):
            scorer.score_offset(superset, offset)
        info = terminated_ascii_runs.cache_info()
        assert info.misses == 1
        assert info.hits >= 31

    def test_penalty_still_applied_inside_terminated_run(self, models):
        scorer = StatisticalScorer(models.code, models.data)
        text = b"PLAIN ASCII TEXT HERE\x00" + b"\x90" * 8 + b"\xc3"
        superset = Superset.build(text)
        inside = scorer.score_offset(superset, 2)
        scores = scorer.score_all(superset)
        assert inside == scores[2]
