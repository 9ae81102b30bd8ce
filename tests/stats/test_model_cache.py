"""Tests for the on-disk model cache (`repro.stats.cache`)."""

import json

import numpy as np
import pytest

from repro.stats import cache
from repro.stats.datamodel import DataByteModel
from repro.stats.ngram import NgramModel, START
from repro.stats.scoring import StatisticalScorer
from repro.stats.training import (default_models, default_training_key,
                                  train_models)
from repro.superset import Superset
from repro.synth import generate_corpus


@pytest.fixture
def tmp_cache(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    monkeypatch.delenv("REPRO_NO_MODEL_CACHE", raising=False)
    return tmp_path


def small_models() -> tuple[NgramModel, DataByteModel]:
    code = NgramModel()
    code.train([["push:r64", "mov:r64r64", "sub:r64i"],
                ["push:r64", "ret:"]])
    data = DataByteModel()
    data.train([bytes(16), b"hello world\x00"])
    return code, data


class TestRoundTrip:
    def test_save_then_load_is_exact(self, tmp_cache):
        code, data = small_models()
        cache.save_models("k1", code, data)
        loaded = cache.load_models("k1")
        assert loaded is not None
        loaded_code, loaded_data = loaded
        assert loaded_code.weights == code.weights
        assert loaded_code.total == code.total
        assert dict(loaded_code.unigrams) == dict(code.unigrams)
        assert dict(loaded_code.bigrams) == dict(code.bigrams)
        assert dict(loaded_code.trigrams) == dict(code.trigrams)
        assert dict(loaded_code.bigram_context) == dict(code.bigram_context)
        assert (dict(loaded_code.trigram_context)
                == dict(code.trigram_context))
        assert loaded_data.counts == data.counts
        assert loaded_data.total == data.total

    def test_loaded_model_scores_identically(self, tmp_cache):
        code, data = small_models()
        cache.save_models("k2", code, data)
        loaded_code, loaded_data = cache.load_models("k2")
        queries = [("push:r64", (START, START)),
                   ("mov:r64r64", (START, "push:r64")),
                   ("never-seen:", ("push:r64", "mov:r64r64"))]
        for token, context in queries:
            assert loaded_code.log_prob(token, context) \
                == code.log_prob(token, context)
        assert loaded_data.log_prob(b"\x00hello") == data.log_prob(b"\x00hello")

    def test_from_dict_and_from_json_score_identically(self):
        code, data = small_models()
        via_dict = (NgramModel.from_dict(code.to_dict()),
                    DataByteModel.from_dict(data.to_dict()))
        via_json = (NgramModel.from_json(code.to_json()),
                    DataByteModel.from_json(data.to_json()))
        tokens = ["push:r64", "mov:r64r64", "sub:r64i", "never-seen:"]
        assert via_dict[0].score_sequence(tokens) \
            == via_json[0].score_sequence(tokens) \
            == code.score_sequence(tokens)
        blob = b"\x00hello world\xff"
        assert via_dict[1].log_prob(blob) == via_json[1].log_prob(blob) \
            == data.log_prob(blob)


#: Valid JSON that is not a model pair, and (None) a truncated file.
CORRUPT_PAYLOADS = ["[]", "null", '{"version": 1, "code": []}', None]


def write_corrupt(key: str, payload: str | None) -> None:
    if payload is None:
        path = cache.save_models(key, *small_models())
        blob = path.read_bytes()
        path.write_bytes(blob[:len(blob) // 2])
    else:
        path = cache.model_path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(payload)


class TestMissAndCorruption:
    def test_missing_key_is_a_miss(self, tmp_cache):
        assert cache.load_models("nope") is None

    def test_corrupt_file_is_a_miss(self, tmp_cache):
        cache.model_path("bad").parent.mkdir(parents=True, exist_ok=True)
        cache.model_path("bad").write_text("{not json")
        assert cache.load_models("bad") is None

    @pytest.mark.parametrize("payload", CORRUPT_PAYLOADS,
                             ids=lambda p: p or "truncated")
    def test_non_model_payload_is_a_miss(self, tmp_cache, payload):
        write_corrupt("odd", payload)
        assert cache.load_models("odd") is None

    @pytest.mark.parametrize("payload", CORRUPT_PAYLOADS,
                             ids=lambda p: p or "truncated")
    def test_default_models_retrains_over_corrupt_file(
            self, tmp_cache, monkeypatch, payload):
        # An empty training corpus keeps the retrain cheap; what matters
        # is that the corrupt file is a miss and gets replaced.
        import repro.synth.corpus as corpus
        monkeypatch.setattr(corpus, "generate_corpus", lambda **_: [])
        key = default_training_key()
        write_corrupt(key, payload)
        default_models.cache_clear()
        try:
            models = default_models()
        finally:
            default_models.cache_clear()
        retrained = train_models([])
        assert models.data.counts == retrained.data.counts
        loaded = cache.load_models(key)
        assert loaded is not None
        assert loaded[1].counts == retrained.data.counts

    def test_version_mismatch_is_a_miss(self, tmp_cache):
        code, data = small_models()
        path = cache.save_models("old", code, data)
        raw = json.loads(path.read_text())
        raw["version"] = -1
        path.write_text(json.dumps(raw))
        assert cache.load_models("old") is None

    def test_cache_disabled_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_NO_MODEL_CACHE", "1")
        assert cache.cache_disabled()
        monkeypatch.setenv("REPRO_NO_MODEL_CACHE", "0")
        assert not cache.cache_disabled()


class TestStableDigest:
    def test_digest_independent_of_key_order(self):
        assert cache.stable_digest({"a": 1, "b": [2, 3]}) \
            == cache.stable_digest({"b": [2, 3], "a": 1})

    def test_digest_sensitive_to_values_and_length_knob(self):
        a = cache.stable_digest({"a": 1})
        assert a != cache.stable_digest({"a": 2})
        assert len(a) == 16
        assert len(cache.stable_digest({"a": 1}, length=8)) == 8
        assert cache.stable_digest({"a": 1}, length=8) == a[:8]


class TestTrainingKey:
    def test_key_is_stable(self):
        a = cache.training_key((1, 2), 40, (0.5, 0.3, 0.19, 0.01), 0.5)
        b = cache.training_key((1, 2), 40, (0.5, 0.3, 0.19, 0.01), 0.5)
        assert a == b

    def test_key_depends_on_config(self):
        a = cache.training_key((1, 2), 40, (0.5, 0.3, 0.19, 0.01), 0.5)
        b = cache.training_key((1, 3), 40, (0.5, 0.3, 0.19, 0.01), 0.5)
        c = cache.training_key((1, 2), 41, (0.5, 0.3, 0.19, 0.01), 0.5)
        assert len({a, b, c}) == 3

    def test_config_change_invalidates_cached_entry(self, tmp_cache):
        # A model pair saved under one training config must be a load
        # miss for any different config -- key-level invalidation is
        # the only staleness defense the cache has.
        code, data = small_models()
        old_key = cache.training_key((1, 2), 40,
                                     (0.5, 0.3, 0.19, 0.01), 0.5)
        cache.save_models(old_key, code, data)
        new_key = cache.training_key((1, 2), 40,
                                     (0.5, 0.3, 0.19, 0.01), 0.6)
        assert new_key != old_key
        assert cache.load_models(old_key) is not None
        assert cache.load_models(new_key) is None


class TestDefaultModels:
    def test_default_models_round_trip_through_disk(self, tmp_cache):
        default_models.cache_clear()
        try:
            trained = default_models()          # trains, writes the cache
            key = default_training_key()
            assert cache.model_path(key).exists()
            loaded = cache.load_models(key)
            assert loaded is not None
            code, data = loaded
            assert dict(code.unigrams) == dict(trained.code.unigrams)
            assert dict(code.trigrams) == dict(trained.code.trigrams)
            assert data.counts == trained.data.counts

            default_models.cache_clear()
            reloaded = default_models()         # must hit the disk cache
            assert (dict(reloaded.code.trigrams)
                    == dict(trained.code.trigrams))
            assert reloaded.data.total == trained.data.total
        finally:
            default_models.cache_clear()


class TestFormatVersion2:
    """The n-gram model is stored as a token table plus flat counts."""

    @pytest.fixture(scope="class")
    def trained(self):
        return train_models(generate_corpus(seeds=(11, 12),
                                            function_count=8))

    @pytest.fixture
    def reloaded(self, trained, tmp_cache):
        cache.save_models("v2", trained.code, trained.data)
        loaded = cache.load_models("v2")
        assert loaded is not None
        return loaded

    def test_layout_is_token_table_and_flat_integers(self, reloaded,
                                                     tmp_cache):
        raw = json.loads(cache.model_path("v2").read_text())
        assert raw["version"] == cache.MODEL_FORMAT_VERSION == 2
        code = raw["code"]
        assert len(code["tokens"]) == len(set(code["tokens"]))
        for field, width in (("unigrams", 2), ("bigrams", 3),
                             ("trigrams", 4)):
            assert len(code[field]) % width == 0
            assert all(type(value) is int for value in code[field])

    def test_counts_and_context_sums_round_trip_exactly(self, trained,
                                                        reloaded):
        code, data = reloaded
        assert code.weights == trained.code.weights
        assert code.total == trained.code.total
        for field in ("unigrams", "bigrams", "trigrams"):
            # Same counts, in the order the trained counters iterate.
            assert (list(getattr(code, field).items())
                    == list(getattr(trained.code, field).items())), field
        for field in ("bigram_context", "trigram_context"):
            assert (dict(getattr(code, field))
                    == dict(getattr(trained.code, field))), field
        assert data.counts == trained.data.counts
        assert data.total == trained.data.total

    def test_scores_are_equal_after_the_round_trip(self, trained,
                                                   reloaded, msvc_case):
        superset = Superset.build(msvc_case.text)
        before = StatisticalScorer(trained.code,
                                   trained.data).score_all(superset)
        after = StatisticalScorer(*reloaded).score_all(superset)
        assert np.array_equal(before, after)
        assert (before == after).all()

    @pytest.mark.parametrize("field", ["unigrams", "bigrams", "trigrams"])
    def test_ragged_count_list_is_a_miss(self, reloaded, tmp_cache, field):
        path = cache.model_path("v2")
        raw = json.loads(path.read_text())
        raw["code"][field].pop()
        path.write_text(json.dumps(raw))
        assert cache.load_models("v2") is None

    def test_version_1_file_is_a_miss_and_retrained_over(
            self, tmp_cache, monkeypatch):
        import repro.synth.corpus as corpus
        monkeypatch.setattr(corpus, "generate_corpus", lambda **_: [])
        code, data = small_models()
        key = default_training_key()
        path = cache.model_path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({
            "version": 1,
            "code": {"weights": list(code.weights), "total": code.total,
                     "unigrams": dict(code.unigrams),
                     "bigrams": {"\t".join(k): n
                                 for k, n in code.bigrams.items()},
                     "trigrams": {"\t".join(k): n
                                  for k, n in code.trigrams.items()}},
            "data": data.to_dict()}))
        assert cache.load_models(key) is None
        default_models.cache_clear()
        try:
            models = default_models()
        finally:
            default_models.cache_clear()
        assert models.code.total == 0    # retrained, not loaded
        assert json.loads(path.read_text())["version"] == 2
        assert cache.load_models(key) is not None
