"""On-disk cache for trained statistical models.

Training the default models costs seconds of corpus generation and
counting per process; every worker of the parallel evaluation driver
would otherwise pay it again.  Models are therefore persisted as JSON
under a cache directory, keyed by a hash of everything that determines
the training result (corpus seeds, corpus size, model hyperparameters,
and a format version bumped whenever training or serialization
changes).  A stale or corrupt cache entry is simply retrained over.

Environment knobs:

* ``REPRO_CACHE_DIR`` -- cache root (default ``~/.cache/repro``).
* ``REPRO_NO_MODEL_CACHE=1`` -- bypass the disk cache entirely.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from pathlib import Path

from .datamodel import DataByteModel
from .ngram import NgramModel

#: Bump when the training pipeline or the JSON format changes shape.
MODEL_FORMAT_VERSION = 2


def cache_dir() -> Path:
    """The cache root (not created until a model is saved)."""
    root = os.environ.get("REPRO_CACHE_DIR")
    if root:
        return Path(root)
    return Path.home() / ".cache" / "repro"


def cache_disabled() -> bool:
    return os.environ.get("REPRO_NO_MODEL_CACHE", "") not in ("", "0")


def stable_digest(payload: dict, *, length: int = 16) -> str:
    """Deterministic hex digest of a JSON-serializable payload.

    The shared keying primitive for every content-addressed cache in
    the project: the model cache below and the serving layer's result
    cache (:mod:`repro.serve.cache`) both derive their keys from it, so
    "same payload" means "same key" across processes and runs.
    """
    blob = json.dumps(payload, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:length]


def training_key(seeds: tuple[int, ...], function_count: int,
                 ngram_weights: tuple[float, ...],
                 uniform_weight: float) -> str:
    """Stable hash of the full training configuration."""
    return stable_digest({
        "version": MODEL_FORMAT_VERSION,
        "seeds": list(seeds),
        "function_count": function_count,
        "ngram_weights": list(ngram_weights),
        "uniform_weight": uniform_weight,
    })


def model_path(key: str) -> Path:
    return cache_dir() / f"models-{key}.json"


def save_models(key: str, code: NgramModel, data: DataByteModel) -> Path:
    """Persist a model pair atomically (safe under concurrent workers)."""
    path = model_path(key)
    path.parent.mkdir(parents=True, exist_ok=True)
    payload = json.dumps({
        "version": MODEL_FORMAT_VERSION,
        "code": code.to_dict(),
        "data": data.to_dict(),
    })
    # Write-then-rename so a concurrent reader never sees a torn file.
    fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(payload)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
    return path


def load_models(key: str) -> tuple[NgramModel, DataByteModel] | None:
    """Load a cached model pair; None on miss, staleness, or corruption."""
    path = model_path(key)
    try:
        raw = json.loads(path.read_text())
        if not isinstance(raw, dict) \
                or raw.get("version") != MODEL_FORMAT_VERSION:
            return None
        return (NgramModel.from_dict(raw["code"]),
                DataByteModel.from_dict(raw["data"]))
    except (OSError, ValueError, KeyError, TypeError, AttributeError):
        return None
