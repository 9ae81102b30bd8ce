"""The cyclic collector is paused for exactly one disassembly.

:func:`repro.perf.gc_paused` wraps ``Disassembler.disassemble_rich`` and
``disassemble_incremental``.  These tests pin its contract: the caller's
collector state comes back however the run ends, no collection runs
inside the pipeline, the one exit collection frees the run's reference
cycles, and a caller who disabled the collector gets no collection.
"""

from __future__ import annotations

import gc
import sys
import threading

import pytest

from repro import perf
from repro.core import Disassembler, FactBase, disassemble_incremental
from repro.perf import gc_paused
from repro.synth import BinarySpec, GCC_LIKE, generate_binary


@pytest.fixture(scope="module")
def small_case(models):
    return generate_binary(BinarySpec(name="gc-pause", style=GCC_LIKE,
                                      function_count=6, seed=11))


@pytest.fixture
def collections():
    """Every collection as ``(generation, collector enabled at start)``."""
    seen: list[tuple[int, bool]] = []

    def hook(phase, info):
        if phase == "start":
            seen.append((info["generation"], gc.isenabled()))

    gc.collect()
    gc.callbacks.append(hook)
    try:
        yield seen
    finally:
        gc.callbacks.remove(hook)


@pytest.fixture
def collector_enabled():
    """Run the test with the collector on; restore the caller's state."""
    was_enabled = gc.isenabled()
    gc.enable()
    try:
        yield
    finally:
        if not was_enabled:
            gc.disable()


@pytest.fixture
def collector_disabled():
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


class TestContextManager:
    def test_disables_inside_and_restores(self, collector_enabled):
        with gc_paused():
            assert not gc.isenabled()
        assert gc.isenabled()

    def test_nested_pause_restores_only_at_outermost_exit(
            self, collector_enabled, collections):
        with gc_paused():
            with gc_paused():
                pass
            assert not gc.isenabled()
            assert collections == []
        assert gc.isenabled()
        assert collections == [(1, True)]

    def test_restores_after_exception(self, collector_enabled):
        with pytest.raises(RuntimeError):
            with gc_paused():
                raise RuntimeError("boom")
        assert gc.isenabled()
        assert perf._gc_depth == 0

    def test_caller_disabled_stays_disabled_without_collecting(
            self, collector_disabled, collections):
        with gc_paused():
            assert not gc.isenabled()
        assert not gc.isenabled()
        assert collections == []

    def test_overlapping_threads_keep_the_count(self, collector_enabled):
        # Four threads (more than the cores of a small host) open and
        # close pauses with a tiny switch interval; a lost update of
        # the depth would leave the collector off, or turn it on while
        # another thread is still inside its pause.
        errors: list[str] = []

        def worker():
            for _ in range(3000):
                with gc_paused():
                    if gc.isenabled():
                        errors.append("collector enabled inside a pause")

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker) for _ in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert gc.isenabled()
        assert perf._gc_depth == 0


class TestPipeline:
    def test_no_collection_inside_the_run(self, small_case,
                                          collector_enabled, collections):
        Disassembler().disassemble_rich(small_case)
        assert gc.isenabled()
        # The only collection is the exit one, made after the collector
        # was re-enabled; none ran while the pipeline allocated.
        assert collections == [(1, True)]

    def test_restored_after_exception_mid_pipeline(
            self, small_case, collector_enabled, collections, monkeypatch):
        import repro.core.disassembler as disassembler_mod

        def explode(*args, **kwargs):
            assert not gc.isenabled()
            raise RuntimeError("engine failure")

        monkeypatch.setattr(disassembler_mod, "identify_functions", explode)
        with pytest.raises(RuntimeError, match="engine failure"):
            Disassembler().disassemble_rich(small_case)
        assert gc.isenabled()
        assert perf._gc_depth == 0
        assert collections == [(1, True)]

    def test_restored_after_incremental_cold_fallback(
            self, small_case, collector_enabled, collections):
        disassembler = Disassembler()
        base = FactBase.from_run(disassembler.disassemble_rich(small_case),
                                 disassembler.config)
        collections.clear()
        _, stats = disassemble_incremental(disassembler, base,
                                           small_case.text[:-16])
        assert stats.cold and stats.reason == "shrunk"
        assert gc.isenabled()
        assert perf._gc_depth == 0
        # The nested cold run did not collect on its own exit.
        assert collections == [(1, True)]

    def test_caller_disabled_collector(self, small_case,
                                       collector_disabled, collections):
        Disassembler().disassemble_rich(small_case)
        assert not gc.isenabled()
        assert collections == []

    def test_back_to_back_runs_free_their_cycles(self, small_case,
                                                 collector_enabled):
        disassembler = Disassembler()
        for _ in range(2):                  # fill caches and interning
            disassembler.disassemble_rich(small_case)
        gc.collect()
        before = len(gc.get_objects())
        for _ in range(20):
            disassembler.disassemble_rich(small_case)
        growth = len(gc.get_objects()) - before
        # One run's engine cycles are hundreds of objects; twenty runs
        # that leaked them would grow by thousands.
        assert growth < 300, growth
