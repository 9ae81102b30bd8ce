"""Seeded input generation for every workload.

Inputs come from :mod:`repro.synth`, the generator that also emits the
exact per-byte ground truth used to score accuracy.  The same seed
always yields the same inputs; the runner records a digest of them
(:func:`common.digest`) so two runs can prove they measured the same
bytes.
"""

from __future__ import annotations

import dataclasses
import random
from dataclasses import dataclass

STYLE_NAMES = ("gcc-like", "clang-like", "msvc-like")
#: batch-cold text sizes per style, KB: cost per KB grows with size, so
#: size is a traffic dimension of its own.  The middle size comes twice:
#: the batch's median operation is then the median of six 30 KB
#: binaries, not the middle one of three, whose cost varies by a quarter
#: from one seed's draw to the next.
BATCH_SIZES_KB = (10, 30, 30, 80)
#: near-hit base size, KB, and bases per style.
NEAR_BASE_KB = 12
NEAR_BASES_PER_STYLE = 2
#: cli-cold ELF text size, KB, and distinct files per run.
CLI_KB = 5
CLI_FILES = 10
#: serve-open request text size, KB: small, so the serve layers' own
#: costs are a visible share of each request.
SERVE_KB = 2
#: Rough text bytes one generated function contributes, by style (the
#: starting point of the size search).
_BYTES_PER_FUNCTION = {"gcc-like": 500, "clang-like": 545, "msvc-like": 575}
#: Accept a generated text within this share of its target size, and
#: give up (keeping the closest) after this many draws.
_SIZE_TOLERANCE = 0.04
_SIZE_ATTEMPTS = 12


@dataclass
class Case:
    """One generated input: container bytes plus its ground truth."""

    name: str
    blob: bytes          # native RPRB container bytes
    text_len: int
    truth: object        # repro.binary.groundtruth.GroundTruth


def sized_case(name: str, style: str, target_kb: float,
               rng: random.Random) -> Case:
    """A synthetic binary whose text is within a few percent of a size.

    Text size grows with the function count, but the generator's layout
    changes with the count, so instead of tuning the count for one seed
    this draws fresh seeds at the estimated count (refining the bytes
    per function it observes) until a text lands within
    :data:`_SIZE_TOLERANCE`, keeping the closest of
    :data:`_SIZE_ATTEMPTS` otherwise.  Pinning sizes keeps run-to-run
    spread from coming from size alone.
    """
    from repro.synth import BinarySpec, generate_binary, style_by_name

    target = target_kb * 1024
    per_function = _BYTES_PER_FUNCTION[style]
    best = None
    for attempt in range(1, _SIZE_ATTEMPTS + 1):
        count = max(2, round(target / per_function))
        case = generate_binary(BinarySpec(name=name,
                                          style=style_by_name(style),
                                          function_count=count,
                                          seed=rng.randrange(1 << 30)))
        error = abs(len(case.text) - target) / target
        if best is None or error < best[0]:
            best = (error, case)
        if error <= _SIZE_TOLERANCE:
            break
        per_function += (len(case.text) / count - per_function) / (attempt + 1)
    case = best[1]
    return Case(name=name, blob=case.binary.to_bytes(),
                text_len=len(case.text), truth=case.truth)


def batch_cold(seed: int) -> list[Case]:
    """All three styles at every batch size, in a seeded order."""
    rng = random.Random(f"batch-cold:{seed}")
    cases = [sized_case(f"{style}-{kb}k-{n}", style, kb, rng)
             for style in STYLE_NAMES
             for n, kb in enumerate(BATCH_SIZES_KB)]
    rng.shuffle(cases)
    return cases


def warmup_case() -> Case:
    """A tiny fixed binary every worker disassembles before it is ready."""
    return sized_case("warmup", "clang-like", 2, random.Random("warmup"))


# ----------------------------------------------------------------------
# near-hit: small patches whose ground truth stays exact
# ----------------------------------------------------------------------

@dataclass
class Patch:
    """One near-hit request: a patched copy of a base binary."""

    name: str
    base: int            # index into the base list
    blob: bytes
    truth: object


#: Register-to-register ALU/move opcodes (after a REX.W prefix) that are
#: never control flow, never load a table base, and never form a
#: prologue idiom once rsp/rbp operands are excluded.
_SAFE_OPCODES = frozenset((0x01, 0x29, 0x31, 0x89, 0x8B))


def _nop_sites(text: bytes, truth) -> list[int]:
    """Offsets of 3-byte ``REX.W op reg, reg`` instructions (no rsp/rbp)."""
    from repro.binary.groundtruth import ByteKind

    labels = truth.labels
    entries = truth.function_entries
    sites = []
    for offset in range(len(text) - 3):
        if (labels[offset] != ByteKind.INSN_START
                or labels[offset + 1] != ByteKind.INSN_INTERIOR
                or labels[offset + 2] != ByteKind.INSN_INTERIOR
                or labels[offset + 3] == ByteKind.INSN_INTERIOR
                or offset in entries):
            continue
        rex, op, modrm = text[offset:offset + 3]
        if not (0x48 <= rex <= 0x4F and op in _SAFE_OPCODES
                and modrm >= 0xC0):
            continue
        reg, rm = (modrm >> 3) & 7, modrm & 7
        if reg in (4, 5) or rm in (4, 5):
            continue
        sites.append(offset)
    return sites


def _flip_sites(truth) -> list[int]:
    """Offsets the generator labelled data or padding."""
    from repro.binary.groundtruth import ByteKind

    return [o for o, kind in enumerate(truth.labels)
            if kind in (ByteKind.DATA, ByteKind.PADDING)]


def _nearest(sites: list[int], target: int) -> int:
    return min(sites, key=lambda o: (abs(o - target), o))


def _patched(blob: bytes, offset: int, new: bytes) -> bytes:
    """``blob`` with the text bytes at ``offset`` replaced by ``new``."""
    from repro.binary.container import Binary

    text = Binary.from_bytes(blob).text.data
    start = blob.find(text) + offset
    out = bytearray(blob)
    out[start:start + len(new)] = new
    return bytes(out)


#: near-hit patch positions, as fractions of the text length.
_POSITIONS = (("start", 0.04), ("middle", 0.5), ("end", 0.96))


def near_hit(seed: int) -> tuple[list[Case], list[Patch]]:
    """:data:`NEAR_BASES_PER_STYLE` medium bases per style, two patches each.

    A *flip* inverts one byte the generator labelled data or padding,
    and a *nop* edit overwrites a 3-byte register-to-register
    instruction with three one-byte NOPs.  Both keep the ground truth
    exact: flipped bytes stay data, and the NOP bytes are relabelled as
    three instructions.  Base ``i`` gets a flip and a NOP edit at two
    of the start/middle/end positions, rotating with ``i``, so every
    position sees both kinds.
    """
    from repro.binary.container import Binary

    rng = random.Random(f"near-hit:{seed}")
    styles = [style for style in STYLE_NAMES
              for _ in range(NEAR_BASES_PER_STYLE)]
    rng.shuffle(styles)
    bases = [sized_case(f"near-{i}-{style}", style, NEAR_BASE_KB, rng)
             for i, style in enumerate(styles)]
    patches = []
    for index, base in enumerate(bases):
        text = Binary.from_bytes(base.blob).text.data
        flips, nops = _flip_sites(base.truth), _nop_sites(text, base.truth)
        kinds = ("flip", "nop") if index % 2 == 0 else ("nop", "flip")
        positions = (_POSITIONS[index % 3], _POSITIONS[(index + 1) % 3])
        for (position, fraction), kind in zip(positions, kinds):
            target = int(len(text) * (fraction + rng.uniform(-0.02, 0.02)))
            truth = dataclasses.replace(base.truth,
                                        labels=bytearray(base.truth.labels))
            if kind == "nop" and nops:
                offset = _nearest(nops, target)
                blob = _patched(base.blob, offset, b"\x90\x90\x90")
                for i in range(3):
                    truth.mark_instruction(offset + i, 1)
            else:
                kind = "flip"
                offset = _nearest(flips, target)
                blob = _patched(base.blob, offset,
                                bytes([text[offset] ^ 0xFF]))
            patches.append(Patch(name=f"{base.name}-{position}-{kind}",
                                 base=index, blob=blob, truth=truth))
    return bases, patches


# ----------------------------------------------------------------------
# cli-cold and serve-open
# ----------------------------------------------------------------------

def cli_cold(seed: int) -> list[Case]:
    """Small binaries, one style each in rotation (written out as ELF)."""
    rng = random.Random(f"cli-cold:{seed}")
    return [sized_case(f"cli-{i}", STYLE_NAMES[i % 3], CLI_KB, rng)
            for i in range(CLI_FILES)]


@dataclass
class Request:
    """One scheduled serve-open request."""

    due: float           # seconds after the schedule starts
    kind: str            # "cold" | "repeat" | "near" | "lint"
    endpoint: str
    blob: bytes
    base: str = ""       # sha256 of an earlier blob ("near" only)


#: serve-open request mix.  Cold and lint requests both run the full
#: pipeline; with them at 70 % the median falls well inside that band
#: rather than on its edge with the fast cache hits and near hits.
SERVE_MIX = (("cold", 0.45), ("repeat", 0.15), ("near", 0.15),
             ("lint", 0.25))


def serve_open(seed: int, rate: float, count: int
               ) -> tuple[list[Request], dict[bytes, object]]:
    """A fixed-rate schedule mixing cold, repeat, near-hit and lint.

    ``count`` arrivals, evenly spaced (open loop, ``rate`` per second); the
    kinds come in exactly the :data:`SERVE_MIX` proportions, in a seeded
    order that starts with a cold request.  A *repeat* resends an
    earlier cold blob exactly (a result-cache hit), a *near* request
    flips one data/padding byte of one of the last few cold blobs (never
    giving a blob sent before) and names that blob's fingerprint as
    ``base``, and a *lint* request lints a new binary.  So every cold,
    near and lint request misses the result cache and every repeat hits
    it, on every seed.  Returns the schedule and the ground truth of
    every distinct disassemble blob.
    """
    import hashlib

    from repro.binary.container import Binary

    rng = random.Random(f"serve-open:{seed}")
    kinds = [name for name, share in SERVE_MIX if name != "cold"
             for _ in range(round(share * count))]
    kinds = ["cold"] * (count - len(kinds)) + kinds
    rng.shuffle(kinds)
    kinds.remove("cold")
    kinds.insert(0, "cold")
    cases: list[Case] = []
    requests: list[Request] = []
    truths: dict[bytes, object] = {}
    fresh = 0
    for i, kind in enumerate(kinds):
        due = i / rate
        if kind in ("cold", "lint"):
            case = sized_case(f"serve-{fresh}", STYLE_NAMES[fresh % 3],
                              SERVE_KB, rng)
            fresh += 1
            if kind == "cold":
                cases.append(case)
                truths[case.blob] = case.truth
            endpoint = "/v1/lint" if kind == "lint" else "/v1/disassemble"
            requests.append(Request(due, kind, endpoint, case.blob))
        elif kind == "repeat":
            index = rng.randrange(len(cases))
            requests.append(Request(due, kind, "/v1/disassemble",
                                    cases[index].blob))
        else:
            index = rng.randrange(max(0, len(cases) - 4), len(cases))
            base = cases[index]
            text = Binary.from_bytes(base.blob).text.data
            blob = base.blob
            while blob in truths:
                offset = rng.choice(_flip_sites(base.truth))
                blob = _patched(base.blob, offset,
                                bytes([text[offset] ^ 0xFF]))
            truths[blob] = base.truth
            requests.append(Request(due, kind, "/v1/disassemble", blob,
                                    base=hashlib.sha256(base.blob)
                                    .hexdigest()))
    return requests, truths
