"""Pure-Python x86-64 instruction set: decoder, encoder, metadata.

This package replaces capstone for the purposes of this reproduction: it
decodes a large x86-64 subset (all prefixes, REX, ModRM/SIB, one- and
two-byte opcode maps) into rich :class:`~repro.isa.instruction.Instruction`
objects that carry the control-flow and register-effect metadata the
disassembly analyses need, and it provides a small assembler used by the
synthetic binary generator.
"""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "decoder": ("decode", "decode_interp", "decoder_backend", "try_decode",
                "try_decode_interp"),
    "encoder": ("Assembler", "AssemblyError", "Mem", "mem", "rip"),
    "errors": ("DecodeError", "InvalidOpcodeError", "TooLongError",
               "TruncatedError"),
    "instruction": ("Instruction",),
    "opcodes": ("FlowKind",),
    "operands": ("ImmOp", "MemOp", "RegOp", "RelOp"),
    "registers": ("Register", "reg", "register_by_name"),
})
