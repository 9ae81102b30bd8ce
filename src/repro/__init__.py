"""repro: accurate disassembly of complex binaries without compiler metadata.

A from-scratch reproduction of Priyadarshan, Nguyen & Sekar (ASPLOS
2023).  The package contains everything the system needs, all in pure
Python:

* :mod:`repro.isa` -- an x86-64 decoder/encoder (replaces capstone);
* :mod:`repro.binary` -- a stripped-binary container with ground truth;
* :mod:`repro.synth` -- a synthetic compiler producing complex binaries
  (embedded jump tables, literal pools, indirect-only functions);
* :mod:`repro.superset`, :mod:`repro.stats`, :mod:`repro.analysis` --
  superset disassembly, statistical models, behavioral analyses;
* :mod:`repro.core` -- the prioritized error-correcting disassembler;
* :mod:`repro.baselines` -- linear sweep, recursive descent (plain and
  heuristic), probabilistic disassembly;
* :mod:`repro.eval` -- metrics and the experiment harness.

Quickstart::

    from repro import Disassembler, generate_binary, BinarySpec
    case = generate_binary(BinarySpec(name="demo"))
    result = Disassembler().disassemble(case)
    print(result.summary())
"""

from ._lazy import lazy_exports

__version__ = "1.0.0"

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "binary": ("Binary", "GroundTruth", "Section", "TestCase"),
    "core": ("DEFAULT_CONFIG", "Disassembler", "DisassemblerConfig"),
    "result": ("DisassemblyResult",),
    "emulator": ("Emulator", "validate_dynamically"),
    "listing": ("classify_data_regions", "render_listing"),
    "rewrite": ("RewrittenBinary", "rewrite_binary"),
    "synth": ("BinarySpec", "CompilerStyle", "generate_binary",
              "generate_corpus"),
})
__all__.append("__version__")
