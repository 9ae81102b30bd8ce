"""Oracle-free disassembly verification (``repro.lint``).

A static-analysis pass over a :class:`~repro.result.DisassemblyResult`
that checks the structural invariants every correct disassembly must
satisfy -- no ground truth required.  See DESIGN.md ("Oracle-free
verification") for the invariant catalog and README for CLI usage.

>>> from repro.lint import lint_disassembly
>>> report = lint_disassembly(result, text)            # doctest: +SKIP
>>> report.errors                                      # doctest: +SKIP
"""

from .._lazy import lazy_exports

# DEFAULT_REGISTRY is read through the engine, which imports the
# built-in rules into it.
__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "context": ("ByteClaim", "LintContext"),
    "diagnostics": ("Diagnostic", "LintReport", "Severity"),
    "engine": ("DEFAULT_LINT_CONFIG", "DEFAULT_REGISTRY", "LintConfig",
               "Linter", "lint_disassembly"),
    "feedback": ("diagnostics_to_evidence",),
    "registry": ("LintRule", "RuleRegistry"),
})
