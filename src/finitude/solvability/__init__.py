"""Verdicts and certificates for representability in finite terms."""

from .radexpr import RadicalExpression
from .ritt import (CompositionChain, classify_primitive, compose_chain,
                   ritt_decompose)
from .towers import radical_tower, tower_mismatch
from .verdicts import (Verdict, VerdictStatus, invertible_by_radicals,
                       k_radicals_verdict, radicals_verdict)

__all__ = [
    "RadicalExpression", "radical_tower", "tower_mismatch",
    "CompositionChain", "ritt_decompose", "classify_primitive",
    "compose_chain", "Verdict", "VerdictStatus", "radicals_verdict",
    "k_radicals_verdict", "invertible_by_radicals",
]
