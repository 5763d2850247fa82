"""Source-to-source vectorizer for combinational Verilog.

The pipeline parses a flat synthesizable subset of Verilog into a
word-level dataflow IR, selectively inlines small regular submodules,
detects spatially replicated bit-level structure (bit permutations and
replicated logic cones), and re-emits the design with those regions
rewritten as compact vector assignments.  A simulation-based
equivalence oracle checks every rewrite.
"""

from busweaver.frontend import ParseError, parse_design
from busweaver.ir import (
    HwDesign,
    HwModule,
    Operation,
    Port,
    ValueRef,
    count_instructions,
    metrics,
    simulate,
    verify,
)
from busweaver.oracle import EquivalenceVerdict, check_equivalence
from busweaver.pipeline import VectorizationError, run_pipeline
from busweaver.emitter import emit_design

__version__ = "0.1.0"

__all__ = [
    "EquivalenceVerdict",
    "HwDesign",
    "HwModule",
    "Operation",
    "ParseError",
    "Port",
    "ValueRef",
    "VectorizationError",
    "check_equivalence",
    "count_instructions",
    "emit_design",
    "metrics",
    "parse_design",
    "run_pipeline",
    "simulate",
    "verify",
]
