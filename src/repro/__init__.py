"""Cycle-accurate binary translation for SoC rapid prototyping.

A from-scratch reproduction of Schnerr, Bringmann & Rosenstiel,
"Cycle Accurate Binary Translation for Simulation Acceleration in Rapid
Prototyping of SoCs" (DATE 2005): a static binary translator that turns
object code for an embedded SoC core (TriCore-like) into code for a
VLIW prototyping platform (C6x-like), annotated so that a
synchronization device generates the source processor's clock for the
attached SoC hardware in parallel with execution.

Typical use::

    from repro import (assemble, translate, PrototypingPlatform,
                       CycleAccurateISS)

    obj = assemble(my_source)
    reference = CycleAccurateISS(obj).run()
    result = translate(obj, level=2)
    run = PrototypingPlatform(result.program).run()

See ``docs/backends.md`` for the execution pipeline, ``docs/ir.md``
for the Region IR and the C6x op table, and ``docs/workloads.md`` for
the paper workloads and the fuzzer.
"""

from repro.arch.model import (
    SourceArch,
    TargetArch,
    default_source_arch,
    default_target_arch,
)
from repro.arch.xmlio import source_arch_from_xml, source_arch_to_xml
from repro.debug.debugger import Debugger
from repro.errors import ReproError
from repro.isa.tricore.assembler import assemble
from repro.minic.compiler import compile_source
from repro.objfile.elf import ObjectFile
from repro.refsim.iss import (
    CycleAccurateISS,
    FunctionalISS,
    InterpretedISS,
    RunResult,
)
from repro.refsim.rtlsim import RtlSimulator
from repro.translator.driver import (
    BinaryTranslator,
    TranslationOptions,
    TranslationResult,
    translate,
)
from repro.vliw.platform import PlatformResult, PrototypingPlatform

__version__ = "1.0.0"

__all__ = [
    "BinaryTranslator",
    "CycleAccurateISS",
    "Debugger",
    "FunctionalISS",
    "InterpretedISS",
    "ObjectFile",
    "PlatformResult",
    "PrototypingPlatform",
    "ReproError",
    "RtlSimulator",
    "RunResult",
    "SourceArch",
    "TargetArch",
    "TranslationOptions",
    "TranslationResult",
    "assemble",
    "compile_source",
    "default_source_arch",
    "default_target_arch",
    "source_arch_from_xml",
    "source_arch_to_xml",
    "translate",
]
