"""Direct-execution simulator for EELF executables.

The simulator is the stand-in for the paper's SPARCstation: it runs
original and edited binaries, provides ground-truth execution counts for
validating instrumentation, and reports instruction counts that serve as
the time metric in the benchmark harness.

Two interchangeable engines execute instructions: the default
``block`` engine, which compiles basic blocks into Python functions
generated from the spawn descriptions' RTL (:mod:`repro.sim.blocks`),
and the per-instruction ``handwritten`` interpreter, the independent
oracle it is tested against.  Select per Simulator with ``engine=`` or
process-wide with ``$REPRO_SIM_ENGINE``.
"""

from repro.sim.machine import (
    ENGINES,
    SimulationError,
    SimulationTimeout,
    Simulator,
    default_engine,
    run_image,
)
from repro.sim.memory import Memory, MemoryFault

__all__ = [
    "ENGINES",
    "Simulator",
    "SimulationError",
    "SimulationTimeout",
    "default_engine",
    "run_image",
    "Memory",
    "MemoryFault",
]
