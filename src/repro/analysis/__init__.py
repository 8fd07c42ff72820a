"""repro.analysis — invariant lint for the repro codebase.

The repo's guarantees (bit-identical answers across serving
topologies, locks never held across blocking work, a pickle-free wire)
are enforced here as machine-checked rules instead of convention:

======================  ================================================
rule                    checks
======================  ================================================
``DET-GLOBAL-RNG``      no process-global RNG (np.random.*, stdlib
                        random) — all randomness flows through seeded
                        Generators
``DET-WALLCLOCK``       wall-clock reads stay in budgets/metrics, never
                        flow into results or seeds
``DET-SET-ORDER``       no set-iteration order feeding numeric state
``LOCK-HELD-BLOCKING``  no lock (except the session compute lock) held
                        across a GA run / transport I/O / pickling
``LOCK-ORDER-CYCLE``    the extracted lock-acquisition graph is a DAG
``WIRE-PICKLE``         no pickle, and no pickling multiprocessing
                        ``Pipe``, in wire-facing service modules
``WIRE-ERROR``          every shard-raised exception reconstructs
                        across ``error_to_wire``
``BROAD-EXCEPT``        no silent ``except Exception:`` swallowers
``EXCEPT-SHADOWED``     no ``except`` clause made dead by an earlier
                        clause catching a superclass
``SUPPRESS-NO-REASON``  every suppression carries a justification
======================  ================================================

Findings are suppressed inline with ``# repro: allow[RULE-ID] — reason``
on the flagged line or the line above; the reason is mandatory.  Run
the gate locally with ``PYTHONPATH=src python -m repro.analysis src
--gate``; :class:`~repro.analysis.runtime.LockWitness` validates the
extracted lock graph against observed behavior in the test suite.

This package is stdlib-only and safe to import without numpy.
"""

from .framework import (
    AnalysisConfig,
    AnalysisReport,
    Finding,
    default_config,
    run_analysis,
)
from .locks import LockGraph, LockNode, extract_lock_graph
from .runtime import LockWitness, WitnessViolation

__all__ = [
    "AnalysisConfig",
    "AnalysisReport",
    "Finding",
    "LockGraph",
    "LockNode",
    "LockWitness",
    "WitnessViolation",
    "default_config",
    "extract_lock_graph",
    "run_analysis",
]
