"""OpenMP-style shared-memory runtime with reduction and ordered constructs.

Reproduces the paper's §III-B: the OpenMP specification does not fix where
or in what order reduction partials are combined, so a plain
``reduction(+:sum)`` is not bitwise deterministic; an ``ordered`` construct
(or clause) enforces sequential combination order and restores determinism
at the cost of serialising the reduction region.

Two backends:

* ``"simulated"`` (default) — partial-sum grouping and combine order are
  sampled from the run context's scheduler stream; fully replayable.
* ``"threads"`` — real Python threads race on an accumulator; used by
  integration tests to check the model against genuine concurrency.
"""

from .runtime import OpenMPRuntime, Schedule

__all__ = ["OpenMPRuntime", "Schedule"]
