"""CUDA-style streams: in-order execution and host synchronisation.

The TPRC reduction exploits the stream ordering contract: two kernels (or a
kernel and a D2H copy) enqueued on the same stream execute in submission
order, giving a cheap global synchronisation point.  The model here tracks
submission order, completion, and the implied dependencies so reductions
can assert the contract they rely on — and so tests can verify that
violating it (reading partials before the producing kernel completes) is
caught.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from ..errors import LaunchError

__all__ = ["Stream"]

_stream_ids = itertools.count()


@dataclass
class Stream:
    """An in-order work queue.

    Work items are opaque callables executed lazily at synchronisation
    points; the ordering contract — item ``k`` never runs before item
    ``k-1`` completes — is structural (a simple FIFO), which is exactly the
    property TPRC's correctness requires.
    """

    stream_id: int = field(default_factory=lambda: next(_stream_ids))
    _queue: list = field(default_factory=list, repr=False)
    _completed: int = 0

    def launch(self, fn, *args, **kwargs):
        """Enqueue a work item; returns its queue position."""
        if not callable(fn):
            raise LaunchError("stream work items must be callable")
        self._queue.append((fn, args, kwargs, [None]))
        return len(self._queue) - 1

    def synchronize(self):
        """Run all pending work in submission order; returns results list."""
        results = []
        while self._completed < len(self._queue):
            fn, args, kwargs, cell = self._queue[self._completed]
            cell[0] = fn(*args, **kwargs)
            self._completed += 1
        for fn, args, kwargs, cell in self._queue:
            results.append(cell[0])
        return results

    def result(self, position: int):
        """Return the result of work item ``position`` (must be completed).

        Raises
        ------
        LaunchError
            If the item has not run yet — this is the data race TPRC's
            stream ordering prevents.
        """
        if position >= len(self._queue):
            raise LaunchError(f"no work item at position {position}")
        if position >= self._completed:
            raise LaunchError(
                f"work item {position} has not completed; synchronize() first "
                "(reading it now would be a host-device data race)"
            )
        return self._queue[position][3][0]
