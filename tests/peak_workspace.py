"""A workspace that records what it holds, for the memory tests: tracemalloc sees the arrays a
call makes on the heap but not a workspace's mappings, so a test reads both."""

import tracemalloc
import weakref

import numpy as np

from kpex.encoder import Workspace


class PeakWorkspace(Workspace):
    """A :class:`kpex.encoder.Workspace` that records ``peak``, the most bytes it has held at once
    (its buffer's length is no reading of that once buffers double), and appends a weak reference
    to each buffer's mapping to ``mapped``. Pass one as ``work=``, or monkeypatch the class in
    where a call makes its own workspace."""

    def __init__(self, mapped: list | None = None):
        super().__init__()
        self.peak = 0
        self.mapped = [] if mapped is None else mapped

    def take(self, shape, dtype=np.float64) -> np.ndarray:
        buffer = self.buffer
        out = super().take(shape, dtype)
        self.peak = max(self.peak, self.used)
        if self.buffer is not buffer:
            self.mapped.append(weakref.ref(self.buffer.base.obj))  # the buffer's mmap.mmap
        return out

    def traced(self, call, bufsize: int | None = None):
        """tracemalloc's peak over ``call()`` and its result, ``peak`` starting again from the
        bytes held now; with ``bufsize``, numpy's per-call ufunc buffer is that many elements for
        the call."""
        self.peak = self.used
        size = np.setbufsize(bufsize) if bufsize else None
        tracemalloc.start()
        try:
            result = call()
            return tracemalloc.get_traced_memory()[1], result
        finally:
            tracemalloc.stop()
            if size:
                np.setbufsize(size)
