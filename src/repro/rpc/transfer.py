"""The windowed bulk transfer, with no clock and no transport.

The paper's bulk protocol is receiver-driven (§6.2.1): the receiver asks
for a window, the sender answers with a train of fragments, the last one
flagged, and every window the receiver completes is one throughput entry.
Both halves of that protocol live here, so the sim RPC and the live bulk
plane cut, close, resume and stop a transfer by the same rules:

- :func:`fragments` is the sender's cut of one window;
- :class:`WindowedFetch` is the receiver: which window to ask for next,
  how a train of contiguous fragments is taken, and when the transfer is
  done.

The shells around it own the clocks, the messages and the waiting.
"""

from itertools import accumulate


def fragments(offset, end, total, fragment_bytes):
    """Cut the window ``[offset, end)`` of a ``total``-byte transfer.

    Yields ``(offset, nbytes, last_in_window, last_in_transfer)`` per
    fragment of at most ``fragment_bytes``, in order.  An empty window
    (``end == offset``) is one empty closing fragment, flagged
    ``last_in_transfer`` when it sits at the end.
    """
    if fragment_bytes < 1 or end < offset:
        raise ValueError(
            f"cannot cut [{offset}, {end}) into {fragment_bytes}-byte fragments")
    for start in range(offset, end, fragment_bytes) or (offset,):
        after = min(start + fragment_bytes, end)
        yield start, after - start, after == end, after >= total


class WindowedFetch:
    """The receiver of an ``nbytes`` transfer, one window in flight.

    :meth:`next_window` names the window to request; :meth:`take` counts
    each fragment of it.  The count is of bytes, not of positions: a
    fragment lost inside a window leaves it short, and the next window
    resumes after what was counted.  (A receiver that must hold bytes
    contiguously drops a fragment that does not continue them before it
    reaches :meth:`take`.)
    """

    __slots__ = ("nbytes", "window_bytes", "held", "received", "_done")

    def __init__(self, nbytes, window_bytes):
        self.nbytes = nbytes
        self.window_bytes = window_bytes
        #: Bytes counted over the whole transfer: where the next window starts.
        self.held = 0
        #: Bytes counted in the window in flight (its throughput entry).
        self.received = 0
        self._done = False

    def next_window(self):
        """``(offset, size)`` of the window to request next, or ``None``
        once the transfer is done."""
        if self._done or self.held >= self.nbytes:
            return None
        self.received = 0
        return self.held, min(self.window_bytes, self.nbytes - self.held)

    def take(self, offset, nbytes, last_in_window, last_in_transfer):
        """Count one fragment of the window in flight, or a run of
        contiguous ones; True if it closed the window.

        A closing fragment ends the transfer when it is empty (nothing
        more to send), or when it is the transfer's last and nothing is
        missing before it; otherwise the fetch goes on while fewer than
        ``nbytes`` are held.
        """
        self.received += nbytes
        self.held += nbytes
        if last_in_window:
            self._done = nbytes == 0 or (
                last_in_transfer and offset + nbytes == self.held)
        return last_in_window

    def take_train(self, offsets, nbytes, last_in_window, last_in_transfer):
        """Take a train of contiguous fragments: fragment ``i`` carries
        ``nbytes[i]`` bytes from ``offsets[i]``, and the flags are the
        last one's.  Returns ``(taken, stale, closed)``.

        The fragments ahead of the first that continues the bytes held
        are ``stale``: a receiver that holds bytes contiguously over an
        ordered stream sees them only as the tail of an abandoned train.
        The ``taken`` rest are one :meth:`take`, which is what taking
        them one by one gives.  A train that is not well formed
        (:func:`is_train`) is stale as a whole, one per size it carries.
        """
        if not is_train(offsets, nbytes):
            claimed = len(nbytes) if type(nbytes) is list else 0
            return 0, max(1, claimed), False
        try:
            first = offsets.index(self.held)
        except ValueError:
            return 0, len(offsets), False
        closed = self.take(offsets[first], sum(nbytes[first:]),
                           last_in_window, last_in_transfer)
        return len(offsets) - first, first, closed


def is_train(offsets, nbytes):
    """Whether ``offsets`` and ``nbytes`` are a train :func:`fragments`
    could have cut: non-empty lists of ints of one length, each fragment
    starting where the one before it ends, and none empty but a train's
    only one."""
    if type(offsets) is not list or type(nbytes) is not list:
        return False
    count = len(nbytes)
    if not count or len(offsets) != count \
            or {*map(type, offsets), *map(type, nbytes)} != {int} \
            or min(nbytes) < (1 if count > 1 else 0):
        return False
    return list(accumulate(nbytes[:-1], initial=offsets[0])) == offsets
