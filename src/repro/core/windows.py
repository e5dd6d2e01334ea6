"""The window registry: ``request`` bookkeeping with no clock and no I/O.

A window stays registered until its resource's level leaves it or its
owner cancels it (paper §4.2); :meth:`WindowRegistry.observe` returns each
violated window exactly once, and the caller sends the one upcall (§4.3).
"""

from dataclasses import dataclass


@dataclass(slots=True, eq=False)
class WindowEntry:
    """One registered window; ``data`` is the caller's own record of it."""

    request_id: int
    resource: object
    owner: object
    lower: float
    upper: float
    data: object = None


class WindowRegistry:
    """Windows indexed by resource and by owner (``None`` owners are not),
    each index in registration order: violations come back in the order
    their windows were registered, which is the upcall order.

    Ids are per registry, as :class:`~repro.connectivity.deferred.DeferredOp`
    seqs are per log; a checkpoint records :attr:`next_id`.
    """

    def __init__(self, next_id=1):
        self.next_id = next_id
        self._entries = {}  # request_id -> WindowEntry
        self._resources = {}  # resource -> {request_id: WindowEntry}
        self._owners = {}  # owner -> {request_id: WindowEntry}

    def __len__(self):
        return len(self._entries)

    def __iter__(self):
        return iter(self._entries.values())

    def get(self, request_id):
        return self._entries.get(request_id)

    def register(self, resource, owner, lower, upper, data=None,
                 request_id=None):
        """Watch ``[lower, upper]`` on ``resource``; returns the request id
        (``request_id`` re-creates a restored window under its own)."""
        if request_id is None:
            request_id = self.next_id
        elif request_id in self._entries:
            raise ValueError(f"request id {request_id!r} already registered")
        self.next_id = max(self.next_id, request_id + 1)
        entry = WindowEntry(request_id, resource, owner, lower, upper, data)
        self._entries[request_id] = entry
        self._resources.setdefault(resource, {})[request_id] = entry
        if owner is not None:
            self._owners.setdefault(owner, {})[request_id] = entry
        return request_id

    def cancel(self, request_id):
        """Drop one window; returns its entry, or ``None`` if unknown."""
        entry = self._entries.get(request_id)
        if entry is not None:
            self._drop(entry)
        return entry

    def drop_owner(self, owner):
        """Drop every window ``owner`` holds; returns them in order."""
        entries = list(self._owners.get(owner, {}).values())
        for entry in entries:
            self._drop(entry)
        return entries

    def observe(self, resource, level_of, owner=None):
        """Drop and return ``[(entry, level), …]`` for each window on
        ``resource`` — every owner's, or only ``owner``'s — outside which
        ``level_of(entry.owner)`` lies.  A ``None`` level skips the window."""
        candidates = self._resources.get(resource, {}) if owner is None \
            else self._owners.get(owner, {})
        violated = []
        for entry in candidates.values():
            if entry.resource != resource:
                continue
            level = level_of(entry.owner)
            if level is not None and not entry.lower <= level <= entry.upper:
                violated.append((entry, level))
        for entry, _ in violated:
            self._drop(entry)
        return violated

    def _drop(self, entry):
        del self._entries[entry.request_id]
        for index, key in ((self._resources, entry.resource),
                           (self._owners, entry.owner)):
            bucket = index.get(key)  # None: an unindexed ``None`` owner
            if bucket is not None:
                del bucket[entry.request_id]
                if not bucket:
                    del index[key]
