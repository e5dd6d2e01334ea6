"""The Odyssey namespace: VFS integration and the interceptor (paper §4.1).

Odyssey objects live under a mount point (``/odyssey`` by default).  In the
paper a small in-kernel interceptor redirects operations on such paths to
the user-space viceroy, which routes them to the warden managing the
object's type.  Here the :class:`Namespace` is that mount table plus
longest-prefix routing, with naming extensions "similar in spirit to
virtual directories": wardens enumerate their own children.
"""

import posixpath

from repro.errors import NoSuchObject, OdysseyError


def normalize(path):
    """Canonicalize an Odyssey path (absolute, no trailing slash)."""
    if not path or not path.startswith("/"):
        raise NoSuchObject(f"Odyssey paths are absolute, got {path!r}")
    return posixpath.normpath(path)


class Namespace:
    """Mount table mapping path prefixes to wardens."""

    def __init__(self, root="/odyssey"):
        self.root = normalize(root)
        self._mounts = {}

    def mount(self, prefix, warden):
        """Mount ``warden`` at ``prefix`` (must lie under the root)."""
        prefix = normalize(prefix)
        if prefix != self.root and not prefix.startswith(self.root + "/"):
            raise OdysseyError(f"mount {prefix!r} outside Odyssey root {self.root!r}")
        if prefix in self._mounts:
            raise OdysseyError(f"mount point {prefix!r} already in use")
        self._mounts[prefix] = warden

    def unmount(self, prefix):
        prefix = normalize(prefix)
        if prefix not in self._mounts:
            raise OdysseyError(f"nothing mounted at {prefix!r}")
        del self._mounts[prefix]

    @property
    def mounts(self):
        """Mapping of mount prefix to warden (read-only copy)."""
        return dict(self._mounts)

    def is_odyssey_path(self, path):
        """Would the interceptor redirect this path to the viceroy?"""
        path = normalize(path)
        return path == self.root or path.startswith(self.root + "/")

    def resolve(self, path):
        """Longest-prefix match: returns ``(warden, rest)``.

        ``rest`` is the path relative to the mount point ('' for the mount
        point itself).  Raises :class:`NoSuchObject` when no warden claims
        the path.
        """
        path = normalize(path)
        # Walking upward, the first mounted ancestor is the longest prefix.
        prefix = path
        while prefix not in self._mounts:
            if len(prefix) <= len(self.root):
                raise NoSuchObject(f"no warden manages {path!r}")
            prefix = prefix[:prefix.rindex("/")]
        return self._mounts[prefix], path[len(prefix) + 1:]

    def readdir(self, path):
        """List names under ``path``.

        At the root, lists mount points; below a mount, delegates to the
        warden's ``vfs_readdir`` (virtual-directory style naming).
        """
        path = normalize(path)
        if path == self.root:
            return sorted(
                prefix[len(self.root):].lstrip("/").split("/")[0]
                for prefix in self._mounts
            )
        warden, rest = self.resolve(path)
        return warden.vfs_readdir(rest)
