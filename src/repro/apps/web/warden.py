"""The web warden (paper §5.2).

Transforms the cellophane's requests into fetches from the distillation
server over the mobile connection.  "The warden provides a tsop to set the
fidelity level."  A ``direct`` mode bypasses distillation and talks straight
to the web server — the paper's unmodified-Ethernet baseline.

Disconnected operation: every fetched object is write-through cached, so a
blackout is served from cache (stale, with the staleness recorded) through
:meth:`~repro.core.warden.Warden.resilient_fetch`; form submissions — the
warden's mutating tsop — queue to the deferred-op log and reintegrate on
reconnection.
"""

from repro.apps.web.images import FIDELITY_LEVELS
from repro.core.warden import Warden
from repro.errors import OdysseyError

#: Request bytes for a form submission (name + version + small payload).
POST_BODY_BYTES = 256


class WebWarden(Warden):
    """Fetches (possibly distilled) web objects for the browser."""

    TSOPS = {
        "set-fidelity": "tsop_set_fidelity",
        "get-fidelity": "tsop_get_fidelity",
        "get-image": "tsop_get_image",
        "post-form": "tsop_post_form",
    }
    FIDELITIES = {name: level for level, (name, _) in FIDELITY_LEVELS.items()}
    DEFERRABLE_TSOPS = frozenset({"post-form"})

    def __init__(self, sim, viceroy, name="web", direct=False, retry=None,
                 **kwargs):
        super().__init__(sim, viceroy, name, **kwargs)
        self.direct = direct
        #: Optional RetryPolicy.  None keeps the paper-faithful behaviour —
        #: fetches wait indefinitely; set one (with a ``deadline``) to make
        #: fetches fail fast into degraded service during outages.
        self.retry = retry
        #: Image fidelity for subsequent fetches (the Fig. 11 dimension).
        self.fidelity = 1.0
        self.images_fetched = 0
        self.forms_posted = 0

    def tsop_set_fidelity(self, app, rest, inbuf):
        """Set the fidelity used for subsequent fetches."""
        level = float(inbuf["fidelity"])
        if level not in FIDELITY_LEVELS:
            raise OdysseyError(
                f"fidelity {level!r} not offered; "
                f"levels: {sorted(FIDELITY_LEVELS)}"
            )
        self.fidelity = level
        return level
        yield  # pragma: no cover - generator protocol

    def tsop_get_fidelity(self, app, rest, inbuf):
        """Current fidelity level."""
        return self.fidelity
        yield  # pragma: no cover - generator protocol

    def tsop_get_image(self, app, rest, inbuf):
        """Fetch an image at the current fidelity.

        Returns ``{"name", "fidelity", "nbytes"}``.  In ``direct`` mode the
        original is fetched from the web server at full fidelity.  While
        the connection is healthy the fetch always goes to the network (the
        result is cached write-through); while disconnected, the cached
        copy is served stale or a miss raises
        :class:`~repro.errors.Disconnected`.
        """
        name = inbuf["name"]
        conn = self.primary_connection(rest)
        fidelity = 1.0 if self.direct else self.fidelity
        key = ("image", name, fidelity)

        def fetch_op():
            if self.direct:
                _, _, nbytes = yield from self._fetch(
                    conn, "get-object", {"name": name}
                )
            else:
                _, _, nbytes = yield from self._fetch(
                    conn, "get-image",
                    {"name": name, "fidelity": fidelity},
                )
            self.images_fetched += 1
            value = {"name": name, "fidelity": fidelity, "nbytes": nbytes}
            return value, nbytes

        result = yield from self.resilient_fetch(conn, key, fetch_op)
        return result

    def tsop_post_form(self, app, rest, inbuf):
        """Submit a form to the origin server — the warden's mutating tsop.

        ``inbuf``: ``{"form": name, "version": int}``.  Returns the
        server's ``{"form", "version", "conflict"}`` reply; ``conflict``
        means a newer version already landed (the reintegration report
        surfaces this as a per-op conflict).  While disconnected the op is
        queued instead (dispatch returns a ``{"deferred": True}`` marker).
        """
        conn = self.primary_connection(rest)
        body = {"form": inbuf["form"], "version": inbuf.get("version", 1)}
        if self.retry is None:
            reply, _ = yield from conn.call(
                "post", body=body, body_bytes=POST_BODY_BYTES
            )
        else:
            reply, _ = yield from conn.call_with_retry(
                "post", body=body, body_bytes=POST_BODY_BYTES,
                retry=self.retry,
            )
        self.forms_posted += 1
        return reply

    def _fetch(self, conn, op, body):
        """One network fetch, retried iff a policy is configured.  Generator."""
        if self.retry is None:
            result = yield from conn.fetch(op, body=body, body_bytes=96)
        else:
            result = yield from conn.fetch_with_retry(
                op, body=body, body_bytes=96, retry=self.retry
            )
        return result


def build_web(sim, viceroy, network, store, direct=False,
              mount="/odyssey/web", **warden_kwargs):
    """Wire web server (+ distillation server unless direct) and warden.

    Returns ``(warden, distillation_server_or_None, web_server)``.
    """
    from repro.apps.web.distill import DistillationServer
    from repro.apps.web.server import WebServer

    web_host = network.add_host("web-server")
    web_server = WebServer(sim, web_host, store)
    distiller = None
    warden = WebWarden(sim, viceroy, direct=direct, **warden_kwargs)
    if direct:
        warden.open_connection("web-server", "http")
    else:
        distill_host = network.add_host("distill-server")
        distiller = DistillationServer(sim, network, distill_host, "web-server")
        warden.open_connection("distill-server", "distill")
    viceroy.mount(mount, warden)
    return warden, distiller, web_server
