"""The distillation server (paper §5.2, after Fox et al.).

"The distillation server fetches requested objects from the appropriate Web
server, distills them to the requested fidelity level, and sends the results
to the warden."  It sits on the wired side of the network: the expensive
hop — client to distillation server — is the modulated one.
"""

from repro.apps.web.images import distilled_bytes
from repro.rpc.connection import RpcConnection, RpcService
from repro.rpc.messages import ServerReply

#: CPU time to decode + recompress one image.
DISTILL_COMPUTE = 0.02


class DistillationServer:
    """Distills images to a requested fidelity on behalf of mobile clients.

    Operations:

    - ``get-image`` — body ``{"name", "fidelity"}``; fetches the original
      from the web server over its own (wired) RPC connection, distills,
      and replies with a bulk source of the distilled bytes.  Fidelity 1.0
      skips recompression and ships the original.
    """

    def __init__(self, sim, network, host, web_server_name, web_port="http",
                 port="distill"):
        self.sim = sim
        self.service = RpcService(sim, host, port)
        self.service.register("get-image", self._get_image)
        self.service.register("post", self._post)
        self.web_connection = RpcConnection(
            sim, network, web_server_name, web_port,
            connection_id=f"{host.name}->{web_server_name}",
            client_host=host,
        )
        self.images_distilled = 0
        self.bytes_saved = 0
        self.posts_forwarded = 0

    def _post(self, body):
        """Generator handler: forward a form submission to the origin server.

        Distillation never owns writes — the origin's accept/conflict
        verdict passes through untouched so reintegration reports reflect
        the authoritative copy.
        """
        reply_body, _ = yield from self.web_connection.call(
            "post", body=body, body_bytes=128
        )
        self.posts_forwarded += 1
        return ServerReply(body=reply_body, body_bytes=48)

    def _get_image(self, body):
        """Generator handler: wired fetch, distill, reply with bulk."""
        name, fidelity = body["name"], body["fidelity"]
        _, meta, original_bytes = yield from self.web_connection.fetch(
            "get-object", body={"name": name}, body_bytes=96
        )
        out_bytes = distilled_bytes(original_bytes, fidelity)
        compute = 0.0
        if fidelity < 1.0:
            compute = DISTILL_COMPUTE
            self.bytes_saved += original_bytes - out_bytes
        self.images_distilled += 1
        return ServerReply(
            body={"name": name, "fidelity": fidelity, "nbytes": out_bytes},
            body_bytes=64,
            compute_seconds=compute,
            bulk=self.service.make_bulk(
                out_bytes, meta={"name": name, "fidelity": fidelity}
            ),
        )
