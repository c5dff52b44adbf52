"""Wire format: line-delimited JSON over a local stream socket.

One request object per line, one response object per line, UTF-8,
``\\n``-terminated.  Requests carry a client-chosen ``id`` that the
matching response echoes, an ``op`` name, and op-specific parameters;
responses are either::

    {"id": ..., "ok": true,  "result": {...}}
    {"id": ..., "ok": false, "error": {"code": "...", "message": "..."},
     "retry_after": seconds?}

``retry_after`` appears only on errors worth retrying, and
:class:`~repro.serve.client.ServeClient` retries exactly those:

* ``overloaded``, ``timeout``, ``draining`` — the server's own refusals
  (a draining fleet shard is usually seconds away from a warm
  replacement answering on the same gateway);
* ``unavailable`` from a gateway — no live shard, or the routed shard
  stopped answering (the retry routes to the key's next live shard);
* ``internal`` when the request itself never completed — a handler's
  ``OSError`` or the death of the worker running it.

Client mistakes (``bad_request``, ``unknown_op``) and handler failures
carry no hint.  No server retries on its own.  Lines are capped at
:data:`MAX_LINE` bytes so a corrupt or hostile peer cannot grow a read
buffer without bound.

Responses from a fleet member additionally carry ``shard`` — the shard
slot that actually served the request (stamped by the shard daemon
itself via ``ServeConfig.shard_id`` and re-stamped authoritatively by
the gateway), so clients and logs can attribute every answer to one
process in the fleet.

Requests may carry a ``trace`` object — ``{"trace_id": hex,
"parent_span_id": hex?}`` (the wire form of
:class:`repro.obs.context.TraceContext`) — naming the client-side
trace this request belongs to.  The daemon adopts it for every span
and event the request produces, and mints a fresh ``trace_id`` when
the field is absent, so server-side telemetry is always attributable.
Responses echo the id under ``trace_id`` so a client can line its logs
up with the daemon's event log.
"""

import json

PROTOCOL = "repro.serve/1"
MAX_LINE = 32 << 20  # images travel base64-encoded inside one line

# Error codes (the failure-semantics vocabulary in README "Serving").
E_BAD_REQUEST = "bad_request"    # unparseable or malformed request
E_UNKNOWN_OP = "unknown_op"      # op name not in the registry
E_OVERLOADED = "overloaded"      # admission queue full; retry later
E_DRAINING = "draining"          # daemon shutting down / being replaced
E_TIMEOUT = "timeout"            # per-request deadline expired
E_UNAVAILABLE = "unavailable"    # no live shard can take the request
E_INTERNAL = "internal"          # handler raised, or its worker died


class ProtocolError(Exception):
    """The byte stream violated the framing contract."""


def encode(message):
    """One wire line (bytes, newline-terminated) for *message*."""
    return json.dumps(message, sort_keys=True).encode("utf-8") + b"\n"


def ok_response(request_id, result):
    return {"id": request_id, "ok": True, "result": result}


def error_response(request_id, code, message, retry_after=None):
    response = {"id": request_id, "ok": False,
                "error": {"code": code, "message": message}}
    if retry_after is not None:
        response["retry_after"] = retry_after
    return response


class LineReader:
    """Incremental reader turning a socket into parsed JSON messages."""

    def __init__(self, sock, max_line=MAX_LINE):
        self._sock = sock
        self._max_line = max_line
        self._buffer = b""
        self._eof = False

    def next_message(self):
        """The next decoded message, or None at end of stream.

        Raises :class:`ProtocolError` on oversized lines or JSON that
        does not decode to an object.
        """
        while True:
            newline = self._buffer.find(b"\n")
            if newline >= 0:
                line = self._buffer[:newline]
                self._buffer = self._buffer[newline + 1:]
                if not line.strip():
                    continue
                try:
                    message = json.loads(line.decode("utf-8"))
                except (ValueError, UnicodeDecodeError) as error:
                    raise ProtocolError("undecodable line: %s" % error)
                if not isinstance(message, dict):
                    raise ProtocolError("message is not an object")
                return message
            if self._eof:
                if self._buffer.strip():
                    raise ProtocolError("stream ended mid-line")
                return None
            if len(self._buffer) > self._max_line:
                raise ProtocolError("line exceeds %d bytes" % self._max_line)
            chunk = self._sock.recv(65536)
            if not chunk:
                self._eof = True
            else:
                self._buffer += chunk
