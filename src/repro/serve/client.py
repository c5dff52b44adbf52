"""Client side of the serve protocol: one connection, sync requests.

``ServeClient`` keeps a persistent connection and issues one request
at a time (concurrency comes from multiple clients/connections, which
is how the daemon's admission queue is meant to be exercised).  The
client is the serving stack's only retrier, and it retries exactly the
answers that carry a ``retry_after`` hint — the servers attach one
only when a fresh attempt can land (see :mod:`repro.serve.protocol`).
It backs off by the hint (each delay capped at ``max_retry_after``)
up to ``retries`` times; every other answer raises
:class:`ServeError` immediately.  How hard the client had to work is surfaced as response metadata: :attr:`ServeClient.last_meta`
records the attempt count, total backoff, and serving shard of the
most recent request, and any request that needed more than one attempt
gets the same record injected into its result dict under ``"_meta"``.

Addresses are Unix socket paths by default; a ``tcp://host:port``
address connects over TCP instead (the fleet gateway can listen on
both).
"""

import errno
import itertools
import socket
import time

from repro.obs import context as _context
from repro.obs import trace as _trace
from repro.serve.config import ServeConfig, default_socket_path
from repro.serve.protocol import LineReader, ProtocolError, encode


def parse_address(address):
    """``("tcp", (host, port))`` or ``("unix", path)`` for *address*."""
    if isinstance(address, str) and address.startswith("tcp://"):
        rest = address[len("tcp://"):]
        host, _sep, port = rest.rpartition(":")
        if not host or not port.isdigit():
            raise ValueError("bad TCP address %r (want tcp://host:port)"
                             % address)
        return "tcp", (host, int(port))
    return "unix", address


class ServeError(Exception):
    """A request failed with a daemon-reported error."""

    def __init__(self, code, message, retry_after=None):
        super().__init__("%s: %s" % (code, message))
        self.code = code
        self.message = message
        self.retry_after = retry_after


class ServeClient:
    """Line-protocol client for a running edit daemon."""

    def __init__(self, socket_path=None, connect_timeout=5.0,
                 io_timeout=120.0, retries=5, max_retry_after=2.0):
        self.socket_path = socket_path or default_socket_path()
        self.connect_timeout = connect_timeout
        self.io_timeout = io_timeout
        self.retries = retries
        self.max_retry_after = max_retry_after
        self._ids = itertools.count(1)
        self._sock = None
        self._reader = None
        # Metadata of the most recent request: attempts, backoff paid,
        # and which fleet shard (if any) served it.
        self.last_meta = None

    # ------------------------------------------------------------------
    def connect(self):
        if self._sock is not None:
            return self
        family, target = parse_address(self.socket_path)
        # A busy daemon's accept backlog overflows transiently — Linux
        # answers EAGAIN (unix) or ECONNREFUSED/ECONNRESET (tcp) rather
        # than blocking, so keep knocking within connect_timeout.
        deadline = time.monotonic() + self.connect_timeout
        pause = 0.01
        while True:
            sock = socket.socket(
                socket.AF_INET if family == "tcp" else socket.AF_UNIX,
                socket.SOCK_STREAM)
            sock.settimeout(self.connect_timeout)
            try:
                sock.connect(target)
            except OSError as error:
                sock.close()
                transient = error.errno in (errno.EAGAIN,
                                            errno.ECONNREFUSED,
                                            errno.ECONNRESET)
                if not transient or time.monotonic() >= deadline:
                    raise
                time.sleep(pause)
                pause = min(pause * 2, 0.25)
                continue
            break
        sock.settimeout(self.io_timeout)
        self._sock = sock
        self._reader = LineReader(sock)
        return self

    def close(self):
        if self._sock is not None:
            try:
                self._sock.close()
            finally:
                self._sock = None
                self._reader = None

    def __enter__(self):
        return self.connect()

    def __exit__(self, exc_type, exc, tb):
        self.close()
        return False

    # ------------------------------------------------------------------
    def request(self, op, **params):
        """Result dict of *op*; retries answers that carry
        ``retry_after``, raises ServeError.

        Every request travels under a trace context: the caller's
        attached context when one exists (so daemon-side spans hang
        under the caller's trace), a freshly minted one otherwise.
        Retries reuse the same trace id — the event log then shows the
        whole backoff story under one request.
        """
        parent = _context.current()
        ctx = _context.TraceContext(parent.trace_id if parent else None,
                                    parent.span_id if parent else None)
        with _context.attached(ctx), \
                _trace.TRACER.span("serve.client.request", op=op) as sp:
            if isinstance(sp, _trace.Span) and sp.span_id:
                wire = ctx.child(sp.span_id)
            else:
                wire = ctx
            params = dict(params)
            params["trace"] = wire.to_wire()
            attempt = 0
            backoff_total = 0.0
            while True:
                response = self._roundtrip(op, params)
                if response.get("ok"):
                    meta = {"attempts": attempt + 1,
                            "backoff_s": backoff_total}
                    if response.get("shard") is not None:
                        meta["shard"] = response["shard"]
                    self.last_meta = meta
                    result = response.get("result")
                    # Surface how hard the client had to work, but only
                    # when it *did* retry: first-attempt results stay
                    # byte-identical to what the daemon sent.
                    if attempt and isinstance(result, dict):
                        result["_meta"] = meta
                    return result
                error = response.get("error") or {}
                code = error.get("code", "internal")
                retry_after = response.get("retry_after")
                if retry_after is not None and attempt < self.retries:
                    attempt += 1
                    delay = min(retry_after, self.max_retry_after)
                    backoff_total += delay
                    time.sleep(delay)
                    continue
                self.last_meta = {"attempts": attempt + 1,
                                  "backoff_s": backoff_total}
                raise ServeError(code,
                                 error.get("message", "request failed"),
                                 retry_after)

    def roundtrip(self, op, **params):
        """One raw request/response exchange: no retries, no result
        unwrapping.  The fleet gateway relays shard responses (ok and
        error alike) back to its own clients, so it needs the whole
        response object rather than :meth:`request`'s unwrapped
        result.  Raises :class:`ServeError` only for transport-level
        failures (closed connection, id mismatch)."""
        return self._roundtrip(op, params)

    def _roundtrip(self, op, params):
        self.connect()
        request_id = next(self._ids)
        message = {"id": request_id, "op": op}
        message.update(params)
        self._sock.sendall(encode(message))
        response = self._reader.next_message()
        if response is None:
            raise ServeError("connection_closed",
                             "daemon closed the connection mid-request")
        # Responses must echo our id exactly.  An id of None is the
        # daemon reporting a framing-level failure (it could not even
        # parse an id); anything else is a correlation bug.  Either way
        # matching it to this request would hand the caller a response
        # that is not theirs, so surface the mismatch instead.
        got = response.get("id")
        if got != request_id:
            error = response.get("error") or {}
            detail = error.get("message", "")
            raise ServeError(
                "protocol_error",
                "response id %r does not match request id %r%s"
                % (got, request_id,
                   (": " + detail) if detail else ""))
        return response

    # ------------------------------------------------------------------
    # Convenience wrappers (the ops the CLI and tests speak)
    # ------------------------------------------------------------------

    def ping(self):
        return self.request("ping")

    def run_workload(self, workload, stdin="", **params):
        return self.request("run", workload=workload, stdin=stdin, **params)

    def stats(self, sections=None):
        if sections is not None:
            return self.request("stats", sections=list(sections))
        return self.request("stats")

    def top(self, cursor=None):
        """One live-introspection snapshot; pass back the returned
        ``cursor`` to get counter deltas instead of absolutes."""
        if cursor is not None:
            return self.request("top", cursor=cursor)
        return self.request("top")

    def shutdown(self):
        return self.request("shutdown")


def daemon_running(socket_path=None, timeout=1.0):
    """True when a daemon answers a ping at *socket_path*."""
    client = ServeClient(socket_path, connect_timeout=timeout,
                         io_timeout=timeout, retries=0)
    try:
        with client:
            return bool(client.ping().get("pong"))
    except (OSError, ServeError, ProtocolError):
        return False


def wait_for_daemon(socket_path=None, timeout=20.0, interval=0.05):
    """Poll until a daemon answers; True on success within *timeout*."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if daemon_running(socket_path, timeout=1.0):
            return True
        time.sleep(interval)
    return False


__all__ = ["ServeClient", "ServeError", "ServeConfig", "daemon_running",
           "parse_address", "wait_for_daemon"]
