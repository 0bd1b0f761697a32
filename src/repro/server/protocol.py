"""The wire protocol: length-prefixed JSON frames.

Every message is one *frame*: a 4-byte big-endian unsigned length followed
by that many bytes of UTF-8 JSON.  The JSON object always carries a
``"type"`` key; everything else is per-type payload.  JSON keeps the
protocol inspectable (``tcpdump`` readable, any language can speak it) and
the length prefix keeps framing trivial and streaming-safe.

Result rows travel *column-major*: ``columns`` is one JSON array per
described column (``ndarray.tolist()`` server-side, ``zip(*columns)``
client-side), so a value is converted to a native Python number by numpy,
not by a per-value hook here.  The hook remains for bound parameters and for
numpy scalars boxed inside object columns.

Message types
=============

Client → server:

``HELLO``    ``{version, options?}`` — must be first; ``options`` override
             the server's default :class:`ExecutionOptions` field-wise for
             this connection.
``QUERY``    ``{id, sql, params?, options?}`` — start a statement; per-query
             ``options`` override the connection's field-wise.
``FETCH``    ``{id, count?}`` — pull the next ``count`` rows of a result the
             RESULT frame left unfinished.
``CANCEL``   ``{id}`` — cancel the running statement ``id`` (races with
             completion are fine; a finished query ignores the cancel).
             No reply.
``DISCARD``  ``{id}`` — drop what is still buffered of result ``id`` (a
             cursor re-executed or closed before its last row).  No reply.
``HEALTH``   ``{}`` — ask for a :class:`~repro.health.HealthReport`.
``CLOSE``    ``{}`` — orderly goodbye.

Server → client:

``WELCOME``  ``{version, server}`` — HELLO accepted.
``RESULT``   ``{id, description, rowcount, approximate, elapsed_seconds,
             columns, done}`` — the statement finished; ``columns`` holds
             its first rows (up to :data:`DEFAULT_FETCH_ROWS`) and
             ``done`` says whether those were all of them.  Only a result
             that is not ``done`` stays buffered server-side for FETCH.
``ROWS``     ``{id, columns, done}`` — one FETCH's worth of rows.
``HEALTHY``  ``{report}`` — health report sections.
``ERROR``    ``{id?, name, message}`` — typed failure; ``name`` is the
             exception class name from :mod:`repro.errors`, reconstructed
             client-side so remote failures raise the same types local ones
             do.
``GOODBYE``  ``{}`` — CLOSE acknowledged (also sent unsolicited on drain).
"""

from __future__ import annotations

import dataclasses
import json
import socket
import struct
from typing import Any

from repro import errors as _errors
from repro.api.options import DEFAULT_OPTIONS, ExecutionOptions
from repro.errors import OperationalError, ProtocolError

#: Protocol revision; HELLO/WELCOME carry it so mismatches fail loudly.
#: 2: rows ride the RESULT frame, column-major; DISCARD.
PROTOCOL_VERSION = 2

#: Upper bound on one frame (guards against garbage length prefixes and
#: unbounded allocation on either side).
MAX_FRAME_BYTES = 64 * 1024 * 1024

#: Rows a RESULT frame carries, and the FETCH batch when the client does not
#: ask for a number of rows.
DEFAULT_FETCH_ROWS = 1024

_LENGTH = struct.Struct(">I")


def _jsonify(value: Any) -> Any:
    """JSON fallback: numpy scalars (engine rows) become native numbers."""
    item = getattr(value, "item", None)
    if callable(item):
        return item()
    # repro: ignore[REP004] -- json.dumps(default=...) contract: the hook
    # must raise TypeError for unserializable values; json turns it into
    # the normal "not JSON serializable" failure, it never reaches callers.
    raise TypeError(f"cannot serialize {type(value).__name__} on the wire")


def encode_frame(message: dict[str, Any]) -> bytes:
    """Serialize one message to the bytes of a single frame."""
    payload = json.dumps(message, default=_jsonify).encode("utf-8")
    if len(payload) > MAX_FRAME_BYTES:
        raise ProtocolError(
            f"frame of {len(payload)} bytes exceeds MAX_FRAME_BYTES"
        )
    return _LENGTH.pack(len(payload)) + payload


def send_frame(sock: socket.socket, message: dict[str, Any]) -> None:
    """Serialize one message and write it as a single frame."""
    sock.sendall(encode_frame(message))


def _recv_exact(sock: socket.socket, count: int) -> bytes | None:
    """Read exactly ``count`` bytes; None on clean EOF at a frame boundary."""
    parts: list[bytes] = []
    remaining = count
    while remaining:
        part = sock.recv(remaining)
        if not part:
            if parts:
                raise ProtocolError("connection closed mid-frame")
            return None
        parts.append(part)
        remaining -= len(part)
    return b"".join(parts)


def recv_frame(sock: socket.socket) -> dict[str, Any] | None:
    """Read one frame; None when the peer closed cleanly between frames."""
    header = _recv_exact(sock, _LENGTH.size)
    if header is None:
        return None
    (length,) = _LENGTH.unpack(header)
    if length > MAX_FRAME_BYTES:
        raise ProtocolError(f"peer announced a {length}-byte frame; refusing")
    payload = _recv_exact(sock, length) if length else b""
    if payload is None:
        raise ProtocolError("connection closed between length prefix and payload")
    try:
        message = json.loads(payload.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError(f"undecodable frame: {exc}") from exc
    if not isinstance(message, dict) or "type" not in message:
        raise ProtocolError("frame is not an object with a 'type' key")
    return message


# ---------------------------------------------------------------------------
# payload codecs
# ---------------------------------------------------------------------------

_OPTION_FIELDS = frozenset(f.name for f in dataclasses.fields(ExecutionOptions))


def encode_options(options: ExecutionOptions | None) -> dict[str, Any] | None:
    """ExecutionOptions → plain dict (None passes through)."""
    if options is None:
        return None
    return dataclasses.asdict(options)


def decode_options(
    payload: dict[str, Any] | None, base: ExecutionOptions | None = None
) -> ExecutionOptions | None:
    """Plain dict → ExecutionOptions, overriding ``base`` field-wise.

    Only the keys the payload sets replace ``base``'s fields (the defaults
    when ``base`` is None); a missing payload returns ``base`` itself.  A
    key whose value is None counts as not set, so a client that sends every
    field — ``"confidence": null`` included — gets the defaults for those.
    Unknown keys are dropped rather than rejected so a newer client can talk
    to an older server; a typo'd option degrades to the default, which the
    RESULT's ``approximate`` flag makes visible.
    """
    if payload is None:
        return base
    if not isinstance(payload, dict):
        raise ProtocolError("options payload must be an object")
    known = {k: v for k, v in payload.items() if k in _OPTION_FIELDS and v is not None}
    try:
        return (base or DEFAULT_OPTIONS).merged(**known)
    except Exception as exc:
        raise ProtocolError(f"bad options payload: {exc}") from exc


def encode_error(exc: BaseException, query_id: str | None = None) -> dict[str, Any]:
    """Exception → ERROR message (class name + text travel the wire)."""
    message: dict[str, Any] = {
        "type": "ERROR",
        "name": type(exc).__name__,
        "message": str(exc),
    }
    if query_id is not None:
        message["id"] = query_id
    return message


def decode_error(payload: dict[str, Any]) -> Exception:
    """ERROR message → the matching typed exception.

    The class name is looked up in :mod:`repro.errors`, so a remote
    :class:`QueryCancelledError` raises :class:`QueryCancelledError` at the
    client; unknown names degrade to :class:`OperationalError`.
    """
    name = payload.get("name", "OperationalError")
    message = payload.get("message", "remote error")
    cls = getattr(_errors, str(name), None)
    if not (isinstance(cls, type) and issubclass(cls, Exception)):
        cls = OperationalError
        message = f"{name}: {message}"
    try:
        return cls(message)
    # repro: ignore[REP004] -- wire boundary: an error class whose
    # constructor rejects a single message argument degrades to
    # OperationalError rather than masking the remote failure with a local one.
    except Exception:  # pragma: no cover - exotic constructors
        return OperationalError(f"{name}: {message}")


__all__ = [
    "DEFAULT_FETCH_ROWS",
    "MAX_FRAME_BYTES",
    "PROTOCOL_VERSION",
    "decode_error",
    "decode_options",
    "encode_error",
    "encode_frame",
    "encode_options",
    "recv_frame",
    "send_frame",
]
