"""The server subprocess and this benchmark's own client side of its wire.

The server is ``python -m repro serve --port 0`` in a child process;
its address comes from the stderr banner.  The load goes over RFC-6455
WebSocket with the framing below (client frames masked) and
``/v1/metrics`` over HTTP/1.1, not through the program's client code,
so a change to that code cannot speed up the measuring side.
"""

from __future__ import annotations

import asyncio
import base64
import hashlib
import json
import os
import queue
import re
import signal
import struct
import subprocess
import sys
import threading
import time
from typing import Any, Dict, List, Optional, Tuple

from common import ROOT, program_env

BANNER = re.compile(r"repro serve on http://([^\s:/]+):(\d+)")
WS_GUID = "258EAFA5-E914-47DA-95CA-C5AB0DC85B11"


# ----------------------------------------------------------------------
# the server subprocess
# ----------------------------------------------------------------------
class Server:
    """``repro serve`` in a child process, stopped within a bound."""

    def __init__(self, cache: Any, flight: Any, trace_out: Any = None) -> None:
        cmd = [
            sys.executable, "-m", "repro", "serve", "--port", "0",
            "--plan-cache", str(cache), "--flight-dir", str(flight),
        ]
        if trace_out is not None:
            cmd += ["--trace-out", str(trace_out)]
        self.stderr: List[str] = []
        self._lines: "queue.Queue[Optional[str]]" = queue.Queue()
        self.proc = subprocess.Popen(
            cmd, cwd=ROOT, env=program_env(), stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
        )
        self._reader = threading.Thread(target=self._pump, daemon=True)
        self._reader.start()
        deadline = time.monotonic() + 60.0
        while True:
            try:
                line = self._lines.get(timeout=max(deadline - time.monotonic(), 0.01))
            except queue.Empty:
                line = None
            if line is None:
                self.stop()
                raise RuntimeError(
                    "repro serve did not print its banner:\n"
                    + "".join(self.stderr)
                )
            match = BANNER.search(line)
            if match:
                self.host, self.port = match.group(1), int(match.group(2))
                return

    def _pump(self) -> None:
        assert self.proc.stderr is not None
        for line in self.proc.stderr:
            self.stderr.append(line)
            self._lines.put(line)
        self._lines.put(None)

    @property
    def pid(self) -> int:
        return self.proc.pid

    def stop(self, timeout: float = 30.0) -> None:
        """SIGTERM (graceful drain, trace export), then SIGKILL."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait(10)
        self._reader.join(10)


# ----------------------------------------------------------------------
# the client side: HTTP/1.1 and WebSocket framing
# ----------------------------------------------------------------------
class HttpConn:
    """One HTTP/1.1 connection for GET requests (Content-Length bodies)."""

    def __init__(self, reader, writer, host: str) -> None:
        self.reader, self.writer, self.host = reader, writer, host

    @classmethod
    async def open(cls, host: str, port: int) -> "HttpConn":
        reader, writer = await asyncio.open_connection(host, port)
        return cls(reader, writer, host)

    async def get(self, path: str) -> Tuple[int, bytes]:
        self.writer.write(
            f"GET {path} HTTP/1.1\r\nHost: {self.host}\r\n\r\n"
            .encode("latin-1")
        )
        head = await self.reader.readuntil(b"\r\n\r\n")
        lines = head.decode("latin-1").split("\r\n")
        status = int(lines[0].split(" ", 2)[1])
        length = 0
        for line in lines[1:]:
            name, _, value = line.partition(":")
            if name.strip().lower() == "content-length":
                length = int(value)
        return status, await self.reader.readexactly(length)

    async def close(self) -> None:
        self.writer.close()
        try:
            await self.writer.wait_closed()
        except (ConnectionError, OSError):
            pass


def mask_frame(payload: bytes, key: bytes, opcode: int = 0x1) -> bytes:
    """One FIN client frame, masked with the 4-byte ``key``."""
    n = len(payload)
    if n < 126:
        header = struct.pack("!BB", 0x80 | opcode, 0x80 | n)
    elif n < 1 << 16:
        header = struct.pack("!BBH", 0x80 | opcode, 0x80 | 126, n)
    else:
        header = struct.pack("!BBQ", 0x80 | opcode, 0x80 | 127, n)
    stream = (key * (n // 4 + 1))[:n]
    masked = (
        int.from_bytes(payload, "big") ^ int.from_bytes(stream, "big")
    ).to_bytes(n, "big")
    return header + key + masked


class WsConn:
    """One client WebSocket on ``/v1/ws`` (text frames of JSON)."""

    def __init__(self, reader, writer) -> None:
        self.reader, self.writer = reader, writer
        self._keys = 0

    @classmethod
    async def open(cls, host: str, port: int) -> "WsConn":
        reader, writer = await asyncio.open_connection(host, port)
        key = base64.b64encode(os.urandom(16)).decode("ascii")
        writer.write((
            f"GET /v1/ws HTTP/1.1\r\nHost: {host}\r\nUpgrade: websocket\r\n"
            f"Connection: Upgrade\r\nSec-WebSocket-Key: {key}\r\n"
            "Sec-WebSocket-Version: 13\r\n\r\n"
        ).encode("latin-1"))
        head = (await reader.readuntil(b"\r\n\r\n")).decode("latin-1")
        want = base64.b64encode(
            hashlib.sha1((key + WS_GUID).encode("ascii")).digest()
        ).decode("ascii")
        if " 101 " not in head.split("\r\n", 1)[0] or want not in head:
            raise RuntimeError(f"websocket handshake refused: {head!r}")
        return cls(reader, writer)

    def _frame(self, message: Dict[str, Any]) -> bytes:
        self._keys += 1
        key = struct.pack("!I", (self._keys * 2654435761) & 0xFFFFFFFF)
        return mask_frame(
            json.dumps(message, separators=(",", ":")).encode(), key
        )

    def send(self, message: Dict[str, Any]) -> None:
        self.writer.write(self._frame(message))

    def send_many(self, messages: List[Dict[str, Any]]) -> None:
        """Several messages in one write (one burst on the wire)."""
        self.writer.write(b"".join(self._frame(m) for m in messages))

    async def recv(self) -> Dict[str, Any]:
        """The next text message (pings answered, fragments joined)."""
        parts: List[bytes] = []
        while True:
            b0, b1 = await self.reader.readexactly(2)
            n = b1 & 0x7F
            if n == 126:
                (n,) = struct.unpack("!H", await self.reader.readexactly(2))
            elif n == 127:
                (n,) = struct.unpack("!Q", await self.reader.readexactly(8))
            key = await self.reader.readexactly(4) if b1 & 0x80 else None
            payload = await self.reader.readexactly(n)
            if key is not None:
                stream = (key * (n // 4 + 1))[:n]
                payload = (
                    int.from_bytes(payload, "big")
                    ^ int.from_bytes(stream, "big")
                ).to_bytes(n, "big")
            opcode = b0 & 0x0F
            if opcode == 0x8:
                raise ConnectionError("server closed the websocket")
            if opcode == 0x9:
                self.writer.write(mask_frame(payload, b"pong", 0xA))
                continue
            if opcode == 0xA:
                continue
            parts.append(payload)
            if b0 & 0x80:
                return json.loads(b"".join(parts))

    async def close(self) -> None:
        try:
            self.writer.write(mask_frame(struct.pack("!H", 1000), b"bye!", 0x8))
            await self.writer.drain()
        except (ConnectionError, OSError):
            pass
        self.writer.close()
        try:
            await self.writer.wait_closed()
        except (ConnectionError, OSError):
            pass

