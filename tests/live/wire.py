"""Raw wire access for tests: the frames on a socket, one at a time.

:class:`RawConn` speaks the live protocol on one connection the way a
hand-written peer or client would — send a JSON frame, write raw
bytes, receive the next frame (``None`` once the far end closed) — so a
test can forge what no real replica sends.  :func:`listen` accepts such
connections, for a fake peer; :func:`decode_stream` cuts frames out of
a byte string exactly as a replica's connection does.
"""

import asyncio
from typing import Any, Awaitable, Callable, Dict, List, Optional

from repro.live.protocol import FrameProtocol, ProtocolError


class RawConn:
    """One connection, frame by frame."""

    def __init__(self) -> None:
        self.conn: Optional[FrameProtocol] = None
        self._inbox: "asyncio.Queue[Optional[Dict[str, Any]]]" = (
            asyncio.Queue()
        )

    def _protocol(self) -> FrameProtocol:
        self.conn = FrameProtocol(
            lambda conn, frame: self._inbox.put_nowait(frame)
        )
        self.conn.lost.add_done_callback(
            lambda _: self._inbox.put_nowait(None)
        )
        return self.conn

    @classmethod
    async def open(cls, host: str, port: int) -> "RawConn":
        raw = cls()
        loop = asyncio.get_running_loop()
        await loop.create_connection(raw._protocol, host, port)
        return raw

    def send(self, obj: Dict[str, Any]) -> None:
        self.conn.frames.send(obj)

    def write(self, data: bytes) -> None:
        self.conn.frames.write(data)

    async def recv(self, timeout: float = 10.0) -> Optional[Dict[str, Any]]:
        """The next frame; ``None`` once the connection is closed."""
        frame = await asyncio.wait_for(self._inbox.get(), timeout)
        if frame is None:
            self._inbox.put_nowait(None)  # closed for every later call
        return frame

    async def close(self) -> None:
        self.conn.close()
        await self.conn.wait_closed()


async def listen(
    handler: Callable[[RawConn], Awaitable[None]], host: str = "127.0.0.1"
) -> asyncio.AbstractServer:
    """A listener that runs ``handler(raw)`` on every connection it
    accepts; closing the server's connections is the handler's job."""
    loop = asyncio.get_running_loop()
    tasks = set()

    def accept() -> FrameProtocol:
        raw = RawConn()
        conn = raw._protocol()
        task = loop.create_task(handler(raw))
        tasks.add(task)
        task.add_done_callback(tasks.discard)
        return conn

    return await loop.create_server(accept, host, 0)


class _Transport(asyncio.Transport):
    """Just what a :class:`FrameProtocol` calls on its transport; it
    keeps what is written on it."""

    def __init__(self) -> None:
        super().__init__()
        self.closed = False
        self.reading = True
        self.written: List[bytes] = []

    def is_closing(self) -> bool:
        return self.closed

    def close(self) -> None:
        self.closed = True

    abort = close

    def write(self, data: bytes) -> None:
        self.written.append(data)

    def pause_reading(self) -> None:
        self.reading = False

    def resume_reading(self) -> None:
        self.reading = True


def fake_connection(
    on_frame: Callable[[FrameProtocol, Dict[str, Any]], None],
) -> FrameProtocol:
    """A :class:`FrameProtocol` on a socketless transport that notes
    whether it is reading and what is written; its refusals collect in
    ``conn.errors``.  Call inside a running loop."""
    errors: List[ProtocolError] = []
    conn = FrameProtocol(on_frame, errors.append)
    conn.errors = errors
    conn.connection_made(_Transport())
    return conn


def decode_stream(*chunks: bytes) -> List[Dict[str, Any]]:
    """The frames a connection cuts out of ``chunks``, delivered one
    ``data_received`` each, in order; a trailing partial frame is
    waiting for bytes that never came, so it is not in the list.
    Raises the :class:`ProtocolError` a malformed frame closed the
    connection with."""

    async def decode() -> List[Dict[str, Any]]:
        frames: List[Dict[str, Any]] = []
        conn = fake_connection(lambda conn, frame: frames.append(frame))
        for chunk in chunks:
            conn.data_received(chunk)
        if conn.errors:
            raise conn.errors[0]
        return frames

    return asyncio.run(decode())
