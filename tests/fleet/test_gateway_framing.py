"""TCP framing of the ingestion gateway.

Every odd request line gets a JSON answer or a clean close, and the
server keeps serving the next connection: an oversized line, a partial
line cut by EOF, two requests in one send, one request split across
sends and bytes that are not UTF-8.
"""

import json
import random
import socket
import time

from repro.fleet import IngestGateway, request
from repro.fleet.gateway import MAX_LINE_BYTES

from tests.fleet.test_gateway import GatewayThread

_SEED = 20261019

PING = b'{"op": "ping"}\n'


def _exchange(address, chunks, pause=0.0):
    """Send each of ``chunks`` with its own ``sendall``, half-close and
    read to EOF.  Returns the answer lines, parsed."""
    with socket.create_connection(address, timeout=30.0) as sock:
        for i, chunk in enumerate(chunks):
            if i and pause:
                time.sleep(pause)
            sock.sendall(chunk)
        sock.shutdown(socket.SHUT_WR)
        data = bytearray()
        while True:
            part = sock.recv(65536)
            if not part:
                break
            data += part
    return [json.loads(line) for line in data.splitlines()]


def test_gateway_framing(fleet):
    rng = random.Random(_SEED)
    server = GatewayThread(IngestGateway(fleet))
    try:
        # Oversized (under 1 MB): one error naming the limit, then EOF.
        pad = b"x" * rng.randrange(MAX_LINE_BYTES + 4096, 900_000)
        answers = _exchange(
            server.address, [b'{"op": "ping", "pad": "' + pad + b'"}\n']
        )
        assert len(answers) == 1 and not answers[0]["ok"]
        assert str(MAX_LINE_BYTES) in answers[0]["error"]
        assert request(server.address, {"op": "ping"})["ok"]

        # A partial line, then EOF: a bad-json answer or nothing.
        cut = rng.randrange(1, len(PING) - 2)
        answers = _exchange(server.address, [PING[:cut]])
        assert all(not answer["ok"] for answer in answers)
        assert request(server.address, {"op": "ping"})["ok"]

        # Two requests in one sendall: two answers, in order.
        answers = _exchange(
            server.address, [PING + b'{"op": "bogus"}\n']
        )
        assert [answer["ok"] for answer in answers] == [True, False]
        assert request(server.address, {"op": "ping"})["ok"]

        # One request split across sends.
        cut = rng.randrange(1, len(PING) - 1)
        answers = _exchange(
            server.address, [PING[:cut], PING[cut:]], pause=0.05
        )
        assert answers == [{"ok": True, "op": "ping"}]
        assert request(server.address, {"op": "ping"})["ok"]

        # Invalid UTF-8.
        junk = bytes([0xFF, 0xFE]) + bytes(
            rng.randrange(0x80, 0x100) for _ in range(rng.randrange(1, 64))
        )
        answers = _exchange(server.address, [junk + b"\n"])
        assert len(answers) == 1 and not answers[0]["ok"]
        assert request(server.address, {"op": "ping"})["ok"]
    finally:
        server.shutdown()
