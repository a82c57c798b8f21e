"""The HTTP transport: one write per response, kept-alive connections.

A response written as headers and then body leaves the body in a
second small segment that Nagle's algorithm holds for the client's
delayed ACK, ~40 ms on every read of a persistent connection.  These
tests pin the one-write response and time a keep-alive session.
"""

from __future__ import annotations

import http.client
import io
import json
import time

import pytest

from repro.serve import ServeApp
from repro.serve.api import _RequestHandler
from repro.serve.memo import Rendered
from repro.serve.payloads import canonical_json


class _RecordingFile:
    """A ``wfile`` that keeps each write apart."""

    def __init__(self) -> None:
        self.writes = []

    def write(self, data: bytes) -> int:
        self.writes.append(bytes(data))
        return len(data)


class _Unclosable(io.BytesIO):
    """A response stream whose leftover bytes stay readable."""

    def close(self) -> None:
        pass


class _BytesSocket:
    """Just enough socket for :class:`http.client.HTTPResponse`."""

    def __init__(self, data: bytes) -> None:
        self.file = _Unclosable(data)

    def makefile(self, mode):
        return self.file


def _handler() -> _RequestHandler:
    handler = _RequestHandler.__new__(_RequestHandler)
    handler.wfile = _RecordingFile()
    handler.requestline = "GET /x HTTP/1.1"
    handler.request_version = "HTTP/1.1"
    handler.command = "GET"
    return handler


def _parse(data: bytes):
    sock = _BytesSocket(data)
    response = http.client.HTTPResponse(sock)
    response.begin()
    body = response.read()
    return response, body, sock.file.read()


class TestOneWriteResponse:
    @pytest.mark.parametrize("status, payload", [
        (200, {"b": [1, 2.5, None], "a": "x"}),
        (200, Rendered({"report_digest": "ab" * 32, "nested": {"k": 1}})),
        (202, {"id": "job-000001", "status": "queued"}),
        (404, {"error": "no route for /nope"}),
        (500, {"error": "RuntimeError: boom"}),
    ])
    def test_respond_is_one_complete_http11_response(self, status, payload):
        handler = _handler()
        handler._respond(status, payload)
        assert len(handler.wfile.writes) == 1
        response, body, rest = _parse(handler.wfile.writes[0])
        assert rest == b""
        assert response.version == 11
        assert response.status == status
        assert response.getheader("Content-Type") == "application/json"
        assert int(response.getheader("Content-Length")) == len(body)
        assert body == canonical_json(payload).encode() + b"\n"
        assert json.loads(body) == payload

    def test_rendered_body_is_written_as_stored(self):
        rendered = Rendered({"a": 1})
        rendered.body = b'{"stored": true}\n'
        handler = _handler()
        handler._respond(200, rendered)
        _, body, _ = _parse(handler.wfile.writes[0])
        assert body == b'{"stored": true}\n'


@pytest.fixture(scope="module")
def app():
    served = ServeApp(seed=1, scale=0.1, prewarm=True)
    served.start()
    yield served
    served.stop()


class TestKeepAlive:
    PATHS = ["/reports/intra", "/reports/backbone", "/figures/fig3",
             "/figures/fig15", "/tables/table2", "/tables/table4",
             "/healthz", "/stats"]

    def test_one_connection_serves_a_session_quickly(self, app):
        for path in self.PATHS:  # render every answer once
            app.handle("GET", path)
        conn = http.client.HTTPConnection(app.host, app.port, timeout=60)
        try:
            start = time.perf_counter()
            for i in range(40):
                conn.request("GET", self.PATHS[i % len(self.PATHS)])
                response = conn.getresponse()
                assert response.status == 200
                json.loads(response.read())
            conn.request(
                "POST", "/jobs",
                body=json.dumps({
                    "kind": "report",
                    "params": {"study": "intra", "seed": 1, "scale": 0.1},
                }).encode(),
                headers={"Content-Type": "application/json"},
            )
            response = conn.getresponse()
            job = json.loads(response.read())
            elapsed = time.perf_counter() - start
            assert response.status == 202
            # Two writes per response stall each one ~40 ms on the
            # client's delayed ACK: ~2 s for this session.
            assert elapsed < 1.0, f"41 keep-alive requests took {elapsed:.2f}s"

            # The connection is still good for the job's lifecycle.
            assert app.queue.join(timeout=300)
            conn.request("GET", f"/jobs/{job['id']}")
            response = conn.getresponse()
            assert json.loads(response.read())["status"] == "done"
        finally:
            conn.close()
