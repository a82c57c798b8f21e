"""The render memo: each answer rendered once per corpus fingerprint.

The contract under test: a memoized answer is byte-for-byte the
canonical encoding of the payload ``handle`` returns and equal to a
fresh render; it rotates with the corpus fingerprint (ingest, tail);
it holds at most one entry per route; errors are never stored; and
its hits stay visible as result-cache hits and under ``/stats``.
"""

from __future__ import annotations

import http.client
import itertools
import json

import pytest

from repro.runtime import BACKENDS
from repro.serve import ServeApp
from repro.serve.payloads import (
    FIGURES,
    canonical_json,
    intra_report_payload,
)


def _events(count, seed=99):
    from repro.simulation.generator import iter_scenario_reports
    from repro.simulation.scenarios import paper_scenario

    return list(itertools.islice(
        iter_scenario_reports(paper_scenario(seed=seed, scale=0.1)), count
    ))


def _get(app, path):
    conn = http.client.HTTPConnection(app.host, app.port, timeout=60)
    try:
        conn.request("GET", path)
        response = conn.getresponse()
        return response.status, response.read()
    finally:
        conn.close()


def _read_routes(app):
    """Every placeholder-free GET route the index lists."""
    _, index = app.handle("GET", "/")
    return [
        entry.split(" ", 1)[1] for entry in index["endpoints"]
        if entry.startswith("GET ") and "<" not in entry
    ]


def _fresh_intra_digest(app):
    """The intra digest of the served corpus, without cache or memo."""
    return intra_report_payload(app.state.intra_context)["report_digest"]


@pytest.fixture(scope="module")
def served():
    app = ServeApp(seed=1, scale=0.1, prewarm=True)
    app.start()
    yield app
    app.stop()


@pytest.fixture()
def app():
    served = ServeApp(seed=1, scale=0.1, prewarm=False)
    yield served
    served.stop()


class TestServedBytes:
    def test_every_route_and_backend_serves_the_canonical_body(self, served):
        dynamic = {"/healthz", "/stats"}
        for path in _read_routes(served):
            for backend in BACKENDS:
                status, body = _get(served, f"{path}?backend={backend}")
                assert status == 200, (path, backend)
                if path in dynamic:
                    # uptime and counters move between two requests;
                    # the body is still the canonical encoding.
                    expected = canonical_json(json.loads(body))
                else:
                    _, payload = served.handle(
                        "GET", path, {"backend": [backend]}
                    )
                    expected = canonical_json(payload)
                assert body == expected.encode() + b"\n", (path, backend)

    def test_memoized_report_equals_a_fresh_render(self, served):
        for backend in BACKENDS:
            _, memoized = served.handle(
                "GET", "/reports/intra", {"backend": [backend]}
            )
            fresh = intra_report_payload(
                served.state.intra_context, backend=backend
            )
            assert dict(memoized) == fresh

    def test_entries_bounded_by_the_route_table(self, served):
        for path in _read_routes(served):
            for backend in BACKENDS:
                served.handle("GET", path, {"backend": [backend]})
        routes = 3 * len(BACKENDS) + len(FIGURES)
        assert len(served.state.memo) == routes


class TestRotation:
    def test_ingest_rotates_reports_and_figures(self, app):
        app.warmer.prewarm()
        _, report = app.handle("GET", "/reports/intra")
        _, figure = app.handle("GET", "/figures/fig3")
        assert figure["report_digest"] == report["report_digest"]

        app.state.ingest(_events(10))
        fresh = _fresh_intra_digest(app)
        assert fresh != report["report_digest"]
        _, report = app.handle("GET", "/reports/intra")
        _, figure = app.handle("GET", "/figures/fig3")
        assert report["report_digest"] == fresh
        assert figure["report_digest"] == fresh

    def test_tail_rotates_reports_and_figures(self, app):
        app.start()
        _, before = app.handle("GET", "/figures/fig3")
        app.warmer.tail(iter(_events(12)), batch=4)
        fresh = _fresh_intra_digest(app)
        assert fresh != before["report_digest"]
        for path in ("/reports/intra", "/figures/fig3"):
            status, body = _get(app, path)
            assert status == 200
            assert json.loads(body)["report_digest"] == fresh

    def test_twenty_ingests_keep_one_entry_per_route(self, app):
        events = _events(40)
        for i in range(20):
            app.state.ingest(events[2 * i:2 * i + 2])
            for path in ("/reports/intra", "/figures/fig3",
                         "/tables/table2", "/reports/backbone"):
                status, _ = app.handle("GET", path)
                assert status == 200
        assert len(app.state.memo) == 4
        assert len(app.state.memo) <= 3 * len(BACKENDS) + len(FIGURES)
        assert (app.handle("GET", "/reports/intra")[1]["report_digest"]
                == _fresh_intra_digest(app))


class TestErrorsAreNotMemoized:
    def test_client_errors_leave_the_memo_alone(self, app):
        for path, query in (("/reports/intra", {"backend": ["warp"]}),
                            ("/reports/nope", {}),
                            ("/figures/fig999", {}),
                            ("/tables/fig3", {})):
            status, _ = app.handle("GET", path, query)
            assert 400 <= status < 500
        assert len(app.state.memo) == 0
        assert app.state.memo.stats()["hits"] == 0

    def test_a_failed_render_is_a_500_and_not_stored(self, app,
                                                     monkeypatch):
        import repro.serve.api as api

        def broken(*args, **kwargs):
            raise RuntimeError("render failed")

        app.start()
        with monkeypatch.context() as patch:
            patch.setitem(api._STUDIES, "intra",
                          (api._STUDIES["intra"][0], broken))
            for path in ("/reports/intra", "/figures/fig3"):
                status, body = _get(app, path)
                assert status == 500
                assert "render failed" in json.loads(body)["error"]
        assert len(app.state.memo) == 0
        status, _ = _get(app, "/figures/fig3")
        assert status == 200


class TestCounters:
    def test_memo_hits_count_as_cache_hits_and_show_in_stats(self, app):
        from repro.runtime import intra_report_analyses

        app.warmer.prewarm()
        _, first = app.handle("GET", "/stats")
        before = app.state.cache.stats()
        app.handle("GET", "/reports/intra")
        app.handle("GET", "/reports/intra")
        after = app.state.cache.stats()
        _, stats = app.handle("GET", "/stats")
        # each memo hit counts the lookups a re-render would have hit
        assert after["misses"] == before["misses"]
        assert (after["hits"] - before["hits"]
                == 2 * len(intra_report_analyses()))
        rendered = stats["rendered"]
        assert rendered["hits"] == first["rendered"]["hits"] + 2
        assert rendered["misses"] == first["rendered"]["misses"]
        assert rendered["entries"] == 3

    def test_memo_is_never_written_to_the_cache_directory(self, app):
        app.warmer.prewarm()
        disk = app.state.cache.stats()["disk_entries"]
        for _ in range(3):
            for fig_id in FIGURES:
                app.handle("GET", f"/figures/{fig_id}")
        assert app.state.cache.stats()["disk_entries"] == disk


class TestConcurrency:
    def test_readers_and_an_ingester_keep_the_counters_whole(self, app):
        import sys
        import threading

        app.warmer.prewarm()
        paths = ["/reports/intra", "/figures/fig3", "/tables/table2",
                 "/reports/backbone", "/figures/fig15"]
        readers, reads_each = 8, 40
        events = _events(24)
        digests = set()
        failures = []
        lock = threading.Lock()
        memo_before = app.state.memo.stats()
        renders = itertools.count()
        render = app.state.memo.render

        def counted(*args):
            next(renders)  # atomic: the count survives any interleaving
            return render(*args)

        app.state.memo.render = counted

        def read(worker):
            for i in range(reads_each):
                status, payload = app.handle(
                    "GET", paths[(worker + i) % len(paths)]
                )
                with lock:
                    if status != 200:
                        failures.append(status)
                    elif payload.get("study", "intra") == "intra":
                        digests.add(payload["report_digest"])

        def ingest():
            for i in range(0, len(events), 4):
                app.state.ingest(events[i:i + 4])

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=read, args=(w,))
                       for w in range(readers)]
            threads.append(threading.Thread(target=ingest))
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=300)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert failures == []

        memo = app.state.memo.stats()
        counted_calls = (memo["hits"] + memo["misses"]
                         - memo_before["hits"] - memo_before["misses"])
        # a lost counter update would leave the memo short of the calls
        assert counted_calls == next(renders)
        assert counted_calls >= readers * reads_each
        assert memo["entries"] <= 3 * len(BACKENDS) + len(FIGURES)
        # no read saw a digest the final corpus or an earlier one
        # could not produce: at most one per ingest batch, plus the
        # starting corpus
        assert len(digests) <= len(events) // 4 + 1
        _, final = app.handle("GET", "/figures/fig3")
        assert final["report_digest"] == _fresh_intra_digest(app)
