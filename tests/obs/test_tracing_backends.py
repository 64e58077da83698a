"""Causal call tracing across all four backends.

The same span model must hold everywhere — every backend issues calls
through the one shared routine (``Fabric._issue``): each traced call
leaves a client span on the caller and a server span on the hosting
machine, the server span's ``parent_id`` is the client span's id, and
each span's timestamps are monotone in causal order.  On sim the
timestamps are *simulated* seconds from the discrete-event clock.
"""

from __future__ import annotations

import time

import pytest

import repro as oopp


class Echo:
    def echo(self, x):
        return x

    def boom(self):
        raise ValueError("deliberate")


class Relay:
    """Calls another remote object from inside its own method body."""

    def relay(self, peer, x):
        return peer.echo(x)


BACKENDS = ["inline", "mp", "sim", pytest.param("tcp", marks=pytest.mark.tcp)]


def traced_cluster(backend, tmp_path, **kw):
    kw.setdefault("call_timeout_s", 60.0)
    return oopp.Cluster(n_machines=3, backend=backend, trace=True,
                        storage_root=str(tmp_path / backend), **kw)


def span_values(span):
    return [value for _, value in span.times()]


@pytest.mark.parametrize("backend", BACKENDS)
class TestEveryBackend:
    def test_off_by_default(self, backend, tmp_path):
        with oopp.Cluster(n_machines=2, backend=backend,
                          storage_root=str(tmp_path / "off")) as cluster:
            obj = cluster.on(1).new(Echo)
            assert obj.echo(1) == 1
            assert cluster.trace_spans() == []

    def test_client_and_server_spans_causally_linked(self, backend, tmp_path):
        with traced_cluster(backend, tmp_path) as cluster:
            obj = cluster.on(1).new(Echo)
            for i in range(3):
                assert obj.echo(i) == i
            spans = cluster.trace_spans()

        echo_client = [s for s in spans
                       if s.kind == "client" and s.method == "echo"]
        echo_server = [s for s in spans
                       if s.kind == "server" and s.method == "echo"]
        assert len(echo_client) == 3 and len(echo_server) == 3
        client_ids = {s.span_id for s in echo_client}
        for server in echo_server:
            assert server.parent_id in client_ids
            assert server.machine == 1
        for span in spans:
            assert span.backend == backend
            assert span.finished, span
            values = span_values(span)
            assert values == sorted(values), span

    def test_one_call_is_one_client_and_one_server_span(self, backend,
                                                        tmp_path):
        with traced_cluster(backend, tmp_path) as cluster:
            obj = cluster.on(1).new(Echo)
            cluster.trace_spans()  # discard setup spans
            assert obj.echo(7) == 7
            spans = cluster.trace_spans()
        (client,) = [s for s in spans if s.kind == "client"]
        (server,) = [s for s in spans if s.kind == "server"]
        assert server.parent_id == client.span_id
        assert (client.machine, client.peer) == (-1, 1)
        assert (server.machine, server.peer) == (1, -1)
        assert client.t_queued <= client.t_sent <= client.t_replied

    def test_oneway_client_span_is_sent_and_never_replied(self, backend,
                                                          tmp_path):
        with traced_cluster(backend, tmp_path) as cluster:
            obj = cluster.on(1).new(Echo)
            cluster.trace_spans()
            obj.echo.oneway(1)
            obj.echo(2)  # same connection: the oneway reached the server
            spans, deadline = [], time.monotonic() + 10.0
            while (sum(s.kind == "server" for s in spans) < 2
                   and time.monotonic() < deadline):
                spans += cluster.trace_spans()  # its worker may lag a hair
        oneway, blocking = sorted(
            (s for s in spans if s.kind == "client"),
            key=lambda s: s.span_id)
        assert oneway.t_sent is not None
        assert oneway.t_replied is None and oneway.error is None
        assert blocking.finished
        servers = [s for s in spans if s.kind == "server"]
        assert {s.parent_id for s in servers} == {oneway.span_id,
                                                  blocking.span_id}

    def test_local_nested_call_has_no_client_span(self, backend, tmp_path):
        # relay and its peer share machine 1: where the backend knows the
        # caller's machine (every one but inline), the nested call is
        # local — no wire, so no client span, and its server span parents
        # straight to the enclosing server span.
        with traced_cluster(backend, tmp_path) as cluster:
            relay = cluster.on(1).new(Relay)
            peer = cluster.on(1).new(Echo)
            cluster.trace_spans()
            assert relay.relay(peer, 4) == 4
            spans = cluster.trace_spans()
        relay_server = next(s for s in spans
                            if s.kind == "server" and s.method == "relay")
        echo_server = next(s for s in spans
                           if s.kind == "server" and s.method == "echo")
        echo_clients = [s for s in spans
                        if s.kind == "client" and s.method == "echo"]
        if backend == "inline":
            (inner,) = echo_clients
            assert inner.parent_id == relay_server.span_id
            assert echo_server.parent_id == inner.span_id
        else:
            assert echo_clients == []
            assert echo_server.parent_id == relay_server.span_id
            assert echo_server.peer == 1

    def test_failed_call_records_error(self, backend, tmp_path):
        with traced_cluster(backend, tmp_path) as cluster:
            obj = cluster.on(1).new(Echo)
            with pytest.raises(ValueError):
                obj.boom()
            spans = cluster.trace_spans()
        server = next(s for s in spans
                      if s.kind == "server" and s.method == "boom")
        client = next(s for s in spans
                      if s.kind == "client" and s.method == "boom")
        assert server.error == client.error == "ValueError"

    def test_nested_call_parents_to_server_span(self, backend, tmp_path):
        # relay() calls peer.echo() from inside its body: the inner
        # client span must parent to relay's *server* span — the call
        # tree the paper's object-to-object traffic forms.
        with traced_cluster(backend, tmp_path) as cluster:
            relay = cluster.on(1).new(Relay)
            peer = cluster.on(2).new(Echo)
            assert relay.relay(peer, 9) == 9
            spans = cluster.trace_spans()

        relay_server = next(s for s in spans
                            if s.kind == "server" and s.method == "relay")
        inner_client = next(s for s in spans if s.kind == "client"
                            and s.method == "echo"
                            and s.parent_id == relay_server.span_id)
        inner_server = next(s for s in spans if s.kind == "server"
                            and s.method == "echo")
        assert inner_server.parent_id == inner_client.span_id
        # three generations: root client -> relay server -> echo client
        root = next(s for s in spans
                    if s.kind == "client" and s.method == "relay")
        assert root.parent_id is None
        assert relay_server.parent_id == root.span_id

    def test_write_trace_produces_chrome_file(self, backend, tmp_path):
        import json

        path = str(tmp_path / "trace.json")
        with traced_cluster(backend, tmp_path) as cluster:
            obj = cluster.on(1).new(Echo)
            obj.echo(1)
            written = cluster.write_trace(path)
        assert written > 0
        data = json.load(open(path))
        kinds = {e["ph"] for e in data["traceEvents"]}
        assert {"M", "b", "e"} <= kinds


class TestBackendSpecifics:
    def test_sim_spans_use_simulated_clock(self, tmp_path):
        # A method that charges 2 simulated seconds: the span must show
        # ~2 simulated seconds between receive and execute even though
        # the wall-clock run takes milliseconds.
        with traced_cluster("sim", tmp_path) as cluster:
            obj = cluster.on(1).new(Slow)
            obj.work()
            t_end = cluster.fabric.engine.now
            spans = cluster.trace_spans()
        server = next(s for s in spans
                      if s.kind == "server" and s.method == "work")
        assert server.t_replied - server.t_received == pytest.approx(2.0)
        assert server.t_replied <= t_end

    def test_mp_span_ids_disjoint_across_processes(self, tmp_path):
        with traced_cluster("mp", tmp_path) as cluster:
            obj = cluster.on(1).new(Echo)
            obj.echo(1)
            spans = cluster.trace_spans()
        salts = {s.span_id >> 48 for s in spans}
        assert 1 in salts      # driver-minted client spans
        assert 3 in salts      # machine-1-minted server spans
        ids = [s.span_id for s in spans]
        assert len(ids) == len(set(ids))

    def test_mp_pipelined_burst_overlaps_on_driver(self, tmp_path):
        # The paper's send-loop form: many futures in flight at once.
        # Client spans on the driver must overlap in time.
        with traced_cluster("mp", tmp_path) as cluster:
            obj = cluster.on(1).new(Echo)
            obj.echo(0)  # connection warmup
            cluster.trace_spans()  # discard setup spans
            futures = [obj.echo.future(i) for i in range(20)]
            assert [f.result(60) for f in futures] == list(range(20))
            spans = cluster.trace_spans()
        client = sorted((s for s in spans if s.kind == "client"),
                        key=lambda s: s.t_queued)
        assert len(client) == 20
        # at least one span begins before an earlier span replied
        overlapped = any(later.t_queued < earlier.t_replied
                         for earlier, later in zip(client, client[1:]))
        assert overlapped

    def test_trace_spans_is_destructive(self, tmp_path):
        with traced_cluster("mp", tmp_path) as cluster:
            obj = cluster.on(1).new(Echo)
            obj.echo(1)
            first = cluster.trace_spans()
            assert first
            assert cluster.trace_spans() == []


class Slow:
    def work(self):
        from repro.runtime.context import current_hooks

        current_hooks().charge_compute(2.0)
        return "done"
