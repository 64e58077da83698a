"""Daemon bootstrap: spawn, ready line, handshake, log forwarding,
pre-started daemons, and shutdown's reconnect-refused semantics."""

from __future__ import annotations

import json
import logging
import os
import socket
import subprocess
import sys
import time

import pytest

import repro as oopp
from repro.backends.tcp import (
    PROTOCOL_REV,
    READY_PREFIX,
    _LineReader,
    _send_json,
)
from repro.check.examples import SharedCounter
from repro.errors import HandshakeError, MachineDownError

pytestmark = pytest.mark.tcp

REPO_SRC = os.path.join(
    os.path.dirname(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__)))), "src")


class TestBootstrap:
    def test_calls_round_trip(self, tcp_cluster):
        counter = tcp_cluster.on(1).new(SharedCounter)
        assert counter.add(5) == 5
        assert counter.get() == 5

    def test_every_machine_answers(self, tcp_cluster):
        assert tcp_cluster.ping_all() == [0, 1, 2]

    def test_daemon_is_a_separate_process(self, tcp_cluster):
        pids = tcp_cluster.fabric.host_pids()
        assert len(pids) == 1
        assert pids[0] not in (None, os.getpid())

    def test_handshake_records_fingerprint(self, tcp_cluster):
        # Loopback daemons run on this box, so their fingerprint is ours
        # — which is exactly why shm/pub stay enabled toward them.
        from repro.util.hostid import host_fingerprint

        host = tcp_cluster.fabric._host_clients[0]
        assert host.fingerprint == host_fingerprint()

    def test_machine_to_machine_calls_cross_daemons(self, two_host_cluster):
        from repro.check.examples import Bumper

        counter = two_host_cluster.on(0).new(SharedCounter)   # daemon A
        bumper = two_host_cluster.on(3).new(Bumper)           # daemon B
        assert bumper.bump(counter) == 1                      # B -> A call
        assert counter.get() == 1

    def test_daemon_stdout_is_forwarded_to_driver_logging(
            self, tmp_path, caplog):
        with caplog.at_level(logging.INFO, logger="oopp.tcp.host0"):
            with oopp.Cluster(n_machines=1, backend="tcp",
                              storage_root=str(tmp_path / "root")):
                pass
        forwarded = [r.message for r in caplog.records
                     if r.name == "oopp.tcp.host0"]
        assert any("machine 0 listening" in m for m in forwarded)


class TestShutdown:
    def test_calls_after_shutdown_fail_cleanly(self, tmp_path):
        cluster = oopp.Cluster(n_machines=2, backend="tcp",
                               storage_root=str(tmp_path / "root"))
        counter = cluster.on(0).new(SharedCounter)
        cluster.shutdown()
        with pytest.raises(MachineDownError, match="shut down"):
            cluster.fabric.ping(0)
        with pytest.raises(MachineDownError, match="shut down"):
            counter.get()

    def test_daemon_process_exits_on_shutdown(self, tmp_path):
        cluster = oopp.Cluster(n_machines=1, backend="tcp",
                               storage_root=str(tmp_path / "root"))
        host = cluster.fabric._host_clients[0]
        proc = host.proc
        cluster.shutdown()
        assert proc.poll() is not None  # reaped: reconnects are refused

    def test_machine_port_refuses_after_shutdown(self, tmp_path):
        cluster = oopp.Cluster(n_machines=1, backend="tcp",
                               storage_root=str(tmp_path / "root"))
        addr = cluster.fabric._client._addrs[0]
        cluster.shutdown()
        with pytest.raises(OSError):
            socket.create_connection(addr, timeout=2.0).close()


def _spawn_raw_daemon():
    """A daemon outside any fabric, for protocol-level poking."""
    env = dict(os.environ)
    env["PYTHONPATH"] = REPO_SRC + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.Popen(
        [sys.executable, "-u", "-m", "repro.backends.tcp", "--daemon"],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, env=env,
        text=True, bufsize=1)
    deadline = time.monotonic() + 30.0
    while True:
        line = proc.stdout.readline()
        if not line and proc.poll() is not None:
            raise AssertionError("daemon died before its ready line")
        if line.startswith(READY_PREFIX):
            fields = dict(p.split("=", 1) for p in line.split() if "=" in p)
            return proc, int(fields["port"])
        assert time.monotonic() < deadline


class TestControlProtocol:
    def test_ready_line_names_port_fingerprint_pid(self):
        proc, port = _spawn_raw_daemon()
        try:
            sock = socket.create_connection(("127.0.0.1", port), timeout=10)
            sock.close()  # EOF without handshake: daemon self-terminates
            assert proc.wait(timeout=10) is not None
        finally:
            proc.kill()

    def test_protocol_rev_mismatch_is_refused(self):
        proc, port = _spawn_raw_daemon()
        try:
            sock = socket.create_connection(("127.0.0.1", port), timeout=10)
            _send_json(sock, {"type": "handshake", "rev": PROTOCOL_REV + 1})
            reply = json.loads(_LineReader(sock).readline(timeout=10))
            assert reply["type"] == "error"
            assert "rev" in reply["message"]
            sock.close()
            assert proc.wait(timeout=10) is not None
        finally:
            proc.kill()

    def test_pre_started_daemon_attach(self, tmp_path):
        """HostSpec(port=...) attaches instead of spawning — the path
        for daemons the operator starts out of band."""
        proc, port = _spawn_raw_daemon()
        try:
            with oopp.Cluster(
                    hosts=[oopp.HostSpec("localhost", machines=2,
                                         port=port)],
                    storage_root=str(tmp_path / "root")) as cluster:
                # The cluster did not spawn anything itself ...
                assert cluster.fabric._host_clients[0].proc is None
                assert cluster.ping_all() == [0, 1]
            # ... and cluster shutdown stops the external daemon too.
            assert proc.wait(timeout=10) is not None
        finally:
            proc.kill()

    def test_host_spec_port_string_form(self):
        spec = oopp.HostSpec.parse("localhost:7777/2")
        assert (spec.addr, spec.port, spec.machines) == ("localhost", 7777, 2)


class TestHandshakeErrors:
    def test_welcome_must_echo_digest(self, monkeypatch, tmp_path):
        """A daemon answering with a different config digest aborts
        bootstrap with HandshakeError (not an obscure first-call crash)."""
        from repro.backends import tcp as tcp_mod

        real = tcp_mod._recv_json

        def corrupt(reader, timeout=None):
            msg = real(reader, timeout)
            if msg.get("type") == "welcome":
                msg["config_digest"] = "0" * 64
            return msg

        monkeypatch.setattr(tcp_mod, "_recv_json", corrupt)
        with pytest.raises(HandshakeError, match="digest"):
            oopp.Cluster(n_machines=1, backend="tcp",
                         storage_root=str(tmp_path / "root"))
