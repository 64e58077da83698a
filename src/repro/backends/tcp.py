"""TCP multi-host backend: machines on other boxes.

The mp backend tops out at one host's cores; this backend makes the
paper's machines *named compute resources on a network*.  The driver
bootstraps one **object-server daemon per host** — over ssh for remote
boxes, as a direct subprocess for loopback, or by attaching to a
pre-started ``python -m repro.backends.tcp --daemon`` — and each daemon
hosts that box's machine processes as :class:`~repro.backends.mp.MachineServer`
instances, so the entire existing wire stack (coalescing, cached call
headers, BATCH frames, admission control, tracing, race detection,
fault injection) runs unchanged over real network sockets.

Bootstrap protocol (newline-delimited JSON on the daemon's control
socket; see ``docs/BACKENDS.md`` for the field-by-field format):

1. the daemon prints ``OOPP-TCP-DAEMON ready port=<p> ...`` on stdout;
   everything it prints afterwards is forwarded into the driver's
   logging (``oopp.tcp.host<i>``);
2. the driver connects to the control port and sends a versioned
   **handshake** — protocol revision, the pickled :class:`~repro.config.Config`
   with its digest, the driver's host fingerprint, and the machine ids
   this host carries; the daemon answers with a **welcome** naming its
   own fingerprint and each machine's listener port, or an **error**
   (revision/digest mismatch), which raises
   :class:`~repro.errors.HandshakeError` and aborts bootstrap;
3. the control connection then carries **heartbeats**: the driver pings
   every ``topology.heartbeat_interval_s``; ``heartbeat_misses``
   consecutive missed pongs (or a dropped control connection, or a dead
   daemon process) declare the host down and every machine it hosts
   fails fast with :class:`~repro.errors.MachineDownError` — the same
   contract as the mp liveness monitor;
4. **shutdown** stops the daemon; it exits, so late reconnects are
   refused at the socket and calls after ``close()`` fail cleanly.

Locality is keyed off the handshake fingerprints: connections toward a
machine whose host fingerprint differs from the local one drop the
shm zero-copy path and encode publications *by value*
(:func:`repro.transport.pub.suppress_descriptors`), because ``BUF_SHM``
/ ``BUF_PUB`` descriptors name segments in the sender host's
``/dev/shm``.  Same-host connections — the driver talking to loopback
daemons, or machines co-hosted on one box — keep full zero-copy.
"""

from __future__ import annotations

import argparse
import base64
import hashlib
import json
import os
import pickle
import queue
import socket
import subprocess
import sys
import threading
import time
from typing import Callable, Optional

from ..config import Config, HostSpec
from ..errors import (
    HandshakeError,
    MachineDownError,
    NoSuchMachineError,
    TransportError,
)
from ..transport.socket_channel import listen_socket
from ..util.hostid import host_fingerprint
from ..util.log import get_logger
from .mp import DriverFabric, MachineServer
from .registry import register_backend

log = get_logger("tcp")

#: bumped whenever the control protocol or the machine wire protocol
#: changes incompatibly; the handshake refuses a mismatched daemon.
PROTOCOL_REV = 1

#: first line a daemon prints once its control socket is listening.
READY_PREFIX = "OOPP-TCP-DAEMON ready"

#: local address aliases treated as "this box" for addressing.
LOCAL_ADDRS = ("localhost", "127.0.0.1", "::1", "loopback")


# ---------------------------------------------------------------------------
# Control-channel plumbing (newline-delimited JSON)
# ---------------------------------------------------------------------------


def _send_json(sock: socket.socket, obj: dict) -> None:
    sock.sendall((json.dumps(obj, separators=(",", ":")) + "\n").encode())


class _LineReader:
    """Newline reader over raw ``recv`` that survives timeouts.

    A file object from ``sock.makefile`` poisons itself after one
    timeout (see :class:`repro.transport.socket_channel._SockReader`);
    the heartbeat loop times out by design on every missed pong, so the
    control channel needs the same recv-based treatment.
    """

    def __init__(self, sock: socket.socket) -> None:
        self._sock = sock
        self._buf = b""

    def readline(self, timeout: Optional[float] = None) -> bytes:
        """One line including the newline; ``b""`` at EOF; raises
        :class:`TimeoutError` when *timeout* elapses mid-wait (nothing
        already received is lost)."""
        deadline = None if timeout is None else time.monotonic() + timeout
        while True:
            i = self._buf.find(b"\n")
            if i >= 0:
                line, self._buf = self._buf[:i + 1], self._buf[i + 1:]
                return line
            if deadline is not None:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    raise TimeoutError("control-channel read timed out")
                self._sock.settimeout(remaining)
            else:
                self._sock.settimeout(None)
            try:
                data = self._sock.recv(1 << 16)
            finally:
                try:
                    self._sock.settimeout(None)
                except OSError:
                    pass
            if not data:
                return b""
            self._buf += data


def _recv_json(reader: _LineReader, timeout: Optional[float] = None) -> dict:
    line = reader.readline(timeout)
    if not line:
        raise TransportError("control channel closed")
    try:
        msg = json.loads(line)
    except ValueError as exc:
        raise TransportError(f"malformed control message: {exc}") from exc
    if not isinstance(msg, dict):
        raise TransportError("malformed control message: not an object")
    return msg


# ---------------------------------------------------------------------------
# Daemon side (`python -m repro.backends.tcp --daemon`)
# ---------------------------------------------------------------------------


def _daemon_handshake(sock: socket.socket, reader: _LineReader,
                      default_bind: str) -> Optional[list[MachineServer]]:
    """Validate the driver's handshake and bring the machines up.

    Returns the running servers, or None when the handshake was refused
    (an ``error`` reply has been sent)."""
    msg = _recv_json(reader)
    if msg.get("type") != "handshake":
        _send_json(sock, {"type": "error",
                          "message": f"expected handshake, got "
                                     f"{msg.get('type')!r}"})
        return None
    if msg.get("rev") != PROTOCOL_REV:
        _send_json(sock, {"type": "error",
                          "message": f"protocol rev mismatch: daemon speaks "
                                     f"rev {PROTOCOL_REV}, driver sent "
                                     f"rev {msg.get('rev')!r}"})
        return None
    try:
        blob = base64.b64decode(msg["config"])
        digest = hashlib.sha256(blob).hexdigest()
        if digest != msg["config_digest"]:
            _send_json(sock, {"type": "error",
                              "message": "config digest mismatch (corrupt "
                                         "control channel?)"})
            return None
        config: Config = pickle.loads(blob)
        machine_ids = [int(m) for m in msg["machine_ids"]]
    except (KeyError, ValueError, TypeError, pickle.UnpicklingError,
            AttributeError, ModuleNotFoundError) as exc:
        _send_json(sock, {"type": "error",
                          "message": f"cannot decode handshake: {exc}"})
        return None
    bind = msg.get("bind") or default_bind
    servers: list[MachineServer] = []
    for mid in machine_ids:
        server = MachineServer(mid, config, bind_host=bind)
        threading.Thread(target=server.serve_forever,
                         name=f"oopp-tcp-m{mid}", daemon=True).start()
        servers.append(server)
        print(f"machine {mid} listening on {bind}:{server.port}", flush=True)
    _send_json(sock, {
        "type": "welcome",
        "rev": PROTOCOL_REV,
        "fingerprint": host_fingerprint(),
        "config_digest": msg["config_digest"],
        "pid": os.getpid(),
        "driver_fingerprint": msg.get("driver_fingerprint"),
        "machines": {str(s.machine_id): s.port for s in servers},
    })
    return servers


def _daemon_serve(sock: socket.socket, reader: _LineReader,
                  servers: list[MachineServer]) -> None:
    """Answer heartbeats until shutdown or a dropped control channel."""
    while True:
        try:
            msg = _recv_json(reader)
        except (TransportError, OSError):
            # Driver gone without a shutdown: an orphaned daemon must
            # not linger holding ports and shm segments.
            print("control channel lost; shutting down", flush=True)
            return
        kind = msg.get("type")
        if kind == "ping":
            _send_json(sock, {"type": "pong", "seq": msg.get("seq")})
        elif kind == "shutdown":
            try:
                _send_json(sock, {"type": "bye"})
            except OSError:
                pass
            return
        else:
            print(f"ignoring unknown control message {kind!r}", flush=True)


def _daemon_main(args: argparse.Namespace) -> int:
    listener = listen_socket(args.bind, args.control_port)
    port = listener.getsockname()[1]
    print(f"{READY_PREFIX} port={port} fingerprint={host_fingerprint()} "
          f"pid={os.getpid()} rev={PROTOCOL_REV}", flush=True)
    try:
        sock, peer = listener.accept()
    except OSError:
        return 1
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    print(f"driver connected from {peer[0]}:{peer[1]}", flush=True)
    servers: Optional[list[MachineServer]] = None
    reader = _LineReader(sock)
    try:
        servers = _daemon_handshake(sock, reader, args.bind)
        if servers is None:
            return 2
        _daemon_serve(sock, reader, servers)
    finally:
        listener.close()
        try:
            sock.close()
        except OSError:
            pass
        for server in servers or []:
            server.kernel.stop_event.set()
        # Give serve_forever threads a moment to drain + close politely;
        # the atexit sweeps reclaim anything left.
        time.sleep(0.05)
        print("daemon exiting", flush=True)
    return 0


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.backends.tcp",
        description="Object-server daemon for the tcp backend.")
    parser.add_argument("--daemon", action="store_true",
                        help="run as a host daemon (required)")
    parser.add_argument("--bind", default="127.0.0.1",
                        help="address to bind the control and machine "
                             "listeners on (0.0.0.0 for remote drivers)")
    parser.add_argument("--control-port", type=int, default=0,
                        help="fixed control port (default: ephemeral, "
                             "printed on the ready line)")
    args = parser.parse_args(argv)
    if not args.daemon:
        parser.error("nothing to do without --daemon")
    return _daemon_main(args)


# ---------------------------------------------------------------------------
# Driver side
# ---------------------------------------------------------------------------


class HostClient:
    """The driver's handle on one host's daemon.

    Owns the daemon process (when spawned), the control connection with
    its heartbeat thread, and the stdout log pump.  ``on_dead(self,
    reason)`` fires exactly once if the host is ever declared dead.
    """

    def __init__(self, index: int, spec: HostSpec, config: Config,
                 machines: list[int],
                 on_dead: Callable[["HostClient", str], None]) -> None:
        self.index = index
        self.spec = spec
        self.config = config
        self.machines = list(machines)
        self.on_dead = on_dead
        self.connect_addr = "127.0.0.1" if spec.is_local else spec.addr
        self.fingerprint: Optional[str] = None
        self.daemon_pid: Optional[int] = None
        #: machine id -> that machine's listener port on this host.
        self.machine_ports: dict[int, int] = {}
        self.down_reason: Optional[str] = None
        self.proc: Optional[subprocess.Popen] = None
        self._sock: Optional[socket.socket] = None
        self._reader: Optional[_LineReader] = None
        self._ctl_lock = threading.Lock()
        self._dead_lock = threading.Lock()
        self._hb_stop = threading.Event()
        self._hb_thread: Optional[threading.Thread] = None
        self._log_thread: Optional[threading.Thread] = None
        self._ready_lines: "queue.Queue[str]" = queue.Queue()
        self._ready_seen = False
        self._log = get_logger(f"tcp.host{index}")

    # -- bootstrap ----------------------------------------------------------

    def start(self) -> None:
        top = self.config.topology
        if self.spec.port is not None:
            self._connect_control(self.spec.port, top.daemon_ready_timeout_s)
        else:
            self._spawn()
            port = self._await_ready(top.daemon_ready_timeout_s)
            self._connect_control(port, top.daemon_ready_timeout_s)
        self._handshake(top.daemon_ready_timeout_s)
        self._hb_thread = threading.Thread(
            target=self._heartbeat_loop,
            name=f"oopp-tcp-hb-host{self.index}", daemon=True)
        self._hb_thread.start()

    def _spawn(self) -> None:
        if self.spec.is_local:
            argv = [self.spec.python or sys.executable, "-u", "-m",
                    "repro.backends.tcp", "--daemon", "--bind", "127.0.0.1"]
            env = dict(os.environ)
            # The daemon is a fresh interpreter: hand it our import
            # universe so application classes resolve there.
            env["PYTHONPATH"] = os.pathsep.join(p for p in sys.path if p)
            if self.spec.env:
                env.update(self.spec.env)
        else:
            remote = (f"{self.spec.python or 'python3'} -u -m "
                      f"repro.backends.tcp --daemon --bind 0.0.0.0")
            if self.spec.env:
                exports = " ".join(f"{k}={v}"
                                   for k, v in sorted(self.spec.env.items()))
                remote = f"env {exports} {remote}"
            argv = list(self.config.topology.ssh) + [self.spec.addr, remote]
            env = None
        try:
            self.proc = subprocess.Popen(
                argv, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                env=env, text=True, bufsize=1)
        except OSError as exc:
            raise MachineDownError(
                f"cannot spawn daemon for host {self.spec.addr!r}: "
                f"{exc}") from exc
        self._log_thread = threading.Thread(
            target=self._log_pump, name=f"oopp-tcp-log-host{self.index}",
            daemon=True)
        self._log_thread.start()

    def _log_pump(self) -> None:
        """Forward daemon stdout/stderr into the driver's logging.

        The first ready line is routed to :meth:`_await_ready` instead;
        everything else (including pre-ready stderr noise, which rides
        the same pipe) becomes a log record under ``oopp.tcp.host<i>``.
        """
        assert self.proc is not None and self.proc.stdout is not None
        for raw in self.proc.stdout:
            line = raw.rstrip("\n")
            if not line:
                continue
            if not self._ready_seen and line.startswith(READY_PREFIX):
                self._ready_seen = True
                self._ready_lines.put(line)
                continue
            self._log.info("[%s] %s", self.spec.addr, line)
        self._log.debug("[%s] <stdout closed>", self.spec.addr)

    def _await_ready(self, timeout: float) -> int:
        try:
            line = self._ready_lines.get(timeout=timeout)
        except queue.Empty:
            code = self.proc.poll() if self.proc is not None else None
            raise MachineDownError(
                f"daemon for host {self.spec.addr!r} did not print a ready "
                f"line within {timeout}s"
                + (f" (it exited with code {code})" if code is not None
                   else "")) from None
        fields = dict(part.split("=", 1) for part in line.split()
                      if "=" in part)
        try:
            return int(fields["port"])
        except (KeyError, ValueError):
            raise HandshakeError(
                f"malformed daemon ready line: {line!r}") from None

    def _connect_control(self, port: int, timeout: float) -> None:
        try:
            self._sock = socket.create_connection(
                (self.connect_addr, port), timeout=timeout)
        except OSError as exc:
            raise MachineDownError(
                f"cannot connect to daemon for host {self.spec.addr!r} at "
                f"{self.connect_addr}:{port}: {exc}") from exc
        self._sock.settimeout(None)
        self._sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._reader = _LineReader(self._sock)

    def _handshake(self, timeout: float) -> None:
        blob = pickle.dumps(self.config,
                            protocol=self.config.pickle_protocol)
        digest = hashlib.sha256(blob).hexdigest()
        request = {
            "type": "handshake",
            "rev": PROTOCOL_REV,
            "config": base64.b64encode(blob).decode("ascii"),
            "config_digest": digest,
            "driver_fingerprint": host_fingerprint(),
            "machine_ids": self.machines,
            "bind": None if self.spec.is_local else "0.0.0.0",
        }
        try:
            with self._ctl_lock:
                _send_json(self._sock, request)
                reply = _recv_json(self._reader, timeout)
        except (TimeoutError, TransportError, OSError) as exc:
            raise HandshakeError(
                f"handshake with host {self.spec.addr!r} failed: "
                f"{exc}") from exc
        if reply.get("type") == "error":
            raise HandshakeError(
                f"daemon for host {self.spec.addr!r} refused the handshake: "
                f"{reply.get('message')}")
        if reply.get("type") != "welcome":
            raise HandshakeError(
                f"daemon for host {self.spec.addr!r} sent "
                f"{reply.get('type')!r} instead of a welcome")
        if reply.get("rev") != PROTOCOL_REV:
            raise HandshakeError(
                f"daemon for host {self.spec.addr!r} speaks protocol rev "
                f"{reply.get('rev')!r}, driver speaks rev {PROTOCOL_REV}")
        if reply.get("config_digest") != digest:
            raise HandshakeError(
                f"daemon for host {self.spec.addr!r} echoed a different "
                f"config digest; bootstrap aborted")
        fingerprint = reply.get("fingerprint")
        if not isinstance(fingerprint, str) or not fingerprint:
            raise HandshakeError(
                f"daemon for host {self.spec.addr!r} sent no host "
                f"fingerprint")
        ports = {int(k): int(v)
                 for k, v in (reply.get("machines") or {}).items()}
        if sorted(ports) != sorted(self.machines):
            raise HandshakeError(
                f"daemon for host {self.spec.addr!r} reported machines "
                f"{sorted(ports)}, expected {sorted(self.machines)}")
        self.fingerprint = fingerprint
        self.daemon_pid = reply.get("pid")
        self.machine_ports = ports
        log.info("host %d (%s) up: pid %s, fingerprint %s, machines %s",
                 self.index, self.spec.addr, self.daemon_pid, fingerprint,
                 ports)

    # -- heartbeat ----------------------------------------------------------

    def _heartbeat_loop(self) -> None:
        top = self.config.topology
        interval = top.heartbeat_interval_s
        misses = 0
        seq = 0
        while not self._hb_stop.wait(interval):
            if self.proc is not None and self.proc.poll() is not None:
                self._died(f"daemon process (pid {self.proc.pid}) exited "
                           f"with code {self.proc.returncode}")
                return
            seq += 1
            try:
                with self._ctl_lock:
                    if self._hb_stop.is_set():
                        return
                    _send_json(self._sock, {"type": "ping", "seq": seq})
                    reply = _recv_json(self._reader, interval)
                if reply.get("type") != "pong":
                    raise TransportError(
                        f"expected pong, got {reply.get('type')!r}")
                misses = 0
            except TimeoutError:
                misses += 1
                if misses >= top.heartbeat_misses:
                    self._died(f"missed {misses} heartbeats "
                               f"({interval}s interval)")
                    return
            except (TransportError, OSError, ValueError) as exc:
                if self._hb_stop.is_set():
                    return
                self._died(f"control channel lost: {exc}")
                return

    def _died(self, reason: str) -> None:
        with self._dead_lock:
            if self.down_reason is not None:
                return
            self.down_reason = reason
        log.warning("host %d (%s) down: %s", self.index, self.spec.addr,
                    reason)
        self.on_dead(self, reason)

    @property
    def alive(self) -> bool:
        return self.down_reason is None

    # -- teardown / chaos ---------------------------------------------------

    def shutdown(self) -> None:
        """Graceful stop: shutdown message, then reap the process."""
        self._hb_stop.set()
        if self._hb_thread is not None:
            self._hb_thread.join(timeout=2.0)
        if self._sock is not None and self.down_reason is None:
            try:
                with self._ctl_lock:
                    _send_json(self._sock, {"type": "shutdown"})
                    _recv_json(self._reader,
                               self.config.shutdown_timeout_s)  # bye
            except (TimeoutError, TransportError, OSError, ValueError):
                pass
        self._close_control()
        if self.proc is not None:
            try:
                self.proc.wait(timeout=self.config.shutdown_timeout_s)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                try:
                    self.proc.wait(timeout=2.0)
                except subprocess.TimeoutExpired:  # pragma: no cover
                    pass
        if self._log_thread is not None:
            self._log_thread.join(timeout=2.0)

    def _close_control(self) -> None:
        if self._sock is not None:
            try:
                self._sock.close()
            except OSError:
                pass
            self._sock = None

    def kill(self, *, hard: bool = True, quiet: bool = False) -> None:
        """Kill the daemon process (failure injection).

        ``hard`` sends SIGKILL — no goodbye, no flush; the closest
        stand-in for a host losing power.  ``quiet`` leaves discovery
        to the heartbeat (the acceptance path for "a dead host surfaces
        within the heartbeat interval"); otherwise the host is declared
        down immediately.
        """
        if self.proc is None:
            raise MachineDownError(
                f"host {self.spec.addr!r} uses a pre-started daemon; "
                f"nothing to kill from here")
        if self.proc.poll() is None:
            log.warning("killing host %d daemon (pid %s, hard=%s)",
                        self.index, self.proc.pid, hard)
            if hard:
                self.proc.kill()
            else:
                self.proc.terminate()
            try:
                self.proc.wait(timeout=5.0)
            except subprocess.TimeoutExpired:  # pragma: no cover
                pass
        if not quiet:
            self._died(f"daemon process (pid {self.proc.pid}) killed")


class TcpFabric(DriverFabric):
    """Driver-side fabric over per-host daemons (see module docstring)."""

    def __init__(self, config: Config) -> None:
        super().__init__(config)
        self.hosts = config.topology.resolved_hosts(config.n_machines)
        #: machine id -> index into self.hosts / self._host_clients.
        self._host_index: list[int] = []
        #: host index -> the machine ids it carries (contiguous ranges).
        self._host_machines: list[list[int]] = []
        next_id = 0
        for spec in self.hosts:
            ids = list(range(next_id, next_id + spec.machines))
            next_id += spec.machines
            self._host_machines.append(ids)
            self._host_index.extend([len(self._host_machines) - 1] * len(ids))
        self._host_clients: list[HostClient] = []
        try:
            for i, spec in enumerate(self.hosts):
                client = HostClient(i, spec, config, self._host_machines[i],
                                    self._host_died)
                self._host_clients.append(client)
                client.start()
                self._learn_host(client)
            self._set_peers()
        except BaseException:
            self._reap_machines()
            self._client.close()
            raise

    def _learn_host(self, host: HostClient) -> None:
        """Record where a (re)started host's machines listen, and on
        which box: locality is keyed off the handshake fingerprint."""
        self._client.set_addrs({mid: (host.connect_addr, port)
                                for mid, port in host.machine_ports.items()})
        for mid in host.machine_ports:
            self._client.fingerprints[mid] = host.fingerprint

    # -- topology -----------------------------------------------------------

    def host_of(self, machine: int) -> str:
        self.check_machine(machine)
        return self.hosts[self._host_index[machine]].addr

    def resolve_machine(self, spec: "int | str") -> int:
        if isinstance(spec, int):
            return self.check_machine(spec)
        addr, _, index_s = str(spec).partition("/")
        try:
            index = int(index_s) if index_s else 0
        except ValueError:
            raise NoSuchMachineError(
                f"bad machine spec {spec!r}: index {index_s!r} is not an "
                f"integer") from None
        # Exact address match first; only when the spec uses a local
        # alias the topology doesn't spell the same way ("127.0.0.1"
        # vs a topology saying "localhost") pool all local hosts.
        pool: list[int] = []
        for i, host in enumerate(self.hosts):
            if host.addr == addr:
                pool.extend(self._host_machines[i])
        if not pool and addr in LOCAL_ADDRS:
            for i, host in enumerate(self.hosts):
                if host.addr in LOCAL_ADDRS:
                    pool.extend(self._host_machines[i])
        if not pool:
            known = ", ".join(sorted({h.addr for h in self.hosts}))
            raise NoSuchMachineError(
                f"host {addr!r} is not part of this cluster (hosts: {known})")
        if not (0 <= index < len(pool)):
            raise NoSuchMachineError(
                f"host {addr!r} carries {len(pool)} machines; index {index} "
                f"is out of range")
        return pool[index]

    # -- liveness -----------------------------------------------------------

    def _host_died(self, client: HostClient, reason: str) -> None:
        if self._host_clients[client.index] is not client:
            return  # a replaced (restarted) client's stale heartbeat
        for machine in self._host_machines[client.index]:
            self._client.mark_down(
                machine,
                f"host {client.spec.addr} (carrying machine {machine}) is "
                f"down: {reason}")

    def host_down(self, host: int) -> bool:
        return not self._host_clients[host].alive

    def kill_host(self, host: int, *, hard: bool = True,
                  quiet: bool = False) -> None:
        """Kill one host's daemon (failure-injection tests); see
        :meth:`HostClient.kill`."""
        self._host_clients[host].kill(hard=hard, quiet=quiet)

    def restart_host(self, host: int) -> None:
        """Respawn a dead host's daemon and rejoin it to the cluster.

        The replacement daemon starts with empty object tables — state
        died with the host — but its machines answer idempotent calls
        again, which is what the retry layer needs for recovery.
        """
        old = self._host_clients[host]
        old.shutdown()
        client = HostClient(host, self.hosts[host], self.config,
                            self._host_machines[host], self._host_died)
        client.start()
        self._host_clients[host] = client
        self._learn_host(client)
        for machine in self._host_machines[host]:
            self._client.mark_up(machine)
        self._set_peers()

    # -- lifecycle -----------------------------------------------------------

    def _reap_machines(self) -> None:
        for host in self._host_clients:
            try:
                host.shutdown()
            except Exception:  # noqa: BLE001 - teardown
                pass

    # -- observability --------------------------------------------------------

    def metrics(self) -> dict:
        """Per-process metrics plus a per-host rollup.

        Each machine reports like on mp (``{"down": reason}`` when
        dead); additionally every host contributes a ``host <i>
        (<addr>)`` entry with its fingerprint, daemon pid, machine
        list, and the numeric sum of its machines' counters — the
        hot-spot view a rebalancer wants.
        """
        out = super().metrics()
        if self._closed:
            return out
        for i, host in enumerate(self._host_clients):
            rollup: dict = {
                "addr": self.hosts[i].addr,
                "fingerprint": host.fingerprint,
                "daemon_pid": host.daemon_pid,
                "machines": list(self._host_machines[i]),
            }
            if host.down_reason is not None:
                rollup["down"] = host.down_reason
            totals: dict = {}
            for machine in self._host_machines[i]:
                snap = out.get(f"machine {machine}")
                if isinstance(snap, dict) and "down" not in snap:
                    _sum_numeric(totals, snap)
            rollup["totals"] = totals
            out[f"host {i} ({self.hosts[i].addr})"] = rollup
        return out

    # -- diagnostics ---------------------------------------------------------

    def host_pids(self) -> list[Optional[int]]:
        return [h.daemon_pid for h in self._host_clients]


def _sum_numeric(totals: dict, snap: dict) -> None:
    """Accumulate *snap*'s numeric leaves into *totals* (recursively)."""
    for key, value in snap.items():
        if isinstance(value, bool):
            continue
        if isinstance(value, (int, float)):
            totals[key] = totals.get(key, 0) + value
        elif isinstance(value, dict):
            _sum_numeric(totals.setdefault(key, {}), value)


# The backend registers itself; importing this module (directly, or via
# the lazy factory in repro.backends) makes Config(backend="tcp") real.
register_backend("tcp", TcpFabric, replace=True)


if __name__ == "__main__":  # pragma: no cover - daemon entry point
    sys.exit(main())
