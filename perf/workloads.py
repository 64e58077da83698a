"""The seven workloads (names are final; see README.md for the catalogue).

Each workload builds its inputs from the seed alone, places its objects
on machine 0 (cpu 1, so client and server never share a core), runs
closed- or open-loop trials against the real ``mp`` backend and checks
every reply.  The constants below are fixed here and never derived from
measured capacity.
"""

from __future__ import annotations

import random
import statistics
import threading
import time
from dataclasses import dataclass
from functools import partial
from typing import Any, Optional

import numpy as np

import repro as oopp
from repro.fft.kernels import fft_kernel
from repro.errors import CallTimeoutError, ServerOverloadedError
from repro.loadgen.workload import KVService
from repro.runtime.proxy import ref_of
from repro.transport import serde

from .harness import TRIALS, WARM_SHARE, Trial
from .objects import Echo, PageStore

#: ``call_burst``: calls per burst (A5's send loop / receive loop).
BURST = 2000
#: ``bulk_page``: page size, above ``WireConfig.shm_threshold_bytes``.
PAGE_BYTES = 16 << 20
#: ``serve_*``: offered rates of the open loop, requests per second.
MID_RPS = 1000.0
HI_RPS = 2500.0
#: ``serve_*``: modelled service time per call and served objects.
SERVICE_S = 0.0005
SERVE_WORKERS = 4
N_STORES = 2
N_KEYS = 64
#: ``serve_migrate``: one migration is due this often.
MIGRATE_EVERY_S = 0.05
#: ``fft_peer``: global array shape and worker count.
FFT_SHAPE = (64, 64, 64)
FFT_WORKERS = 2
#: a reply still missing this long after the schedule ended is lost.
DRAIN_TIMEOUT_S = 30.0


def _rng(seed: int, *purpose: Any) -> random.Random:
    """One independent, reproducible stream per (seed, purpose)."""
    return random.Random("/".join(str(p) for p in (seed, *purpose)))


@dataclass
class Sample:
    """The call a workload sends most, for the layer replay: what to
    host, which method to call and with which arguments."""

    cls: type
    ctor_args: tuple
    method: str
    args: tuple


class Workload:
    """Common shape; subclasses fill in the inputs and the loop."""

    name = ""
    why = ""
    #: what one timed sample is, and what ``ops_per_s`` counts.
    timed_unit = "call"
    counted_unit = "call"
    #: tail percentile: the highest with >= 10 samples beyond it in the
    #: pooled timed samples of a full-length run.
    tail_pct = 99
    serve_workers: Optional[int] = None
    #: the timed unit is one call, so the blocking-path layer budget
    #: can be set against ``op_p50_ms``.
    budget = False
    #: methods whose program spans the traced run reduces.
    load_methods: frozenset = frozenset()

    def inputs(self, seed: int, seconds: float, stress: bool = False) -> Any:
        raise NotImplementedError

    def place(self, cluster, inputs) -> Any:
        """Create the objects and wait for a first successful reply."""
        raise NotImplementedError

    def trials(self, seconds: float, stress: bool = False
               ) -> list[tuple[str, float]]:
        """``(label, seconds)`` per timed trial.  *stress* (the
        per-layer run) lets a workload add trials whose numbers are too
        unsteady to carry a regression bound."""
        return [("main", seconds / TRIALS)] * TRIALS

    def run(self, cluster, state, inputs, seconds: float,
            index: Optional[int]) -> Trial:
        """One trial (``index`` 0..n-1) or the warm-up (``index`` None)."""
        raise NotImplementedError

    def verify_end(self, cluster, state) -> tuple[int, int]:
        """End-of-workload output checks: ``(made, failed)``."""
        return 0, 0

    def read_counters(self, cluster, state, inputs) -> dict:
        """Workload-specific per-layer numbers, read from public
        counters (or timed through public calls) after the trials."""
        return {}

    def sample(self, inputs) -> Sample:
        raise NotImplementedError


# ---------------------------------------------------------------------------
# Closed loops
# ---------------------------------------------------------------------------


class CallSeq(Workload):
    name = "call_seq"
    why = ("One blocking echo at a time: the fixed per-call path does all "
           "the work; batching, shm and pub are bypassed.")
    budget = True
    load_methods = frozenset({"echo"})

    def inputs(self, seed, seconds, stress=False):
        rng = _rng(seed, "echo")
        return [rng.randrange(1 << 30) for _ in range(BURST)]

    def place(self, cluster, inputs):
        obj = cluster.on(0).new(Echo)
        if obj.echo(inputs[0]) != inputs[0]:
            raise RuntimeError("first echo returned the wrong value")
        return obj

    def run(self, cluster, obj, xs, seconds, index):
        echo = obj.echo
        clock = time.perf_counter
        samples: list[float] = []
        attempted = failed = 0
        end = clock() + seconds
        now = 0.0
        while now < end:
            for x in xs:
                attempted += 1
                t0 = clock()
                try:
                    ok = echo(x) == x
                except oopp.OoppError:
                    ok = False
                now = clock()
                if ok:
                    samples.append(now - t0)
                else:
                    failed += 1
                if now >= end:
                    break
        return Trial(samples, ops=len(samples), attempted=attempted,
                     failed=failed)

    def sample(self, xs):
        return Sample(Echo, (), "echo", (xs[0],))


class CallBurst(CallSeq):
    name = "call_burst"
    why = ("Send loop of 2000 futures, then the receive loop: coalescing, "
           "the header cache and the reader thread do the work; per-call "
           "wake and socket latency amortise away.")
    timed_unit = "burst of 2000"
    tail_pct = 90
    budget = False

    def run(self, cluster, obj, xs, seconds, index):
        fire = obj.echo.future  # hoisted stub: the paper's send-loop form
        clock = time.perf_counter
        samples: list[float] = []
        ops = attempted = failed = 0
        end = clock() + seconds
        now = 0.0
        while now < end:
            attempted += len(xs)
            t0 = clock()
            futures = [fire(x) for x in xs]
            good = 0
            for f, x in zip(futures, xs):
                try:
                    good += f.result(60.0) == x
                except oopp.OoppError:
                    pass
            now = clock()
            samples.append(now - t0)
            ops += good
            failed += len(xs) - good
        return Trial(samples, ops=ops, attempted=attempted, failed=failed)


class BulkPage(Workload):
    name = "bulk_page"
    why = ("Alternating put/get of a 16 MiB page: shm export/attach and "
           "buffer copies dominate; serde, frames and coalescing do "
           "almost nothing.")
    timed_unit = "put + get"
    counted_unit = "page moved"
    tail_pct = 95
    load_methods = frozenset({"put", "get"})

    def inputs(self, seed, seconds, stress=False):
        # Two distinct pages, alternated, so a stale get cannot pass.
        return [oopp.Page(PAGE_BYTES, _rng(seed, "page", i)
                          .randbytes(PAGE_BYTES)) for i in range(2)]

    def place(self, cluster, pages):
        store = cluster.on(0).new(PageStore)
        if store.get() is not None:
            raise RuntimeError("a fresh store is not empty")
        return store

    def run(self, cluster, store, pages, seconds, index):
        clock = time.perf_counter
        pairs: list[float] = []
        puts: list[float] = []
        gets: list[float] = []
        attempted = failed = ops = 0
        end = clock() + seconds
        now = 0.0
        turn = 0
        while now < end:
            page = pages[turn % 2]
            turn += 1
            attempted += 2
            t0 = clock()
            try:
                wrote = store.put(page)
                t1 = clock()
                got = store.get()
                now = clock()
            except oopp.OoppError:
                now = clock()
                failed += 2
                continue
            # bytearray == buffer is one memcmp over all 16 MiB
            if wrote == PAGE_BYTES and page.raw == got.raw:
                puts.append(t1 - t0)
                gets.append(now - t1)
                pairs.append(now - t0)
                ops += 2
            else:
                failed += 2
            del got  # drops the shm segment the page rode in on
            now = clock()
        return Trial(pairs, ops=ops, attempted=attempted, failed=failed,
                     extra={"put": puts, "get": gets})

    def sample(self, pages):
        return Sample(PageStore, (), "put", (pages[0],))


class FftPeer(Workload):
    name = "fft_peer"
    why = ("The paper's prototype problem: machines call each other "
           "(deposit) with bodies parked on peers and mid-size numpy "
           "buffers while the driver is mostly idle.")
    timed_unit = "forward + inverse"
    counted_unit = "solve"
    tail_pct = 90
    load_methods = frozenset({"deposit", "transform", "load", "slab",
                              "normalize"})

    def inputs(self, seed, seconds, stress=False):
        rng = np.random.default_rng(seed)
        a = (rng.standard_normal(FFT_SHAPE)
             + 1j * rng.standard_normal(FFT_SHAPE))
        return a, np.fft.fftn(a)

    def place(self, cluster, inputs):
        plan = oopp.DistributedFFT3D(cluster, FFT_SHAPE,
                                     n_workers=FFT_WORKERS, collective=True)
        if plan.group.invoke("inbox_size") != [0] * FFT_WORKERS:
            raise RuntimeError("fresh FFT workers hold deposits")
        return plan

    def run(self, cluster, plan, inputs, seconds, index):
        a, expected = inputs
        clock = time.perf_counter
        samples: list[float] = []
        attempted = failed = 0
        end = clock() + seconds
        now = 0.0
        while now < end:
            attempted += 1
            t0 = clock()
            try:
                spectrum = plan.forward(a)
                back = plan.inverse(spectrum)
            except oopp.OoppError:
                failed += 1
                now = clock()
                continue
            now = clock()
            if np.allclose(spectrum, expected) and np.allclose(back, a):
                samples.append(now - t0)
            else:
                failed += 1
            del spectrum, back
            now = clock()
        return Trial(samples, ops=len(samples), attempted=attempted,
                     failed=failed)

    def read_counters(self, cluster, plan, inputs):
        """``transform_loaded`` alone (data already on the workers) and
        the bytes the two machines deposit on each other per solve."""
        def peer_bytes() -> float:
            return sum(proc.get("shm", {}).get("bytes_copied", 0)
                       for name, proc in cluster.metrics().items()
                       if name != "driver")

        plan.load(inputs[0])
        rounds = 6
        before = peer_bytes()
        times: list[float] = []
        for _ in range(rounds):
            t0 = time.perf_counter()
            plan.transform_loaded(-1)
            plan.transform_loaded(+1)
            times.append(time.perf_counter() - t0)
        return {"fft.transform_ms": statistics.median(times) * 1e3,
                "fft.peer_bytes": (peer_bytes() - before) / rounds,
                "fft.kernel_ms": self._kernel_ms(inputs[0])}

    @staticmethod
    def _kernel_ms(a: np.ndarray) -> float:
        """The compute share of one solve: the ``fft_kernel`` lines one
        worker runs for forward + inverse, locally, no cluster."""
        def lines(x: np.ndarray, sign: int) -> np.ndarray:
            x = fft_kernel(x, sign)
            x = np.moveaxis(fft_kernel(np.moveaxis(x, 1, -1), sign), -1, 1)
            return np.moveaxis(fft_kernel(np.moveaxis(x, 0, -1), sign), -1, 0)

        slab = np.ascontiguousarray(a[:FFT_SHAPE[0] // FFT_WORKERS])
        times: list[float] = []
        for _ in range(5):
            t0 = time.perf_counter()
            lines(lines(slab, -1), +1)
            times.append(time.perf_counter() - t0)
        return statistics.median(times) * 1e3

    def sample(self, inputs):
        a, _ = inputs
        half = FFT_SHAPE[0] // FFT_WORKERS
        block = np.ascontiguousarray(a[:half, :half, :])
        return Sample(oopp.FFT, (0,), "deposit", ("t0s-1-fwd", 1, block))


# ---------------------------------------------------------------------------
# Open loops
# ---------------------------------------------------------------------------


@dataclass
class _Served:
    """Objects of a serve workload plus the tallies its checks need."""

    stores: list
    #: adds issued so far per (store, key): the ceiling a get may return.
    issued: list
    #: adds that succeeded per (store, key): what the store must hold.
    added: list
    #: serve_migrate: where each store must be after the last move.
    expected_machine: list


def _schedule(rng: random.Random, rate: float, seconds: float,
              read_share: float) -> list[tuple]:
    """Seeded exponential-gap arrivals: ``(due, store, is_add, key)``."""
    ops: list[tuple] = []
    due = rng.expovariate(rate)
    while due < seconds:
        ops.append((due, rng.randrange(N_STORES),
                    rng.random() >= read_share,
                    f"k{rng.randrange(N_KEYS)}"))
        due += rng.expovariate(rate)
    return ops


def _open_loop(served: _Served, ops: list[tuple]) -> dict:
    """Issue *ops* on schedule from this one thread; replies are timed
    from their due time by a done-callback on the cluster's own reader
    threads.  Returns latencies, lateness and the failure counts."""
    clock = time.perf_counter
    done: list[tuple] = []
    finished = threading.Event()
    total = len(ops)
    issued = served.issued

    def on_done(due_at: float, store: int, is_add: bool, key: str,
                future) -> None:
        # Runs on the cluster's reader thread, which must survive it.
        try:
            exc = future.exception(0)
            now = clock()
            if exc is not None:
                verdict = ("shed" if isinstance(exc, ServerOverloadedError)
                           else "error")
            else:
                value = future.result(0)
                ceiling = issued[store].get(key, 0)
                floor = 1 if is_add else 0
                good = ((value is None and not is_add)
                        or (isinstance(value, int)
                            and floor <= value <= ceiling))
                verdict = "ok" if good else "wrong"
        except CallTimeoutError:
            # The object moved mid-call: exception() re-issued the call
            # at its new home; time it through to the final reply.
            future.add_done_callback(
                partial(on_done, due_at, store, is_add, key))
            return
        except Exception:  # noqa: BLE001 - counted, never raised here
            now, verdict = clock(), "error"
        done.append((now - due_at, verdict, store, is_add, key))
        if len(done) == total:
            finished.set()

    fire_get = [s.get.future for s in served.stores]
    fire_add = [s.add.future for s in served.stores]
    late: list[float] = []
    t0 = clock() + 0.002
    for due, store, is_add, key in ops:
        due_at = t0 + due
        now = clock()
        if due_at > now:
            time.sleep(due_at - now)
            now = clock()
        late.append(now - due_at)
        if is_add:
            issued[store][key] = issued[store].get(key, 0) + 1
            future = fire_add[store](key, 1)
        else:
            future = fire_get[store](key)
        future.add_done_callback(partial(on_done, due_at, store, is_add, key))
    if total:
        finished.wait(DRAIN_TIMEOUT_S)
    replies = list(done)
    for _, verdict, store, is_add, key in replies:
        if is_add and verdict == "ok":
            served.added[store][key] = served.added[store].get(key, 0) + 1
    ok = [lat for lat, verdict, *_ in replies if verdict == "ok"]
    return {"latency": ok, "late": late, "attempted": total,
            "failed": total - len(ok),
            "shed": sum(1 for r in replies if r[1] == "shed"),
            "backlog": total - len(replies)}


class ServeRead(Workload):
    name = "serve_read"
    why = ("Served load, 95% @readonly get: admission, worker slots and "
           "the shared side of the per-object lock decide latency; "
           "transport is a small share.")
    timed_unit = "call, from its due time"
    serve_workers = SERVE_WORKERS
    budget = True
    read_share = 0.95
    load_methods = frozenset({"get", "add"})
    #: (label, offered rate) of the timed phases.  The hi rate runs in
    #: the per-layer run only: near saturation its p99 swings by a third
    #: from run to run (35% on serve_write), too much to carry a bound.
    phases = (("main", MID_RPS),)
    stress_phases = (("main", MID_RPS), ("hi", HI_RPS))

    def _phases(self, stress: bool) -> tuple:
        return self.stress_phases if stress else self.phases

    def trials(self, seconds, stress=False):
        phases = self._phases(stress)
        each = seconds / (TRIALS * len(phases))
        return [(label, each) for label, _ in phases for _ in range(TRIALS)]

    def inputs(self, seed, seconds, stress=False):
        phases = self._phases(stress)
        each = seconds / (TRIALS * len(phases))
        warm = _schedule(_rng(seed, self.name, "warm"), MID_RPS,
                         WARM_SHARE * seconds, self.read_share)
        timed = [_schedule(_rng(seed, self.name, label, k), rate, each,
                           self.read_share)
                 for label, rate in phases for k in range(TRIALS)]
        return warm, timed

    def place(self, cluster, inputs):
        stores = [cluster.on(0).new(KVService, service_s=SERVICE_S,
                                    real_time=True)
                  for _ in range(N_STORES)]
        for store in stores:
            if store.size() != 0:
                raise RuntimeError("a fresh store is not empty")
        return _Served(stores, [{} for _ in stores], [{} for _ in stores],
                       [0] * N_STORES)

    def run(self, cluster, served, inputs, seconds, index):
        warm, timed = inputs
        out = _open_loop(served, warm if index is None else timed[index])
        return self._trial(out)

    @staticmethod
    def _trial(out: dict, **extra) -> Trial:
        return Trial(out["latency"], ops=len(out["latency"]),
                     attempted=out["attempted"], failed=out["failed"],
                     extra={"late": out["late"], "shed": out["shed"],
                            "backlog": out["backlog"], **extra})

    def verify_end(self, cluster, served):
        """Every store holds exactly the adds that succeeded."""
        wrong = 0
        for store, added in zip(served.stores, served.added):
            for key in (f"k{i}" for i in range(N_KEYS)):
                wrong += (store.get(key) or 0) != added.get(key, 0)
        return N_STORES * N_KEYS, wrong

    def read_counters(self, cluster, served, inputs):
        serve = [cluster.on(m).stats().get("serve", {})
                 for m in range(cluster.n_machines)]
        return {"serve.queue_peak": max(s.get("depth_peak", 0)
                                        for s in serve),
                "serve.shed": sum(s.get("shed", 0) for s in serve)}

    def sample(self, inputs):
        key = inputs[1][0][0][3]
        if self.read_share < 0.5:
            return Sample(KVService, (SERVICE_S, True), "add", (key, 1))
        return Sample(KVService, (SERVICE_S, True), "get", (key,))


class ServeWrite(ServeRead):
    name = "serve_write"
    why = ("The same serve layer used the other way, 95% add: writers are "
           "exclusive, so queueing on the object lock dominates; a "
           "read-path gain that taxes writers is caught here.")
    read_share = 0.05


class ServeMigrate(ServeRead):
    name = "serve_migrate"
    why = ("serve_read's mix at the mid rate while a second thread migrates "
           "the stores between machines every 50 ms: the freeze window, "
           "parked calls and the forwarding hop as callers feel them.")
    stress_phases = ServeRead.phases

    def run(self, cluster, served, inputs, seconds, index):
        warm, timed = inputs
        ops = warm if index is None else timed[index]
        stop = threading.Event()
        moves: list[float] = []
        errors: list[BaseException] = []

        def migrator() -> None:
            turn = 0
            due = time.perf_counter() + MIGRATE_EVERY_S
            while not stop.wait(max(0.0, due - time.perf_counter())):
                which = turn % N_STORES
                turn += 1
                dest = (served.expected_machine[which] + 1) % cluster.n_machines
                t0 = time.perf_counter()
                try:
                    cluster.migrate(served.stores[which], dest)
                except oopp.OoppError as exc:
                    errors.append(exc)
                else:
                    moves.append(time.perf_counter() - t0)
                    served.expected_machine[which] = dest
                due += MIGRATE_EVERY_S

        thread = threading.Thread(target=migrator, name="perf-migrator")
        thread.start()
        try:
            out = _open_loop(served, ops)
        finally:
            stop.set()
            thread.join()
        out["attempted"] += len(moves) + len(errors)
        out["failed"] += len(errors)
        return self._trial(out, migrate=moves)

    def verify_end(self, cluster, served):
        """State survived every move and sits where the last move put it."""
        checks, wrong = super().verify_end(cluster, served)
        for store, machine in zip(served.stores, served.expected_machine):
            wrong += ref_of(store).machine != machine
        return checks + N_STORES, wrong

    def read_counters(self, cluster, served, inputs):
        out = super().read_counters(cluster, served, inputs)
        metrics = cluster.metrics()
        out["migrate.moves"] = metrics["driver"]["migrate"].get("moves", 0)
        out["migrate.hops"] = sum(
            proc.get("migrate", {}).get("hops", 0)
            for proc in metrics.values())
        ref = ref_of(served.stores[0])
        out["migrate.state_bytes"] = serde.encoded_size(
            cluster.fabric.kernel_call(ref.machine, "snapshot", ref.oid))
        return out


WORKLOADS: dict[str, Workload] = {w.name: w for w in (
    CallSeq(), CallBurst(), BulkPage(), ServeRead(), ServeWrite(),
    ServeMigrate(), FftPeer())}
