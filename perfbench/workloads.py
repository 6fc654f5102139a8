"""The three workloads, driven through the entry points users call.

``chain`` and ``directory`` run a :class:`repro.engine.Session` in this
process; ``service`` runs ``python -m repro serve`` in a subprocess and
talks HTTP to it.  Each workload returns a :class:`Outcome`.

An untraced run (``trace=False``) makes ``SETUPS`` rounds, each a fresh
set-up (``setup_s`` is their median) driven for ``seconds / SETUPS``;
latencies and throughput pool over the rounds, so the run
samples the machine at three moments rather than one.  Its times are
scaled to a fixed nominal machine speed by the probe of :mod:`speed`,
which runs beside the measured code throughout each round.  A traced
run instead makes three *passes* over the same fixed operation prefix,
each on a fresh set-up: one untraced, two traced.  The traced passes
give the per-layer metrics and must agree exactly on the counted work;
the untraced pass is the baseline of ``trace.overhead_frac``.
"""

from __future__ import annotations

import gc
import http.client
import json
import os
import re
import resource
import select
import signal
import statistics
import subprocess
import sys
import threading
from time import perf_counter, sleep
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

import inputs
import oracle
import spans
from speed import Probe

#: Set-ups per untraced run; ``setup_s`` is their median.
SETUPS = 3
#: Operations per traced-run pass.
PASS_OPS = {"chain": 5, "directory": 400, "service": 300}
#: ``service`` open-loop offered rate (requests/s): about a quarter of
#: the closed-loop capacity measured on a 2-CPU x86-64 box (~80/s), so
#: queueing does not amplify the machine's own speed swings.
SERVICE_RATE = 20.0
#: Share of ``--seconds`` spent in the open-loop phase (the rest is the
#: closed-loop capacity phase).  The read tail needs the samples more:
#: throughput over the whole closed phase is steady from a few seconds.
OPEN_LOOP_SHARE = 0.8
#: The CPUs this process may run on, read before ``Server`` pins this
#: process to the first of them.
CPUS = sorted(os.sched_getaffinity(0))
#: Counts two traced passes over the same inputs must repeat exactly.
EXACT = ("wdpt.extensions", "yannakakis.calls", "yannakakis.rows_out",
         "relalg.join_rows_max", "storage.match_calls", "cache.hit_ratio")

#: One operation's record as measured: (kind, start, ok, completion).
Raw = Tuple[str, float, bool, float]
#: One operation's record: (kind, latency seconds at the nominal speed,
#: ok, nominal-speed over measured latency).
Sample = Tuple[str, float, bool, float]


class Outcome:
    """What a workload run measured."""

    def __init__(self) -> None:
        self.metrics: Dict[str, float] = {}
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []

    def put(self, name: str, value: float) -> None:
        self.metrics[name] = value

    def count(self, samples: List[Sample]) -> None:
        self.attempted += len(samples)
        self.failed += sum(1 for _, _, ok, _ in samples if not ok)


def quantile(values: List[float], q: float) -> float:
    """Linear-interpolated quantile ``q`` in [0, 1] (0 when empty)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def latencies(samples: List[Sample], kinds: Tuple[str, ...]) -> List[float]:
    return [lat for kind, lat, _, _ in samples if kind in kinds]


def timed(raw: List[Raw], probe: Optional[Probe]) -> List[Sample]:
    """Measured records as samples, scaled to the nominal speed by a
    stopped ``probe`` (as measured when there is none)."""
    samples: List[Sample] = []
    for kind, start, ok, done in raw:
        latency = done - start
        if probe is not None:
            latency = probe.normalise(start, done)
        samples.append((kind, latency, ok, latency / (done - start)))
    return samples


#: A closed-loop round: its samples and elapsed seconds.
Round = Tuple[List[Sample], float]


def throughput(rounds: List[Round]) -> float:
    """Completed ops per second at the nominal speed, over the rounds'
    whole time.  Ops that ran at ``f`` times their nominal-speed latency
    took ``1 / f`` times as long as they would have at the nominal speed,
    so a round of ``elapsed`` seconds lasts ``elapsed * f`` at the nominal
    speed, ``f`` being its ops' total latency at the nominal speed over
    their total measured latency."""
    done = sum(len(samples) for samples, _ in rounds)
    nominal = sum(elapsed * sum(s[1] for s in samples)
                  / sum(s[1] / s[3] for s in samples)
                  for samples, elapsed in rounds if samples)
    return done / nominal if nominal else 0.0


def own_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ---------------------------------------------------------------------------
# In-process workloads (chain, directory)
# ---------------------------------------------------------------------------
Op = Tuple[str, Callable[[Any], bool]]  # (kind, run-and-check on a Session)


def _graph(triples):
    from repro.rdf.graph import RDFGraph

    graph = RDFGraph()
    for t in triples:
        graph.add(t)
    return graph


def _closed_loop(session, ops: Iterator[Op], seconds: Optional[float],
                 count: Optional[int] = None) -> Tuple[List[Raw], float]:
    """Run ops back to back for ``seconds`` (or exactly ``count`` ops)."""
    samples: List[Raw] = []
    start = perf_counter()
    while True:
        if count is not None and len(samples) >= count:
            break
        if count is None and perf_counter() - start >= seconds:
            break
        kind, op = next(ops)
        t0 = perf_counter()
        try:
            ok = op(session)
        except Exception as exc:  # a failed op is counted, not fatal
            print("op %s failed: %r" % (kind, exc), file=sys.stderr)
            ok = False
        done = perf_counter()
        samples.append((kind, t0, ok, done))
    return samples, perf_counter() - start


class _InProcess:
    """A workload whose Session lives in this process."""

    name = ""
    read_kinds: Tuple[str, ...] = ("read",)

    def __init__(self, seed: int, tmp: str):
        self.seed, self.tmp = seed, tmp

    def build(self):  # -> Session
        raise NotImplementedError

    def warm_up(self, session) -> bool:
        raise NotImplementedError

    def ops(self, stream: int = 0) -> Iterator[Op]:
        """The operation stream; each round of a run takes its own."""
        raise NotImplementedError

    def untraced(self, seconds: float, out: Outcome) -> None:
        setups: List[float] = []
        rounds: List[Round] = []
        samples: List[Sample] = []
        for index in range(SETUPS):
            probe = Probe().start()
            try:
                t0 = perf_counter()
                session = self.build()
                ok = self.warm_up(session)
                ready = perf_counter()
                raw, elapsed = _closed_loop(session, self.ops(index),
                                                   seconds / SETUPS)
            finally:
                probe.stop()
            setups.append(probe.normalise(t0, ready))
            out.count([("warm-up", 0.0, ok, 1.0)])
            rounds.append((timed(raw, probe), elapsed))
            session.close()
            # Free this round's store before the next set-up builds one,
            # so peak_rss_mb never counts two stores at once.
            del session
            gc.collect()
            samples += rounds[-1][0]
        out.count(samples)
        reads = latencies(samples, self.read_kinds)
        out.put("ops_per_s", throughput(rounds))
        out.put("read_p50_ms", 1000 * quantile(reads, 0.5))
        out.put("read_p90_ms", 1000 * quantile(reads, 0.9))
        out.put("setup_s", statistics.median(setups))
        out.put("peak_rss_mb", own_peak_rss_mb())

    def one_pass(self, traced: bool, out: Outcome):
        """Fresh set-up (no warm-up), then the fixed operation prefix."""
        recorder = spans.install() if traced else None
        try:
            session = self.build()
            mark = len(recorder.spans) if recorder else 0
            raw, _ = _closed_loop(session, self.ops(), None,
                                     PASS_OPS[self.name])
            samples = timed(raw, None)
            stats = [session.stats()]
            session.close()
        finally:
            if recorder is not None:
                recorder.restore()
        out.count(samples)
        if recorder is None:
            return samples, None
        raw = spans.aggregate(recorder.spans[mark:])
        raw["storage.load.s"] = spans.aggregate(recorder.spans[:mark]).get(
            "storage.load.s", 0.0)
        writes = len(samples) - len(latencies(samples, self.read_kinds))
        return samples, spans.layer_metrics(raw, len(samples), writes, stats)


class Chain(_InProcess):
    name = "chain"

    def __init__(self, seed: int, tmp: str):
        super().__init__(seed, tmp)
        self.triples = inputs.chain_triples(seed)
        self.expected = oracle.chain_answers(self.triples)

    def build(self):
        from repro.engine import Session

        return Session(_graph(self.triples), backend="memory", cache=False)

    def _read(self, session) -> bool:
        result = session.query(inputs.CHAIN_QUERY)
        return oracle.rows_of_mappings(result.answers) == self.expected

    def warm_up(self, session) -> bool:
        return self._read(session)

    def ops(self, stream: int = 0) -> Iterator[Op]:
        while True:
            yield "read", self._read


class Directory(_InProcess):
    name = "directory"

    def __init__(self, seed: int, tmp: str):
        super().__init__(seed, tmp)
        self.triples, self.heads = inputs.directory_triples(seed)
        self._files = 0

    def build(self):
        from repro.engine import Session

        self._files += 1
        path = os.path.join(self.tmp, "directory-%d.sqlite" % self._files)
        self.truth = oracle.Directory(self.triples)
        return Session(_graph(self.triples), backend="sqlite", path=path)

    def _read(self, dept: int) -> Callable[[Any], bool]:
        def run(session) -> bool:
            result = session.query(inputs.DIRECTORY_QUERY % dept)
            return oracle.rows_of_mappings(result.answers) == self.truth.answers(dept)
        return run

    def warm_up(self, session) -> bool:
        return self._read(0)(session)

    def ops(self, stream: int = 0) -> Iterator[Op]:
        from repro.core.atoms import Atom
        from repro.rdf.graph import TRIPLE_RELATION

        def hire(triples):
            def run(session) -> bool:
                self.truth.apply(triples, add=True)
                return session.add_triples(triples) == len(triples)
            return run

        def leave(triples):
            def run(session) -> bool:
                self.truth.apply(triples, add=False)
                for t in triples:
                    session.remove(Atom(TRIPLE_RELATION, t))
                return True
            return run

        for kind, arg in inputs.directory_ops(self.seed, self.heads, stream):
            if kind == "read":
                yield kind, self._read(arg)
            else:
                yield kind, (hire if kind == "hire" else leave)(arg)


def run_in_process(workload: _InProcess, seconds: float, trace: bool,
                   out: Outcome) -> None:
    if not trace:
        workload.untraced(seconds, out)
        return
    base, _ = workload.one_pass(False, out)
    first, layers = workload.one_pass(True, out)
    _, again = workload.one_pass(True, out)
    _report_layers(out, layers, again, base, first, workload.read_kinds)
    out.put("read_p99_ms",
            1000 * quantile(latencies(base, workload.read_kinds), 0.99))
    writes = latencies(base, ("hire", "leave"))
    out.put("write_p50_ms", 1000 * quantile(writes, 0.5))
    out.put("write_p90_ms", 1000 * quantile(writes, 0.9))


# ---------------------------------------------------------------------------
# Shared traced-run reporting
# ---------------------------------------------------------------------------
def _report_layers(out: Outcome, layers: Dict[str, float],
                   again: Dict[str, float], base: List[Sample],
                   traced: List[Sample], read_kinds: Tuple[str, ...]) -> None:
    """Layer metrics of the first traced pass, the exact-count check
    against the second, and the tracing overhead against the untraced
    pass."""
    for name, value in sorted(layers.items()):
        out.put(name, value)
    for name in EXACT:
        if layers[name] != again[name]:
            out.problems.append(
                "exact-count self-check failed: %s is %r then %r on the "
                "same seed" % (name, layers[name], again[name]))
    untraced = quantile(latencies(base, read_kinds), 0.5)
    with_trace = quantile(latencies(traced, read_kinds), 0.5)
    out.put("trace.overhead_frac",
            with_trace / untraced - 1.0 if untraced else 0.0)


# ---------------------------------------------------------------------------
# service: `repro serve` in a subprocess
# ---------------------------------------------------------------------------
class Server:
    """One ``repro serve`` process over the catalog triples file."""

    def __init__(self, root: str, tmp: str, triples_path: str, index: int,
                 mode: Optional[str] = None, path: Optional[str] = None):
        """``mode`` ``"probe"`` or ``"spans"`` starts the server through
        ``launch_server.py``, which writes its file to ``path``."""
        self.log = os.path.join(tmp, "queries-%d.jsonl" % index)
        if mode is None:
            cmd = [sys.executable, "-m", "repro", "serve"]
        else:
            launcher = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                    "launch_server.py")
            cmd = [sys.executable, launcher, mode, path, "serve"]
        cmd += [triples_path, "--log-queries", self.log, "--port", "0"]
        env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"),
                   PYTHONUNBUFFERED="1")
        self.proc = subprocess.Popen(cmd, cwd=root, env=env, text=True,
                                     stdout=subprocess.PIPE)
        self.requests = 0
        try:
            # Server and client on different CPUs: they would otherwise
            # contend for one core, which made run-to-run spread twice as
            # wide on a 2-CPU box.
            if len(CPUS) >= 2:
                os.sched_setaffinity(self.proc.pid, CPUS[1:])
                os.sched_setaffinity(0, CPUS[:1])
            ready, _, _ = select.select([self.proc.stdout], [], [], 120)
            line = self.proc.stdout.readline() if ready else ""
            found = re.search(r"http://[\d.]+:(\d+)/query", line)
            if found is None:
                raise RuntimeError("server did not report its port: %r" % line)
            self.port = int(found.group(1))
            self._wait_healthy()
        except BaseException:
            self.kill()
            raise

    def _wait_healthy(self) -> None:
        deadline = perf_counter() + 60
        while True:
            try:
                conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=10)
                conn.request("GET", "/healthz")
                status = conn.getresponse().status
                conn.close()
                if status == 200:
                    return
            except OSError:
                pass
            if perf_counter() > deadline:
                raise RuntimeError("server never became healthy")
            sleep(0.02)

    def send(self, op: str, band: int, candidate: Dict[str, str]):
        """POST one request; ``(status, payload or None)``."""
        body: Dict[str, Any] = {"query": inputs.band_query(band)}
        if op == "ask":
            body["candidate"] = candidate
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=60)
        try:
            conn.request("POST", "/" + op, json.dumps(body),
                         {"Content-Type": "application/json"})
            response = conn.getresponse()
            data = response.read()
        finally:
            conn.close()
        self.requests += 1
        payload = json.loads(data) if response.status == 200 else None
        return response.status, payload

    def peak_rss_mb(self) -> float:
        with open("/proc/%d/status" % self.proc.pid) as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM for the server process")

    def stop(self) -> List[str]:
        """SIGTERM (graceful drain), wait, and return any problems."""
        problems = []
        self.proc.send_signal(signal.SIGTERM)
        try:
            code = self.proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            self.kill()
            return ["server did not exit after SIGTERM"]
        finally:
            self.proc.stdout.close()
        if code != 0:
            problems.append("server exited with code %d" % code)
        dropped = None
        with open(self.log) as handle:
            for line in handle:
                record = json.loads(line)
                if record.get("event") == "service.stopped":
                    dropped = record.get("dropped_connections")
        if dropped != 0:
            problems.append("server reported dropped connections: %r" % dropped)
        return problems

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        if not self.proc.stdout.closed:
            self.proc.stdout.close()


class _Requests:
    """The shared request stream, checked against the catalog oracle."""

    def __init__(self, seed: int, catalog: oracle.Catalog):
        self.catalog = catalog
        self._stream = inputs.service_requests(seed, catalog.answers)
        self._lock = threading.Lock()

    def next(self):
        with self._lock:
            return next(self._stream)

    def check(self, op: str, band: int, candidate, status: int, payload) -> bool:
        if status != 200:
            return False
        if op == "ask":
            return payload["answer"] == self.catalog.ask(band, candidate)
        return oracle.rows_of_json(payload["answers"]) == self.catalog.rows(band)


class _Record:
    """Per-request records of the client threads."""

    def __init__(self) -> None:
        self.lock = threading.Lock()
        #: (op, latency start, sent, done, server wall s or None, ok).
        self.raw: List[Tuple[str, float, float, float, Optional[float], bool]] = []
        self.samples: List[Sample] = []
        self.server_ms: List[float] = []
        self.wait_ms: List[float] = []
        self.lag: List[float] = []
        self.queries = self.coalesced = self.shed = 0

    def merge(self, other: "_Record") -> None:
        self.samples += other.samples
        self.server_ms += other.server_ms
        self.wait_ms += other.wait_ms
        self.lag += other.lag
        self.queries += other.queries
        self.coalesced += other.coalesced
        self.shed += other.shed

    def add(self, op: str, start: float, sent: float, done: float,
            status: int, payload, ok: bool) -> None:
        wall = payload["wall_ms"] / 1000 if payload is not None else None
        with self.lock:
            self.raw.append((op, start, sent, done, wall, ok))
            if status == 429:
                self.shed += 1
            if payload is not None:
                self.server_ms.append(payload["wall_ms"])
                self.wait_ms.append(1000 * (done - sent) - payload["wall_ms"])
                if op == "query":
                    self.queries += 1
                    self.coalesced += bool(payload.get("coalesced"))

    def finish(self, client: Optional[Probe], server: Optional[Probe]) -> None:
        """Turn the records into samples at the nominal speed: the
        server's wall time scaled by the server's probe, the rest of the
        latency (connection, client, queueing) by the mean of the two
        processes' scales (as measured when the probes are ``None``)."""
        for op, start, sent, done, wall, ok in self.raw:
            latency = done - start
            if client is not None and server is not None:
                outside = (client.scale(start, done)
                           + server.scale(start, done)) / 2
                inside = server.scale(sent, done)
                wall = min(wall or 0.0, latency)
                latency = wall * inside + (latency - wall) * outside
            self.samples.append((op, latency, ok, latency / (done - start)))
        self.raw = []


def _exchange(server: Server, requests: _Requests, record: _Record,
              due: Optional[float]) -> None:
    op, band, candidate = requests.next()
    sent = perf_counter()
    try:
        status, payload = server.send(op, band, candidate)
        ok = requests.check(op, band, candidate, status, payload)
    except Exception as exc:  # counted as a failed request
        print("request %s failed: %r" % (op, exc), file=sys.stderr)
        status, payload, ok = 0, None, False
    done = perf_counter()
    record.add(op, sent if due is None else due, sent, done,
               status, payload, ok)


def _threads(target, n: int = 2) -> None:
    workers = [threading.Thread(target=target) for _ in range(n)]
    for w in workers:
        w.start()
    for w in workers:
        w.join()


def _open_loop(server: Server, requests: _Requests, seed: int,
               seconds: float, stream: int) -> _Record:
    """Poisson arrivals at SERVICE_RATE over two connections, from the
    seed's arrival stream ``stream``; latency counts from when each
    request was due."""
    record = _Record()
    gaps = inputs.arrival_gaps(seed, SERVICE_RATE, stream)
    lock = threading.Lock()
    start = perf_counter()
    schedule = {"due": start + next(gaps)}

    def worker() -> None:
        while True:
            with lock:
                due = schedule["due"]
                if due - start >= seconds:
                    return
                schedule["due"] = due + next(gaps)
            now = perf_counter()
            if due > now:
                sleep(due - now)
            record.lag.append(perf_counter() - due)
            _exchange(server, requests, record, due)

    _threads(worker)
    return record


def _closed(server: Server, requests: _Requests, seconds: Optional[float],
            count: Optional[int] = None, connections: int = 2):
    record = _Record()
    lock = threading.Lock()
    issued = [0]
    start = perf_counter()

    def worker() -> None:
        while True:
            with lock:
                if count is not None and issued[0] >= count:
                    return
                issued[0] += 1
            if count is None and perf_counter() - start >= seconds:
                return
            _exchange(server, requests, record, None)

    _threads(worker, connections)
    return record, perf_counter() - start


class Service:
    name = "service"

    def __init__(self, root: str, seed: int, tmp: str):
        self.root, self.seed, self.tmp = root, seed, tmp
        self.catalog = oracle.Catalog(inputs.catalog_triples(seed))
        self.triples_path = os.path.join(tmp, "catalog.tsv")
        with open(self.triples_path, "w") as handle:
            for t in inputs.catalog_triples(seed):
                handle.write(" ".join(t) + "\n")
        self._servers = 0

    def _start(self, mode: Optional[str] = None,
               path: Optional[str] = None) -> Server:
        self._servers += 1
        return Server(self.root, self.tmp, self.triples_path, self._servers,
                      mode, path)

    def _warm_up(self, server: Server, requests: _Requests) -> bool:
        ok = True
        for op, band, candidate in (("query", 0, {}),
                                    ("ask", 0, self.catalog.answers(0)[0])):
            status, payload = server.send(op, band, candidate)
            ok = ok and requests.check(op, band, candidate, status, payload)
        return ok

    def run(self, seconds: float, trace: bool, out: Outcome) -> None:
        setups: List[float] = []
        rounds: List[Round] = []
        rss: List[float] = []
        opened, both = _Record(), _Record()
        requests = _Requests(self.seed, self.catalog)
        n = 1 if trace else SETUPS
        for index in range(n):
            # Speed probes in this process (its CPU) and in the server's.
            probe_path = os.path.join(self.tmp, "probe-%d.json" % index)
            client = Probe().start()
            try:
                t0 = perf_counter()
                server = self._start("probe", probe_path)
                try:
                    ok = self._warm_up(server, requests)
                    ready = perf_counter()
                    out.count([("warm-up", 0.0, ok, 1.0)])
                    part = _open_loop(server, requests, self.seed,
                                      seconds / n * OPEN_LOOP_SHARE, index)
                    closed, elapsed = _closed(
                        server, requests, seconds / n * (1 - OPEN_LOOP_SHARE))
                    rss.append(server.peak_rss_mb())
                finally:
                    out.problems += server.stop()
            finally:
                client.stop()
            host = Probe.load(probe_path) if os.path.exists(probe_path) else None
            # Set-up is the server starting: scale it by the server's probe.
            setups.append((ready - t0) * (host.scale(t0, ready) if host else 1.0))
            part.finish(client, host)
            closed.finish(client, host)
            rounds.append((closed.samples, elapsed))
            opened.merge(part)
            both.merge(part)
            both.merge(closed)
        out.count(both.samples)
        if not trace:
            reads = latencies(opened.samples, ("query", "ask"))
            out.put("ops_per_s", throughput(rounds))
            out.put("read_p50_ms", 1000 * quantile(reads, 0.5))
            out.put("read_p90_ms", 1000 * quantile(reads, 0.9))
            out.put("setup_s", statistics.median(setups))
            out.put("peak_rss_mb", max(rss))
            return
        out.put("service.server_ms", quantile(both.server_ms, 0.5))
        out.put("service.client_wait_ms", quantile(both.wait_ms, 0.99))
        out.put("service.coalesced_frac",
                both.coalesced / both.queries if both.queries else 0.0)
        out.put("service.shed", both.shed)
        out.put("obslog.bytes_per_op",
                os.path.getsize(server.log) / max(server.requests, 1))
        out.put("client.lag_p99_ms", 1000 * quantile(opened.lag, 0.99))
        out.put("read_p99_ms", 1000 * quantile(
            latencies(opened.samples, ("query", "ask")), 0.99))
        base, _ = self._pass(None, out)
        first, layers = self._pass(os.path.join(self.tmp, "summary-1.json"), out)
        _, again = self._pass(os.path.join(self.tmp, "summary-2.json"), out)
        _report_layers(out, layers, again, base, first, ("query", "ask"))

    def _pass(self, summary: Optional[str], out: Outcome):
        """A fresh server (traced when ``summary`` is set), PASS_OPS
        requests over one connection, no warm-up."""
        requests = _Requests(self.seed, self.catalog)
        server = self._start("spans", summary) if summary else self._start()
        try:
            record, _ = _closed(server, requests, None, PASS_OPS["service"], 1)
        finally:
            out.problems += server.stop()
        record.finish(None, None)
        out.count(record.samples)
        if summary is None:
            return record.samples, None
        with open(summary) as handle:
            dumped = json.load(handle)
        layers = spans.layer_metrics(dumped["raw"], len(record.samples), 0,
                                     dumped["stats"])
        return record.samples, layers
