"""``served_writes``: read/write traffic against ``repro serve``.

The database is generated from the seed, saved as a snapshot, and
served by ``python -m repro serve --load`` in its own process (or, for
the traced run, by :mod:`host` wrapping the same command).  This process
is the load generator: one thread driving two closed-loop connections
(a writer and a reader) through one ``select`` loop, so its own cost
stays off the server's CPU and is reported as
``harness.client_cpu_ms_per_req``.

Answers are checked against :class:`oracle.Oracle`, built from the same
snapshot rows and replayed through the same writes.
"""

from __future__ import annotations

import gc
import json
import os
import select
import signal
import socket
import subprocess
import sys
from collections import deque
from time import perf_counter, perf_counter_ns, process_time

import numpy as np

import oplists
import spans
from measure import near_boundary, normalized, normalized_setup, reference_ms, summarize, tail_rank
from oracle import Oracle, polygon_rows

HERE = os.path.dirname(os.path.abspath(__file__))
SETUPS = 3
START_TIMEOUT_S = 120
#: a phase that runs this long is cut; its unfinished operations fail
PHASE_LIMIT_S = 120


class Server:
    """One ``repro serve`` process over a snapshot."""

    def __init__(self, snapshot: str, workdir: str, hash_seed: int, spans_path: str = None) -> None:
        self.snapshot = snapshot
        # one string-hash seed per run seed: the traced and untraced
        # servers of a run then differ only by the wrappers
        self.hash_seed = hash_seed
        self.workdir = workdir
        self.spans_path = spans_path
        self.proc = None
        self.port = None

    def start(self) -> tuple:
        """Launch and wait until a client gets its hello.

        Returns ``(seconds, reference_ms)``, the reference kernel timed
        just before the launch and just after the hello.
        """
        before = reference_ms()
        args = ["serve", "--load", self.snapshot, "--port", "0"]
        if self.spans_path:
            cmd = [sys.executable, "-u", os.path.join(HERE, "host.py"), self.spans_path] + args
        else:
            cmd = [sys.executable, "-u", "-m", "repro"] + args
        env = dict(os.environ, PYTHONPATH=os.path.join(os.getcwd(), "src"), PYTHONHASHSEED=str(self.hash_seed))
        log = open(os.path.join(self.workdir, "server.log"), "ab")
        started = perf_counter()
        try:
            # SIGINT is the program's clean shutdown; a parent started in
            # the background may have left it ignored, so restore it
            # bufsize=0: readline then takes only its own line off the
            # pipe, so select() below never waits on already-read output
            self.proc = subprocess.Popen(
                cmd, stdout=subprocess.PIPE, stderr=log, env=env, bufsize=0,
                preexec_fn=lambda: signal.signal(signal.SIGINT, signal.SIG_DFL),
            )
        finally:
            log.close()
        deadline = started + START_TIMEOUT_S
        line = b""
        while not line.startswith(b"Serving"):
            ready, _, _ = select.select([self.proc.stdout], [], [], max(0.0, deadline - perf_counter()))
            if not ready:
                raise TimeoutError("server did not start")
            line = self.proc.stdout.readline()
            if not line:
                raise RuntimeError(f"server exited with {self.proc.wait()} before serving")
        self.port = int(line.split(b" on ")[1].split()[0].rsplit(b":", 1)[1])
        Conn(self.port).close()
        elapsed = perf_counter() - started
        return elapsed, (before + reference_ms()) / 2.0

    def rss_mb(self) -> float:
        """Peak resident memory of the server process."""
        with open(f"/proc/{self.proc.pid}/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM")

    def stop(self) -> None:
        """SIGINT (the program's clean shutdown), then wait for the exit."""
        if self.proc is None:
            return
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=15)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        self.proc = None


class Conn:
    """One NDJSON connection; pushed ``notify`` frames are kept aside."""

    def __init__(self, port: int) -> None:
        self.sock = socket.create_connection(("127.0.0.1", port), timeout=60)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.buf = b""
        self.frames = deque()
        self.notifies = []
        self.next_id = 0
        self.hello = self.read()

    def fileno(self) -> int:
        return self.sock.fileno()

    def send(self, data: bytes) -> None:
        self.sock.sendall(data)

    def pump(self) -> list:
        """Read what arrived; returns the complete non-notify frames."""
        data = self.sock.recv(1 << 20)
        if not data:
            raise ConnectionError("server closed the connection")
        lines = (self.buf + data).split(b"\n")
        self.buf = lines.pop()
        out = []
        for line in lines:
            frame = json.loads(line)
            if frame.get("type") == "notify":
                self.notifies.append(frame)
            else:
                out.append(frame)
        return out

    def read(self) -> dict:
        while not self.frames:
            self.frames.extend(self.pump())
        return self.frames.popleft()

    def request(self, data: bytes) -> dict:
        self.send(data)
        return self.read()

    def query_frame(self, spec_json: bytes) -> bytes:
        self.next_id += 1
        return b'{"type":"query","id":%d,"packed":true,"spec":%s}\n' % (self.next_id, spec_json)

    def frame(self, **fields) -> bytes:
        self.next_id += 1
        return json.dumps(dict(fields, id=self.next_id)).encode() + b"\n"

    def stats(self) -> dict:
        return self.request(b'{"type":"stats"}\n')

    def close(self) -> None:
        self.sock.close()


def drive(actors) -> None:
    """Run closed-loop actors over their connections until all finish.

    An actor is ``(conn, generator)``; the generator yields request
    frames and is sent ``(response, latency_ms)`` for each.  Raises
    ``TimeoutError`` past the phase limit.
    """
    deadline = perf_counter() + PHASE_LIMIT_S
    pending = {}
    conns = [conn for conn, _ in actors]

    def advance(actor, value):
        conn, gen = actor
        try:
            frame = gen.send(value)
        except StopIteration:
            return
        pending[conn] = (actor, perf_counter())
        conn.send(frame)

    for actor in actors:
        advance(actor, None)
    while pending:
        ready, _, _ = select.select(conns, [], [], 1.0)
        if perf_counter() > deadline:
            raise TimeoutError("phase exceeded its time limit")
        for conn in ready:
            frames = conn.pump()
            now = perf_counter()
            for frame in frames:
                actor, sent = pending.pop(conn)
                advance(actor, (frame, (now - sent) * 1e3))


def to_query(spec: dict):
    """The program's spec object for an op-list spec."""
    from repro import AreaQuery, KnnQuery, WindowQuery
    from repro.geometry.polygon import Polygon
    from repro.geometry.rectangle import Rect

    kind, geometry, method = spec["kind"], spec["geometry"], spec["method"]
    if kind == "area":
        return AreaQuery(Polygon(geometry), method=method)
    if kind == "window":
        return WindowQuery(Rect(*geometry), method=method)
    x, y, k = geometry
    return KnnQuery((x, y), int(k), method=method)


def spec_to_wire(spec: dict) -> dict:
    from repro.query.serialize import spec_to_dict

    return spec_to_dict(to_query(spec))


def spec_json(spec: dict) -> bytes:
    return json.dumps(spec_to_wire(spec), separators=(",", ":")).encode()


def packed(ids) -> str:
    from repro.server.protocol import pack_ids

    return pack_ids(ids)


def unpacked(text: str) -> list:
    from repro.server.protocol import unpack_ids

    return unpack_ids(text)


def write_snapshot(xy, workdir: str) -> str:
    from repro import SpatialDatabase
    from repro.io.persist import save_database

    db = SpatialDatabase.from_arrays(xy[:, 0], xy[:, 1], backend_kind="scipy")
    return save_database(os.path.join(workdir, "snapshot.npz"), db)


def measure_untraced(seed: int, seconds: int, workdir: str):
    """Set up ``SETUPS`` servers; the last one runs the op list.
    Returns (the run's figures, setup samples)."""
    xy = oplists.points(seed)
    snapshot = write_snapshot(xy, workdir)
    setups = []
    for i in range(SETUPS):
        server = Server(snapshot, workdir, seed)
        try:
            setups.append(server.start())
            if i == SETUPS - 1:
                out = writes_phase(server, xy, seed, seconds)
                out["rss_mb"] = server.rss_mb()
        finally:
            server.stop()
    return out, setups


def measure_traced(seed: int, seconds: int, workdir: str, spans_dir: str) -> dict:
    """One untraced pass for the overhead baseline, then the same op list
    on a traced server; returns the per-layer metrics."""
    xy = oplists.points(seed)
    snapshot = write_snapshot(xy, workdir)
    plain = Server(snapshot, workdir, seed)
    try:
        plain.start()
        baseline = writes_phase(plain, xy, seed, seconds)
    finally:
        plain.stop()
    spans_path = os.path.join(spans_dir, "served_writes-server.json")
    if os.path.exists(spans_path):
        os.remove(spans_path)  # never read an earlier run's dump
    traced = Server(snapshot, workdir, seed, spans_path=spans_path)
    try:
        traced.start()
        out = writes_phase(traced, xy, seed, seconds)
    finally:
        traced.stop()
    with open(spans_path) as handle:
        dump = json.load(handle)
    metrics = spans.layer_metrics(dump, out["t0"], out["t1"], queries=out["reads_total"], results=out["rows"])
    before, after = out["stats"]

    def delta(section, key):
        return after[section][key] - before[section][key]

    metrics.update({
        "engine.cache_hit_frac": delta("engine", "cache_hits") / max(1, delta("engine", "total_queries")),
        "live.fanout_per_write": delta("subscriptions", "fanout") / max(1, delta("subscriptions", "writes")),
        "harness.client_cpu_ms_per_req": out["cpu_s"] * 1e3 / out["requests"],
        "trace.overhead_pct": 100.0 * (normalized(baseline["blocks"])[0]["rate"] / normalized(out["blocks"])[0]["rate"] - 1.0),
    })
    out["layer"] = metrics
    out["trace_spans"] = len(dump["spans"])
    return out


# -- served_writes --------------------------------------------------------------


def writes_phase(server: Server, xy, seed: int, seconds: int) -> dict:
    """The whole op list on one server: the stall population must stay
    in one run."""
    ops = oplists.served_writes(seed, seconds)
    writer, reader = Conn(server.port), Conn(server.port)
    attempted = failed = 0
    mirrors = {}
    for spec in ops["subscriptions"]:
        query = spec_to_wire(spec)
        response = writer.request(writer.frame(type="subscribe", spec=query, packed=True))
        attempted += 1
        if response.get("type") != "subscribed":
            failed += 1
            continue
        mirrors[response["id"]] = (spec, set(unpacked(response["ids_packed"])))
    checks = []  # (lo, hi, spec, packed ids or None, row that must appear)
    for spec in ops["warmup"]:
        response = reader.request(reader.query_frame(spec_json(spec)))
        checks.append((0, 0, spec, response.get("ids_packed"), None))

    writes = []  # (op, row, x, y) in the order the server applies them
    state = {"sent": 0, "acked": 0, "next_row": len(xy), "failed": 0, "rows": 0}
    lat = {"insert": [], "delete": [], "fresh_read": [], "read": []}

    def write(frame, op, row, x=None, y=None):
        state["sent"] += 1
        writes.append((op, row, x, y))
        response, latency = yield frame
        if response.get("type") == "write" and response.get("rows") == [row]:
            lat[op].append(latency)
        else:
            state["failed"] += 1
        state["acked"] += 1

    blocks = []

    def writer_cycle(cycle, probe):
        x, y = cycle["insert"]
        row = state["next_row"]
        state["next_row"] += 1
        yield from write(writer.frame(type="insert", x=x, y=y), "insert", row, x, y)
        lo = state["acked"]
        response, latency = yield writer.query_frame(probe)
        lat["fresh_read"].append(latency)
        checks.append((lo, lo, cycle["probe"], response.get("ids_packed"), row))
        for victim in cycle["deletes"]:
            yield from write(writer.frame(type="delete", row=victim), "delete", victim)

    def reader_cycle(reads, bodies, block):
        for spec, body in zip(reads, bodies):
            lo = state["acked"]
            response, latency = yield reader.query_frame(body)
            lat["read"].append(latency)
            block.append(latency)
            ids = response.get("ids_packed")
            state["rows"] += len(ids) * 3 // 4 // 8 if ids else 0
            checks.append((lo, state["sent"], spec, ids, None))

    before = reader.stats()
    cpu0 = process_time()
    t0 = perf_counter_ns()
    cycles = len(ops["writer"])
    # A cycle's first block runs the writer's operations beside the first
    # reads (long enough that the probe's stall always catches a read in
    # flight); the cycle's other reads follow in short blocks, so the
    # reference clock is timed close to them.  Both connections finish a
    # block before the next one starts.
    first = oplists.WRITE_FIRST_BLOCK_READS
    step = oplists.WRITE_BLOCK_READS
    probes = [spec_json(cycle["probe"]) for cycle in ops["writer"]]
    bodies = [[spec_json(spec) for spec in reads] for reads in ops["reader"]]
    previous = reference_ms()
    gc.disable()  # the generator's own collections are not server latency
    try:
        for cycle, probe, reads, read_bodies in zip(ops["writer"], probes, ops["reader"], bodies):
            bounds = [0] + list(range(first, len(reads), step)) + [len(reads)]
            for k, (lo, hi) in enumerate(zip(bounds, bounds[1:])):
                block = []
                actors = [(reader, reader_cycle(reads[lo:hi], read_bodies[lo:hi], block))]
                if k == 0:
                    actors.append((writer, writer_cycle(cycle, probe)))
                started = perf_counter()
                drive(actors)
                elapsed = perf_counter() - started
                current = reference_ms()
                blocks.append((block, elapsed, (previous + current) / 2.0))
                previous = current
    finally:
        gc.enable()
    t1 = perf_counter_ns()
    cpu = process_time() - cpu0
    after = reader.stats()
    writer.stats()  # every notify queued before this reply has arrived
    for conn in (writer, reader):
        conn.close()

    n_ops = len(lat["read"]) + len(ops["writer"]) * (2 + oplists.WRITE_DELETES_PER_CYCLE)
    attempted += n_ops + len(ops["warmup"])
    failed += state["failed"] + _replay(xy, writes, checks, mirrors, writer.notifies)
    reads = lat.pop("read")
    warnings = []
    tail = tail_rank(len(reads))
    # Each insert's rebuild stalls one reader read: the op list puts a
    # population boundary `cycles` samples below the top.
    if tail and near_boundary(tail[0], [len(reads) - cycles]):
        warnings.append(f"read tail rank {tail[0]}/{len(reads)} is near the stalled-read boundary")
    stall = summarize(lat["fresh_read"]).get("p50", 0.0) / 2.0
    lat_counts = {"stalled_reads": sum(v > stall for v in reads), "inserts": cycles}
    return {
        "attempted": attempted,
        "failed": failed,
        "blocks": blocks,
        "reads_total": len(reads) + len(lat["fresh_read"]),
        "requests": n_ops,
        "rows": state["rows"],
        "ops": lat,
        "counts": lat_counts,
        "cpu_s": cpu,
        "t0": t0,
        "t1": t1,
        "stats": (before, after),
        "warnings": warnings,
    }


def _replay(xy, writes, checks, mirrors, notifies) -> int:
    """Check every served answer against the oracle; returns failures.

    A read sent after ``lo`` writes were acknowledged and answered
    before write ``hi`` was sent must reflect writes ``< lo``, must not
    reflect writes ``>= hi``, and may reflect each write in between.
    Deleted rows may therefore only reappear while their delete is in
    flight, and a probe (``lo == hi``) must match exactly.
    """
    oracle = Oracle(xy)
    applied = 0
    failed = 0

    def apply(op, row, x, y):
        if op == "insert":
            oracle.insert(x, y)
        else:
            oracle.delete(row)

    for lo, hi, spec, ids, must in sorted(checks, key=lambda c: c[0]):
        while applied < lo:
            apply(*writes[applied])
            applied += 1
        if ids is None:
            failed += 1
            continue
        got = set(unpacked(ids))
        expected = set(oracle.answer(spec))
        maybe_in = {
            row for op, row, x, y in writes[lo:hi]
            if op == "insert" and len(polygon_rows(np.array([x]), np.array([y]), spec["geometry"]))
        }
        maybe_out = {row for op, row, _, _ in writes[lo:hi] if op == "delete"}
        ok = (expected - maybe_out) <= got <= (expected | maybe_in)
        if must is not None and must not in got:
            ok = False
        failed += not ok
    while applied < len(writes):
        apply(*writes[applied])
        applied += 1
    for frame in notifies:
        spec, members = mirrors[frame["id"]]
        members -= set(unpacked(frame["removed_packed"]))
        members |= set(unpacked(frame["added_packed"]))
    for spec, members in mirrors.values():
        failed += members != set(oracle.answer(spec))
    return failed


# -- reports ----------------------------------------------------------------------


def report(out: dict, setups: list) -> dict:
    """End-to-end metrics of an untraced run, in reference-normalised
    time over the whole run (its stalled population must stay whole)."""
    figures, context = normalized(out["blocks"])
    context.update({
        "setup_s_raw": [round(s, 4) for s, _ in setups],
        "harness_cpu_ms_per_req": round(out["cpu_s"] * 1e3 / out["requests"], 4),
        "warnings": out["warnings"],
        **{op: summarize(values) for op, values in out["ops"].items()},
        **out["counts"],
    })
    return {
        "attempted": out["attempted"],
        "failed": out["failed"],
        "metrics": {
            "setup_s": normalized_setup(setups),
            "rss_mb": out["rss_mb"],
            "answered_frac": (out["attempted"] - out["failed"]) / out["attempted"],
            "read_p50_ms": figures["p50"],
            "read_tail_ms": figures["tail"],
            "read_rps": figures["rate"],
        },
        "context": context,
    }


def run(seed: int, seconds: int, trace: bool, workdir: str, spans_dir: str) -> dict:
    if not trace:
        return report(*measure_untraced(seed, seconds, workdir))
    out = measure_traced(seed, seconds, workdir, spans_dir)
    return {
        "attempted": out["attempted"],
        "failed": out["failed"],
        "metrics": out["layer"],
        "context": {"trace_spans": out["trace_spans"], "warnings": out["warnings"]},
    }
