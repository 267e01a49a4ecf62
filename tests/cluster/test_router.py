"""Wire tests: the cluster router speaks protocol v1 to real clients.

The router runs over in-process :class:`LocalShard` backends (fast, no
subprocesses — the spawned-worker path is covered by
``test_launcher.py``) and is exercised through the unmodified
:class:`QueryClient`, plus raw sockets for the frame-level edges the
client never produces.  One test puts the wire on the worker side
instead: a coordinator over a :class:`RemoteShard` bulk-loads more rows
than one ``extend`` frame may carry.
"""

import json
import socket

import pytest

from repro.cluster import ClusterCoordinator, LocalShard, RemoteShard
from repro.cluster.router import RouterThread
from repro.core.database import SpatialDatabase
from repro.geometry.circle import Circle
from repro.geometry.point import Point
from repro.geometry.polygon import Polygon
from repro.query.spec import (
    AreaQuery,
    KnnQuery,
    NearestQuery,
    UnionQuery,
    WindowQuery,
)
from repro.server import QueryClient, RemoteError, ServerThread
from repro.server.protocol import MAX_WRITE_POINTS
from repro.workloads import make_query_areas, uniform_points

N_POINTS = 500


@pytest.fixture(scope="module")
def points():
    return [(p.x, p.y) for p in uniform_points(N_POINTS, seed=29)]


@pytest.fixture(scope="module")
def oracle(points):
    return SpatialDatabase.from_points([Point(x, y) for x, y in points])


@pytest.fixture(scope="module")
def router(points):
    coordinator = ClusterCoordinator(
        [LocalShard(SpatialDatabase()) for _ in range(3)]
    )
    coordinator.bulk_load(points)
    with RouterThread(coordinator) as thread:
        yield thread


@pytest.fixture()
def client(router):
    with QueryClient(router.host, router.port) as client:
        yield client


class TestEagerQueries:
    def test_hello_reports_cluster_totals(self, client):
        assert client.hello["protocol"] == 1
        assert client.hello["points"] == N_POINTS
        assert "cluster" in client.hello["server"]

    def test_all_kinds_match_oracle(self, client, oracle):
        specs = [
            AreaQuery(make_query_areas(0.03, 1, seed=61)[0]),
            WindowQuery((0.2, 0.2, 0.7, 0.7)),
            KnnQuery(Point(0.4, 0.6), 9),
            NearestQuery(Point(0.1, 0.8)),
            UnionQuery(
                (
                    WindowQuery((0.1, 0.1, 0.5, 0.5)),
                    AreaQuery(Circle(Point(0.5, 0.5), 0.25)),
                ),
                limit=40,
            ),
        ]
        for spec in specs:
            result = client.query(spec)
            assert result.ids == oracle.query(spec).ids()
            assert result.stats["method"] == "cluster"
            assert result.stats["result_size"] == len(result.ids)

    def test_explain_renders_the_routing_decision(self, client):
        result = client.query(
            WindowQuery((0.2, 0.2, 0.7, 0.7)), explain=True
        )
        assert result.explain is not None
        assert "shard" in result.explain.lower()

    def test_bad_spec_maps_to_bad_spec(self, client):
        with pytest.raises(RemoteError) as excinfo:
            client.query(
                AreaQuery(Polygon([(0, 0), (1, 1), (0.5, 0.5), (0.2, 0.2)]))
            )
        assert excinfo.value.code == "bad-spec"


class TestStreams:
    def test_full_drain_has_exact_done_semantics(self, client, oracle):
        spec = UnionQuery(
            (
                WindowQuery((0.1, 0.1, 0.5, 0.5)),
                AreaQuery(Circle(Point(0.5, 0.5), 0.25)),
            )
        )
        with client.stream(spec, chunk_size=7) as stream:
            assert list(stream) == oracle.query(spec).ids()

    def test_chunk_size_divides_result_exactly(self, client, oracle):
        # a result that is an exact multiple of chunk_size exercises the
        # trailing empty done-chunk (done is never guessed from a short
        # chunk)
        spec = KnnQuery(Point(0.5, 0.5), 24)
        with client.stream(spec, chunk_size=8) as stream:
            assert list(stream) == oracle.query(spec).ids()

    def test_unbounded_knn_breaks_and_cancels(self, client, oracle):
        spec = KnnQuery(Point(0.4, 0.6), None)
        want = oracle.query(spec).first(30)
        stream = client.stream(spec, chunk_size=16)
        got = []
        for row in stream:
            got.append(row)
            if len(got) == 30:
                break
        stream.close()
        assert got == want
        # the connection survives the cancel: a follow-up query works
        assert client.query(NearestQuery(Point(0.4, 0.6))).ids


class TestWritesAndStats:
    def test_writes_route_to_owning_shards(self, router, oracle):
        with QueryClient(router.host, router.port) as client:
            ack = client.insert(0.91, 0.13)
            expected = oracle.insert(Point(0.91, 0.13))
            assert list(ack.rows) == [expected]
            batch = [(0.33 + 0.001 * i, 0.77 - 0.001 * i) for i in range(20)]
            ack = client.extend(batch)
            expected_rows = oracle.extend([Point(x, y) for x, y in batch])
            assert list(ack.rows) == expected_rows
            client.delete(expected_rows[3])
            oracle.delete(expected_rows[3])
            everything = WindowQuery((0.0, 0.0, 1.0, 1.0))
            assert (
                client.query(everything).ids
                == oracle.query(everything).ids()
            )
            with pytest.raises(RemoteError) as excinfo:
                client.delete(expected_rows[3])
            assert excinfo.value.code == "bad-request"

    def test_stats_frame_merges_and_adds_cluster_section(self, client):
        client.query(NearestQuery(Point(0.2, 0.2)))
        frame = client.stats()
        for section in ("server", "coalescer", "engine", "cluster"):
            assert section in frame
        assert frame["cluster"]["workers"] == 3
        assert frame["cluster"]["points"] >= N_POINTS
        assert frame["cluster"]["router"]["requests_total"] >= 1
        assert len(frame["cluster"]["ranges"]) >= 3

    def test_subscribe_rejected_with_bad_request(self, client):
        with pytest.raises(RemoteError) as excinfo:
            client.subscribe(WindowQuery((0.0, 0.0, 0.5, 0.5)))
        assert excinfo.value.code == "bad-request"


class TestFrameEdges:
    def read_frames(self, sock, count):
        buffer = b""
        frames = []
        while len(frames) < count:
            chunk = sock.recv(65536)
            assert chunk, "router closed unexpectedly"
            buffer += chunk
            while b"\n" in buffer and len(frames) < count:
                line, buffer = buffer.split(b"\n", 1)
                frames.append(json.loads(line))
        return frames

    def test_duplicate_inflight_id_is_bad_request(self, router):
        with socket.create_connection(
            (router.host, router.port), timeout=10
        ) as sock:
            self.read_frames(sock, 1)  # hello
            frame = {
                "type": "query",
                "id": 1,
                "spec": {"kind": "knn", "point": [0.5, 0.5], "k": None},
                "stream": True,
                "chunk_size": 4,
            }
            sock.sendall((json.dumps(frame) + "\n").encode())
            first = self.read_frames(sock, 1)[0]
            assert first["type"] == "chunk" and not first["done"]
            sock.sendall((json.dumps(frame) + "\n").encode())
            error = self.read_frames(sock, 1)[0]
            assert error["type"] == "error"
            assert error["code"] == "bad-request"

    def test_malformed_json_is_bad_frame_and_survivable(self, router):
        with socket.create_connection(
            (router.host, router.port), timeout=10
        ) as sock:
            self.read_frames(sock, 1)  # hello
            sock.sendall(b"{not json\n")
            error = self.read_frames(sock, 1)[0]
            assert error["type"] == "error"
            assert error["code"] == "bad-frame"
            sock.sendall(b'{"type": "stats"}\n')
            stats = self.read_frames(sock, 1)[0]
            assert stats["type"] == "stats"


class TestEphemeralPorts:
    def test_concurrent_server_threads_bind_distinct_ports(self):
        db = SpatialDatabase.from_points(
            [Point(p.x, p.y) for p in uniform_points(50, seed=3)]
        )
        with ServerThread(db) as first, ServerThread(db) as second:
            assert first.port != 0 and second.port != 0
            assert first.port != second.port
            with QueryClient(first.host, first.port) as probe:
                assert probe.hello["points"] == 50


class TestRemoteBulkLoad:
    def test_load_larger_than_one_extend_frame_matches_oracle(self):
        """``RemoteShard.extend`` splits at MAX_WRITE_POINTS; every frame
        must fit the line cap, so all rows land on the worker."""
        count = 2 * MAX_WRITE_POINTS + 1
        loaded = [(p.x, p.y) for p in uniform_points(count, seed=41)]
        oracle = SpatialDatabase.from_points([Point(x, y) for x, y in loaded])
        with ServerThread(SpatialDatabase()) as worker:
            coordinator = ClusterCoordinator(
                [RemoteShard(worker.host, worker.port)]
            )
            try:
                assert coordinator.bulk_load(loaded) == list(range(count))
                spec = WindowQuery((0.2, 0.3, 0.45, 0.5), method="index")
                assert coordinator.query(spec) == oracle.query(spec).ids()
            finally:
                coordinator.close()
