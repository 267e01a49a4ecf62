"""Wire-protocol property tests: round trips and malformed rejection.

Every frame type round-trips ``decode_frame(encode_frame(f)) == f``
exactly (floats survive because ``json`` is repr-faithful), query frames
additionally round-trip their embedded specs — including nested
composites and unbounded kNN — through
:func:`repro.server.protocol.parse_query_spec`, and structurally broken
input of every flavour is rejected with a ``bad-frame``
:class:`~repro.server.protocol.ProtocolError`.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry.circle import Circle
from repro.geometry.point import Point
from repro.geometry.polygon import Polygon
from repro.geometry.rectangle import Rect
from repro.query.serialize import spec_to_dict
from repro.server.protocol import (
    ERROR_CODES,
    MAX_CHUNK_SIZE,
    MAX_LINE_BYTES,
    MAX_WRITE_POINTS,
    ProtocolError,
    decode_frame,
    encode_frame,
    error_frame,
    parse_query_spec,
    rows_to_wire,
    validate_frame,
)
from repro.query.spec import (
    AreaQuery,
    DifferenceQuery,
    IntersectionQuery,
    KnnQuery,
    NearestQuery,
    UnionQuery,
    WindowQuery,
)

# -- spec strategies ----------------------------------------------------------

coordinates = st.floats(
    min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False
)


@st.composite
def rects(draw):
    """Non-degenerate axis-aligned rectangles."""
    x1, x2 = sorted(
        draw(st.tuples(coordinates, coordinates).filter(lambda t: t[0] != t[1]))
    )
    y1, y2 = sorted(
        draw(st.tuples(coordinates, coordinates).filter(lambda t: t[0] != t[1]))
    )
    return Rect(x1, y1, x2, y2)


@st.composite
def region_specs(draw):
    """Area (polygon or circle) and window leaf specs, with options."""
    kind = draw(st.integers(0, 2))
    limit = draw(st.none() | st.integers(0, 50))
    if kind == 0:
        region = Polygon.from_rect(draw(rects()))
        return AreaQuery(region, limit=limit)
    if kind == 1:
        center = Point(draw(coordinates), draw(coordinates))
        radius = draw(
            st.floats(min_value=1e-3, max_value=1e3, allow_nan=False)
        )
        return AreaQuery(Circle(center, radius), method="voronoi")
    return WindowQuery(draw(rects()), limit=limit)


@st.composite
def point_specs(draw):
    """kNN (bounded and unbounded/streaming) and nearest specs."""
    point = Point(draw(coordinates), draw(coordinates))
    if draw(st.booleans()):
        k = draw(st.none() | st.integers(0, 100))
        select = draw(st.sampled_from(["ids", "points", "distances"]))
        return KnnQuery(point, k, select=select)
    return NearestQuery(point)


composite_specs = st.recursive(
    region_specs(),
    lambda children: st.tuples(
        st.sampled_from([UnionQuery, IntersectionQuery, DifferenceQuery]),
        st.lists(children, min_size=2, max_size=3),
    ).map(lambda pair: pair[0](tuple(pair[1]))),
    max_leaves=6,
)

any_specs = st.one_of(region_specs(), point_specs(), composite_specs)

# -- frame strategies ---------------------------------------------------------

request_ids = st.integers(min_value=0, max_value=2**31)
json_scalars = st.one_of(
    st.integers(-1000, 1000),
    st.floats(allow_nan=False, allow_infinity=False),
    st.text(max_size=10),
    st.booleans(),
)
stats_payloads = st.dictionaries(
    st.text(min_size=1, max_size=10), json_scalars, max_size=4
)


@st.composite
def query_frames(draw):
    """``query`` frames: leaf or composite spec plus the option flags."""
    frame = {
        "type": "query",
        "id": draw(request_ids),
        "spec": spec_to_dict(draw(any_specs)),
    }
    if draw(st.booleans()):
        frame["explain"] = draw(st.booleans())
    if draw(st.booleans()):
        frame["stream"] = True
        if draw(st.booleans()):
            frame["chunk_size"] = draw(st.integers(1, MAX_CHUNK_SIZE))
    return frame


next_frames = st.fixed_dictionaries({"type": st.just("next"), "id": request_ids})
cancel_frames = st.fixed_dictionaries(
    {"type": st.just("cancel"), "id": request_ids}
)
stats_requests = st.just({"type": "stats"})
stats_responses = st.fixed_dictionaries(
    {
        "type": st.just("stats"),
        "server": stats_payloads,
        "coalescer": stats_payloads,
        "engine": stats_payloads,
    }
)
hello_frames = st.fixed_dictionaries(
    {
        "type": st.just("hello"),
        "protocol": st.integers(1, 99),
        "server": st.text(max_size=20),
        "points": st.integers(0, 10**9),
    }
)


@st.composite
def result_frames(draw):
    """``result`` frames with integer id lists and a stats object."""
    frame = {
        "type": "result",
        "id": draw(request_ids),
        "ids": draw(st.lists(st.integers(0, 10**6), max_size=30)),
        "stats": draw(stats_payloads),
    }
    if draw(st.booleans()):
        frame["explain"] = draw(st.text(max_size=40))
    return frame


@st.composite
def chunk_frames(draw):
    """``chunk`` frames over every row projection (ids/points/distances)."""
    rows = draw(
        st.one_of(
            st.lists(st.integers(0, 10**6), max_size=20),
            st.lists(st.floats(allow_nan=False, allow_infinity=False), max_size=20),
            st.lists(
                st.tuples(coordinates, coordinates).map(list), max_size=20
            ),
        )
    )
    frame = {
        "type": "chunk",
        "id": draw(request_ids),
        "seq": draw(st.integers(0, 10**6)),
        "rows": rows,
        "done": draw(st.booleans()),
    }
    if draw(st.booleans()):
        frame["examined"] = draw(st.integers(0, 10**9))
    if draw(st.booleans()):
        frame["cancelled"] = draw(st.booleans())
    return frame


error_frames = st.builds(
    error_frame,
    st.none() | request_ids,
    st.sampled_from(ERROR_CODES),
    st.text(max_size=60),
)

all_frames = st.one_of(
    query_frames(),
    next_frames,
    cancel_frames,
    stats_requests,
    stats_responses,
    hello_frames,
    result_frames(),
    chunk_frames(),
    error_frames,
)


class TestRoundTrips:
    @settings(max_examples=200)
    @given(all_frames)
    def test_every_frame_type_round_trips(self, frame):
        line = encode_frame(frame)
        assert line.endswith(b"\n") and line.count(b"\n") == 1
        assert decode_frame(line) == frame
        assert decode_frame(line.decode("utf-8")) == frame

    @settings(max_examples=150)
    @given(any_specs, request_ids)
    def test_specs_survive_the_query_frame(self, spec, request_id):
        frame = {"type": "query", "id": request_id, "spec": spec_to_dict(spec)}
        decoded = decode_frame(encode_frame(frame))
        assert parse_query_spec(decoded) == spec

    @given(st.lists(st.tuples(coordinates, coordinates), max_size=10))
    def test_point_rows_become_pairs(self, pairs):
        points = [Point(x, y) for x, y in pairs]
        wire = rows_to_wire(points)
        assert wire == [[p.x, p.y] for p in points]
        # scalar rows (ids, distances) pass through untouched
        assert rows_to_wire([1, 2.5]) == [1, 2.5]


class TestMalformedRejection:
    @pytest.mark.parametrize(
        "line",
        [
            b"not json\n",
            b"[1, 2, 3]\n",
            b'"a string"\n',
            b"{}\n",
            b'{"type": "warp"}\n',
            b"\xff\xfe\n",
        ],
        ids=["not-json", "array", "string", "no-type", "unknown-type", "bad-utf8"],
    )
    def test_structurally_broken_lines(self, line):
        with pytest.raises(ProtocolError) as excinfo:
            decode_frame(line)
        assert excinfo.value.code == "bad-frame"

    @pytest.mark.parametrize(
        "frame",
        [
            {"type": "query", "spec": {}},  # missing id
            {"type": "query", "id": -1, "spec": {}},
            {"type": "query", "id": True, "spec": {}},
            {"type": "query", "id": 1, "spec": "area"},
            {"type": "query", "id": 1, "spec": {}, "stream": "yes"},
            {"type": "query", "id": 1, "spec": {}, "chunk_size": 8},
            {"type": "query", "id": 1, "spec": {}, "stream": True,
             "chunk_size": 0},
            {"type": "next", "id": "7"},
            {"type": "cancel"},
            {"type": "hello", "protocol": 0, "server": "x", "points": 1},
            {"type": "hello", "protocol": 1, "server": "x", "points": -2},
            {"type": "result", "id": 1, "ids": [1, "2"], "stats": {}},
            {"type": "result", "id": 1, "ids": [True], "stats": {}},
            {"type": "result", "id": 1, "ids": 3, "stats": {}},
            {"type": "result", "id": 1, "ids": [], "stats": []},
            {"type": "chunk", "id": 1, "seq": -1, "rows": [], "done": False},
            {"type": "chunk", "id": 1, "seq": 0, "rows": [], "done": 1},
            {"type": "chunk", "id": 1, "seq": 0, "rows": [], "done": True,
             "examined": -1},
            {"type": "error", "code": "nope", "message": "x"},
            {"type": "error", "code": "bad-spec", "message": 5},
            {"type": "stats", "server": {}},  # partial stats response
        ],
        ids=repr,
    )
    def test_schema_violations(self, frame):
        with pytest.raises(ProtocolError) as excinfo:
            validate_frame(frame)
        assert excinfo.value.code == "bad-frame"

    def test_error_frames_round_trip_with_and_without_id(self):
        for request_id in (None, 9):
            frame = error_frame(request_id, "bad-spec", "boom")
            assert decode_frame(encode_frame(frame)) == frame
            assert ("id" in frame) == (request_id is not None)

    def test_bad_specs_raise_bad_spec(self):
        frame = {"type": "query", "id": 0, "spec": {"kind": "tessellate"}}
        validate_frame(frame)  # structurally fine
        with pytest.raises(ProtocolError) as excinfo:
            parse_query_spec(frame)
        assert excinfo.value.code == "bad-spec"
        # a structurally valid spec body that fails geometric coercion
        frame["spec"] = {"kind": "window", "rect": [0.0, 0.0]}
        with pytest.raises(ProtocolError) as excinfo:
            parse_query_spec(frame)
        assert excinfo.value.code == "bad-spec"

    def test_oversized_lines_rejected_both_ways(self):
        frame = {
            "type": "result",
            "id": 0,
            "ids": list(range(MAX_LINE_BYTES // 4)),
            "stats": {},
        }
        with pytest.raises(ProtocolError, match="line limit"):
            encode_frame(frame)
        with pytest.raises(ProtocolError, match="limit"):
            decode_frame(b"x" * (MAX_LINE_BYTES + 1))

    def test_largest_extend_fits_the_line_cap(self):
        # 24-character float reprs are the longest JSON gives a double.
        worst = -2.2250738585072014e-308
        frame = {
            "type": "extend",
            "id": 2**62,
            "points": [[worst, worst]] * MAX_WRITE_POINTS,
        }
        line = encode_frame(frame)
        assert len(line) <= MAX_LINE_BYTES
        assert decode_frame(line) == frame

    def test_non_finite_numbers_have_no_wire_form(self):
        with pytest.raises(ProtocolError):
            encode_frame(
                {
                    "type": "hello",
                    "protocol": 1,
                    "server": "x",
                    "points": 1,
                    "load": float("nan"),
                }
            )


class TestPackedIdTransport:
    """The columnar id transport: pack/unpack + frame validation."""

    def test_pack_unpack_round_trip(self):
        from hypothesis import given
        from hypothesis import strategies as st

        from repro.server.protocol import pack_ids, unpack_ids

        @given(
            st.lists(
                st.integers(min_value=0, max_value=2**62), max_size=200
            )
        )
        def round_trip(ids):
            assert unpack_ids(pack_ids(ids)) == ids

        round_trip()

    def test_packed_result_frame_round_trips(self):
        from repro.server.protocol import pack_ids, result_ids

        ids = list(range(0, 5000, 7))
        frame = {
            "type": "result",
            "id": 3,
            "ids_packed": pack_ids(ids),
            "stats": {"method": "index"},
        }
        decoded = decode_frame(encode_frame(frame))
        assert result_ids(decoded) == ids

    def test_result_ids_accepts_both_transports(self):
        from repro.server.protocol import result_ids

        assert result_ids({"ids": [1, 2, 3]}) == [1, 2, 3]

    def test_both_fields_rejected(self):
        from repro.server.protocol import pack_ids

        frame = {
            "type": "result",
            "id": 1,
            "ids": [1],
            "ids_packed": pack_ids([1]),
            "stats": {},
        }
        with pytest.raises(ProtocolError, match="not both"):
            encode_frame(frame)

    def test_garbage_packed_payload_rejected(self):
        from repro.server.protocol import unpack_ids

        with pytest.raises(ProtocolError, match="base64"):
            unpack_ids("not//valid@@base64!!")
        # valid base64 but not a whole number of int64s
        import base64

        with pytest.raises(ProtocolError, match="int64"):
            unpack_ids(base64.b64encode(b"abc").decode())

    def test_non_string_packed_field_rejected(self):
        import json

        frame = {"type": "result", "id": 1, "ids_packed": 42, "stats": {}}
        with pytest.raises(ProtocolError, match="base64"):
            decode_frame(json.dumps(frame).encode() + b"\n")

    def test_server_honours_the_packed_flag_end_to_end(self):
        import socket as socket_module

        from repro.core.database import SpatialDatabase
        from repro.geometry.rectangle import Rect
        from repro.query.serialize import spec_to_dict
        from repro.query.spec import WindowQuery
        from repro.server.app import ServerThread
        from repro.server.protocol import result_ids
        from repro.workloads.generators import uniform_points

        db = SpatialDatabase.from_points(uniform_points(300, seed=17))
        spec = WindowQuery(Rect(0.2, 0.2, 0.8, 0.8))
        expected = db.query(spec).ids()
        with ServerThread(db) as server:
            with socket_module.create_connection(
                (server.host, server.port)
            ) as sock:
                reader = sock.makefile("rb")
                decode_frame(reader.readline())  # hello
                for packed in (False, True):
                    frame = {
                        "type": "query",
                        "id": 1,
                        "spec": spec_to_dict(spec),
                    }
                    if packed:
                        frame["packed"] = True
                    sock.sendall(encode_frame(frame))
                    response = decode_frame(reader.readline())
                    assert response["type"] == "result"
                    assert ("ids_packed" in response) is packed
                    assert ("ids" in response) is not packed
                    assert result_ids(response) == expected


class TestSubscriptionFrames:
    """Round trips and schema rejection for the live-query frames."""

    @pytest.mark.parametrize(
        "frame",
        [
            {
                "type": "subscribe",
                "id": 3,
                "spec": spec_to_dict(WindowQuery((0, 0, 1, 1))),
            },
            {
                "type": "subscribe",
                "id": 4,
                "spec": spec_to_dict(KnnQuery((0.5, 0.5), 7)),
                "packed": True,
            },
            {"type": "unsubscribe", "id": 3},
            {"type": "subscribed", "id": 3, "version": 9, "ids": [1, 2]},
            {
                "type": "notify",
                "id": 3,
                "version": 10,
                "added": [5],
                "removed": [],
            },
            {"type": "unsubscribed", "id": 3, "notifications": 12},
        ],
        ids=[
            "subscribe",
            "subscribe-packed",
            "unsubscribe",
            "subscribed",
            "notify",
            "unsubscribed",
        ],
    )
    def test_round_trips(self, frame):
        assert decode_frame(encode_frame(frame)) == frame

    def test_packed_subscription_frames_round_trip(self):
        from repro.server.protocol import delta_ids, pack_ids

        notify = {
            "type": "notify",
            "id": 1,
            "version": 2,
            "added_packed": pack_ids([7, 9]),
            "removed_packed": pack_ids([]),
        }
        decoded = decode_frame(encode_frame(notify))
        assert delta_ids(decoded, "added") == [7, 9]
        assert delta_ids(decoded, "removed") == []
        subscribed = {
            "type": "subscribed",
            "id": 1,
            "version": 1,
            "ids_packed": pack_ids([3, 1, 4]),
        }
        decoded = decode_frame(encode_frame(subscribed))
        assert delta_ids(decoded, "ids") == [3, 1, 4]

    @pytest.mark.parametrize(
        "frame",
        [
            {"type": "subscribe", "id": 1},
            {"type": "subscribe", "spec": {"kind": "window"}},
            {"type": "subscribe", "id": 1, "spec": [], "packed": True},
            {"type": "subscribe", "id": 1, "spec": {}, "packed": "yes"},
            {"type": "unsubscribe"},
            {"type": "subscribed", "id": 1, "ids": [1]},
            {"type": "subscribed", "id": 1, "version": 1},
            {
                "type": "subscribed",
                "id": 1,
                "version": 1,
                "ids": [1],
                "ids_packed": "AA==",
            },
            {"type": "notify", "id": 1, "version": 2, "added": [1]},
            {
                "type": "notify",
                "id": 1,
                "version": 2,
                "added": [1],
                "removed": "nope",
            },
            {"type": "notify", "id": 1, "added": [1], "removed": []},
            {"type": "unsubscribed", "id": 1},
            {"type": "unsubscribed", "id": 1, "notifications": -3},
        ],
        ids=[
            "subscribe-no-spec",
            "subscribe-no-id",
            "subscribe-spec-not-dict",
            "subscribe-packed-not-bool",
            "unsubscribe-no-id",
            "subscribed-no-version",
            "subscribed-no-ids",
            "subscribed-both-transports",
            "notify-no-removed",
            "notify-removed-not-list",
            "notify-no-version",
            "unsubscribed-no-count",
            "unsubscribed-negative-count",
        ],
    )
    def test_schema_violations_rejected(self, frame):
        import json

        with pytest.raises(ProtocolError) as excinfo:
            decode_frame(json.dumps(frame).encode() + b"\n")
        assert excinfo.value.code == "bad-frame"
