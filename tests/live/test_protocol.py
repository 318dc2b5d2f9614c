"""Wire protocol tests: framing and payload codecs."""

import asyncio
import dataclasses
import json
import math
import random
import struct

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from repro.core.operations import (
    AppendOp,
    DecrementOp,
    DivideOp,
    IncrementOp,
    MultiplyOp,
    ReadOp,
    TimestampedWriteOp,
    WriteOp,
)
from repro.consistency import Consistency
from repro.core.transactions import EpsilonSpec, UNLIMITED
from repro.live.durable_queue import _parse_line, _record_line, _record_lines
from repro.live.protocol import (
    MAX_BATCH_ENTRIES,
    MAX_FRAME,
    FrameWriter,
    ProtocolError,
    _keyless,
    _wrong_arity,
    decode_bin_frame,
    decode_mset,
    decode_op,
    decode_batch_payloads,
    decode_ops,
    decode_payloads,
    decode_spec,
    encode_bin_ack_frame,
    encode_bin_batch_frame,
    encode_frame,
    encode_line,
    encode_mset,
    encode_op,
    encode_ops,
    encode_spec,
    loads,
    payload_blob,
    plain_reply_frame,
    plain_update_blob,
)
from repro.live.engine import ENGINES
from repro.replica.mset import MSet, check_ops
from repro.storage.kv import KeyValueStore

from .wire import decode_stream


def _line_text(obj):
    """The durable-log line :func:`encode_line` writes for ``obj``, as
    text without its newline."""
    line = encode_line(obj)
    assert line.endswith(b"\n") and line.count(b"\n") == 1
    return line[:-1].decode("utf-8")


class TestFraming:
    def test_roundtrip(self):
        frame = encode_frame({"type": "ping", "n": 7})
        assert decode_stream(frame) == [{"type": "ping", "n": 7}]

    def test_many_frames_in_sequence(self):
        frames = [encode_frame({"i": i}) for i in range(5)]
        assert decode_stream(*frames) == [{"i": i} for i in range(5)]

    def test_a_partial_frame_waits_for_its_bytes(self):
        frame = encode_frame({"big": "x" * 100})
        assert decode_stream(frame[:20]) == []
        assert decode_stream(frame[:3], frame[3:20], frame[20:]) == [
            {"big": "x" * 100}
        ]

    def test_oversized_length_rejected(self):
        header = struct.pack(">I", MAX_FRAME + 1)
        with pytest.raises(ProtocolError):
            decode_stream(header)

    def test_undecodable_body_rejected(self):
        junk = struct.pack(">I", 4) + b"\xff\xfe\x00\x01"
        with pytest.raises(ProtocolError):
            decode_stream(junk)

    def test_non_object_payload_rejected(self):
        frame = struct.pack(">I", 7) + b"[1,2,3]"
        with pytest.raises(ProtocolError):
            decode_stream(frame)


class TestOperationCodec:
    OPS = [
        ReadOp("k"),
        WriteOp("k", "v"),
        WriteOp("k", None),
        IncrementOp("k", 3),
        DecrementOp("k", 1.5),
        MultiplyOp("k", 2),
        DivideOp("k", 4),
        AppendOp("log", {"event": "x"}),
        TimestampedWriteOp("k", 9, (3, "site1")),
    ]

    @pytest.mark.parametrize("op", OPS, ids=lambda o: type(o).__name__)
    def test_roundtrip(self, op):
        decoded = decode_op(encode_op(op))
        assert type(decoded) is type(op)
        assert decoded == op

    def test_an_operation_is_a_positional_array(self):
        """Tag, key, then what the operation carries — no field names."""
        assert encode_ops(self.OPS) == [
            ["read", "k"],
            ["write", "k", "v"],
            ["write", "k", None],
            ["inc", "k", 3],
            ["dec", "k", 1.5],
            ["mul", "k", 2],
            ["div", "k", 4],
            ["append", "log", {"event": "x"}],
            ["tswrite", "k", 9, [3, "site1"]],
        ]

    def test_batch_roundtrip_preserves_order(self):
        assert decode_ops(encode_ops(self.OPS)) == tuple(self.OPS)

    def test_unknown_tag_rejected(self):
        with pytest.raises(ProtocolError):
            decode_op(["frobnicate", "k"])

    def test_missing_key_rejected(self):
        for bad in (
            ["inc"], ["inc", 7, 1], ["read", None], ["write", ["k"], 1],
        ):
            with pytest.raises(ProtocolError):
                decode_op(bad)

    def test_the_dict_form_has_no_reader(self):
        with pytest.raises(ProtocolError, match="operation must be an array"):
            decode_op({"t": "inc", "key": "k", "amount": 1})

    @pytest.mark.parametrize(
        "op", [("inc", "k", 1), ["inc", "k", 1], {"t": "inc"}, None]
    )
    def test_what_is_not_an_operation_has_no_encoding(self, op):
        """A tuple is formatted as one value, not as ``%`` arguments."""
        with pytest.raises(ProtocolError, match="has no wire encoding"):
            encode_op(op)


class TestSpecCodec:
    def test_unlimited_limits_are_omitted(self):
        assert encode_spec(EpsilonSpec()) == {}
        assert encode_spec(EpsilonSpec(import_limit=2)) == {"import": 2}
        spec = decode_spec({})
        assert spec.import_limit == UNLIMITED
        assert spec.value_limit == UNLIMITED

    def test_the_null_spelling_still_decodes(self):
        spec = decode_spec({"import": None, "value": 4.0})
        assert spec.import_limit == UNLIMITED
        assert spec.value_limit == 4.0

    @pytest.mark.parametrize(
        "level",
        [
            Consistency.CACHED,
            Consistency.BOUNDED(3),
            Consistency.STRICT,
            Consistency.SESSION,
        ],
        ids=repr,
    )
    def test_a_query_request_carries_no_null(self, level):
        request = {
            "type": "request", "id": 7, "verb": "query", "keys": ["k"],
            "spec": encode_spec(level.spec()),
        }
        if level is Consistency.SESSION:
            request["session"] = {"site0": 3}
        assert b"null" not in encode_frame(request)

    def test_finite_limits_roundtrip(self):
        spec = EpsilonSpec(import_limit=3, value_limit=2.5)
        back = decode_spec(encode_spec(spec))
        assert back.import_limit == 3
        assert back.value_limit == 2.5

    def test_the_export_limit_is_not_on_the_wire(self):
        """A query exports nothing, so its spec travels without one."""
        assert encode_spec(EpsilonSpec(import_limit=1, export_limit=0)) == {
            "import": 1
        }
        assert decode_spec({"export": 0}) == EpsilonSpec()

    def test_missing_spec_is_unlimited(self):
        spec = decode_spec(None)
        assert spec.import_limit == UNLIMITED


class TestMSetCodec:
    def test_roundtrip(self):
        mset = MSet(
            tid="site0:4",
            kind="update",
            ops=(IncrementOp("x", 2), AppendOp("log", "e")),
            origin="site0",
            order=(17,),
            txn_number=4,
            info=(("reads", ["x"]),),
        )
        back = decode_mset(encode_mset(mset))
        assert back.tid == "site0:4"
        assert back.origin == "site0"
        assert back.order == (17,)
        assert back.txn_number == 4
        assert [type(op) for op in back.ops] == [IncrementOp, AppendOp]
        assert dict(back.info)["reads"] == ["x"]

    def test_orderless_mset_roundtrip(self):
        mset = MSet(tid="site1:1", ops=(WriteOp("y", 5),), origin="site1")
        back = decode_mset(encode_mset(mset))
        assert back.order is None
        assert back.ops[0].value == 5

    def test_a_plain_update_carries_no_defaults(self):
        """What every log line and wire entry of a COMMU update is: its
        seq and its operations — no tid, origin or envelope.  Its MSet
        encoding (what a log from before the array form holds) carries
        no default field either, and both read back as the one MSet."""
        mset = MSet(
            tid="site0:7",
            ops=(IncrementOp("a", 1), DecrementOp("b", 1)),
            origin="site0",
        )
        line = _line_text({"seq": 7, "payload": encode_ops(mset.ops)})
        assert line == '{"seq":7,"payload":[["inc","a",1],["dec","b",1]]}'
        doc = _line_text({"mset": encode_mset(mset)})
        assert doc == (
            '{"mset":{"tid":"site0:7","ops":[["inc","a",1],["dec","b",1]],'
            '"origin":"site0"}}'
        )
        for absent in ('"kind"', '"order"', '"txn"', '"info"'):
            assert absent not in doc
        payloads = [loads(line)["payload"], loads(doc)]
        assert [
            decode_payloads("site0", 7, [payload])[0] for payload in payloads
        ] == [mset, mset]

    @pytest.mark.parametrize("kind", ["update", "commit"])
    @pytest.mark.parametrize("order", [None, (4, 1)])
    @pytest.mark.parametrize("txn_number", [None, 9])
    @pytest.mark.parametrize("info", [(), (("decides", "site0:3"),)])
    def test_a_field_is_emitted_exactly_when_it_is_not_its_default(
        self, kind, order, txn_number, info
    ):
        mset = MSet("site0:4", kind, (), "site0", order, txn_number, info)
        expected = {"tid", "ops", "origin"}
        expected |= {"kind"} if kind != "update" else set()
        expected |= {"order"} if order is not None else set()
        expected |= {"txn"} if txn_number is not None else set()
        expected |= {"info"} if info else set()
        encoded = encode_mset(mset)
        assert set(encoded) == expected
        assert decode_mset(loads(_line_text(encoded))) == mset


class TestBinaryFraming:
    """Binary frames: struct envelopes around opaque payload blobs."""

    def _blob(self, n):
        return payload_blob(
            {
                "mset": encode_mset(
                    MSet(
                        tid="site0:%d" % n,
                        ops=(IncrementOp("x", n),),
                        origin="site0",
                    )
                )
            }
        )

    def test_batch_roundtrip_over_the_wire(self):
        blobs = [self._blob(seq) for seq in (4, 5, 6)]
        data = encode_bin_batch_frame("site0", 4, blobs)
        (frame,) = decode_stream(data)
        assert frame["type"] == "mset-batch"
        assert frame["src"] == "site0"
        assert frame["first"] == 4
        assert list(frame["blobs"]) == blobs
        # The relayed blob is bit-identical JSON: decoding it yields
        # exactly the payload the sender encoded.
        payload = json.loads(frame["blobs"][0])
        assert decode_mset(payload["mset"]).ops[0].amount == 4

    def test_ack_roundtrip_over_the_wire(self):
        assert decode_stream(encode_bin_ack_frame(712)) == [
            {"type": "ack", "seq": 712}
        ]

    def test_binary_and_json_frames_interleave(self):
        """Frames are self-describing: a reader takes JSON control
        frames and binary propagation frames off one stream."""
        stream = (
            encode_frame({"type": "ping"})
            + encode_bin_ack_frame(3)
            + encode_frame({"type": "hb", "src": "s"})
            + encode_bin_batch_frame("s", 1, [self._blob(1)])
        )
        assert [f["type"] for f in decode_stream(stream)] == [
            "ping", "ack", "hb", "mset-batch",
        ]

    def test_empty_batch_rejected_on_encode(self):
        with pytest.raises(ProtocolError):
            encode_bin_batch_frame("site0", 1, [])

    def test_oversize_batch_rejected_both_ways(self):
        blobs = [b"{}"] * (MAX_BATCH_ENTRIES + 1)
        with pytest.raises(ProtocolError):
            encode_bin_batch_frame("site0", 1, blobs)

    def test_oversize_frame_rejected_on_encode(self):
        big = b"x" * (MAX_FRAME // 2)
        with pytest.raises(ProtocolError):
            encode_bin_batch_frame("site0", 1, [big, big, big])

    def test_oversized_binary_length_rejected(self):
        header = struct.pack(">I", 0x80000000 | (MAX_FRAME + 1))
        with pytest.raises(ProtocolError):
            decode_stream(header)

    def test_a_partial_binary_body_waits_for_its_bytes(self):
        data = encode_bin_batch_frame("site0", 1, [self._blob(1)])
        assert decode_stream(data[: len(data) - 3]) == []

    def test_unknown_kind_rejected(self):
        with pytest.raises(ProtocolError):
            decode_bin_frame(b"\x7fjunk")

    def test_empty_body_rejected(self):
        with pytest.raises(ProtocolError):
            decode_bin_frame(b"")

    def test_truncated_ack_rejected(self):
        body = encode_bin_ack_frame(9)[4:]
        with pytest.raises(ProtocolError):
            decode_bin_frame(body[:-2])

    def test_truncations_rejected(self):
        data = encode_bin_batch_frame(
            "site0", 1, [self._blob(1), self._blob(2)]
        )
        body = data[4:]
        # Every strict prefix of the body is either a truncated header,
        # src, length table, or blob — all must raise, never crash.
        for cut in range(len(body)):
            with pytest.raises(ProtocolError):
                decode_bin_frame(body[:cut])

    def test_trailing_bytes_rejected(self):
        data = encode_bin_batch_frame("site0", 1, [self._blob(1)])
        with pytest.raises(ProtocolError):
            decode_bin_frame(data[4:] + b"!")

    def test_zero_entry_count_rejected(self):
        body = struct.pack(">BHIQ", 1, 1, 0, 1) + b"s"
        with pytest.raises(ProtocolError):
            decode_bin_frame(body)

    def test_huge_entry_count_rejected(self):
        body = struct.pack(">BHIQ", 1, 1, MAX_BATCH_ENTRIES + 1, 1) + b"s"
        with pytest.raises(ProtocolError):
            decode_bin_frame(body)

    def test_a_run_past_64_bit_seqs_is_refused(self):
        """The last seq must fit in 64 bits, as every seq did when each
        entry carried its own."""
        top = 2 ** 64 - 1
        two = struct.pack(">BHIQ", 1, 1, 2, top) + b"s" + bytes(8)
        with pytest.raises(ProtocolError, match="64-bit"):
            decode_bin_frame(two)
        with pytest.raises(ProtocolError, match="64-bit"):
            encode_bin_batch_frame("s", top, [b"", b""])
        one = struct.pack(">BHIQ", 1, 1, 1, top) + b"s" + bytes(4)
        assert decode_bin_frame(one)["first"] == top

    @given(
        first=st.integers(0, 2 ** 64 - 1),
        blobs=st.lists(st.binary(max_size=24), min_size=1, max_size=8),
        src=st.text(max_size=6),
        data=st.data(),
    )
    def test_a_run_round_trips_and_every_malformed_body_is_refused(
        self, first, blobs, src, data
    ):
        """decode(encode) gives back ``first`` and the blobs, or the
        encoder refuses a run whose last seq passes 64 bits; every
        strict prefix of a valid body, every one-byte extension of it,
        and a length table that overruns the body raise
        ``ProtocolError``."""
        if first + len(blobs) - 1 > 2 ** 64 - 1:
            with pytest.raises(ProtocolError):
                encode_bin_batch_frame(src, first, blobs)
            return
        body = encode_bin_batch_frame(src, first, blobs)[4:]
        frame = decode_bin_frame(body)
        assert frame == {
            "type": "mset-batch", "src": src, "first": first,
            "blobs": tuple(blobs),
        }
        for cut in range(len(body)):
            with pytest.raises(ProtocolError):
                decode_bin_frame(body[:cut])
        extra = data.draw(st.binary(min_size=1, max_size=1))
        with pytest.raises(ProtocolError):
            decode_bin_frame(body + extra)
        # One entry's length grown past the bytes that follow the table.
        table = 15 + len(src.encode("utf-8"))
        entry = data.draw(st.integers(0, len(blobs) - 1))
        at = table + 4 * entry
        (length,) = struct.unpack_from(">I", body, at)
        over = length + data.draw(st.integers(1, 2 ** 32 - 1 - length))
        with pytest.raises(ProtocolError):
            decode_bin_frame(body[:at] + struct.pack(">I", over) + body[at + 4:])


class TestDecoderHardening:
    """Regression pins for the decoder bugfix sweep: malformed peer
    payloads must raise ProtocolError, never slip through as corrupt
    values or escape as untyped exceptions."""

    def test_string_amount_rejected(self):
        # Previously IncrementOp(amount='NaN') decoded "successfully"
        # and poisoned the store value on first apply.
        with pytest.raises(ProtocolError):
            decode_op(["inc", "k", "NaN"])

    def test_bool_amount_rejected(self):
        with pytest.raises(ProtocolError):
            decode_op(["inc", "k", True])

    def test_non_finite_amount_rejected(self):
        for bad in (float("nan"), float("inf"), float("-inf")):
            with pytest.raises(ProtocolError):
                decode_op(["dec", "k", bad])
        for doc in (
            '["inc","k",NaN]', '["mul","k",1e999]', '["div","k",-Infinity]',
        ):
            with pytest.raises(ProtocolError):
                decode_op(loads(doc))

    @pytest.mark.parametrize("tag", ["inc", "dec", "mul", "div"])
    def test_all_arithmetic_tags_validate_amount(self, tag):
        with pytest.raises(ProtocolError):
            decode_op([tag, "k", [1]])

    def test_missing_amount_defaults_to_zero(self):
        """It did while an operation was an object; a position cannot
        be left out, so an array without its amount is the wrong arity
        and refused — nothing is defaulted."""
        with pytest.raises(ProtocolError):
            decode_op(["inc", "k"])
        assert decode_op(["inc", "k", 0]) == IncrementOp("k", 0)

    @pytest.mark.parametrize(
        "tag, arity",
        [("read", 2), ("write", 3), ("inc", 3), ("dec", 3), ("mul", 3),
         ("div", 3), ("append", 3), ("tswrite", 4)],
    )
    def test_only_the_exact_arity_decodes(self, tag, arity):
        full = [tag, "k", 1, [1, "s"], "extra"]
        for n in range(len(full) + 1):
            if n == arity:
                assert decode_op(full[:n]).key == "k"
            else:
                with pytest.raises(ProtocolError):
                    decode_op(full[:n])

    def test_wrong_arity_ts_rejected(self):
        # Previously ts=[1] decoded to timestamp=(1,), which compares
        # nonsensically against every well-formed (time, site) pair.
        for bad in ([1], [1, 2, 3], [], "12", 7, None):
            with pytest.raises(ProtocolError):
                decode_op(["tswrite", "k", 1, bad])

    def test_wrong_type_ts_rejected(self):
        # A stamp is [int time, non-empty site name]: any other pair
        # decoded, was logged, and then failed to compare with the
        # store's stamps at apply time — and at every replay after.
        for bad in (
            ["x", 0], [1, 0], [1, ""], [1.5, "s"], [True, "s"],
            [1, None], [None, "s"], [1, ["s"]], [[1], "s"],
        ):
            with pytest.raises(ProtocolError):
                decode_op(["tswrite", "k", 1, bad])
        assert decode_op(["tswrite", "k", 1, [0, "s"]]) == (
            TimestampedWriteOp("k", 1, (0, "s"))
        )

    def test_non_dict_op_rejected(self):
        """Nor a dict, now: nothing but a list is an operation."""
        for bad in (
            {"t": "inc", "key": "k", "amount": 1}, ("inc", "k", 1),
            "inc", 3, None, [],
        ):
            with pytest.raises(ProtocolError):
                decode_op(bad)

    def test_unhashable_tag_rejected(self):
        for tag in (["inc"], {"t": "inc"}, None, 7):
            with pytest.raises(ProtocolError):
                decode_op([tag, "k", 1])

    def test_non_sequence_ops_rejected(self):
        for bad in ({"t": "inc"}, "inc", None, 7):
            with pytest.raises(ProtocolError):
                decode_ops(bad)

    def test_malformed_info_pair_rejected(self):
        # Previously raised a bare ValueError (dict() on a 1-tuple),
        # escaping the receive loop's ProtocolError handling.
        data = encode_mset(
            MSet(tid="t", ops=(WriteOp("k", 1),), origin="s")
        )
        data["info"] = [["a"]]
        with pytest.raises(ProtocolError):
            decode_mset(data)

    def test_malformed_mset_fields_rejected(self):
        base = encode_mset(
            MSet(tid="t", ops=(WriteOp("k", 1),), origin="s")
        )
        for field, bad in (
            ("ops", {"not": "a list"}),
            ("ops", [["not-an-op"]]),
            ("ops", [{"t": "inc", "key": "k", "amount": 1}]),
            ("order", "abc-not-a-seq-wait-it-is"),
            ("order", 7),
            ("info", 3),
            ("info", [["a", "b", "c"]]),
            ("kind", 7),
            ("origin", ["s"]),
        ):
            data = dict(base)
            data[field] = bad
            if field == "order" and isinstance(bad, str):
                # strings are sequences; the typed check must still
                # refuse them explicitly
                with pytest.raises(ProtocolError):
                    decode_mset(data)
                continue
            with pytest.raises(ProtocolError):
                decode_mset(data)

    def test_non_dict_mset_rejected(self):
        for bad in (None, [], "mset", 9):
            with pytest.raises(ProtocolError):
                decode_mset(bad)

    def test_non_numeric_epsilon_limit_rejected(self):
        with pytest.raises(ProtocolError):
            decode_spec({"import": "lots"})
        with pytest.raises(ProtocolError):
            decode_spec({"value": [1]})


_SEED_MSET = encode_mset(
    MSet(tid="s0:1", ops=(IncrementOp("x", 1),), origin="s0")
)
#: valid frames of every kind, for byte-mutation fuzzing.
_FUZZ_SEEDS = [
    encode_frame({"type": "ack", "seq": 7}),
    encode_frame(
        {"type": "hb", "src": "s0", "gossip": {"nodes": [_SEED_MSET]}}
    ),
    encode_bin_ack_frame(7),
    encode_bin_batch_frame("s0", 1, [payload_blob({"mset": _SEED_MSET})]),
]


class TestCodecProperties:
    """Seeded-random roundtrip properties and byte-mutation fuzz."""

    def _random_op(self, rng):
        key = "k%d" % rng.randrange(20)
        choice = rng.randrange(7)
        if choice == 0:
            return ReadOp(key)
        if choice == 1:
            return WriteOp(key, rng.choice([None, 1, "v", [1, 2], {"a": 1}]))
        if choice == 2:
            return IncrementOp(key, rng.randrange(-100, 100))
        if choice == 3:
            return DecrementOp(key, rng.random() * 50)
        if choice == 4:
            return MultiplyOp(key, rng.randrange(1, 5))
        if choice == 5:
            return AppendOp(key, {"n": rng.randrange(10)})
        return TimestampedWriteOp(
            key, rng.randrange(100), (rng.randrange(50), "s%d" % rng.randrange(4))
        )

    def _random_mset(self, rng, n):
        ops = tuple(self._random_op(rng) for _ in range(rng.randrange(1, 6)))
        return MSet(
            tid="s%d:%d" % (rng.randrange(4), n),
            kind=rng.choice(["update", "commit"]),
            ops=ops,
            origin="s%d" % rng.randrange(4),
            order=rng.choice([None, (rng.randrange(100),)]),
            txn_number=rng.choice([None, n]),
            info=rng.choice([(), (("reads", ["x"]),)]),
        )

    def test_op_roundtrip_property(self):
        rng = random.Random(0xC0DEC)
        for _ in range(300):
            op = self._random_op(rng)
            back = decode_op(encode_op(op))
            assert type(back) is type(op)
            assert back.key == op.key
            assert encode_op(back) == encode_op(op)

    def test_mset_roundtrip_property(self):
        rng = random.Random(0xC0DEC + 1)
        for n in range(100):
            mset = self._random_mset(rng, n)
            back = decode_mset(encode_mset(mset))
            assert encode_mset(back) == encode_mset(mset)

    def test_spec_roundtrip_property(self):
        rng = random.Random(0xC0DEC + 2)
        for _ in range(100):
            spec = EpsilonSpec(
                import_limit=rng.choice([UNLIMITED, 0, 1, 2.5, 100]),
                value_limit=rng.choice([UNLIMITED, 0.5, 7]),
            )
            back = decode_spec(encode_spec(spec))
            assert encode_spec(back) == encode_spec(spec)

    def test_batch_frame_roundtrip_property(self):
        rng = random.Random(0xC0DEC + 3)
        for _ in range(30):
            first = rng.randrange(1, 2 ** 40)
            msets = [
                encode_mset(self._random_mset(rng, first + i))
                for i in range(rng.randrange(1, 11))
            ]
            # the frame relays canonical payload bytes bit-for-bit
            blobs = [payload_blob({"mset": mset}) for mset in msets]
            frame = decode_bin_frame(
                encode_bin_batch_frame("s0", first, blobs)[4:]
            )
            assert frame["first"] == first
            assert list(frame["blobs"]) == blobs
            assert [json.loads(blob)["mset"] for blob in frame["blobs"]] == (
                msets
            )

    def test_byte_mutation_fuzz_never_crashes_untyped(self):
        """Flipping arbitrary bytes in valid frames must only ever
        produce frames, a wait for more bytes, or ProtocolError —
        anything else would escape ``data_received`` as an unhandled
        exception."""
        rng = random.Random(0xF022)
        seeds = _FUZZ_SEEDS
        for _ in range(400):
            data = bytearray(rng.choice(seeds))
            for _ in range(rng.randrange(1, 4)):
                data[rng.randrange(len(data))] = rng.randrange(256)
            try:
                frames = decode_stream(bytes(data))
            except ProtocolError:
                continue
            assert all(isinstance(frame, dict) for frame in frames)


def _outcome(parse, doc):
    """What ``parse(doc)`` returned (``repr``: NaN equals itself) or
    the exception it raised, type and message."""
    try:
        return "returned", repr(parse(doc))
    except Exception as exc:  # the comparison is the point
        return "raised", type(exc), str(exc)


_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(), inner, max_size=4),
    max_leaves=12,
)

_PADDING = st.text(alphabet=" \t\r\n\ufeff\x00,]}1", max_size=3)


@st.composite
def _documents(draw):
    """A JSON document the way a peer, a disk or an attacker might
    hand it over: compact or spaced, padded, cut short, with trailing
    data, as text or in any encoding ``json.loads`` sniffs."""
    text = json.dumps(
        draw(_JSON_VALUES),
        ensure_ascii=draw(st.booleans()),
        separators=draw(st.sampled_from([(",", ":"), (", ", ": ")])),
    )
    text = draw(_PADDING) + text + draw(_PADDING)
    if draw(st.integers(0, 3)) == 0:  # cut short
        text = text[: draw(st.integers(0, len(text)))]
    encoding = draw(
        st.sampled_from(
            [None, "utf-8", "utf-8-sig", "utf-16", "utf-16-le", "utf-32-be"]
        )
    )
    return text if encoding is None else text.encode(encoding)


@st.composite
def _mutated_frame_bodies(draw):
    """The fuzz corpus above, sans length word, with a few bytes
    flipped."""
    data = bytearray(draw(st.sampled_from(_FUZZ_SEEDS))[4:])
    for _ in range(draw(st.integers(0, 3))):
        data[draw(st.integers(0, len(data) - 1))] = draw(
            st.integers(0, 255)
        )
    return bytes(data)


def _wide_ints_as_floats(value):
    """``value`` with every int outside 64 bits as the nearest float:
    how orjson reads such a literal."""
    if type(value) is int and not -(2**63) <= value < 2**64:
        return float(value)
    if isinstance(value, list):
        return [_wide_ints_as_floats(item) for item in value]
    if isinstance(value, dict):
        return {k: _wide_ints_as_floats(v) for k, v in value.items()}
    return value


def _encodable(value):
    """Inside what the codec encodes: 64-bit ints, ``str`` keys, no
    lone surrogates."""
    if type(value) is int:
        return -(2**63) <= value < 2**64
    if type(value) is str:
        return not any("\ud800" <= char <= "\udfff" for char in value)
    if isinstance(value, list):
        return all(map(_encodable, value))
    if isinstance(value, dict):
        return all(
            type(k) is str and _encodable(k) and _encodable(v)
            for k, v in value.items()
        )
    return True


def _json_loads_utf8(doc):
    """``json.loads`` of bytes decoded as strict UTF-8, the way a log
    line is read: no BOM, UTF-16/32 or surrogate bytes sniffed."""
    return json.loads(doc.decode("utf-8") if type(doc) is bytes else doc)


class TestCompactJsonCodec:
    """``protocol.loads`` is ``json.loads`` of the UTF-8 text — same
    accepted set, values and exceptions — but for an integer literal
    outside 64 bits, which it reads as the nearest float.  Bytes are
    strict UTF-8, as log replay reads them, so what a receiver accepts
    its logs read back.  ``protocol.encode_line`` writes, before its
    newline, what ``json.loads`` reads back as
    ``json.loads(json.dumps(x))``, or raises ``TypeError`` for what the
    value domain excludes."""

    @given(
        _documents()
        | _mutated_frame_bodies()
        | st.binary(max_size=24)
        | st.text(max_size=24)
    )
    @example(b'{"a":1}')
    @example('{"a":1}')
    @example(" [1, 2]\n")
    @example('{"a":1}{"b":2}')  # Extra data
    @example("[NaN,Infinity,-Infinity]")
    @example(b"\xef\xbb\xbf[1]")  # UTF-8 BOM: refused as bytes ...
    @example("\ufeff[1]")  # ... and as text
    @example("[1]".encode("utf-16"))
    @example(b"1\x00")
    @example('"\ud800"')  # lone surrogate, as text and as bytes
    @example(b'"\xed\xa0\x80"')
    @example(b'"\xff"')
    @example('{"a":')
    @example("")
    @example("9" * 5000)  # past the interpreter's int-digits limit
    @example("[18446744073709551616,-9223372036854775809]")  # past 64 bits
    def test_loads_is_json_loads(self, doc):
        ours = _outcome(loads, doc)
        if ours != _outcome(_json_loads_utf8, doc):  # the documented residual
            assert ours == _outcome(
                lambda doc: _wide_ints_as_floats(_json_loads_utf8(doc)), doc
            )

    @pytest.mark.parametrize(
        "doc", [bytearray(b"[1]"), memoryview(b"[1]"), None, 7, [1]]
    )
    def test_loads_of_non_text_is_json_loads(self, doc):
        assert _outcome(loads, doc) == _outcome(json.loads, doc)

    @given(_JSON_VALUES)
    @example({"ключ": {"nested": [1.5, float("nan"), "é", "\ud800"]}})
    @example({"ключ": {"nested": [1.5, float("nan"), "é", None]}})
    @example({"overflowed": float("inf"), "unset": None})
    @example({1: "int key", None: "none key", 2.5: True})
    @example([2**64, -(2**63) - 1])
    def test_encode_line_is_compact_json_dumps(self, obj):
        if not _encodable(obj):
            with pytest.raises(TypeError):
                _line_text(obj)
            return
        assert _outcome(json.loads, _line_text(obj)) == _outcome(
            json.loads, json.dumps(obj)
        )

    @pytest.mark.parametrize(
        "obj", [object(), {1, 2}, b"bytes", {"k": object()}, {(1,): 2}]
    )
    def test_unserialisable_is_a_type_error_from_both(self, obj):
        with pytest.raises(TypeError):
            _line_text(obj)
        with pytest.raises(TypeError):
            json.dumps(obj, separators=(",", ":"))


#: the value domain: 64-bit ints, finite floats.
_INTS = st.integers(-(2**63), 2**64 - 1)
_FLOATS = st.floats(allow_nan=False, allow_infinity=False)

#: what survives JSON unchanged, so that ``==`` can judge a round trip.
_STABLE_VALUES = st.recursive(
    st.none() | st.booleans() | _INTS | _FLOATS | st.text(),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(), inner, max_size=3),
    max_leaves=8,
)
_AMOUNTS = _INTS | _FLOATS
_KEYS = st.text()  # any text: non-ASCII, empty, quotes, control characters


def _representable(op):
    """Inside the value domain: 64-bit ints, finite floats, and a
    divisor that is not zero."""
    def inside(value):
        if type(value) is int:
            return -(2**63) <= value < 2**64
        if type(value) is float:
            return math.isfinite(value)
        if isinstance(value, (list, tuple)):
            return all(map(inside, value))
        if isinstance(value, dict):
            return all(map(inside, value.values()))
        return True

    divides_by_zero = type(op) is DivideOp and op.amount == 0
    arguments = [getattr(op, f.name) for f in dataclasses.fields(op)]
    return inside(arguments) and not divides_by_zero


def _operations():
    arithmetic = st.sampled_from(
        [IncrementOp, DecrementOp, MultiplyOp, DivideOp]
    )
    return st.one_of(
        st.builds(ReadOp, _KEYS),
        st.builds(WriteOp, _KEYS, _STABLE_VALUES),
        st.builds(AppendOp, _KEYS, _STABLE_VALUES),
        st.builds(
            lambda cls, key, amount: cls(key, amount),
            arithmetic, _KEYS, _AMOUNTS,
        ).filter(_representable),
        st.builds(
            TimestampedWriteOp,
            _KEYS,
            _STABLE_VALUES,
            st.tuples(
                st.integers(0, 2**64 - 1), st.text(min_size=1, max_size=5)
            ),
        ),
    )


_MSETS = st.builds(
    MSet,
    tid=st.text(min_size=1, max_size=12),
    kind=st.sampled_from(["update", "commit", "abort"]),
    ops=st.lists(_operations(), max_size=4).map(tuple),
    origin=st.text(max_size=8),
    order=st.none() | st.lists(_INTS, max_size=2).map(tuple),
    txn_number=st.none() | _INTS,
    info=st.lists(
        st.tuples(st.text(max_size=8), _STABLE_VALUES), max_size=2
    ).map(tuple),
)

#: arrays shaped almost like operations: a real tag (or not), then
#: anything, at any length.
_NEAR_OPERATIONS = st.lists(_JSON_VALUES, max_size=3).flatmap(
    lambda rest: st.sampled_from(
        ["read", "write", "inc", "dec", "mul", "div", "append", "tswrite", "t"]
    ).map(lambda tag: [tag, *rest])
)


class TestPositionalCodecProperties:
    """The operation and MSet codecs over generated values, through the
    real JSON text: what is encoded inside the value domain comes back
    equal, what is outside it is refused at the sender, and what is not
    an encoding is a ``ProtocolError`` — never anything else."""

    @given(_operations())
    @example(IncrementOp("ключ\u00e9", -0.0))
    @example(WriteOp("", {"": [[], {}]}))
    @example(WriteOp("k", {"v": [float("nan")]}))  # refused: not finite
    @example(IncrementOp("k", 2**64))  # refused: past 64 bits
    @example(DivideOp("k", 0))  # refused: fails at apply, after logging
    def test_operation_round_trips_through_json(self, op):
        if not _representable(op):
            with pytest.raises((ProtocolError, TypeError)):
                _line_text(encode_op(op))
            return
        assert decode_op(loads(_line_text(encode_op(op)))) == op

    @given(_MSETS)
    def test_mset_round_trips_through_json(self, mset):
        blob = payload_blob({"mset": encode_mset(mset)})
        assert decode_mset(loads(blob)["mset"]) == mset

    @given(_JSON_VALUES | _NEAR_OPERATIONS)
    @example([])
    @example(["inc"])
    @example(["inc", "k", 1, 2, 3])
    @example({"t": "inc", "key": "k", "amount": 1})
    @example(["inc", "k", True])
    @example(["inc", "k", "1"])
    @example(["inc", "k", float("nan")])
    @example(["inc", "k", float("inf")])
    @example(["div", "k", -0.0])
    @example(["append", "k", [1, float("-inf")]])
    @example(["inc", 7, 1])
    @example([["inc"], "k", 1])
    @example([{"inc": 1}, "k", 1])
    @example(["tswrite", "k", 1, [1]])
    def test_decode_op_is_total(self, value):
        # Through the text: what a peer or a log line can really carry.
        value = loads(json.dumps(value))
        try:
            op = decode_op(value)
        except ProtocolError:
            return
        assert encode_op(op) == value  # it decoded: it was an encoding

    @given(
        _JSON_VALUES
        | st.dictionaries(
            st.sampled_from(
                ["tid", "ops", "origin", "kind", "order", "txn", "info"]
            ),
            _JSON_VALUES | st.lists(_NEAR_OPERATIONS, max_size=2),
            max_size=7,
        )
    )
    def test_decode_mset_is_total(self, value):
        try:
            mset = decode_mset(loads(json.dumps(value)))
        except ProtocolError:
            return
        assert isinstance(mset, MSet)


# -- the shape-driven decoder ``decode_op`` replaced, kept verbatim as
# the reference its per-tag table must agree with.

_REFERENCE_SHAPES = {
    "read": (ReadOp, 2, False), "tswrite": (TimestampedWriteOp, 4, False),
    "write": (WriteOp, 3, False), "append": (AppendOp, 3, False),
    "inc": (IncrementOp, 3, True), "dec": (DecrementOp, 3, True),
    "mul": (MultiplyOp, 3, True), "div": (DivideOp, 3, True),
}


def _reference_finite(obj):
    todo = [obj]
    while todo:
        item = todo.pop()
        if isinstance(item, dict):
            todo.extend(item.values())
        elif isinstance(item, (list, tuple)):
            todo.extend(item)
        elif type(item) is float and not math.isfinite(item):
            return False
    return True


def _reference_check_arguments(data):
    if not _reference_finite(data):
        raise ProtocolError("non-finite number in operation %r" % (data,))
    if data[0] == "div" and data[2] == 0:
        raise ProtocolError("division by zero on %r" % (data[1],))


def _reference_decode_op(data):
    if not isinstance(data, list):
        raise ProtocolError("operation must be an array: %r" % (data,))
    tag = data[0] if data else None
    shape = _REFERENCE_SHAPES.get(tag) if isinstance(tag, str) else None
    if shape is None:
        raise ProtocolError("unknown operation tag %r" % (tag,))
    cls, arity, numeric = shape
    if len(data) != arity:
        raise ProtocolError(
            "%s operation must be an array of %d: %r" % (tag, arity, data)
        )
    key = data[1]
    if not isinstance(key, str):
        raise ProtocolError("operation without a key: %r" % (data,))
    if arity == 2:
        return cls(key)
    arg = data[2]
    if numeric and type(arg) is not int and type(arg) is not float:
        raise ProtocolError("non-numeric operation amount %r" % (arg,))
    if type(arg) is not int or not arg or arity > 3:
        _reference_check_arguments(data)
    if arity == 3:
        return cls(key, arg)
    ts = data[3]
    if (
        not isinstance(ts, (list, tuple))
        or len(ts) != 2
        or type(ts[0]) is not int
        or type(ts[1]) is not str
        or not ts[1]
    ):
        raise ProtocolError(
            "tswrite ts must be a [time, site] pair: %r" % (ts,)
        )
    return cls(key, arg, tuple(ts))


#: operation arguments as a decoder can meet them: numbers at and past
#: every edge (zero, negative zero, NaN, infinity, 64 bits, bools),
#: strings that look like numbers, and arbitrary JSON.
_ARGUMENTS = (
    st.sampled_from(
        [0, -0.0, 0.0, 1, -1, 2**64, True, False, None, "1", "NaN",
         float("nan"), float("inf"), float("-inf"), [], [1, 2], ["t", 1]]
    )
    | st.integers()
    | st.floats()
    | _JSON_VALUES
)

#: arrays shaped like operations, any tag (real or not), any key, any
#: number of any arguments.
_OPERATION_SHAPED = st.builds(
    lambda tag, key, args: [tag, key, *args],
    st.sampled_from(
        ["read", "write", "inc", "dec", "mul", "div", "append", "tswrite"]
    ) | _JSON_VALUES,
    _KEYS | _JSON_VALUES,
    st.lists(_ARGUMENTS, max_size=3),
)


class TestDecodeOpParity:
    """The per-tag table decoder refuses exactly what the shape-driven
    one did, with the same message, and builds equal operations."""

    @given(_OPERATION_SHAPED | _JSON_VALUES | st.lists(_ARGUMENTS, max_size=5))
    @example([])
    @example([None])
    @example([["inc"], "k", 1])
    @example([{"inc": 1}, "k", 1])
    @example(["div", "k", 0])
    @example(["div", "k", -0.0])
    @example(["div", "k", False])
    @example(["inc", "k", True])
    @example(["mul", "k", "2"])
    @example(["dec", 7, 1])
    @example(["inc", "k", 1, 2])
    @example(["tswrite", "k", 1, [1, "s", 2]])
    @example(["tswrite", "k", float("nan"), [1, "s"]])
    @example(["tswrite", "k", 1, [float("inf"), "s"]])
    @example(["write", "k", {"v": [float("nan")]}])
    @example(["read", "k", 1])
    def test_table_decoder_matches_the_reference(self, value):
        new = _outcome(decode_op, value)
        assert new == _outcome(_reference_decode_op, value)
        if new[0] == "returned":
            op = decode_op(value)
            assert op == _reference_decode_op(value)
            assert type(op) is type(_reference_decode_op(value))
        else:
            assert new[1] is ProtocolError


class _Sink:
    """The part of a transport a :class:`FrameWriter` uses."""

    def __init__(self):
        self.closing = False
        self.chunks = []

    def is_closing(self):
        return self.closing

    def write(self, data):
        self.chunks.append(data)


class TestFrameWriter:
    """One transport write per connection per loop turn."""

    def test_one_turn_is_one_write_in_call_order(self):
        """A JSON reply, a raw binary ack and a heartbeat reply written
        in one turn leave as one transport write, in the order written."""
        reply = {"type": "response", "id": 1, "ok": True}
        hb_ack = {"type": "hb-ack", "src": "s0", "seq": 9}

        async def scenario():
            sink = _Sink()
            frames = FrameWriter(sink)
            frames.send(reply)
            frames.write(encode_bin_ack_frame(9))
            frames.send(hb_ack)
            frames.write(encode_bin_ack_frame(10))
            assert sink.chunks == []  # nothing before the turn ends
            await asyncio.sleep(0)
            assert len(sink.chunks) == 1
            return sink.chunks[0]

        assert decode_stream(asyncio.run(scenario())) == [
            reply,
            {"type": "ack", "seq": 9},
            hb_ack,
            {"type": "ack", "seq": 10},
        ]

    def test_two_turns_are_two_writes(self):
        async def scenario():
            sink = _Sink()
            frames = FrameWriter(sink)
            frames.send({"i": 0})
            frames.send({"i": 1})
            await asyncio.sleep(0)
            frames.send({"i": 2})
            await asyncio.sleep(0)
            await asyncio.sleep(0)  # an idle turn writes nothing
            return sink.chunks

        assert asyncio.run(scenario()) == [
            encode_frame({"i": 0}) + encode_frame({"i": 1}),
            encode_frame({"i": 2}),
        ]

    def test_encodes_through_the_module_level_encode_frame(
        self, monkeypatch
    ):
        """The benchmark's tracer swaps ``protocol.encode_frame`` by
        name: the writer must look it up at call time."""
        import repro.live.protocol as protocol

        seen = []
        real = protocol.encode_frame
        monkeypatch.setattr(
            protocol, "encode_frame", lambda obj: (seen.append(obj), real(obj))[1]
        )

        async def scenario():
            frames = FrameWriter(_Sink())
            frames.send({"i": 0})
            await asyncio.sleep(0)

        asyncio.run(scenario())
        assert seen == [{"i": 0}]

    def test_a_transport_that_died_before_the_flush_fails_its_waiters(self):
        """Exactly the frames the lost buffer carried fail — not the
        ones already written, not the ones written after."""

        async def scenario():
            loop = asyncio.get_running_loop()
            sink = _Sink()
            frames = FrameWriter(sink)
            before, lost_a, lost_b, after = (
                loop.create_future() for _ in range(4)
            )
            frames.send({"i": 0}, before)
            await asyncio.sleep(0)
            frames.send({"i": 1}, lost_a)
            frames.send({"i": 2})  # a frame nobody waits on
            frames.send({"i": 3}, lost_b)
            sink.closing = True  # dies inside the turn
            await asyncio.sleep(0)
            sink.closing = False
            frames.send({"i": 4}, after)
            await asyncio.sleep(0)
            assert not before.done() and not after.done()
            for lost in (lost_a, lost_b):
                assert isinstance(lost.exception(), ConnectionResetError)
            return sink.chunks

        assert asyncio.run(scenario()) == [
            encode_frame({"i": 0}), encode_frame({"i": 4}),
        ]

    def test_a_write_that_raises_fails_its_waiters(self):
        async def scenario():
            loop = asyncio.get_running_loop()
            sink = _Sink()

            def broken(data):
                raise BrokenPipeError("boom mid-send")

            sink.write = broken
            frames = FrameWriter(sink)
            waiter = loop.create_future()
            done = loop.create_future()
            done.set_result("answered already")
            frames.send({"i": 0}, waiter)
            frames.send({"i": 1}, done)
            await asyncio.sleep(0)
            assert isinstance(waiter.exception(), BrokenPipeError)
            assert done.result() == "answered already"

        asyncio.run(scenario())

    def test_drain_returns_at_once_unless_paused(self):
        async def scenario():
            frames = FrameWriter(_Sink())
            frames.send({"i": 0})
            await frames.drain()  # never paused: no wait at all
            frames.pause()
            frames.resume()
            await frames.drain()

        asyncio.run(scenario())

    def test_paused_producers_wait_together_and_one_may_leave(self):
        """Any number of producers park on a paused writer; one that is
        cancelled leaves the rest parked, and a resume releases them
        all."""

        async def scenario():
            frames = FrameWriter(_Sink())
            frames.pause()
            done = []

            async def producer(i):
                frames.write(b"%d" % i)
                await frames.drain()
                done.append(i)

            tasks = [asyncio.ensure_future(producer(i)) for i in range(8)]
            await asyncio.sleep(0.01)
            assert done == []
            tasks[3].cancel()
            await asyncio.sleep(0.01)
            assert done == [] and tasks[3].cancelled()
            frames.resume()
            await asyncio.wait_for(
                asyncio.gather(*tasks, return_exceptions=True), timeout=5
            )
            assert sorted(done) == [0, 1, 2, 4, 5, 6, 7]

        asyncio.run(scenario())


# -- the receive decoder before it became one loop (a closure call per
# operation, a ``data.get`` per field), kept as the reference the
# one-pass decoder must agree with.

def _parent_with_argument(cls, numeric):
    def decode(data):
        if len(data) != 3:
            raise _wrong_arity(data, 3)
        _, key, arg = data
        if not isinstance(key, str):
            raise _keyless(data)
        if numeric and type(arg) is not int and type(arg) is not float:
            raise ProtocolError("non-numeric operation amount %r" % (arg,))
        if type(arg) is not int or not arg:
            _reference_check_arguments(data)
        return cls(key, arg)
    return decode


def _decode_read(data):
    if len(data) != 2:
        raise _wrong_arity(data, 2)
    key = data[1]
    if not isinstance(key, str):
        raise _keyless(data)
    return ReadOp(key)


def _decode_tswrite(data):
    if len(data) != 4:
        raise _wrong_arity(data, 4)
    _, key, value, ts = data
    if not isinstance(key, str):
        raise _keyless(data)
    _reference_check_arguments(data)
    if (
        not isinstance(ts, (list, tuple))
        or len(ts) != 2
        or type(ts[0]) is not int
        or type(ts[1]) is not str
        or not ts[1]
    ):
        raise ProtocolError(
            "tswrite ts must be a [time, site] pair: %r" % (ts,)
        )
    return TimestampedWriteOp(key, value, tuple(ts))


_PARENT_DECODERS = {
    "read": _decode_read, "tswrite": _decode_tswrite,
    **{tag: _parent_with_argument(cls, numeric)
       for tag, (cls, arity, numeric) in _REFERENCE_SHAPES.items()
       if arity == 3},
}


def _parent_decode_op(data):
    if not isinstance(data, list):
        raise ProtocolError("operation must be an array: %r" % (data,))
    try:
        decode = _PARENT_DECODERS[data[0]]
    except (IndexError, KeyError, TypeError):
        tag = data[0] if data else None
        raise ProtocolError("unknown operation tag %r" % (tag,)) from None
    return decode(data)


def _parent_decode_ops(data):
    if not isinstance(data, (list, tuple)):
        raise ProtocolError("ops must be a sequence: %r" % (data,))
    return tuple([_parent_decode_op(d) for d in data])


def _parent_decode_mset(data):
    if not isinstance(data, dict):
        raise ProtocolError("mset must be an object: %r" % (data,))
    kind = data.get("kind", "update")
    if not isinstance(kind, str):
        raise ProtocolError("mset kind must be a string: %r" % (kind,))
    origin = data.get("origin", "")
    if not isinstance(origin, str):
        raise ProtocolError("mset origin must be a string: %r" % (origin,))
    order = data.get("order")
    if order is not None:
        if not isinstance(order, (list, tuple)):
            raise ProtocolError("mset order must be a sequence: %r" % (order,))
        order = tuple(order)
    raw_info = data.get("info", ())
    if not isinstance(raw_info, (list, tuple)):
        raise ProtocolError("mset info must be a sequence: %r" % (raw_info,))
    info = []
    for pair in raw_info:
        if not isinstance(pair, (list, tuple)) or len(pair) != 2:
            raise ProtocolError("malformed mset info pair: %r" % (pair,))
        info.append((pair[0], pair[1]))
    return MSet(data.get("tid"), kind, _parent_decode_ops(data.get("ops", ())),
                origin, order, data.get("txn"), tuple(info))


_MSET_FIELDS = ["tid", "ops", "origin", "kind", "order", "txn", "info"]

#: what a field of a hostile MSet can hold: anything JSON, numbers past
#: every edge, operation-shaped arrays of any arity and tag (empty,
#: unknown, unhashable), pair-shaped and odd-shaped ``info`` entries.
_FIELD_JUNK = (
    _ARGUMENTS
    | st.lists(_OPERATION_SHAPED | _NEAR_OPERATIONS | _ARGUMENTS, max_size=3)
    | st.lists(st.lists(_JSON_VALUES, max_size=3), max_size=3)
)


@st.composite
def _mset_encodings(draw):
    """A real MSet's encoding, through the JSON text, with up to two
    fields dropped or replaced by junk."""
    data = loads(payload_blob({"mset": encode_mset(draw(_MSETS))}))["mset"]
    for _ in range(draw(st.integers(0, 2))):
        field = draw(st.sampled_from(_MSET_FIELDS))
        if draw(st.booleans()):
            data[field] = draw(_FIELD_JUNK)
        else:
            data.pop(field, None)
    return data


class TestOnePassDecoderParity:
    """``decode_ops`` and ``decode_mset`` in one pass accept exactly
    what the per-call decoders did — equal MSets, the same operation
    types and keys — and refuse the rest with the same message."""

    @given(
        st.lists(_OPERATION_SHAPED | _NEAR_OPERATIONS | _ARGUMENTS, max_size=4)
        | _JSON_VALUES
    )
    @example([["inc", "k", 1], ["read", "k"], ["tswrite", "k", 1, [1, "s"]]])
    @example([["inc", "k", 1], []])
    @example([["inc", "k", 1], [[1], "k", 1]])
    @example([["inc", "k", True]])
    @example([["inc", "k", float("nan")]])
    @example([["div", "k", 0]])
    @example([["tswrite", "k", 1, "ts"]])
    @example((["write", "k", "v"],))
    @example("ops")
    def test_decode_ops_matches_the_parent(self, value):
        assert _outcome(decode_ops, value) == _outcome(
            _parent_decode_ops, value
        )

    @given(
        _mset_encodings()
        | st.dictionaries(st.sampled_from(_MSET_FIELDS), _FIELD_JUNK)
        | _JSON_VALUES
    )
    @example({"tid": "t", "ops": [["inc", "k", 1]], "origin": "s"})
    @example({"tid": "t", "ops": [["inc", "k", 1], ["inc", "k", 2]]})
    @example({"tid": "t", "ops": "nope"})
    @example({"tid": "t", "info": None})
    @example({"tid": "t", "info": [["a", 1], ["b"]]})
    @example({"tid": "t", "info": {}})
    @example({"tid": "t", "order": None, "kind": "commit"})
    @example({"tid": "t", "order": 3})
    @example({"tid": ["t"], "kind": 1})
    @example({"origin": None})
    @example({"tid": "t", "ops": [["inc", "k", 1]], "origin": 7})
    @example({"tid": "t", "ops": [["inc", "k", 1]], "kind": "commit"})
    @example({"tid": "t", "ops": {"inc": "k"}, "origin": "s"})
    def test_decode_mset_matches_the_parent(self, value):
        ours = _outcome(decode_mset, value)
        assert ours == _outcome(_parent_decode_mset, value)
        if ours[0] == "returned":
            mset, parent = decode_mset(value), _parent_decode_mset(value)
            assert mset.keys == parent.keys
            assert list(map(type, mset.ops)) == list(map(type, parent.ops))
        else:
            assert ours[1] is ProtocolError

    def test_one_operation_keys(self):
        assert MSet("t", ops=(IncrementOp("k", 1),)).keys == ("k",)
        assert MSet("t", ops=(
            IncrementOp("b", 1), WriteOp("a", 2), IncrementOp("b", 3),
        )).keys == ("b", "a")
        assert MSet("t").keys == ()


# -- the forms a COMMU receiver applies: checked wire arrays instead of
# operations, ``(tid, ops)`` instead of an MSet -- held to the decoders
# they stand in for.

def _refusal(check, value):
    """The ``ProtocolError`` text ``check(value)`` raised, or None when
    it accepted ``value``."""
    try:
        check(value)
    except ProtocolError as exc:
        return str(exc)
    return None


def _remote(method, payload):
    """The entry ``method``'s receiver makes of ``payload``, as the
    record site1 logged as seq 7."""
    return ENGINES[method]("site0").decode_remote("site1", 7, [payload])[0]


def _commu_remote(payload):
    return _remote("commu", payload)


#: what a log from before the array form holds for the plain update
#: site1 logged as seq 7 with the operations ``ops``.
def _parents_plain_entry(ops):
    return {"tid": "site1:7", "ops": ops, "origin": "site1"}


class TestCheckPassParity:
    """The check pass refuses exactly what the parent's one-pass decoder
    refused, with the same message, and ``decode_ops`` builds what it
    built; a receiver refuses exactly what ``decode_mset`` refuses —
    of an array payload, what it refused of the entry a log from
    before the array form holds for it — and keeps the same update."""

    @given(
        st.lists(_OPERATION_SHAPED | _NEAR_OPERATIONS | _ARGUMENTS, max_size=4)
        | _JSON_VALUES
    )
    @example([["inc", "k", 1], ["read", "k"], ["tswrite", "k", 1, [1, "s"]]])
    @example([["div", "k", 0]])
    @example([["div", "k", -0.0]])
    @example([["inc", "k", float("nan")]])
    @example([["inc", "k", 1], ["mul", "k", float("nan")]])
    @example([["write", "k", [1, float("inf")]]])
    @example([["tswrite", "k", float("nan"), [1, "s"]]])
    @example([["tswrite", "k", 1, [1, ""]]])
    @example([["inc", "k", True]])
    @example([["inc", 7, 1]])
    @example([[]])
    @example("ops")
    def test_check_ops_refuses_what_the_parent_refused(self, value):
        ours = _refusal(check_ops, value)
        assert ours == _refusal(_parent_decode_ops, value)
        assert ours == _refusal(decode_ops, value)
        if ours is None:
            assert check_ops(value) is value
            built, parent = decode_ops(value), _parent_decode_ops(value)
            assert built == parent
            assert list(map(type, built)) == list(map(type, parent))

    @given(
        _mset_encodings()
        | st.dictionaries(st.sampled_from(_MSET_FIELDS), _FIELD_JUNK)
        | _JSON_VALUES
    )
    @example({"tid": "t", "ops": [["inc", "k", 1]], "origin": "s"})
    @example({"tid": "t", "ops": [["div", "k", 0]], "origin": "s"})
    @example({"tid": "t", "ops": [["inc", "k", float("nan")]], "origin": "s"})
    @example({"tid": "t", "ops": [["inc", "k", 1], []], "origin": "s"})
    @example({"tid": "t", "ops": "nope", "origin": "s"})
    @example({"tid": "t", "ops": [["inc", "k", 1]], "origin": 7})
    @example({"tid": "t", "ops": [["div", "k", 0]], "kind": "commit"})
    @example({"ops": [["inc", "k", 1]], "origin": "s", "txn": 1})
    def test_an_object_payload_is_refused_as_decode_mset_refuses(
        self, value
    ):
        """An object payload is an MSet's: every receiver decodes it
        into its MSet — a plain one a log from before the array form
        holds included — or refuses what ``decode_mset`` refuses."""
        for method in ("commu", "ritu"):
            ours = _refusal(lambda v: _remote(method, {"mset": v}), value)
            assert ours == _refusal(_parent_decode_mset, value)
            assert ours == _refusal(decode_mset, value)
            if ours is None:
                entry = _remote(method, {"mset": value})
                assert entry == _parent_decode_mset(value)

    @given(
        st.lists(_OPERATION_SHAPED | _NEAR_OPERATIONS | _ARGUMENTS, max_size=4)
    )
    @example([["inc", "k", 1]])
    @example([["div", "k", 0]])
    @example([["inc", "k", float("nan")]])
    @example([["inc", "k", 1], []])
    @example([["inc", "k", "1"]])
    @example([["inc", "k"]])
    @example([["nope", "k", 1]])
    @example([])
    def test_an_array_payload_is_refused_as_the_parents_entry_was(
        self, value
    ):
        """An array payload is a plain update's operations: COMMU keeps
        them as ``(tid, ops)``, the tid from the record's origin and
        seq, any other method builds the MSet — the parent's entry for
        it, either way — or both refuse what the parent refused of
        that entry, with the same message."""
        value = loads(json.dumps(value))
        parent = _refusal(_parent_decode_mset, _parents_plain_entry(value))
        for method in ("commu", "ritu"):
            assert _refusal(lambda v: _remote(method, v), value) == parent
        if parent is None:
            tid, arrays = _commu_remote(value)
            assert tid == "site1:7" and arrays is value
            mset = _parent_decode_mset(_parents_plain_entry(value))
            assert MSet(tid, ops=decode_ops(arrays), origin="site1") == mset
            assert _remote("ritu", value) == mset

    @given(_JSON_VALUES.filter(lambda v: type(v) not in (list, dict)))
    @example(1)
    @example("x")
    @example(None)
    def test_a_payload_neither_array_nor_object_is_refused(self, value):
        for method in ("commu", "ritu"):
            assert _refusal(lambda v: _remote(method, v), value) == (
                "payload must be an array or an object: %r" % (value,)
            )


_APPLY_KEYS = st.sampled_from(["a", "b", "c"])
_APPLY_AMOUNTS = (
    st.integers(-3, 3) | st.floats(-3, 3) | st.sampled_from([2**62, 0.5])
)
_APPLY_VALUES = st.integers(0, 3) | st.text(max_size=2) | st.lists(
    st.integers(0, 3), max_size=2
)

#: checked arrays of every tag on a few keys, as a peer's blob holds them.
_ARRAYS = st.one_of(
    st.tuples(st.sampled_from(["inc", "dec", "mul"]), _APPLY_KEYS, _APPLY_AMOUNTS),
    st.tuples(st.just("div"), _APPLY_KEYS, _APPLY_AMOUNTS.filter(bool)),
    st.tuples(st.sampled_from(["write", "append"]), _APPLY_KEYS, _APPLY_VALUES),
    st.tuples(st.just("read"), _APPLY_KEYS),
    st.tuples(
        st.just("tswrite"), _APPLY_KEYS, _APPLY_VALUES,
        st.tuples(st.integers(0, 3), st.sampled_from(["s1", "s2"])),
    ),
).map(lambda array: loads(json.dumps(array)))

#: what a key can hold before the batch: nothing, a number, text, a
#: list, an append tuple.
_START = st.dictionaries(
    _APPLY_KEYS,
    st.integers(-3, 3) | st.floats(-3, 3) | st.text(max_size=2)
    | st.lists(st.integers(0, 3), max_size=2)
    | st.tuples(st.integers(0, 3)),
)


def _store_outcome(store, ops):
    """What applying ``ops`` returned or raised (its class), and the
    store it left (``repr``: NaN equals itself)."""
    try:
        outcome = "returned", repr(store.apply_many(ops))
    except Exception as exc:  # the comparison is the point
        outcome = "raised", type(exc)
    contents = sorted(
        (key, repr(store.get(key)), store.stamp_of(key))
        for key in store.keys()
    )
    return outcome, contents


class TestArrayApplyParity:
    """``apply_many`` of checked arrays is ``apply_many`` of the
    operations ``decode_ops`` builds from them, failure included; and a
    COMMU batch of array payloads (``decode_remote``'s pairs) applies
    as the MSets of the entries a log from before the array form holds
    for them."""

    @given(start=_START, arrays=st.lists(_ARRAYS, min_size=1, max_size=8))
    @example(start={}, arrays=[["inc", "a", 1], ["inc", "a", 2]])
    @example(
        start={"a": 1},
        arrays=[["inc", "a", 1], ["write", "b", "x"], ["dec", "b", 1],
                ["inc", "a", 5]],
    )
    @example(start={"a": "x"}, arrays=[["inc", "b", 1], ["dec", "a", 1]])
    @example(start={"a": [1]}, arrays=[["append", "a", 2]])
    @example(start={"a": (1,)}, arrays=[["append", "a", [2]], ["inc", "a", 1]])
    @example(start={"a": 1.5}, arrays=[["dec", "a", 2**62], ["mul", "a", 0.5]])
    def test_arrays_apply_as_their_operations(self, start, arrays):
        check_ops(arrays)
        want = _store_outcome(KeyValueStore(start), decode_ops(arrays))
        assert _store_outcome(KeyValueStore(start), arrays) == want

    @pytest.mark.parametrize("method", ["commu", "rowa"])
    @given(
        start=_START,
        batch=st.lists(
            st.lists(_ARRAYS, min_size=1, max_size=3), min_size=1, max_size=6
        ),
        watched=st.booleans(),
    )
    @example(
        start={}, watched=True,
        batch=[[["inc", "a", 1]], [["write", "a", "x"]], [["inc", "a", 1]],
               [["inc", "b", 1]]],
    )
    def test_a_batch_of_arrays_applies_as_its_msets(
        self, method, start, batch, watched
    ):
        entries = [
            {"tid": "site1:%d" % seq, "ops": ops, "origin": "site1"}
            for seq, ops in enumerate(batch, 3)
        ]
        engines = []
        for form in ("arrays", "msets"):
            engine = ENGINES[method]("site0", clock=lambda: 1.0)
            for key, value in start.items():
                engine.store.put(key, value)
            if watched:
                engine._query_starts[form] = 0.0
            if form == "arrays":
                decoded = engine.decode_remote("site1", 3, batch)
                assert all(type(entry) is tuple for entry in decoded)
            else:
                decoded = [decode_mset(entry) for entry in entries]
            try:
                engine.accept_batch(decoded, local=False)
                raised = None
            except Exception as exc:  # the comparison is the point
                raised = type(exc)
            engines.append((engine, raised))
        (ours, raised), (theirs, expected) = engines
        assert raised is expected
        assert ours.applied_count == theirs.applied_count
        assert _store_outcome(ours.store, ()) == _store_outcome(theirs.store, ())
        assert {k: list(v) for k, v in ours.state.applied.items()} == {
            k: list(v) for k, v in theirs.state.applied.items()
        }
        assert repr(ours._drift) == repr(theirs._drift)
        assert ours._pins == theirs._pins


@st.composite
def _hostile_blobs(draw):
    """A payload blob as a hostile or broken peer might send it: a real
    MSet's or plain update's, or a stdlib encoding of arbitrary values
    (wide integers, ``NaN``) in either form or neither, then
    BOM-prefixed, re-encoded as UTF-16/32, padded or split by
    whitespace, or with bytes flipped."""
    form = draw(st.sampled_from(["mset", "plain", "junk mset", "junk"]))
    if form == "mset":
        blob = payload_blob({"mset": encode_mset(draw(_MSETS))})
    elif form == "plain":
        blob = plain_update_blob(encode_ops(draw(_MSETS).ops))
    else:
        junk = draw(_FIELD_JUNK | _JSON_VALUES)
        if form == "junk mset":
            junk = {"mset": draw(st.dictionaries(
                st.sampled_from(_MSET_FIELDS), _FIELD_JUNK | _JSON_VALUES
            ))}
        blob = json.dumps(
            junk, ensure_ascii=draw(st.booleans())
        ).encode("utf-8")
    variant = draw(st.sampled_from(
        ["as is", "bom", "utf-16", "utf-32", "whitespace", "mutated"]
    ))
    if variant == "bom":
        blob = b"\xef\xbb\xbf" + blob
    elif variant in ("utf-16", "utf-32"):
        blob = blob.decode("utf-8").encode(variant)
    elif variant == "whitespace":
        for _ in range(draw(st.integers(1, 3))):
            at = draw(st.integers(0, len(blob)))
            space = draw(st.sampled_from([b" ", b"\t", b"\r", b"\n"]))
            blob = blob[:at] + space + blob[at:]
    elif variant == "mutated":
        data = bytearray(blob)
        for _ in range(draw(st.integers(1, 3))):
            data[draw(st.integers(0, len(data) - 1))] = draw(
                st.integers(0, 255)
            )
        blob = bytes(data)
    return blob


_json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-(2**63), 2**63 - 1)
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(), inner, max_size=3),
    max_leaves=8,
)


class TestPlainUpdateBlob:
    """A plain update's blob is the encoding of its arrays alone, at its
    exact size, and reads back — under the origin and seq of the record
    it is — as the entry a log from before the array form holds for it,
    whatever the site's name; its ok reply is spliced around its id and
    tid."""

    @given(
        st.text(),
        st.integers(1, 2**63 - 1),
        st.lists(
            st.tuples(
                st.sampled_from(["inc", "dec", "write", "append"]),
                st.text(),
                _json_values,
            ).map(list),
            min_size=1,
            max_size=4,
        ),
    )
    @example("site0", 1, [["inc", "k", 1]])
    @example('s"\\\x00\x1f\x7f\u2028é😀', 7, [["append", "é", {"v": [1.5]}]])
    def test_the_blob_reads_back_as_the_parents_entry(self, name, seq, ops):
        blob = plain_update_blob(ops)
        assert type(blob) is bytes
        assert blob == payload_blob(ops) == encode_line(ops)[:-1]
        parent = {
            "mset": {"tid": "%s:%d" % (name, seq), "ops": ops, "origin": name}
        }

        def read(payload, pairs):
            return decode_payloads(name, seq, [payload], pairs)[0]

        for pairs in (False, True):
            ours, theirs = (
                _outcome(lambda p: read(p, pairs), loads(doc))
                for doc in (blob, payload_blob(parent))
            )
            if pairs and ours[0] == "returned":
                tid, arrays = read(loads(blob), pairs)
                assert tid == "%s:%d" % (name, seq) and arrays == ops
                ours = _outcome(
                    lambda _: MSet(tid, ops=decode_ops(arrays), origin=name),
                    None,
                )
            assert ours == theirs

    @given(
        st.text(),
        st.integers(1, 2**63 - 1),
        st.integers(-(2**64), 2**65) | st.booleans() | st.floats()
        | st.text(max_size=3) | st.none(),
    )
    @example("site0", 1, 7)
    @example('s"\\\x00\x1f\x7f\u2028é😀', 7, 2**64 - 1)
    @example("site0", 3, -(2**63))
    @example("site0", 3, 2**64)
    @example("site0", 3, -(2**63) - 1)
    @example("site0", 3, True)
    def test_the_reply_splice_is_the_replys_frame(self, name, seq, rid):
        """A plain update's ok reply is spliced around its id and tid:
        byte for byte the :func:`encode_frame` of the reply, whatever
        the site's name; an id that frame would not carry as that
        integer raises instead, and the reply takes the dict path."""
        reply = {
            "type": "response", "id": rid, "ok": True,
            "tid": "%s:%d" % (name, seq), "values": {},
        }
        if type(rid) is int and -(2**63) <= rid < 2**64:
            assert plain_reply_frame(rid, name, seq) == encode_frame(reply)
        else:
            with pytest.raises(TypeError):
                plain_reply_frame(rid, name, seq)


def _received(blobs, first):
    """The entries a COMMU receiver applies of a batch of ``blobs`` from
    site1, numbered ``first`` onwards: every check before it records."""
    return ENGINES["commu"]("site0").decode_remote(
        "site1", first, decode_batch_payloads(blobs)
    )


class TestPayloadBlobReplay:
    """The receiver accepts a payload blob iff the inbox log line it is
    spliced into reads back at replay as the record it acknowledged,
    and as the entry it applied."""

    @given(_hostile_blobs(), st.integers(1, 2**63 - 1))
    @example(b'{"mset":{"tid":"t"}}', 1)
    @example(b'\xef\xbb\xbf{"mset":{"tid":"t"}}', 1)
    @example(b'{"mset":\n{"tid":"t"}}', 1)
    @example('{"mset":{"tid":"t"}}'.encode("utf-16"), 1)
    @example(b'{"mset":{"tid":"t","txn":123456789012345678901234}}', 1)
    @example(b'{"mset":{"tid":"t","info":[["x",NaN]]}}', 1)
    @example(b'{"mset":{"tid":"\\ud800"}}', 1)
    @example(b'{"mset":{"tid":"t","x":' + b"[" * 2000 + b"]" * 2000 + b"}}", 1)
    @example(b' {"mset":{}}\r\t', 1)
    @example(b'[["inc","k",1]]', 1)
    @example(b'[["inc","k",123456789012345678901234]]', 3)
    @example(b'[["inc","k",NaN]]', 1)
    @example(b'[["inc",\n"k",1]]', 1)
    @example(b' [["write","\\ud800",1]]\r', 1)
    @example(b'[]', 1)
    @example(b'7', 1)
    @example(b'null', 1)
    def test_an_accepted_blob_reads_back_from_its_log_line(self, blob, seq):
        try:
            (entry,) = _received([blob], seq)
        except ProtocolError:
            return  # refused before anything is recorded or acked
        payload = loads(blob)  # the logs' reader, which the decoder ran
        line = _record_line(seq, payload, blob)
        assert _outcome(_parse_line, line) == _outcome(
            lambda _: {"seq": seq, "payload": payload}, line
        )
        # Replay reads the record back as the entry the receiver applied.
        logged = _parse_line(line)["payload"]
        (replayed,) = decode_payloads("site1", seq, [logged])
        if type(entry) is tuple:
            tid, ops = entry
            assert tid == replayed.tid == "site1:%d" % seq
            entry = MSet(tid, ops=decode_ops(ops), origin="site1")
        assert repr(replayed) == repr(entry)

    @given(
        st.lists(_hostile_blobs(), min_size=1, max_size=4),
        st.integers(1, 2**40),
    )
    @example([b'{"mset":{"tid":"t"}}', b'{"mset":{"tid":"u","x":NaN}}'], 1)
    @example([b'{"mset":{"tid":"t"}}', b'[{"mset":{}}]'], 1)
    @example([b'{"mset":{"tid":"t"}}', b'{"mset":\n{}}', b'{}'], 7)
    @example([b'{"a":1}', b'{"b":2}', b'{"c":123456789012345678901234}'], 2)
    @example([b'\r{"mset": {}}'], 1)
    @example([b'[["inc","k",1]]', b'{"mset":{"tid":"t"}}', b'[]'], 1)
    @example([b'[["inc","k",1]]', b'[["inc","k",NaN]]'], 1)
    @example([b'[["inc","k",1]]', b'1'], 1)
    def test_a_run_is_accepted_iff_each_blob_is_alone(self, blobs, first):
        """The receiver accepts a run iff it accepts every blob of it
        alone, as a run of one under its own seq, and makes each the
        same entry; the run's inbox lines (``record_many``'s one render)
        are each blob's own line and read back as its record."""
        seqs = range(first, first + len(blobs))
        alone = [
            _outcome(lambda b: _received([b], seq)[0], blob)
            for seq, blob in zip(seqs, blobs)
        ]
        try:
            entries = _received(blobs, first)
        except ProtocolError:
            assert any(outcome[0] == "raised" for outcome in alone)
            return
        assert [_outcome(lambda e: e, e) for e in entries] == alone
        payloads = list(map(loads, blobs))
        lines = _record_lines(first, blobs)
        assert lines == b"".join(map(_record_line, seqs, payloads, blobs))
        # Split as the log reader iterates a file: on ``\n`` alone.
        for line, seq, payload in zip(
            [line + b"\n" for line in lines.split(b"\n")[:-1]],
            seqs,
            payloads,
        ):
            assert _outcome(_parse_line, line) == _outcome(
                lambda _: {"seq": seq, "payload": payload}, line
            )
