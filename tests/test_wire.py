"""Wire-codec tests: golden bytes, the reader contract, decoder fuzzing.

Traces, trace batches and programs cross the (simulated) network as
bytes written and read through :mod:`repro.wire`. These tests pin the
exact bytes each codec emits, check the reader's rules one by one, and
fuzz every decoder: any byte string, however mangled, must decode to a
value or raise a :class:`~repro.errors.SoftBorgError` subclass. The fuzz
payloads are derived from live encodings of the demos and parsed by the
production decoders, never by a test-side parser.
"""

import dataclasses
import functools
import hashlib
import random
import zlib

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.errors import SoftBorgError, TraceError
from repro.exec.batch import BatchEntry, TraceBatch, decode_batch, encode_batch
from repro.hive.hive import Hive
from repro.obs.trace import SpanContext
from repro.progmodel import corpus
from repro.progmodel.bugs import BugKind
from repro.progmodel.builder import ProgramBuilder
from repro.progmodel.corpus import CorpusConfig, generate_program
from repro.progmodel.interpreter import Environment, Interpreter, Outcome
from repro.progmodel.ir import BinOp, Const, Return, c, v
from repro.progmodel.serialize import decode_program, encode_program
from repro.sched.scheduler import RandomScheduler
from repro.tracing.dedup import Heartbeat, trace_digest
from repro.tracing.encode import decode_trace, encode_trace
from repro.tracing.sampling import sample_observations
from repro.tracing.trace import Trace, trace_from_result
from repro.wire import (
    Reader, write_bits, write_string, write_varint, write_zigzag,
)

DEMOS = ("crash", "deadlock", "shortread", "race", "leak", "prio",
         "wakeup", "toctou", "provenance")
GENERATED_KINDS = ((BugKind.CRASH,), (BugKind.ASSERT, BugKind.HANG),
                   (BugKind.SHORT_READ,), (BugKind.DEADLOCK,),
                   (BugKind.RACE,))


def _demo_program(name):
    return getattr(corpus, f"make_{name}_demo")().program


def _live_runs(program, runs):
    """Seeded runs with environment faults and random schedules."""
    for i in range(runs):
        rng = random.Random(i)
        inputs = {name: rng.randint(lo, hi)
                  for name, (lo, hi) in sorted(program.inputs.items())}
        yield i, Interpreter(program).run(
            inputs,
            environment=Environment(rng=random.Random(i), fault_rate=0.2),
            scheduler=RandomScheduler(seed=i + 1000))


def _live_traces(program, runs=15):
    """Each run as a full capture, then as a sampled (observation-only)
    capture, so every trace field reaches the wire."""
    for i, result in _live_runs(program, runs):
        trace = trace_from_result(result, pod_id=f"pod-{i}",
                                  guided=bool(i % 2))
        yield trace
        yield dataclasses.replace(
            trace, replayable=False, branch_bits=(), syscall_returns=(),
            schedule_rle=(),
            observations=tuple(sample_observations(
                result, 2, random.Random(i))))


def _batches(program, traces):
    """One batch of payloads and heartbeats, without and with a trace
    context; indices and counts cross the one-byte varint boundary."""
    entries = []
    for index, trace in enumerate(traces):
        entries.append(BatchEntry(global_index=index * 50,
                                  payload=encode_trace(trace)))
        entries.append(BatchEntry(
            global_index=index * 50 + 1,
            heartbeat=Heartbeat(program.name, program.version,
                                trace_digest(trace), count=1 + index * 40)))
    for context in (None, SpanContext("trace-0a1b", "span-2c3d")):
        yield TraceBatch(shard_id=3, program_name=program.name,
                         program_version=program.version, sequence=200,
                         entries=entries, trace_context=context)


#: sha256 of every byte TestGoldenWire encodes, recorded with the
#: per-codec writers that repro.wire replaced.
GOLDEN_WIRE = \
    "76110fd1698fbfc7886edfe1373d0772ed7cec78eecc735c6a20ddc60d9bc221"


class TestGoldenWire:
    """Pins the bytes of encode_program, encode_trace and encode_batch
    over every demo and twenty generated programs."""

    @staticmethod
    def _programs():
        for name in DEMOS:
            yield _demo_program(name)
        for seed in range(4):
            for kinds in GENERATED_KINDS:
                yield generate_program(f"wire{seed}", CorpusConfig(seed=seed),
                                       bug_kinds=kinds).program

    def test_encodings_match_the_reference(self):
        digest = hashlib.sha256()
        for program in self._programs():
            digest.update(encode_program(program))
            traces = list(_live_traces(program))
            for trace in traces:
                digest.update(encode_trace(trace))
            for batch in _batches(program, traces):
                digest.update(encode_batch(batch))
        assert digest.hexdigest() == GOLDEN_WIRE


class TestZigZag:
    @settings(max_examples=200, deadline=None)
    @given(st.integers())
    @example(2 ** 63)
    @example(-2 ** 63)
    @example(2 ** 63 - 1)
    @example(-2 ** 63 - 1)
    @example(2 ** 64)
    @example(-2 ** 64)
    def test_round_trips_unbounded_ints(self, value):
        out = bytearray()
        write_zigzag(out, value)
        reader = Reader(bytes(out))
        assert reader.zigzag() == value
        assert reader.done()

    def test_syscall_result_past_int64_replays_like_the_live_run(self):
        # write(fd, n) returns n, so a program constant reaches the
        # trace's syscall stream; 2**63 used to decode as -2**63 - 1
        # and send the replay down the other branch.
        b = ProgramBuilder("big_write")
        main = b.function("main")
        entry = main.block("entry")
        entry.syscall("r", "write", c(1), c(2 ** 63))
        entry.branch(v("r") > c(0), "ok", "bad")
        main.block("ok").halt()
        bad = main.block("bad")
        bad.crash("negative write")
        bad.halt()
        program = b.build()
        live = Interpreter(program).run({})
        assert live.outcome is Outcome.OK
        trace = decode_trace(encode_trace(trace_from_result(live)))
        assert trace.syscall_returns == (2 ** 63,)
        replayed = Interpreter(program).replay(trace.replay_source())
        assert replayed.outcome is Outcome.OK
        assert replayed.path_decisions == live.path_decisions


class TestReader:
    def test_truncated_varint(self):
        with pytest.raises(TraceError, match="truncated varint"):
            Reader(b"\x80\x80").varint()

    def test_varint_longer_than_the_cap(self):
        # Each integer's decode cost stays bounded however long the run
        # of continuation bytes.
        with pytest.raises(TraceError, match="longer than"):
            Reader(b"\xff" * 2000 + b"\x01").varint()
        with pytest.raises(TraceError, match="cannot encode"):
            write_varint(bytearray(), 1 << (7 * 1024))

    def test_count_larger_than_the_bytes_left(self):
        out = bytearray()
        write_varint(out, 1 << 40)
        with pytest.raises(TraceError, match="exceeds"):
            Reader(bytes(out) + b"\x00" * 8).count()
        assert Reader(b"\x02\x00\x00").count() == 2

    def test_pick_out_of_range(self):
        assert Reader(b"\x01").pick("ab") == "b"
        with pytest.raises(TraceError, match="out of range"):
            Reader(b"\x02").pick("ab")

    def test_malformed_utf8(self):
        with pytest.raises(TraceError, match="UTF-8"):
            Reader(b"\x02\xff\xfe").string()

    def test_truncated_string_blob_and_bits(self):
        with pytest.raises(TraceError, match="truncated string"):
            Reader(b"\x05ab").string()
        with pytest.raises(TraceError, match="truncated blob"):
            Reader(b"\x05ab").blob()
        with pytest.raises(TraceError, match="truncated bit vector"):
            Reader(b"\x09\x01").bits()

    def test_overlong_varint(self):
        # Zero is one byte; a last byte of 0 after a continuation byte
        # writes it (or any value) a second way.
        assert Reader(b"\x00").varint() == 0
        assert Reader(b"\x80\x01").varint() == 128
        for data in (b"\x80\x00", b"\x81\x00", b"\xff\x80\x00"):
            with pytest.raises(TraceError, match="overlong varint"):
                Reader(data).varint()

    def test_flag_is_zero_or_one(self):
        reader = Reader(b"\x00\x01")
        assert (reader.flag(), reader.flag()) == (False, True)
        assert reader.done()
        for data in (b"\x02", b"\x81\x00", b"\xff"):
            with pytest.raises(TraceError, match="neither 0 nor 1"):
                Reader(data).flag()
        with pytest.raises(TraceError, match="truncated flag"):
            Reader(b"").flag()

    def test_bit_vector_padding_is_zero(self):
        out = bytearray()
        write_bits(out, (True, False, True))
        assert bytes(out) == b"\x03\x05"
        assert Reader(bytes(out)).bits() == (True, False, True)
        for padded in (b"\x03\x0d", b"\x03\x85"):
            with pytest.raises(TraceError, match="padding"):
                Reader(padded).bits()
        # A whole last byte has no padding.
        assert Reader(b"\x08\xff").bits() == (True,) * 8

    def test_memoryview_input(self):
        out = bytearray()
        write_string(out, "hé")
        write_string(out, "xyz")
        reader = Reader(memoryview(bytes(out)))
        assert reader.string() == "hé"
        assert reader.blob() == b"xyz"
        assert reader.done()


# -- fuzzing ------------------------------------------------------------------

@functools.lru_cache(maxsize=None)
def _seed_payloads():
    """Live encodings of the crash, race and deadlock demos: programs,
    traces and batches (batches also as CRC-less bodies)."""
    programs, traces, batches = [], [], []
    for name in ("crash", "race", "deadlock"):
        program = _demo_program(name)
        programs.append(encode_program(program))
        live = list(_live_traces(program, runs=4))
        traces.extend(encode_trace(trace) for trace in live)
        batches.extend(encode_batch(batch)
                       for batch in _batches(program, live[:3]))
    return {"program": programs, "trace": traces, "batch": batches,
            "batch-body": [batch[:-4] for batch in batches]}


@st.composite
def _mangled(draw, kind):
    """A live payload after one to three byte flips, truncations or
    insertions, or a run of random bytes."""
    data = draw(st.sampled_from(_seed_payloads()[kind]))
    for _ in range(draw(st.integers(1, 3))):
        how = draw(st.sampled_from(("flip", "truncate", "insert", "random")))
        if how == "random":
            data = draw(st.binary(max_size=64))
            continue
        if not data:
            continue
        pos = draw(st.integers(0, len(data) - 1))
        if how == "flip":
            mangled = bytearray(data)
            mangled[pos] ^= draw(st.integers(1, 255))
            data = bytes(mangled)
        elif how == "truncate":
            data = data[:pos]
        else:
            data = data[:pos] + draw(st.binary(min_size=1, max_size=8)) \
                + data[pos:]
    return data


@functools.lru_cache(maxsize=None)
def _fuzz_programs():
    """The seed batches' programs by name, for the hive a decoded
    batch ingests into."""
    programs = (_demo_program(name) for name in ("crash", "race",
                                                  "deadlock"))
    return {program.name: program for program in programs}


def _with_crc(body):
    return body + (zlib.crc32(body) & 0xFFFFFFFF).to_bytes(4, "big")


def _accepted_is_canonical(decoder, encoder, data):
    """A payload a decoder accepts is the one encoding of its value."""
    try:
        value = decoder(data)
    except SoftBorgError:
        return None
    assert encoder(value) == data
    return value


class TestDecoderFuzz:
    """Any bytes give a decoded value or a SoftBorgError subclass, and
    a trace, program or batch that decodes re-encodes to the same
    bytes."""

    @settings(max_examples=300, deadline=None)
    @given(_mangled("trace"))
    def test_decode_trace(self, data):
        # A decoded trace keeps its payload as its encode prefix, so the
        # re-encode walks a fresh copy, which has no memo.
        trace = _accepted_is_canonical(
            decode_trace,
            lambda trace: encode_trace(dataclasses.replace(trace)), data)
        if trace is not None:
            # The memoized digest is what a fresh copy computes.
            assert trace_digest(trace) == trace_digest(
                dataclasses.replace(trace))

    @settings(max_examples=300, deadline=None)
    @given(_mangled("program"))
    def test_decode_program(self, data):
        _accepted_is_canonical(decode_program, encode_program, data)

    @settings(max_examples=200, deadline=None)
    @given(_mangled("batch"))
    def test_decode_batch(self, data):
        _accepted_is_canonical(decode_batch, encode_batch, data)

    @settings(max_examples=300, deadline=None)
    @given(_mangled("batch-body"))
    def test_decode_batch_with_valid_crc(self, data):
        # A recomputed CRC gets the mangled body past the checksum and
        # into the body parser. A batch that decodes must also ingest:
        # every entry is taken or counted, and nothing raises.
        batch = _accepted_is_canonical(decode_batch, encode_batch,
                                       _with_crc(data))
        if batch is None:
            return
        program = _fuzz_programs().get(batch.program_name,
                                       _fuzz_programs()["crash_demo"])
        hive = Hive(program, validate_fixes=False, enable_proofs=False)
        assert hive.ingest_batch([batch]) == len(batch.entries)
        assert (hive.stats.traces_ingested
                + hive.stats.heartbeats_ingested) == len(batch.entries)

    def test_seed_payloads_decode(self):
        seeds = _seed_payloads()
        for data in seeds["program"]:
            decode_program(data)
        for data in seeds["trace"]:
            decode_trace(data)
        for data in seeds["batch"]:
            decode_batch(data)


def _program_with(expr):
    """The encoding of a one-block program returning ``expr``."""
    b = ProgramBuilder("pinned")
    b.function("main").block("entry").ret(expr)
    return encode_program(b.build())


class TestPinnedPayloads:
    """Payloads that escaped the decoders untyped before the shared
    reader existed, and the nesting a real program may still use."""

    def test_deeply_nested_expression(self):
        # 5,000 nested ``neg`` around a constant: 10 KB of recursion.
        data = _program_with(Const(55))
        leaf = bytes([0, 110])                  # Const tag, zigzag(55)
        assert data.count(leaf) == 1
        nested = bytes([4, 0]) * 5000 + leaf    # UnOp tag, "neg"
        payload = data.replace(leaf, nested)
        assert len(payload) > 10_000
        with pytest.raises(TraceError, match="nested deeper"):
            decode_program(payload)

    def test_moderate_nesting_still_decodes(self):
        expr = Const(1)
        for _ in range(150):
            expr = BinOp("+", expr, Const(0))
        data = _program_with(expr)
        decoded = decode_program(data)
        assert decoded.functions["main"].blocks["entry"].terminator == \
            Return(expr)
        assert encode_program(decoded) == data

    def _two_inputs(self):
        """A program declaring inputs ``a`` and ``b``, its encoding, and
        the bytes of each input entry (name, then zig-zag domain)."""
        b = ProgramBuilder("pinned")
        b.declare_input("a", 0, 5)
        b.declare_input("b", 0, 5)
        b.function("main").block("entry").ret(0)
        data = encode_program(b.build())
        entry_a, entry_b = bytes([1, 97, 0, 10]), bytes([1, 98, 0, 10])
        assert data.count(entry_a + entry_b) == 1
        return data, entry_a, entry_b

    def test_names_out_of_order(self):
        # The encoder writes every name table sorted. With two input
        # entries swapped, the payload used to decode, then re-encode
        # to other bytes.
        data, entry_a, entry_b = self._two_inputs()
        payload = data.replace(entry_a + entry_b, entry_b + entry_a)
        with pytest.raises(TraceError, match="input name 'a' is not after"
                                             " 'b'"):
            decode_program(payload)

    def test_repeated_name(self):
        # A repeated input name used to overwrite the first entry, so
        # the program re-encoded with one input fewer.
        data, entry_a, entry_b = self._two_inputs()
        payload = data.replace(entry_a + entry_b, entry_a + entry_a)
        with pytest.raises(TraceError, match="input name 'a' is not after"
                                             " 'a'"):
            decode_program(payload)

    def test_repeated_block_label(self):
        b = ProgramBuilder("pinned")
        main = b.function("main")
        main.block("entry").jump("exit")
        main.block("exit").ret(0)
        data = encode_program(b.build())
        assert data.count(b"\x04exit") == 2  # the jump target, the block
        at = data.rindex(b"\x04exit")
        payload = data[:at] + b"\x05entry" + data[at + 5:]
        with pytest.raises(TraceError, match="block name 'entry' is not"
                                             " after 'entry'"):
            decode_program(payload)

    def test_binop_index_out_of_range(self):
        data = _program_with(BinOp("max", Const(55), Const(56)))
        site = bytes([3, 14, 0, 110, 0, 112])   # BinOp tag, "max", 55, 56
        assert data.count(site) == 1
        payload = data.replace(site, bytes([3, 15]) + site[2:])
        with pytest.raises(TraceError, match="out of range"):
            decode_program(payload)

    def test_overlong_varint_field(self):
        # A 3,000-byte varint is wider than str() prints, so formatting
        # it into an error message used to raise ValueError.
        huge = b"\xff" * 3000 + b"\x01"
        for decoder, payload in ((decode_program, huge),
                                 (decode_trace, huge),
                                 (decode_batch, _with_crc(huge))):
            with pytest.raises(TraceError, match="longer than"):
                decoder(payload)

    def test_trace_flags_are_zero_or_one(self):
        # A replayable byte of 2 used to decode as False, so the trace
        # did not re-encode to the payload it came from; the same held
        # for the failure-site and guided flags.
        data = encode_trace(Trace(program_name="p", program_version=1,
                                  outcome=Outcome.OK))
        assert data.hex(" ") == ("01 01 70 01 00 00 00 00"
                                 " 00 01 00 00 00 00 00 00")
        for index in (9, 13, 15):   # replayable, failure site, guided
            mangled = bytearray(data)
            mangled[index] = 2
            with pytest.raises(TraceError, match="neither 0 nor 1"):
                decode_trace(bytes(mangled))

    def test_batch_flags_are_zero_or_one(self):
        body = encode_batch(TraceBatch(shard_id=0, program_name="abc",
                                       program_version=1))[:-4]
        assert body.hex(" ") == "03 03 61 62 63 01 00 00 00 00"
        context_flag = len(body) - 2
        with pytest.raises(TraceError, match="neither 0 nor 1"):
            decode_batch(_with_crc(body[:context_flag] + b"\x02\x00"))
        entry = body[:-1] + b"\x01\x00\x02"   # one entry, index 0
        with pytest.raises(TraceError, match="neither 0 nor 1"):
            decode_batch(_with_crc(entry))

    def test_batch_with_valid_crc_and_bad_utf8_name(self):
        body = encode_batch(TraceBatch(shard_id=0, program_name="abc",
                                       program_version=1))[:-4]
        assert body.count(b"abc") == 1
        payload = _with_crc(body.replace(b"abc", b"\xff\xfe\xfd"))
        with pytest.raises(TraceError, match="UTF-8"):
            decode_batch(payload)
