"""Program wire-format tests (fix distribution as bytes)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import TraceError
from repro.fixes.patches import SiteRecoveryFix
from repro.progmodel.bugs import BugKind
from repro.progmodel.corpus import (
    CorpusConfig, generate_program, make_crash_demo, make_deadlock_demo,
    make_race_demo, make_shortread_demo,
)
from repro.progmodel.interpreter import Interpreter
from repro.progmodel.serialize import decode_program, encode_program
from repro.rng import make_rng


def _assert_equivalent(original, decoded):
    """Structural + behavioural equivalence of two programs."""
    assert decoded.name == original.name
    assert decoded.version == original.version
    assert decoded.threads == original.threads
    assert decoded.inputs == original.inputs
    assert decoded.globals == original.globals
    assert set(decoded.functions) == set(original.functions)
    for fname, func in original.functions.items():
        other = decoded.functions[fname]
        assert other.params == func.params
        assert other.entry == func.entry
        assert set(other.blocks) == set(func.blocks)
    # Behavioural check: identical executions on sample inputs.
    rng = make_rng(0, "ser-check")
    for _ in range(5):
        inputs = {name: rng.randint(lo, hi)
                  for name, (lo, hi) in original.inputs.items()}
        a = Interpreter(original).run(inputs)
        b = Interpreter(decoded).run(inputs)
        assert a.outcome is b.outcome
        assert a.path_decisions == b.path_decisions
        assert a.final_globals == b.final_globals


class TestRoundTrip:
    def test_demo_programs(self):
        for seeded in (make_crash_demo(), make_deadlock_demo(),
                       make_shortread_demo(), make_race_demo()):
            decoded = decode_program(encode_program(seeded.program))
            _assert_equivalent(seeded.program, decoded)

    def test_fixed_program_roundtrips(self):
        demo = make_crash_demo()
        fixed = SiteRecoveryFix(fix_id="f", function="main",
                                block="boom").apply(demo.program)
        decoded = decode_program(encode_program(fixed))
        assert decoded.version == 2
        _assert_equivalent(fixed, decoded)

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 100),
           kinds=st.sampled_from([
               (BugKind.CRASH,), (BugKind.ASSERT, BugKind.HANG),
               (BugKind.SHORT_READ,), (BugKind.DEADLOCK,),
               (BugKind.RACE,),
           ]))
    def test_random_corpus_programs(self, seed, kinds):
        seeded = generate_program(
            "ser", CorpusConfig(seed=seed, n_segments=4), kinds)
        decoded = decode_program(encode_program(seeded.program))
        _assert_equivalent(seeded.program, decoded)

    def test_corruption_detected(self):
        data = encode_program(make_crash_demo().program)
        with pytest.raises(TraceError):
            decode_program(data[:-3])
        with pytest.raises(TraceError):
            decode_program(data + b"\x00")

    def test_wire_size_reasonable(self):
        program = make_crash_demo().program
        size = len(encode_program(program))
        # A handful of blocks should be well under a kilobyte.
        assert 50 < size < 1000
