"""Trace construction, char/token mapping, and marker segmentation."""

from __future__ import annotations

import json
import re
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference import bruteforce_marker_matches, segment_oracle
from conftest import FILLER_WORDS, MARKER_SAMPLE, chunk_randomly, make_trace

from thinkprune.errors import EmptyReasoningRegion, InputFormatError, OffsetOutOfRange
from thinkprune.schema import load
from thinkprune.trace import (
    DEFAULT_MARKER_PHRASES,
    MarkerSet,
    ReasoningTrace,
    Token,
    _scan_marker_occurrences,
    default_marker_set,
    markers_from_dict,
    segment,
    trace_from_dict,
    trace_to_dict,
)

EXPECTED_MARKERS = (
    "Wait", "Alternatively", "Another angle", "Another approach", "But wait",
    "Hold on", "Hmm", "Maybe", "Looking back", "Okay", "Let me", "First",
    "Then", "Alright", "Compute", "Correct", "Good", "Got it",
    "I don’t see any errors", "I think", "Let me double-check",
    "Let’s see", "Now", "Remember", "Seems solid", "Similarly", "So",
    "Starting", "That’s correct", "That seems right", "Therefore", "Thus",
)


class TestDefaultMarkerSet:
    def test_exact_phrases_in_order(self):
        markers = default_marker_set()
        assert markers.phrases == EXPECTED_MARKERS
        assert len(markers) == 32
        assert markers.phrases[0] == "Wait"
        assert markers.phrases[-1] == "Thus"

    def test_membership(self):
        markers = default_marker_set()
        assert "Alternatively" in markers
        assert "However" not in markers

    def test_right_single_quotes_not_ascii(self):
        markers = default_marker_set()
        assert "Let’s see" in markers
        assert "Let's see" not in markers
        assert "I don’t see any errors" in markers

    def test_constants_agree(self):
        assert default_marker_set().phrases == DEFAULT_MARKER_PHRASES


class TestMarkerSet:
    def test_dedup_preserves_first_occurrence(self):
        ms = MarkerSet(("So", "Wait", "So", "Then", "Wait"))
        assert ms.phrases == ("So", "Wait", "Then")

    def test_rejects_empty_phrase(self):
        with pytest.raises(ValueError):
            MarkerSet(("So", ""))

    def test_rejects_empty_set(self):
        with pytest.raises(ValueError):
            MarkerSet(())


class TestTraceBasics:
    def test_full_text_is_exact_concatenation(self):
        trace = make_trace(["ab", "", "cd", " ef"], 1)
        assert trace.full_text == "abcd ef"

    def test_indices_must_be_contiguous(self):
        with pytest.raises(ValueError):
            ReasoningTrace((Token(0, 1, "a"), Token(2, 1, "b")), 0)

    def test_prompt_len_bounds(self):
        with pytest.raises(ValueError):
            make_trace(["a", "b"], 3)

    def test_negative_id_rejected(self):
        with pytest.raises(ValueError):
            Token(0, -1, "a")


class TestTokenOfChar:
    def test_first_token(self):
        trace = make_trace(["ab", "cd"], 0)
        assert trace.token_of_char(0) == 0

    def test_second_token(self):
        trace = make_trace(["ab", "cd"], 0)
        assert trace.token_of_char(3) == 1

    def test_out_of_range(self):
        trace = make_trace(["ab", "cd"], 0)
        with pytest.raises(OffsetOutOfRange):
            trace.token_of_char(4)
        with pytest.raises(OffsetOutOfRange):
            trace.token_of_char(-1)

    def test_zero_width_tokens_are_skipped(self):
        trace = make_trace(["ab", "", "cd"], 0)
        assert trace.token_of_char(2) == 2


class TestSegmentExamples:
    def test_three_markers_three_steps(self):
        texts = ["Q:"] + ["First", ",", " add", " 2", ".", " Wait", ",", " recheck",
                          ".", " So", " the", " answer", " is", " 4", "."]
        seg = segment(make_trace(texts, 1), default_marker_set())
        assert [(s.start, s.end, s.marker) for s in seg.steps] == [
            (1, 6, "First"),
            (6, 10, "Wait"),
            (10, 16, "So"),
        ]

    def test_no_marker_single_step(self):
        seg = segment(make_trace(["Q:", "x", " equals", " two"], 1), default_marker_set())
        assert [(s.start, s.end, s.marker) for s in seg.steps] == [(1, 4, None)]

    def test_but_wait_consumes_inner_wait(self):
        # "But wait" opens exactly one step; the "wait" inside it opens
        # nothing, and lowercase "hmm" does not match "Hmm".
        seg = segment(make_trace(["Q:", "But", " wait", ",", " hmm", "."], 1), default_marker_set())
        assert len(seg.steps) == 1
        assert seg.steps[0].marker == "But wait"

    def test_empty_reasoning_region_raises(self):
        with pytest.raises(EmptyReasoningRegion):
            segment(make_trace(["a", "b"], 2), default_marker_set())


class TestBoundaryRules:
    def test_letter_adjacency_blocks_match(self):
        seg = segment(make_trace(["Q:", "Sonow", " and", " Soap"], 1), default_marker_set())
        assert [s.marker for s in seg.steps] == [None]

    def test_non_sentence_punctuation_does_not_open(self):
        # '(' is neither whitespace nor sentence punctuation.
        seg = segment(make_trace(["Q:", "see", " (So", " what)"], 1), default_marker_set())
        assert [s.marker for s in seg.steps] == [None]

    def test_sentence_punctuation_opens_without_space(self):
        seg = segment(make_trace(["Q:", "x2.So", " next"], 1), default_marker_set())
        assert [s.marker for s in seg.steps] == ["So"]

    def test_longest_phrase_wins(self):
        texts = ["Q:", "Let", " me", " double", "-check", " the", " math"]
        seg = segment(make_trace(texts, 1), default_marker_set())
        assert [s.marker for s in seg.steps] == ["Let me double-check"]

    def test_marker_at_reason_start_opens_first_step(self):
        seg = segment(make_trace(["Q:", "Wait", ",", " ok"], 1), default_marker_set())
        assert len(seg.steps) == 1
        assert seg.steps[0].start == 1
        assert seg.steps[0].marker == "Wait"

    def test_marker_at_text_end_matches(self):
        seg = segment(make_trace(["Q:", "x", ".", " Thus"], 1), default_marker_set())
        assert [s.marker for s in seg.steps] == [None, "Thus"]

    def test_two_matches_in_one_token_open_one_step(self):
        # Both occurrences start inside the single reasoning token.
        seg = segment(make_trace(["Q:", "Wait. So done"], 1), default_marker_set())
        assert len(seg.steps) == 1
        assert seg.steps[0].marker == "Wait"


class TestSegmentationProperties:
    def _build(self, rng: np.random.Generator) -> ReasoningTrace:
        pieces = []
        for _ in range(int(rng.integers(3, 14))):
            pool = MARKER_SAMPLE if rng.random() < 0.45 else FILLER_WORDS
            pieces.append(pool[int(rng.integers(0, len(pool)))])
        separators = [" ", ". ", ", ", "  ", "! ", "", "; "]
        text = pieces[0]
        for piece in pieces[1:]:
            text += separators[int(rng.integers(0, len(separators)))] + piece
        prompt_chunks = chunk_randomly("Problem: ", rng)
        reason_chunks = chunk_randomly(text, rng)
        return make_trace(prompt_chunks + reason_chunks, len(prompt_chunks))

    def test_coverage_no_gaps_no_overlaps(self, rng):
        markers = default_marker_set()
        for _ in range(100):
            trace = self._build(rng)
            seg = segment(trace, markers)
            assert seg.steps[0].start == trace.reason_start
            assert seg.steps[-1].end == len(trace.tokens)
            for left, right in zip(seg.steps, seg.steps[1:]):
                assert left.end == right.start

    def test_determinism(self, rng):
        markers = default_marker_set()
        trace = self._build(rng)
        assert segment(trace, markers) == segment(trace, markers)

    def test_oracle_agreement_randomized(self, rng):
        markers = default_marker_set()
        for _ in range(150):
            trace = self._build(rng)
            seg = segment(trace, markers)
            got = [(s.start, s.marker) for s in seg.steps]
            want = segment_oracle(
                [t.text for t in trace.tokens], trace.prompt_len, markers.phrases
            )
            assert got == want

    def test_monotonicity_under_nonletter_appends(self, rng):
        # Appending tokens whose text starts with a non-letter never moves a
        # boundary that lies strictly before the old trace end.
        markers = default_marker_set()
        for _ in range(60):
            trace = self._build(rng)
            old_end = len(trace.tokens)
            before = segment(trace, markers)
            suffix = ". " + MARKER_SAMPLE[int(rng.integers(0, len(MARKER_SAMPLE)))] + " more"
            extra = chunk_randomly(suffix, rng)
            extended = make_trace(
                [t.text for t in trace.tokens] + extra, trace.prompt_len
            )
            after = segment(extended, markers)
            old_bounds = [(s.start, s.marker) for s in before.steps]
            new_bounds = [(s.start, s.marker) for s in after.steps if s.start < old_end]
            assert new_bounds == old_bounds


# Marker sets: the default one, and one whose phrases also start inside
# other phrases, so a match may not begin inside a consumed one.
_MARKER_SETS = (DEFAULT_MARKER_PHRASES,
                ("But wait", "wait", "Let me", "me", "I think", "think", "So", "So so", "m"))
# Pieces of marker-heavy text besides phrases and their prefixes: boundary
# punctuation, ASCII and non-ASCII whitespace, the right single quote,
# letters, and characters that str.isalpha() and re's \w disagree on
# (superscript two, a Roman numeral, underscore, digits).
_OTHER_PIECES = tuple(".,;:!?") + (" ", "  ", "\n", "\u00a0", "\u2003", "’", "é", "x",
                                   "So", "²", "Ⅻ", "_", "7", "-", "(")
_NOT_WORD_END = ("²", "Ⅻ", "_", "7", "é", "’", "s")


@st.composite
def marker_texts(draw):
    """(phrases, text): a marker set and text built from its phrases, their
    prefixes and separators, with characters that may or may not end a word
    placed right after some phrases."""
    phrases = draw(st.sampled_from(_MARKER_SETS))
    prefixes = tuple(phrase[:cut] for phrase in phrases for cut in range(1, len(phrase)))
    pieces = draw(st.lists(
        st.one_of(st.sampled_from(phrases + prefixes), st.sampled_from(_OTHER_PIECES),
                  st.tuples(st.sampled_from(phrases),
                            st.sampled_from(_NOT_WORD_END)).map("".join)),
        max_size=24))
    return phrases, "".join(pieces)


class TestMarkerScanProperties:
    def test_regex_whitespace_is_str_isspace(self):
        # the scan finds word starts with re's \s; the rules use str.isspace()
        assert all((re.match(r"\s", char) is not None) == char.isspace()
                   for char in map(chr, range(sys.maxunicode + 1)))

    @settings(derandomize=True, max_examples=400, deadline=None)
    @given(marker_texts())
    def test_scan_matches_bruteforce(self, phrases_and_text):
        phrases, text = phrases_and_text
        assert _scan_marker_occurrences(text, phrases) == bruteforce_marker_matches(text, phrases)

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(marker_texts(), st.lists(st.integers(1, 5), min_size=1, max_size=60),
           st.integers(0, 3))
    def test_segment_matches_oracle(self, phrases_and_text, widths, prompt_tokens):
        phrases, text = phrases_and_text
        chunks, pos = [], 0
        for width in widths:
            if pos >= len(text):
                break
            chunks.append(text[pos:pos + width])
            pos += width
        chunks.append(text[pos:] or "x")
        texts = ["Problem: "] * prompt_tokens + chunks
        got = [(step.start, step.marker)
               for step in segment(make_trace(texts, prompt_tokens), MarkerSet(phrases)).steps]
        assert got == segment_oracle(texts, prompt_tokens, phrases)


class TestTraceFiles:
    def test_round_trip(self, tmp_path):
        trace = make_trace(["Q:", "So", " it", " is"], 1)
        path = tmp_path / "trace.json"
        path.write_text(json.dumps(trace_to_dict(trace)), encoding="utf-8")
        assert load(path, trace_from_dict) == trace

    def test_missing_prompt_len_named(self):
        with pytest.raises(InputFormatError, match="prompt_len"):
            trace_from_dict({"tokens": []})

    def test_bad_token_field_named(self):
        with pytest.raises(InputFormatError, match=r"tokens\[1\]\.id"):
            trace_from_dict({"prompt_len": 0, "tokens": [{"id": 1, "text": "a"}, {"id": -2, "text": "b"}]})

    def test_prompt_len_exceeding_tokens(self):
        with pytest.raises(InputFormatError, match="prompt_len"):
            trace_from_dict({"prompt_len": 3, "tokens": [{"id": 1, "text": "a"}]})

    def test_markers_document_must_be_string_array(self):
        with pytest.raises(InputFormatError):
            markers_from_dict({"phrases": ["So"]})
        with pytest.raises(InputFormatError):
            markers_from_dict(["So", 3])
