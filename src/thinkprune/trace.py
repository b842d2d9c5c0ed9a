"""Tokenized reasoning traces and marker-phrase step segmentation.

A trace is a prompt followed by generated reasoning text, kept token by
token so that character positions and token indices can be mapped both
ways. Segmentation slices the reasoning region into steps, opening a new
step wherever a marker phrase ("Wait", "Alternatively", ...) occurs at a
word boundary.
"""

from __future__ import annotations

import re
from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import accumulate

import numpy as np

from .errors import EmptyReasoningRegion, OffsetOutOfRange
from .schema import MARKERS, TRACE, check

# Reflection/sequencing markers that open a new reasoning step. Order is
# meaningful (first occurrence wins on duplicates) and several phrases use
# the right single quote U+2019 rather than an ASCII apostrophe.
DEFAULT_MARKER_PHRASES: tuple[str, ...] = (
    "Wait",
    "Alternatively",
    "Another angle",
    "Another approach",
    "But wait",
    "Hold on",
    "Hmm",
    "Maybe",
    "Looking back",
    "Okay",
    "Let me",
    "First",
    "Then",
    "Alright",
    "Compute",
    "Correct",
    "Good",
    "Got it",
    "I don’t see any errors",
    "I think",
    "Let me double-check",
    "Let’s see",
    "Now",
    "Remember",
    "Seems solid",
    "Similarly",
    "So",
    "Starting",
    "That’s correct",
    "That seems right",
    "Therefore",
    "Thus",
)

# Sentence punctuation that may directly precede a marker occurrence.
_BOUNDARY_PUNCT = ".,;:!?"


@dataclass(frozen=True)
class Token:
    """One vocabulary token at a fixed position in the full sequence."""

    index: int
    id: int
    text: str

    def __post_init__(self) -> None:
        if self.index < 0:
            raise ValueError(f"token index must be non-negative, got {self.index}")
        if self.id < 0:
            raise ValueError(f"token id must be non-negative, got {self.id}")


@dataclass(frozen=True)
class ReasoningTrace:
    """A tokenized prompt plus the reasoning region generated after it.

    Tokens [0, prompt_len) belong to the problem prompt; the reasoning
    region is tokens[reason_start:] with reason_start == prompt_len.
    Instances are immutable and safe to share between threads.
    """

    tokens: tuple[Token, ...]
    prompt_len: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "tokens", tuple(self.tokens))
        for pos, tok in enumerate(self.tokens):
            if tok.index != pos:
                raise ValueError(
                    f"token indices must be contiguous from 0, found index {tok.index} at position {pos}"
                )
        if not 0 <= self.prompt_len <= len(self.tokens):
            raise ValueError(
                f"prompt_len {self.prompt_len} outside [0, {len(self.tokens)}]"
            )

    @property
    def reason_start(self) -> int:
        return self.prompt_len

    @cached_property
    def full_text(self) -> str:
        """Concatenation of all token texts; reproduces the original text exactly."""
        return "".join(tok.text for tok in self.tokens)

    @cached_property
    def _char_ends(self) -> tuple[int, ...]:
        return tuple(accumulate(len(tok.text) for tok in self.tokens))

    @property
    def text_len(self) -> int:
        return self._char_ends[-1] if self.tokens else 0

    @property
    def reasoning_char_start(self) -> int:
        """Character offset where the reasoning region begins in full_text."""
        if self.prompt_len == 0:
            return 0
        return self._char_ends[self.prompt_len - 1]

    @property
    def reasoning_text(self) -> str:
        return self.full_text[self.reasoning_char_start:]

    def token_of_char(self, char_offset: int) -> int:
        """Index of the token whose text span contains char_offset.

        Zero-width tokens (empty text) never contain an offset.
        """
        if not 0 <= char_offset < self.text_len:
            raise OffsetOutOfRange(
                f"char offset {char_offset} outside [0, {self.text_len})"
            )
        return bisect_right(self._char_ends, char_offset)


@dataclass(frozen=True)
class MarkerSet:
    """Ordered set of marker phrases; duplicates dropped, first occurrence kept."""

    phrases: tuple[str, ...]

    def __post_init__(self) -> None:
        seen: set[str] = set()
        kept: list[str] = []
        for phrase in self.phrases:
            if not phrase:
                raise ValueError("marker phrases must be non-empty")
            if phrase not in seen:
                seen.add(phrase)
                kept.append(phrase)
        if not kept:
            raise ValueError("a marker set must contain at least one phrase")
        object.__setattr__(self, "phrases", tuple(kept))

    def __contains__(self, phrase: str) -> bool:
        return phrase in self.phrases

    def __len__(self) -> int:
        return len(self.phrases)


def default_marker_set() -> MarkerSet:
    """The built-in 32-phrase marker set, order preserved."""
    return MarkerSet(DEFAULT_MARKER_PHRASES)


@dataclass(frozen=True)
class Step:
    """A contiguous token span [start, end) of the reasoning region."""

    start: int
    end: int
    marker: str | None = None

    def __post_init__(self) -> None:
        if self.start >= self.end:
            raise ValueError(f"step span [{self.start}, {self.end}) is empty")


@dataclass(frozen=True)
class Segmentation:
    """Ordered steps covering the reasoning region exactly, no gaps or overlaps."""

    steps: tuple[Step, ...]
    trace_len: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "steps", tuple(self.steps))
        if not self.steps:
            raise ValueError("a segmentation must contain at least one step")
        for left, right in zip(self.steps, self.steps[1:]):
            if left.end != right.start:
                raise ValueError(
                    f"steps must be contiguous: [{left.start},{left.end}) then [{right.start},{right.end})"
                )
        if self.steps[-1].end != self.trace_len:
            raise ValueError(
                f"last step ends at {self.steps[-1].end}, trace has {self.trace_len} tokens"
            )

    @cached_property
    def bounds(self) -> np.ndarray:
        """Every step's start, then the last step's end: step sid is
        [bounds[sid], bounds[sid + 1])."""
        return np.array([step.start for step in self.steps] + [self.trace_len])

    def count_per_step(self, mask: np.ndarray) -> np.ndarray:
        """(..., steps) number of True entries of a (..., n) bool mask inside
        each step, for n >= trace_len. Integer sums: their order is exact."""
        return np.add.reduceat(mask[..., :self.trace_len], self.bounds[:-1], axis=-1,
                               dtype=np.int64)


@lru_cache(maxsize=16)
def _marker_scanner(phrases: tuple[str, ...]) -> tuple[re.Pattern, dict[str, tuple[str, ...]]]:
    """A pattern matching each whitespace or sentence punctuation character
    that a character beginning some phrase follows, and the phrases by
    first character, longest first (ties keep set order)."""
    by_first: dict[str, list[str]] = {}
    for phrase in sorted(phrases, key=len, reverse=True):
        by_first.setdefault(phrase[0], []).append(phrase)
    firsts = "".join(re.escape(char) for char in by_first)
    boundary = re.compile(rf"[\s{re.escape(_BOUNDARY_PUNCT)}](?=[{firsts}])")
    return boundary, {char: tuple(group) for char, group in by_first.items()}


def _scan_marker_occurrences(text: str, phrases: tuple[str, ...]) -> list[tuple[int, str]]:
    """Left-to-right scan for marker occurrences.

    A match must start at a word boundary (start of text, after whitespace,
    or after sentence punctuation) and must not be followed by a letter.
    The longest phrase wins at a position, and no match may begin inside a
    match that was already consumed. Only word starts whose character
    begins a phrase are tried, and only with the phrases it begins.
    """
    boundary, by_first = _marker_scanner(phrases)
    # word starts whose character begins a phrase: the start of the text,
    # and the character after each boundary match (which never consumes it)
    starts = [0] if text[:1] in by_first else []
    starts += [match.end() for match in boundary.finditer(text)]
    found: list[tuple[int, str]] = []
    consumed = 0
    n = len(text)
    for pos in starts:
        if pos < consumed:
            continue
        for phrase in by_first[text[pos]]:
            end = pos + len(phrase)
            if text.startswith(phrase, pos) and (end >= n or not text[end].isalpha()):
                found.append((pos, phrase))
                consumed = end
                break
    return found


def segment(trace: ReasoningTrace, markers: MarkerSet) -> Segmentation:
    """Split the reasoning region into steps at marker occurrences.

    The first step always begins at reason_start, marker or not. A marker
    opens a step at the token containing the occurrence's first character;
    two occurrences inside one token open a single step (earliest phrase
    recorded).
    """
    n = len(trace.tokens)
    if trace.reason_start >= n:
        raise EmptyReasoningRegion("trace has an empty reasoning region")
    text = trace.reasoning_text
    base = trace.reasoning_char_start
    opened: dict[int, str] = {}
    for pos, phrase in _scan_marker_occurrences(text, markers.phrases):
        tok = trace.token_of_char(base + pos)
        opened.setdefault(tok, phrase)
    bounds = sorted(set(opened) | {trace.reason_start})
    steps = [
        Step(start, bounds[i + 1] if i + 1 < len(bounds) else n, opened.get(start))
        for i, start in enumerate(bounds)
    ]
    return Segmentation(tuple(steps), n)


def trace_from_dict(data: object) -> ReasoningTrace:
    """A trace from its JSON form, checked by schema.TRACE."""
    check(data, TRACE, "trace")
    return ReasoningTrace(tuple(Token(i, tok["id"], tok["text"])
                                for i, tok in enumerate(data["tokens"])), data["prompt_len"])


def trace_to_dict(trace: ReasoningTrace) -> dict:
    return {"prompt_len": trace.prompt_len,
            "tokens": [{"id": tok.id, "text": tok.text} for tok in trace.tokens]}


def markers_from_dict(data: object) -> MarkerSet:
    """A marker set from its JSON form, checked by schema.MARKERS."""
    check(data, MARKERS, "markers")
    return MarkerSet(tuple(data))


def segmentation_to_dict(seg: Segmentation) -> dict:
    return {"steps": [{"start": step.start, "end": step.end, "marker": step.marker}
                      for step in seg.steps]}
