"""Expected answers for every timed operation, computed before timing.

All answers come from :class:`repro.check.oracles.Oracle` (a naive
``str.find`` scan that shares no code with SPINE) or, for matching
statistics, from a direct scan of the oracle's folded text. They are
computed once per run, outside ``setup_s``, and every timed answer is
compared with them.
"""

from __future__ import annotations

from repro.alphabet import dna_alphabet
from repro.check.oracles import Oracle


class WrongAnswer(Exception):
    """A timed operation returned something other than the oracle's
    answer. The run stops and exits non-zero; it is never counted as a
    slow or failed operation."""


def make_oracle(text):
    """The ground-truth oracle for a DNA text."""
    return Oracle(text, alphabet=dna_alphabet())


def contains_answers(oracle, patterns):
    """``{pattern: bool}``."""
    return {p: oracle.expected("contains", p)[1] for p in patterns}


def find_all_answers(oracle, patterns):
    """``{pattern: [starts]}`` (sorted, overlapping occurrences)."""
    return {p: oracle.expected("find_all", p)[1] for p in patterns}


class SubstringIndex:
    """Substring tests on a text by a table of its ``k``-mers.

    A pattern of at least ``k`` characters is looked up by its first
    ``k``-mer and confirmed with ``str.startswith``; every shorter
    substring of the text is kept in a set.
    """

    def __init__(self, text, k=8):
        self.text = text
        self.k = k
        n = len(text)
        positions = {}
        for i in range(n - k + 1):
            positions.setdefault(text[i:i + k], []).append(i)
        self._positions = positions
        short = {key[:m] for key in positions for m in range(1, k)}
        for i in range(max(0, n - k + 1), n):
            short.update(text[i:i + m] for m in range(1, n - i + 1))
        self._short = short

    def starts(self, pattern):
        """Sorted starts of every occurrence of ``pattern`` (at least
        ``k`` characters)."""
        text = self.text
        return [p for p in self._positions.get(pattern[:self.k], ())
                if text.startswith(pattern, p)]

    def occurs(self, pattern):
        if len(pattern) < self.k:
            return pattern in self._short
        text = self.text
        return any(text.startswith(pattern, p)
                   for p in self._positions.get(pattern[:self.k], ()))


def matching_lengths(index, query):
    """End-aligned matching statistics of ``query`` against the text of
    ``index`` (a :class:`SubstringIndex`).

    ``lengths[j]`` is the length of the longest suffix of
    ``query[:j+1]`` that occurs in the text. Once the current match is
    ``k`` long the scan keeps its occurrence starts, so extending it
    tests one character per start. When the extension fails, the new
    length is found by binary search: a suffix that occurs implies that
    every shorter one does. The result is the unique maximal answer, so
    a reported array equal to it passes the maximality check: every
    reported suffix occurs, and the suffix one character longer does
    not.
    """
    text = index.text
    n = len(text)
    k = index.k
    lengths = []
    length = 0
    starts = None      # occurrence starts of the match, once k long
    for j, ch in enumerate(query):
        if starts is not None:
            starts = [s for s in starts
                      if s + length < n and text[s + length] == ch]
            found = bool(starts)
        else:
            found = index.occurs(query[j - length:j + 1])
        if found:
            length += 1
        else:
            # The suffix of length ``length + 1`` failed, so the new
            # match is at most ``length`` long (1 from an empty match).
            lo, hi = 0, max(length, 1)
            while lo < hi:
                mid = (lo + hi + 1) // 2
                if index.occurs(query[j + 1 - mid:j + 1]):
                    lo = mid
                else:
                    hi = mid - 1
            length = lo
            starts = None
        if starts is None and length >= k:
            starts = index.starts(query[j + 1 - length:j + 1])
        lengths.append(length)
    return lengths


def check(op, got, want, detail):
    """Raise :class:`WrongAnswer` unless ``got == want``."""
    if got != want:
        raise WrongAnswer(
            f"{op} {detail}: expected {_short(want)}, got {_short(got)}")


def _short(value):
    text = repr(value)
    return text if len(text) <= 120 else text[:117] + "..."
