"""Search-layer tests: first/all occurrences, batched scanning, paths."""

import pytest

from repro.core import (
    OccurrenceScanner, SpineIndex, is_valid_path, trace_path)
from repro.core.batch import traverse_first_end
from repro.exceptions import SearchError
from tests.conftest import brute_occurrences


@pytest.fixture(scope="module")
def index():
    return SpineIndex("abracadabraabracadabra")


class TestFindFirst:
    def test_finds_first_not_any(self, index):
        text = index.text
        for pattern in ("abra", "a", "cad", "abracadabra", "raab"):
            assert index.find_first(pattern) == text.find(pattern)

    def test_absent_pattern(self, index):
        assert index.find_first("zzz" if "z" in index.alphabet
                          else "dd") is None

    def test_empty_pattern_at_zero(self, index):
        assert index.find_first("") == 0

    def test_find_first_end_is_node_id(self, index):
        codes = index.alphabet.encode("abra")
        assert traverse_first_end(index, codes, len(index)) == 4


class TestFindAll:
    @pytest.mark.parametrize("pattern", ["a", "ab", "abra", "bra",
                                         "abracadabra", "aa", "ra"])
    def test_matches_brute_force(self, index, pattern):
        assert index.find_all(pattern) == brute_occurrences(
            index.text, pattern)

    def test_overlapping_occurrences(self):
        idx = SpineIndex("aaaa")
        assert idx.find_all("aa") == [0, 1, 2]

    def test_empty_pattern_rejected(self, index):
        with pytest.raises(SearchError):
            index.find_all("")

    def test_absent_pattern_empty_list(self, index):
        assert index.find_all("dddd") == []


class TestOccurrenceScanner:
    def test_batched_equals_individual(self, index):
        text = index.text
        patterns = ["abra", "a", "ra", "cad"]
        scanner = OccurrenceScanner(index)
        pids = {}
        for p in patterns:
            end = traverse_first_end(index, index.alphabet.encode(p),
                                     len(index))
            pids[p] = scanner.add(end, len(p))
        starts = scanner.resolve_starts()
        for p in patterns:
            assert starts[pids[p]] == brute_occurrences(text, p), p

    def test_add_validates_length(self, index):
        scanner = OccurrenceScanner(index)
        with pytest.raises(SearchError):
            scanner.add(3, 0)

    def test_add_validates_node(self, index):
        scanner = OccurrenceScanner(index)
        with pytest.raises(SearchError):
            scanner.add(0, 1)
        with pytest.raises(SearchError):
            scanner.add(len(index) + 1, 1)

    def test_add_rejects_impossible_registration(self, index):
        # A pattern of length m ending at node e starts at e - m; any
        # m > e is geometrically impossible and used to be accepted
        # silently, yielding negative start positions at resolve time.
        scanner = OccurrenceScanner(index)
        with pytest.raises(SearchError, match="cannot end"):
            scanner.add(3, 4)
        scanner.add(3, 3)  # boundary: start 0 is fine

    def test_empty_scanner_resolves_empty(self, index):
        assert OccurrenceScanner(index).resolve() == {}

    def test_duplicate_patterns_allowed(self, index):
        scanner = OccurrenceScanner(index)
        end = traverse_first_end(index, index.alphabet.encode("abra"),
                                 len(index))
        pid1 = scanner.add(end, 4)
        pid2 = scanner.add(end, 4)
        starts = scanner.resolve_starts()
        assert starts[pid1] == starts[pid2]


class TestPathTracing:
    def test_trace_follows_backbone_and_ribs(self):
        idx = SpineIndex("aaccacaaca")
        assert trace_path(idx, "aacc") == [0, 1, 2, 3, 4]
        assert trace_path(idx, "ac") == [0, 1, 3]

    def test_trace_none_for_invalid(self):
        idx = SpineIndex("aaccacaaca")
        assert trace_path(idx, "accaa") is None

    def test_is_valid_path_equals_substring(self):
        idx = SpineIndex("aaccacaaca")
        text = idx.text
        for pattern in ("", "a", "cc", "accaa", "caacaa", "aaccacaaca"):
            assert is_valid_path(idx, pattern) == (pattern in text)


class TestStep:
    def test_vertebra_always_traversable(self):
        idx = SpineIndex("aaccacaaca")
        # Vertebra from node 0 labeled 'a' at any path length.
        code_a = idx.alphabet.encode_char("a")
        assert idx.step(0, 0, code_a) == 1

    def test_rib_threshold_enforced(self):
        idx = SpineIndex("aaccacaaca")
        code_a = idx.alphabet.encode_char("a")
        # Rib at node 5 has PT 2: pathlength 2 passes, 3 falls through
        # to the (absent) chain and fails.
        assert idx.step(5, 2, code_a) == 8
        assert idx.step(5, 3, code_a) is None

    def test_extrib_fallthrough(self):
        idx = SpineIndex("aaccacaaca")
        code_a = idx.alphabet.encode_char("a")
        # Rib at node 3 (PT 1) fails at pathlength 2; its first extrib
        # (PT 2) covers it and leads to node 7.
        assert idx.step(3, 2, code_a) == 7
        # Pathlength 3 is covered by the second chain element.
        assert idx.step(3, 3, code_a) == 10
        # Pathlength 4 exceeds the whole chain.
        assert idx.step(3, 4, code_a) is None
