"""Alternative-spelling generation and the list-file parsers."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import char_vocab
from ctcspot import (
    InvalidValueError,
    WordCostDictionary,
    abbreviation_variant,
    compound_split,
    expand_entries,
    load_context_list,
    load_wordlist,
)
from ctcspot.alts import spelling_variants
from ctcspot.core import canonical_form


@pytest.fixture
def dictionary() -> WordCostDictionary:
    return WordCostDictionary(words=("scale", "hyper", "data", "base", "set", "hypers"))


class TestWordCostDictionary:
    def test_cost_formula(self, dictionary):
        n = math.log(6)
        assert dictionary.cost("scale") == pytest.approx(math.log(1 * n))
        assert dictionary.cost("hyper") == pytest.approx(math.log(2 * n))
        assert dictionary.cost("set") == pytest.approx(math.log(5 * n))

    def test_unknown_word_is_infinite(self, dictionary):
        assert dictionary.cost("nvidia") == math.inf
        assert math.isfinite(dictionary.cost("scale"))

    def test_cost_increases_with_rank(self, dictionary):
        costs = [dictionary.cost(w) for w in dictionary.words]
        assert costs == sorted(costs)

    def test_needs_two_words(self):
        with pytest.raises(InvalidValueError):
            WordCostDictionary(words=("only",))

    def test_rejects_duplicates(self):
        with pytest.raises(InvalidValueError):
            WordCostDictionary(words=("a", "b", "a"))


class TestLoadWordlist:
    def test_dedup_keeps_first_rank(self, tmp_path):
        path = tmp_path / "words.txt"
        path.write_text("The\nof\nthe\n\nand\n", encoding="utf-8")
        d = load_wordlist(str(path))
        assert d.words == ("the", "of", "and")


class TestAbbreviationVariant:
    def test_short_word_splits(self):
        assert abbreviation_variant("gpu") == "g p u"
        assert abbreviation_variant("rtx") == "r t x"
        assert abbreviation_variant("cuda") == "c u d a"

    def test_five_letters_is_not_an_abbreviation(self):
        assert abbreviation_variant("cloud") is None

    def test_non_alpha_rejected(self):
        assert abbreviation_variant("h100") is None
        assert abbreviation_variant("a b") is None
        assert abbreviation_variant("") is None


class TestCompoundSplit:
    def test_two_known_pieces(self, dictionary):
        assert compound_split("hyperscale", dictionary) == "hyper scale"
        assert compound_split("database", dictionary) == "data base"

    def test_three_pieces(self, dictionary):
        assert compound_split("datasetbase", dictionary) == "data set base"

    def test_known_word_with_no_cheaper_split_stays_whole(self, dictionary):
        # "hypers" is in the dictionary; "hyper"+"s" has no 2-char split and
        # any split containing an unknown piece costs +inf
        assert compound_split("hypers", dictionary) is None

    def test_whole_word_never_counts_as_its_own_split(self, dictionary):
        assert compound_split("scale", dictionary) is None

    def test_unknown_pieces_give_no_split(self, dictionary):
        assert compound_split("nvidia", dictionary) is None

    def test_short_or_non_alpha_rejected(self, dictionary):
        assert compound_split("ab", dictionary) is None
        assert compound_split("data-base", dictionary) is None

    def test_split_must_strictly_beat_whole_word(self):
        # "ab" at rank 0 is the cheapest token; "abab" sits at rank 1, and
        # ln(2 ln 4) > 2 ln(ln 4) means the two-piece split wins strictly
        d = WordCostDictionary(words=("ab", "abab", "zz", "yy"))
        assert compound_split("abab", d) == "ab ab"
        # push "abab" to rank 0 and the split (2 * cost of rank-1 "ab") loses
        d2 = WordCostDictionary(words=("abab", "ab", "zz", "yy"))
        assert compound_split("abab", d2) is None

    def test_tie_keeps_longest_trailing_piece(self):
        # a split's cost sum is ln((r1+1)(r2+1) L^2), so equal (rank+1)
        # products tie exactly: ab(1)*cde(5) -> 2*6 = abc(2)*de(3) -> 3*4
        d = WordCostDictionary(words=("zz", "ab", "abc", "de", "yy", "cde"))
        assert compound_split("abcde", d) == "ab cde"

    def test_pieces_must_have_two_chars(self):
        # "a" and "bc" are both ranked, but 1-char pieces are never used
        d = WordCostDictionary(words=("a", "bc", "zz", "yy"))
        assert compound_split("abc", d) is None


class TestSpellingVariants:
    def test_order_and_duplicates(self, dictionary):
        got = spelling_variants("gpu", dictionary, [" G P U", "gpu", "jeepu", "", "G  P  U"])
        assert got == ["gpu", "g p u", "jeepu"]

    def test_compound_split_needs_a_dictionary(self, dictionary):
        assert spelling_variants("hyperscale", None, ()) == ["hyperscale"]
        assert spelling_variants("hyperscale", dictionary, ())[1:] == ["hyper scale"]

    @settings(max_examples=300, deadline=None)
    @given(
        # words as the list parsers hand them over: in canonical_form, not empty
        word=st.text("abcAB ", min_size=1, max_size=8).map(canonical_form).filter(bool),
        pieces=st.lists(st.text("abc", min_size=2, max_size=3), min_size=2, unique=True),
        manual=st.lists(st.text("abcAB \t", max_size=6), max_size=3),
        with_dictionary=st.booleans(),
        same_dictionary_again=st.booleans(),
    )
    def test_variants_fed_back_as_manual_give_the_same_list(
        self, word, pieces, manual, with_dictionary, same_dictionary_again
    ):
        # gen-alts writes the tail as a row's alternatives; build-graph reads
        # it back with no --wordlist or the same one and must see this list
        d = WordCostDictionary(words=tuple(pieces)) if with_dictionary else None
        variants = spelling_variants(word, d, manual)
        again = d if same_dictionary_again else None
        assert spelling_variants(word, again, variants[1:]) == variants


class TestExpandEntries:
    def test_variants_in_order(self, dictionary):
        vocab = char_vocab("gpuhyerscal")
        entries = expand_entries(["gpu", "hyperscale"], vocab, dictionary=dictionary)
        assert [e.canonical for e in entries] == ["gpu", "hyperscale"]
        gpu, hyper = entries
        # "gpu" and "g p u" (space-joined chars)
        assert len(gpu.transcriptions) == 2
        space = vocab.space_id
        assert gpu.transcriptions[1] == (
            vocab.token_to_id["g"], space, vocab.token_to_id["p"], space, vocab.token_to_id["u"]
        )
        # "hyperscale" and "hyper scale" (no abbreviation: too long)
        assert len(hyper.transcriptions) == 2

    def test_manual_alts_appended(self):
        vocab = char_vocab("gpujise")
        entries = expand_entries(["gpu"], vocab, manual_alts={"gpu": ("jipiju",)})
        assert len(entries[0].transcriptions) == 3  # word, char split, manual

    def test_duplicate_words_first_wins(self):
        vocab = char_vocab("gpu")
        entries = expand_entries(["gpu", "GPU ", "gpu"], vocab)
        assert len(entries) == 1

    def test_duplicate_token_sequences_dropped(self):
        vocab = char_vocab("gpu")
        # the manual alt tokenizes identically to the auto char split
        entries = expand_entries(["gpu"], vocab, manual_alts={"gpu": ("g p u",)})
        assert len(entries[0].transcriptions) == 2

    def test_primary_failure_drops_entry(self, caplog):
        vocab = char_vocab("gpu")
        with caplog.at_level("WARNING"):
            entries = expand_entries(["xyz", "gpu"], vocab)
        assert [e.canonical for e in entries] == ["gpu"]
        assert "xyz" in caplog.text

    def test_variant_failure_skips_variant_only(self, caplog):
        vocab = char_vocab("gpu")
        with caplog.at_level("WARNING"):
            entries = expand_entries(["gpu"], vocab, manual_alts={"gpu": ("qqq",)})
        assert len(entries) == 1
        assert len(entries[0].transcriptions) == 2  # word + char split survive
        assert "qqq" in caplog.text

    def test_empty_and_blank_words_skipped(self):
        vocab = char_vocab("gpu")
        entries = expand_entries(["", "  ", "gpu"], vocab)
        assert len(entries) == 1


class TestListFiles:
    def test_context_list(self, tmp_path):
        path = tmp_path / "ctx.txt"
        path.write_text(
            "# biasing words\nGPU\ncloud\tk l o u d\t cloudy \n\n  # more\nBase\n",
            encoding="utf-8",
        )
        rows = load_context_list(str(path))
        assert rows == [
            ("gpu", ()),
            ("cloud", ("k l o u d", "cloudy")),
            ("base", ()),
        ]

    def test_context_list_blank_canonical_skipped(self, tmp_path):
        path = tmp_path / "ctx.txt"
        path.write_text("\talt-only\ngpu\n", encoding="utf-8")
        assert load_context_list(str(path)) == [("gpu", ())]

    def test_context_list_merges_repeated_rows(self, tmp_path):
        path = tmp_path / "ctx.txt"
        path.write_text(
            "# word TAB alt\ncloud\ngpu\tg p u\nrtx\nGPU\tgee pee you\ncloud\ngpu\n"
            "GeForce  RTX\tgee  force\ngeforce rtx\n",
            encoding="utf-8",
        )
        # one pair per word in first-seen order; a repeated word's alternatives
        # accumulate in row order, and a repeated row without any adds none;
        # a run of whitespace inside a field reads as one space
        assert load_context_list(str(path)) == [
            ("cloud", ()),
            ("gpu", ("g p u", "gee pee you")),
            ("rtx", ()),
            ("geforce rtx", ("gee force",)),
        ]
