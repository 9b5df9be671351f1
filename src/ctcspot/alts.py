"""Alternative spellings for biasing words, and the list-file parsers.

Short words gain a character split ("gpu" -> "g p u"); longer compounds are
split against a rank-cost dictionary ("hyperscale" -> "hyper scale").  Both
help when the model heard the word as pieces.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Mapping, Sequence

from .core import Vocabulary, canonical_form, read_text
from .errors import InvalidValueError, UnsegmentableError
from .graph import BiasingEntry, tokenize

logger = logging.getLogger(__name__)

ABBREVIATION_MAX_LEN = 4  # at most this many chars reads as a spelled-out abbreviation
COMPOUND_MIN_LEN = 3


@dataclass(frozen=True)
class WordCostDictionary:
    """Ranked word list with Zipf-style costs: cost = ln((rank+1) * ln(N)).

    Rank is the 0-based position in the list (most frequent first); unknown
    words cost +inf.  Needs at least two words or every cost degenerates.
    """

    words: tuple[str, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "words", tuple(self.words))
        if len(self.words) < 2:
            raise InvalidValueError("cost dictionary needs at least two words")
        if len(set(self.words)) != len(self.words):
            raise InvalidValueError("cost dictionary has duplicate words")

    @cached_property
    def _ranks(self) -> dict[str, int]:
        return {w: r for r, w in enumerate(self.words)}

    @cached_property
    def _log_size(self) -> float:
        return math.log(len(self.words))

    def cost(self, word: str) -> float:
        rank = self._ranks.get(word)
        if rank is None:
            return math.inf
        return math.log((rank + 1) * self._log_size)


def load_wordlist(path: str) -> WordCostDictionary:
    """Read a frequency-ranked word list (one word per line, best first).

    Words are taken in canonical_form; blank lines are skipped and a repeated
    word keeps its first rank.
    """
    words = dict.fromkeys(map(canonical_form, read_text(path).split("\n")))
    return WordCostDictionary(words=tuple(w for w in words if w))


def abbreviation_variant(word: str) -> str | None:
    """Character split for short alphabetic words ("rtx" -> "r t x")."""
    if not word.isalpha() or len(word) > ABBREVIATION_MAX_LEN:
        return None
    return " ".join(word)


def compound_split(word: str, dictionary: WordCostDictionary) -> str | None:
    """Cheapest split of a compound into >= 2 dictionary words of >= 2 chars.

    Returns the space-joined pieces only when their total cost beats the
    word's own cost (unknown words cost +inf, so any finite split wins);
    otherwise None.  Cost ties keep the longest trailing piece.
    """
    n = len(word)
    if n < COMPOUND_MIN_LEN or not word.isalpha():
        return None
    best = [math.inf] * (n + 1)
    back = [0] * (n + 1)
    best[0] = 0.0
    for i in range(2, n + 1):
        for j in range(0, i - 1):
            if j == 0 and i == n:
                continue  # the whole word is not a split
            c = dictionary.cost(word[j:i])
            if best[j] + c < best[i]:
                best[i] = best[j] + c
                back[i] = j
    if not best[n] < dictionary.cost(word):
        return None
    pieces = []
    i = n
    while i > 0:
        pieces.append(word[back[i]:i])
        i = back[i]
    return " ".join(reversed(pieces))


def spelling_variants(
    word: str,
    dictionary: WordCostDictionary | None,
    manual: Iterable[str],
) -> list[str]:
    """Every spelling of a word, in order: the word itself, its abbreviation
    split, its compound split (when a dictionary is given), then the manual
    spellings.  Manual spellings are taken in canonical_form; empty and
    repeated strings are dropped, first occurrence wins.

    The list is a fixed point: passed back as the manual spellings, with the
    same dictionary or none, its tail gives the same list, so a context list
    written from it compiles to the same graph.
    """
    variants = [word, abbreviation_variant(word)]
    if dictionary is not None:
        variants.append(compound_split(word, dictionary))
    variants.extend(map(canonical_form, manual))
    return [v for v in dict.fromkeys(variants) if v]


def expand_entries(
    words: Iterable[str],
    vocab: Vocabulary,
    dictionary: WordCostDictionary | None = None,
    manual_alts: Mapping[str, Sequence[str]] | None = None,
) -> list[BiasingEntry]:
    """Build biasing entries with every usable transcription variant.

    Words are taken in canonical_form; empty and repeated words are dropped,
    first occurrence wins.  A word's variants are spelling_variants' list
    (the generated splits are always included), tokenized primary spelling
    first: a word whose primary spelling fails to tokenize drops the whole
    entry, any other variant that fails is skipped, each with a warning.  BiasingEntry drops repeated token sequences.
    """
    manual = manual_alts or {}
    entries: list[BiasingEntry] = []
    for word in dict.fromkeys(map(canonical_form, words)):
        if not word:
            continue
        primary, *others = spelling_variants(word, dictionary, manual.get(word, ()))
        try:
            transcriptions = [tokenize(primary, vocab)]
        except UnsegmentableError as exc:
            logger.warning("dropping entry %r: %s", word, exc)
            continue
        for variant in others:
            try:
                transcriptions.append(tokenize(variant, vocab))
            except UnsegmentableError as exc:
                logger.warning("skipping variant %r of %r: %s", variant, word, exc)
        entries.append(BiasingEntry(canonical=word, transcriptions=tuple(transcriptions)))
    return entries


def load_context_list(path: str) -> list[tuple[str, tuple[str, ...]]]:
    """Read a context list: one entry per line, canonical[TAB alt_spelling]*.

    Lines starting with '#' and lines with an empty first field are skipped.
    Every field is taken in canonical_form: lowercased, runs of whitespace
    read as one space.  Returns one (word, alternatives) pair per distinct
    word in first-seen order; a word on several rows keeps the alternatives
    of every row, in row order.
    """
    alts: dict[str, list[str]] = {}
    for line in read_text(path).split("\n"):
        if line.lstrip().startswith("#"):
            continue
        canonical, *others = map(canonical_form, line.split("\t"))
        if canonical:
            alts.setdefault(canonical, []).extend(p for p in others if p)
    return [(w, tuple(a)) for w, a in alts.items()]

