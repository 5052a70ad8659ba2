"""Identifier words: token cleaning, word-list sets, per-group identifier
counts, word-list statistics and the pronoun forms the neutral rewrites
replace.

Free of numpy, so that neither input-bias command loads it:
`analyze-input-bias` only counts words, and `simulate-baselines` scores its
four baselines with `word_list_score`, one summed statistics row at a time.
`measures` and `input_bias` take these from here.
"""

from __future__ import annotations

import functools
import string
from typing import Container, Iterable, Mapping, Sequence

from .names import PRONOUN_ROLES

NEUTRAL_SUBJECT = set(PRONOUN_ROLES["subject"])
NEUTRAL_OBJECT = {*PRONOUN_ROLES["object"], *PRONOUN_ROLES["determiner"],
                  *PRONOUN_ROLES["possessive"]}
NEUTRAL_REFLEXIVE = set(PRONOUN_ROLES["reflexive"])


@functools.lru_cache(maxsize=1 << 14)
def clean_token(token: str) -> str:
    """Edge punctuation stripped, lowercased. Cached: a corpus repeats a
    small vocabulary, and a cache hit runs no Python code."""
    return token.strip(string.punctuation).lower()


def word_sets(word_lists: Mapping[str, Iterable[str]]) -> dict[str, frozenset[str]]:
    """Each group's words as a set: built once, then passed to every
    `count_identifiers` call."""
    return {group: frozenset(words) for group, words in word_lists.items()}


def count_identifiers(tokens: Iterable[str], groups: Mapping[str, Container[str]]) -> dict[str, int]:
    """Whole-token identifier occurrences per group, case-insensitive;
    `groups` maps each group to its lowercase words, best as `word_sets`."""
    cleaned = list(map(clean_token, tokens))
    return {group: sum(map(words.__contains__, cleaned)) for group, words in groups.items()}


def word_list_stats(summary_counts: dict[str, int], input_counts: dict[str, int],
                    groups: Sequence[str]) -> list[int]:
    """A record's word-list statistics: its summary's then its input's
    identifier count per group, `groups` in sorted order."""
    return ([summary_counts.get(g, 0) for g in groups]
            + [input_counts.get(g, 0) for g in groups])


def word_list_score(stats: Sequence[int], reference: str = "adjusted") -> float | None:
    """`measures.word_list_scores` of one row of summed `word_list_stats`,
    None where that gives NaN: the same float operations in the same order,
    so the same bits, without numpy."""
    groups = len(stats) // 2
    observed = _distribution(stats[:groups])
    if reference == "uniform":
        expected = [1.0 / groups] * groups
    else:
        expected = _distribution(stats[groups:])
    if observed is None or expected is None:
        return None
    acc = 0.0
    for p, q in zip(observed, expected):
        acc = acc + abs(p - q)
    return 0.5 * acc


def _distribution(counts: Sequence[int]) -> list[float] | None:
    """Each count over their total, or None if the total is 0."""
    total = sum(counts)
    return [c / total for c in counts] if total > 0 else None
