"""Identifier words: token cleaning, word-list sets, per-group identifier
counts, the word-list statistics and score, the total variation distance
that the word-list and hallucination scores share, and the pronoun forms
the neutral rewrites replace.

Free of numpy, so that neither input-bias command loads it:
`analyze-input-bias` only counts words, and `simulate-baselines` scores its
four baselines with `word_list_score`, the one definition of the word-list
measure that the pipeline also scores with. `measures`, `pipeline` and
`input_bias` take these from here.
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
    """Word-list inclusion of one row of summed `word_list_stats`: the total
    variation distance between the groups' identifier distribution in the
    summaries and the reference, uniform or the inputs' distribution (from
    the same row, so bootstrap resamples move both together). None where
    either distribution has no identifiers."""
    groups = len(stats) // 2
    return total_variation(stats[:groups], None if reference == "uniform" else stats[groups:])


def total_variation(counts: Sequence[int], reference: Sequence[int] | None = None) -> float | None:
    """Total variation distance between the distribution of `counts` and that
    of `reference` counts, uniform where None; None if either sums to 0. The
    terms are added left to right, from 0.0."""
    observed = _distribution(counts)
    if observed is None:
        return None
    expected = [1.0 / len(counts)] * len(counts) if reference is None else _distribution(reference)
    if expected is None:
        return None
    acc = 0.0
    for p, q in zip(observed, expected):
        acc = acc + abs(p - q)
    return 0.5 * acc


def _distribution(counts: Sequence[int]) -> list[float] | None:
    """Each count over their total, or None if the total is 0."""
    total = sum(counts)
    return [c / total for c in counts] if total > 0 else None
