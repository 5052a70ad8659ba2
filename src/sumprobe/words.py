"""Identifier words: token cleaning, word-list sets, per-group identifier
counts and the pronoun forms the neutral rewrites replace.

Free of numpy, so that `analyze-input-bias`, which only counts words, starts
without it; `measures` and `input_bias` take these from here.
"""

from __future__ import annotations

import functools
import string
from typing import Container, Iterable, Mapping

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
