"""Helpers that only tests need."""

import functools

import numpy as np
from hypothesis import strategies as st

from sumprobe.corpus import AnnotatedDocument, MentionSpan
from sumprobe.generate import EntityAssignment
from sumprobe.measures import (
    BootstrapRecord,
    distinguishability,
    distinguishability_score,
    entity_inclusion_score,
    hallucination_bias_score,
    hallucination_stats,
    inclusion_stats,
    score_with_ci,
)
from sumprobe.templates import DocumentTemplate
from sumprobe.words import word_list_score, word_list_stats


def identity_assignments(template: DocumentTemplate) -> list[EntityAssignment]:
    """Assignments that keep every entity's original name and gender."""
    return [
        EntityAssignment(
            entity=e.id,
            group=e.original_gender or "unknown",
            gender=e.original_gender or "male",
            first=e.first or "",
            last=e.last,
        )
        for e in template.entities
    ]


def mentions(doc: AnnotatedDocument) -> list[MentionSpan]:
    """Every mention of every chain, sorted."""
    return sorted(m for spans in doc.chains.values() for m in spans)


def holes(template: DocumentTemplate) -> list[tuple[int, int]]:
    """The (start, end) spans that a template's slots and content spans
    fill, sorted."""
    spans = [(s.start, s.end) for e in template.entities for s in e.slots]
    spans += [(c.start, c.end) for c in template.content_spans]
    return sorted(spans)


# --- scoring record sets through the row scorers ---------------------------------


def point(score, rows):
    """The point estimate the pipeline gives a record set with these
    statistics rows; None for no score (no records, or a row with none)."""
    records = [BootstrapRecord("o", 0, np.array(row, dtype=np.int64)) for row in rows]
    return score_with_ci(records, score, axes=())["point"]


def word_list_stats_of(payloads):
    """Statistics rows of per-record (summary counts, input counts) pairs,
    over the groups of the summary counts."""
    groups = sorted({g for summary_counts, _ in payloads for g in summary_counts})
    return [word_list_stats(s, i, groups) for s, i in payloads]


def inclusion_stats_of(payloads):
    """Statistics rows of per-record {group: (included, total)} tables."""
    groups = sorted({g for table in payloads for g in table})
    return [inclusion_stats(table, groups) for table in payloads]


def word_list_point(payloads, reference="adjusted"):
    """Word-list inclusion of per-record (summary counts, input counts) pairs."""
    return point(functools.partial(word_list_score, reference=reference),
                 word_list_stats_of(payloads))


def inclusion_point(payloads):
    """Entity inclusion of per-record {group: (included, total)} tables."""
    return point(entity_inclusion_score, inclusion_stats_of(payloads))


def hallucination_point(genders):
    """Hallucination bias of one record's classified-gender counts."""
    return point(hallucination_bias_score, [hallucination_stats(genders)])


def distinguishability_point(points):
    """Distinguishability of summary points, every skipped original left out."""
    stats, _ = distinguishability(points)
    return point(distinguishability_score, list(stats.values()))


# --- random summary tokens ---------------------------------------------------------

# names in three casings, every title, gendered pronouns, plain and ALL-CAPS words
_TOKEN_CORES = ["Melissa", "melissa", "MELISSA", "Levin", "levin", "LEVIN", "Mr.", "mr.", "MR.",
                "Mrs.", "Ms.", "Mr", "Sir", "sir", "Lady", "LADY", "He", "he", "HER", "hers",
                "Himself", "they", "The", "the", "NASA", "UN", "said", "O'Neil", "Jean-Paul",
                "Émile", "x", "X", "1990", ""]
# edge punctuation, sentence enders among it; around an empty core, a token of
# punctuation only
_TOKEN_EDGES = ["", ".", ",", "!", "?", '"', "'", "(", ")", "--", "...", '."', "?!", ":", ")."]
_cores = (st.sampled_from(_TOKEN_CORES)
          | st.text(st.characters(blacklist_categories=("Z", "C")), max_size=4))
_edges = st.sampled_from(_TOKEN_EDGES)
raw_tokens = st.tuples(_edges, _cores, _edges).map("".join)
summary_texts = st.lists(raw_tokens, max_size=40).map(" ".join) | st.text(max_size=40)
lexicons = st.frozensets(st.sampled_from(["melissa", "levin", "nasa", "the", "x", "émile"]))
