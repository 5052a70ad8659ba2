"""Helpers that only tests need."""

import functools

import numpy as np

from sumprobe.generate import EntityAssignment
from sumprobe.measures import (
    BootstrapRecord,
    distinguishability,
    distinguishability_scores,
    hallucination_scores,
    hallucination_stats,
    inclusion_stats,
    score_with_ci,
    word_list_scores,
    word_list_stats,
)
from sumprobe.templates import DocumentTemplate


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


# --- scoring record sets through the statistics scorers --------------------------


def point(scores, rows):
    """The point estimate the pipeline gives a record set with these
    statistics rows; None for no score (no records, or a NaN score)."""
    records = [BootstrapRecord("o", 0, np.array(row, dtype=np.int64)) for row in rows]
    return score_with_ci(records, scores, axes=()).point


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
    return point(functools.partial(word_list_scores, reference=reference),
                 word_list_stats_of(payloads))


def hallucination_point(genders):
    """Hallucination bias of one record's classified-gender counts."""
    return point(hallucination_scores, [hallucination_stats(genders)])


def distinguishability_point(points):
    """Distinguishability of summary points, every skipped original left out."""
    stats, _ = distinguishability(points)
    return point(distinguishability_scores, list(stats.values()))
