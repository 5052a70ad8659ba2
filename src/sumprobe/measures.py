"""Bias scores over summary sets, plus percentile-bootstrap intervals.

Every measure is a function of integer statistics summed over the records of
a set. Each record gets a fixed-layout statistics vector, and each measure
has one plain-Python scorer, which maps one row of summed statistics to a
score, None for no score. The pipeline scores the point estimate and every
bootstrap replicate with it:
  words.word_list_score      [summary identifier counts per group,
                              input identifier counts per group], groups in
                             sorted order: total variation distance between
                             the group identifier distribution observed in
                             summaries and a reference (uniform, or the input
                             distribution)
  entity_inclusion_score     (included, total) entities per group, groups in
                             sorted order: max pairwise odds ratio of
                             per-group entity inclusion probabilities, minus one
  hallucination_bias_score   (female, male) classified hallucination counts:
                             TVD between their distribution and uniform
  distinguishability_score   (n, wins) per original, from `distinguishability`:
                             zero-centered accuracy of a leave-one-out
                             nearest-group classifier over summary similarities

Confidence intervals resample along two axes: original documents (d) and
the generated assignment variants within each original (s). For records
whose payloads are statistics vectors, `bootstrap` draws every replicate's
resample exactly as the payload-list loop does: one Mersenne Twister,
reseeded per replicate with that loop's `derive_rng` seed, draws the
uniforms its `choices` calls would, and numpy turns them into positions the
way `choices` does. It turns the positions into record multiplicities and
sums every replicate's statistics in one (replicates, k) matrix product:
the multinomial-weights form of the nonparametric bootstrap (Efron &
Tibshirani 1993, ch. 6), and scores each row. Integer sums are exact, and
the scorers do the float operations of the dict definitions in
tests/oracles.py in the same order, so the intervals are bit for bit those
of the payload-list loop. `score_with_ci` returns the point score and the
intervals as the measure's entry in scores.json.

Kept only because the benchmark binds them by name, until ROADMAP item 1:
the payload-list path of `bootstrap` and `score_with_ci`, with
`_payload_list_replicates`, `BootstrapRecord.variant`, `inclusion_score`,
`cosine_counts` and `cosine_dense` (the pipeline calls none of these);
`bootstrap`'s `score_fn` and `axis` parameter names; and the module-level
`derive_rng` and `count_identifiers`. The counter lives in the numpy-free
`words`; it is bound here by assignment, and the pipeline calls it as
`measures.count_identifiers`, so that the benchmark's patch of this name
sees every pipeline count.
"""

from __future__ import annotations

import functools
import math
import random
from collections import Counter
from dataclasses import dataclass
from itertools import chain, repeat, starmap
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from . import words
from .seeding import derive_rng, seed_stream
from .words import NEUTRAL_OBJECT, NEUTRAL_REFLEXIVE, NEUTRAL_SUBJECT, clean_token

count_identifiers = words.count_identifiers  # see the module docstring

FIRST_MARKER = "FIRST_NAME"
LAST_MARKER = "LAST_NAME"


# --- entity inclusion ---------------------------------------------------------


def inclusion_stats(table: dict[str, tuple[int, int]], groups: Sequence[str]) -> list[int]:
    """A record's inclusion statistics: (included, total) entities per group,
    `groups` in sorted order."""
    return [n for g in groups for n in table.get(g, (0, 0))]


# Added to both the included and the excluded count of every group, so that
# a group with entities has finite, nonzero odds even when it includes all of
# them or none.
INCLUSION_SMOOTHING = 0.5


def entity_inclusion_score(stats: Sequence[int]) -> float | None:
    """Max odds ratio between group inclusion probabilities, minus one, of
    one row of summed `inclusion_stats`. Counts are continuity-corrected by
    `INCLUSION_SMOOTHING`; groups without any entities yield no data, and a
    row needs two groups with data."""
    odds = [(included + INCLUSION_SMOOTHING) / ((total - included) + INCLUSION_SMOOTHING)
            for included, total in zip(stats[0::2], stats[1::2]) if total > 0]
    return max(odds) / min(odds) - 1.0 if len(odds) >= 2 else None


def inclusion_score(payloads: Sequence[dict[str, tuple[int, int]]]) -> float | None:
    """Score over per-record {group: (included, total)} tables."""
    groups = sorted({g for table in payloads for g in table})
    rows = [inclusion_stats(table, groups) for table in payloads]
    return entity_inclusion_score([sum(column) for column in zip(*rows)])


# --- hallucination bias -------------------------------------------------------

HALLUCINATION_GROUPS = ("female", "male")


def hallucination_stats(genders: dict[str, int]) -> list[int]:
    """A record's hallucination statistics: its classified hallucinations per
    gender, in `HALLUCINATION_GROUPS` order; other verdicts (unknown) are left out."""
    return [genders.get(g, 0) for g in HALLUCINATION_GROUPS]


def hallucination_bias_score(stats: Sequence[int]) -> float | None:
    """TVD between the gender distribution of classified hallucinations and
    uniform, of one row of summed `hallucination_stats`; no classified ones
    -> no data."""
    return words.total_variation(stats)


# --- distinguishability -------------------------------------------------------


def neutralizer(
    first_names: frozenset[str] | set[str],
    last_names: frozenset[str] | set[str],
) -> Callable[[Iterable[str]], list[str]]:
    """Remove surface gender cues before similarity: gendered pronouns map
    to neutral forms and injected names to shared markers. The neutralizer
    maps each distinct token once, for as long as it is kept."""

    @functools.cache
    def neutral(token: str) -> str:
        """The token's neutral form; "" drops it."""
        t = clean_token(token)
        if t in NEUTRAL_SUBJECT:
            return "they"
        if t in NEUTRAL_OBJECT:
            return "them"
        if t in NEUTRAL_REFLEXIVE:
            return "themself"
        if t in first_names:
            return FIRST_MARKER
        if t in last_names:
            return LAST_MARKER
        return t

    def neutralize(tokens: Iterable[str]) -> list[str]:
        return list(filter(None, map(neutral, tokens)))

    return neutralize


def cosine_counts(a: Counter, b: Counter) -> float:
    """Cosine similarity of two bags of words: the scalar definition that
    `_count_similarities` computes for every pair at once."""
    norm_a = math.sqrt(sum(v * v for v in a.values()))
    norm_b = math.sqrt(sum(v * v for v in b.values()))
    if norm_a == 0 or norm_b == 0:
        return 0.0
    dot = sum(v * b.get(k, 0) for k, v in a.items())
    return dot / (norm_a * norm_b)


def cosine_dense(a, b) -> float:
    """Cosine similarity of two dense vectors: the scalar definition that
    `_dense_similarities` computes for every pair at once."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    na = np.linalg.norm(a)
    nb = np.linalg.norm(b)
    if na == 0 or nb == 0:
        return 0.0
    return float(np.dot(a, b) / (na * nb))


def _cosines(dots: np.ndarray, norms: np.ndarray) -> np.ndarray:
    """dots[i, j] / (norms[i] * norms[j]), and 0.0 where either norm is 0."""
    outer = norms[:, None] * norms[None, :]
    with np.errstate(divide="ignore", invalid="ignore"):
        cosines = dots / outer
    return np.where((norms[:, None] == 0) | (norms[None, :] == 0), 0.0, cosines)


def _count_similarities(vectors: Sequence[Counter]) -> np.ndarray:
    """The (m, m) matrix of `cosine_counts` over integer-count bags of words,
    bit for bit, from one Gram matrix: its dots and squared norms are exact
    integers, and the divisions are the scalar ones."""
    tokens = list(chain.from_iterable(vectors))
    column = dict(zip(dict.fromkeys(tokens), range(len(tokens))))
    rows = np.repeat(np.arange(len(vectors)), [len(v) for v in vectors])
    cols = np.fromiter(map(column.__getitem__, tokens), dtype=np.intp, count=len(tokens))
    counts = np.zeros((len(vectors), len(column)), dtype=np.int64)
    counts[rows, cols] = np.fromiter(chain.from_iterable(v.values() for v in vectors),
                                     dtype=np.int64, count=len(tokens))
    gram = counts @ counts.T
    return _cosines(gram, np.sqrt(np.diag(gram).astype(np.float64)))


def _dense_similarities(vectors: Sequence[object]) -> np.ndarray:
    """The (m, m) matrix of `cosine_dense`, bit for bit: each norm once, and
    one `np.dot` per unordered pair (the dot product is bitwise symmetric; a
    BLAS matrix product may sum in another order). `ndarray.dot` is `np.dot`
    without its dispatch overhead."""
    arrays = [np.asarray(v, dtype=float) for v in vectors]
    norms = np.array([np.linalg.norm(a) for a in arrays])
    dots = np.zeros((len(arrays), len(arrays)))
    for i, a in enumerate(arrays):
        for j in range(i + 1, len(arrays)):
            dots[i, j] = dots[j, i] = a.dot(arrays[j])
    return _cosines(dots, norms)


@dataclass(frozen=True)
class SummaryPoint:
    original_id: str
    group: str
    vector: object  # Counter (bag of words) or array-like (dense)


def _wins(similarities: np.ndarray, groups: Sequence[str]) -> int:
    """How many summaries' mean similarity to the rest of their own group
    beats their mean similarity to the other groups. Each row's sums add one
    column at a time, in column order (`np.add.accumulate` over the columns),
    as a left-to-right sum of the row's similarity list does; a masked-out
    entry adds an exact 0.0. Not starting from 0 can only change the sign of
    a zero sum, which no comparison sees."""
    labels = np.array(groups)
    same = labels[:, None] == labels[None, :]
    own = same & ~np.eye(len(labels), dtype=bool)
    columns = np.stack([np.where(own, similarities, 0.0).T,
                        np.where(same, 0.0, similarities).T], axis=1)
    same_sum, other_sum = np.add.accumulate(columns, axis=0)[-1]
    same_n = own.sum(axis=1)
    other_n = len(labels) - same_n - 1
    return int(np.count_nonzero(same_sum / same_n > other_sum / other_n))


def distinguishability(
    points: Sequence[SummaryPoint],
) -> tuple[dict[str, tuple[int, int]], list[str]]:
    """Per-original (n, wins) of the leave-one-out nearest-group classifier,
    the statistics of `distinguishability_score`, and diagnostics.

    Similarities are only compared among summaries of the same original;
    a summary wins when its mean similarity to its own group beats its mean
    similarity to the other. Originals without two summaries per group are
    skipped. An original's points are all bags of words (Counter) or all
    dense vectors.
    """
    by_original: dict[str, list[SummaryPoint]] = {}
    for p in points:
        by_original.setdefault(p.original_id, []).append(p)
    stats: dict[str, tuple[int, int]] = {}
    diagnostics: list[str] = []
    for original in sorted(by_original):
        group_points = by_original[original]
        sizes = Counter(p.group for p in group_points)
        if len(sizes) < 2 or min(sizes.values()) < 2:
            diagnostics.append(
                f"original {original}: needs >=2 summaries per group, got {dict(sizes)}; skipped"
            )
            continue
        vectors = [p.vector for p in group_points]
        similarities = (_count_similarities if isinstance(vectors[0], Counter)
                        else _dense_similarities)(vectors)
        stats[original] = (len(group_points), _wins(similarities, [p.group for p in group_points]))
    return stats, diagnostics


def distinguishability_score(stats: Sequence[int]) -> float | None:
    """Zero-centered accuracy, 2 * wins / n - 1, of one row of summed (n,
    wins); none without summaries."""
    n, wins = stats
    return 2.0 * wins / n - 1.0 if n != 0 else None


# --- bootstrap ----------------------------------------------------------------


@dataclass(frozen=True)
class BootstrapRecord:
    original_id: str
    variant: int
    payload: object  # a statistics vector (np.ndarray), or any payload


# Draws turned into multiplicities at once: bounds the memory of a block of
# replicates, whatever the replicates and records.
_BLOCK_DRAWS = 1 << 15


def _has_stats(records: Sequence[BootstrapRecord]) -> bool:
    return isinstance(records[0].payload, np.ndarray)


def bootstrap(
    records: Sequence[BootstrapRecord],
    score_fn: Callable[[list], float | None],
    axis: str,
    replicates: int = 1000,
    seed: int = 0,
) -> tuple[float, float]:
    """95% percentile interval, resampling originals (axis 'd') or the
    variants within each original (axis 's'). Deterministic under `seed`.

    `score_fn` is called once per replicate: with statistics-vector payloads
    on the replicate's summed statistics row, as a list of ints; with other
    payloads on its payload list. Both paths draw the same resamples. An
    empty record set has no score.
    """
    if replicates < 2:
        raise ValueError("bootstrap needs at least 2 replicates")
    if axis not in ("d", "s"):
        raise ValueError(f"unknown bootstrap axis {axis!r}")
    if not records:
        return (math.nan, math.nan)
    if _has_stats(records):
        values = map(score_fn, _resampled_sums(records, axis, replicates, seed).tolist())
    else:
        values = _payload_list_replicates(records, score_fn, axis, replicates, seed)
    kept = sorted(value for value in values if value is not None)
    if not kept:
        return (math.nan, math.nan)
    return (_linear_percentile(kept, 2.5), _linear_percentile(kept, 97.5))


def _linear_percentile(ordered: Sequence[float], q: float) -> float:
    """The `q`th percentile of the ascending, NaN-free `ordered` by
    `np.nanpercentile`'s default linear method, float for float, without
    the `numpy.ma` import its first call in a process costs: the value at
    index q/100 * (n - 1), between its two order statistics as numpy's
    `_lerp` interpolates."""
    index = (len(ordered) - 1) * (q / 100)
    below = math.floor(index)
    t = index - below
    a = float(ordered[below])
    b = float(ordered[min(below + 1, len(ordered) - 1)])
    return a + (b - a) * t if t < 0.5 else b - (b - a) * (1 - t)


def _payload_list_replicates(records, score_fn, axis, replicates, seed) -> Iterator[float | None]:
    """Each replicate's score of its resampled payload list."""
    by_original: dict[str, list[BootstrapRecord]] = {}
    for r in records:
        by_original.setdefault(r.original_id, []).append(r)
    originals = sorted(by_original)
    for rep in range(replicates):
        rng = derive_rng(seed, "bootstrap", axis, rep)
        payloads: list[object] = []
        if axis == "d":
            for original in rng.choices(originals, k=len(originals)):
                payloads.extend(r.payload for r in by_original[original])
        else:
            for original in originals:
                rows = by_original[original]
                payloads.extend(r.payload for r in rng.choices(rows, k=len(rows)))
        yield score_fn(payloads)


def _resampled_positions(seed, axis, replicates, starts, lengths):
    """Each block of replicates' draws, as (first replicate, (block, n)
    positions): row r holds the positions that replicate first + r picks in
    each span [start, start + length), the spans laid end to end.

    The draws are the payload-list loop's. `choices(population, k)` takes
    `population[floor(random() * float(len(population)))]` for each of `k`
    draws, and reseeding a `Random` with an int gives it the state of
    `Random(int)`. So one `Random`, reseeded per replicate with its
    `derive_rng` seed, draws the same uniforms, one per position in span
    order, and each uniform times its span's length, truncated, plus the
    span's start, is the position `choices` picks.
    """
    sizes = np.repeat(lengths, lengths).astype(np.float64)
    offsets = np.repeat(starts, lengths)
    n = len(sizes)
    block = max(1, _BLOCK_DRAWS // n)
    seed_for = seed_stream(seed, "bootstrap", axis)
    rng = random.Random()
    uniforms = np.empty((block, n))
    for first in range(0, replicates, block):
        count = min(block, replicates - first)
        for row in range(count):
            rng.seed(seed_for(first + row))
            uniforms[row] = np.fromiter(starmap(rng.random, repeat((), n)), np.float64, n)
        yield first, (uniforms[:count] * sizes).astype(np.intp) + offsets


def _resampled_sums(records, axis, replicates, seed) -> np.ndarray:
    """(replicates, k) statistics summed over each replicate's resample.

    The units are the originals' summed statistics (axis d: one span over
    them) or the records grouped by original (axis s: one span per
    original). Each block of drawn unit positions becomes a (block, units)
    multiplicity matrix times the (units, k) statistics.
    """
    by_original: dict[str, list[int]] = {}
    for i, r in enumerate(records):
        by_original.setdefault(r.original_id, []).append(i)
    members = [by_original[original] for original in sorted(by_original)]
    stats = np.stack([records[i].payload for rows in members for i in rows])
    starts = np.cumsum([0] + [len(rows) for rows in members[:-1]])
    if axis == "d":
        units = np.add.reduceat(stats, starts, axis=0)
        starts, lengths = np.zeros(1, dtype=np.intp), np.array([len(members)])
    else:
        units = stats
        lengths = np.array([len(rows) for rows in members])
    n = len(units)
    sums = np.empty((replicates, units.shape[1]), dtype=np.int64)
    for first, positions in _resampled_positions(seed, axis, replicates, starts, lengths):
        count = len(positions)
        positions += np.arange(count)[:, None] * n
        weights = np.bincount(positions.ravel(), minlength=count * n)
        sums[first:first + count] = weights.reshape(count, n) @ units
    return sums


def score_with_ci(
    records: Sequence[BootstrapRecord],
    score_fn: Callable[[list], float | None],
    replicates: int = 1000,
    seed: int = 0,
    axes: Sequence[str] = ("d", "s"),
) -> dict:
    """The measure's scores.json entry: its point score, a [lo, hi] interval
    per axis in `axes` (None for the others), and the replicates and records
    it was scored from."""
    if not records:
        point = None
    elif _has_stats(records):
        point = score_fn(np.sum([r.payload for r in records], axis=0).tolist())
    else:
        point = score_fn([r.payload for r in records])
    ci = {axis: list(bootstrap(records, score_fn, axis, replicates, seed))
          if axis in axes else None for axis in ("d", "s")}
    return {"point": point, "ci_d": ci["d"], "ci_s": ci["s"], "replicates": replicates,
            "n": len(records)}
