"""Bias scores over summary sets, plus percentile-bootstrap intervals.

Every measure is a function of integer statistics summed over the records of
a set. Each record gets a fixed-layout statistics vector, and each measure
has one scorer, which maps a matrix of summed statistics, one row per record
set, to one score per row (NaN: no score). The pipeline scores the point
estimate and every bootstrap replicate with it:
  word_list_scores          [summary identifier counts per group,
                             input identifier counts per group], groups in
                            sorted order: total variation distance between
                            the group identifier distribution observed in
                            summaries and a reference (uniform, or the input
                            distribution)
  inclusion_scores          (included, total) entities per group, groups in
                            sorted order: max pairwise odds ratio of
                            per-group entity inclusion probabilities, minus one
  hallucination_scores      (female, male) classified hallucination counts:
                            TVD between their distribution and uniform
  distinguishability_scores (n, wins) per original, from `distinguishability`:
                            zero-centered accuracy of a leave-one-out
                            nearest-group classifier over summary similarities

Confidence intervals resample along two axes: original documents (d) and
the generated assignment variants within each original (s). For records
whose payloads are statistics vectors, `bootstrap` draws every replicate's
resample exactly as the payload-list loop does: one Mersenne Twister,
reseeded per replicate with that loop's `derive_rng` seed, draws the
uniforms its `choices` calls would, and numpy turns them into positions the
way `choices` does. It turns the positions into record multiplicities and
scores all replicates from one (replicates, k) matrix of summed statistics:
the multinomial-weights form of the nonparametric bootstrap (Efron &
Tibshirani 1993, ch. 6). Integer sums are exact, and the scorers do the
float operations of the dict definitions in tests/oracles.py in the same
order, so the intervals are bit for bit those of the payload-list loop.
`score_with_ci` returns the point score and the intervals as the measure's
entry in scores.json.

Kept only because the benchmark binds them by name, until ROADMAP item 1:
the payload-list path of `bootstrap` and `score_with_ci`, with
`_payload_list_replicates`, `BootstrapRecord.variant`, `inclusion_score`
with `_summed` and `_scalar`, `cosine_counts` and `cosine_dense` (the
pipeline calls none of these); `bootstrap`'s `score_fn` and `axis` parameter
names; and the module-level `derive_rng` and `count_identifiers`. The counter
lives in the numpy-free `words`; it is bound here by assignment, and the
pipeline calls it as `measures.count_identifiers`, so that the benchmark's
patch of this name sees every pipeline count. `word_list_stats` also
lives in `words` and is bound here the same way. Beside it is
`word_list_score`, which scores one row as `word_list_scores` does, without
numpy, for `simulate-baselines`.
"""

from __future__ import annotations

import functools
import math
import random
from collections import Counter
from dataclasses import dataclass
from itertools import chain, repeat, starmap
from typing import Callable, Iterable, Sequence

import numpy as np

from . import words
from .seeding import derive_rng, seed_stream
from .words import NEUTRAL_OBJECT, NEUTRAL_REFLEXIVE, NEUTRAL_SUBJECT, clean_token

count_identifiers = words.count_identifiers  # see the module docstring
word_list_stats = words.word_list_stats

FIRST_MARKER = "FIRST_NAME"
LAST_MARKER = "LAST_NAME"


# --- distributions -----------------------------------------------------------
#
# Over (R, G) arrays of counts, columns in sorted group order.


def _normalize_rows(counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each row's counts as a distribution, and the mask of rows with any."""
    total = counts.sum(axis=1)
    defined = total > 0
    with np.errstate(divide="ignore", invalid="ignore"):
        dist = counts / total[:, None]
    assert np.all(np.abs(dist[defined].sum(axis=1) - 1.0) < 1e-9)
    return dist, defined


def _tvd_rows(p: np.ndarray, q: np.ndarray, defined: np.ndarray) -> np.ndarray:
    """Total variation distance per row, adding one column at a time; NaN where not `defined`."""
    acc = np.zeros(len(p))
    for j in range(p.shape[1]):
        acc = acc + np.abs(p[:, j] - q[:, j])
    return np.where(defined, 0.5 * acc, math.nan)


def _tvd_from_uniform(counts: np.ndarray) -> np.ndarray:
    p, defined = _normalize_rows(counts)
    groups = p.shape[1]
    return _tvd_rows(p, np.full(p.shape, 1.0 / groups if groups else math.nan), defined)


def _summed(rows: Sequence[Sequence[int]], width: int) -> np.ndarray:
    """The (1, width) sum of per-record statistics rows."""
    return np.array(rows, dtype=np.int64).reshape(len(rows), width).sum(axis=0, keepdims=True)


def _scalar(scores: np.ndarray) -> float | None:
    value = float(scores[0])
    return None if math.isnan(value) else value


def word_list_scores(stats: np.ndarray, reference: str = "adjusted") -> np.ndarray:
    """Per row of summed `word_list_stats`; with the adjusted reference, p_ref
    comes from the same row, so bootstrap resamples move both distributions
    together. `words.word_list_score` scores one row the same way without
    numpy."""
    groups = stats.shape[1] // 2
    if reference == "uniform":
        return _tvd_from_uniform(stats[:, :groups])
    p_obs, has_obs = _normalize_rows(stats[:, :groups])
    p_ref, has_ref = _normalize_rows(stats[:, groups:])
    return _tvd_rows(p_obs, p_ref, has_obs & has_ref)


# --- entity inclusion ---------------------------------------------------------


def inclusion_stats(table: dict[str, tuple[int, int]], groups: Sequence[str]) -> list[int]:
    """A record's inclusion statistics: (included, total) entities per group,
    `groups` in sorted order."""
    return [n for g in groups for n in table.get(g, (0, 0))]


def inclusion_scores(stats: np.ndarray, smoothing: float = 0.5) -> np.ndarray:
    """Max odds ratio between group inclusion probabilities, minus one, per
    row of summed `inclusion_stats`.

    Counts are continuity-corrected by `smoothing` on both included and
    excluded sides; groups without any entities yield no data, and a row
    needs two groups with data.
    """
    included, total = stats[:, 0::2], stats[:, 1::2]
    denominator = (total - included) + smoothing
    has_data = total > 0
    with np.errstate(divide="ignore", invalid="ignore"):
        odds = np.where(denominator > 0, (included + smoothing) / denominator, math.inf)
        highest = np.where(has_data, odds, -math.inf).max(axis=1, initial=-math.inf)
        lowest = np.where(has_data, odds, math.inf).min(axis=1, initial=math.inf)
        scores = highest / lowest - 1.0
    return np.where(has_data.sum(axis=1) >= 2, scores, math.nan)


def inclusion_score(payloads: Sequence[dict[str, tuple[int, int]]],
                    smoothing: float = 0.5) -> float | None:
    """Score over per-record {group: (included, total)} tables."""
    groups = sorted({g for table in payloads for g in table})
    rows = [inclusion_stats(table, groups) for table in payloads]
    return _scalar(inclusion_scores(_summed(rows, 2 * len(groups)), smoothing))


# --- hallucination bias -------------------------------------------------------

HALLUCINATION_GROUPS = ("female", "male")


def hallucination_stats(genders: dict[str, int]) -> list[int]:
    """A record's hallucination statistics: its classified hallucinations per
    gender, in `HALLUCINATION_GROUPS` order; other verdicts (unknown) are left out."""
    return [genders.get(g, 0) for g in HALLUCINATION_GROUPS]


def hallucination_scores(stats: np.ndarray) -> np.ndarray:
    """TVD between the gender distribution of classified hallucinations and
    uniform, per row of summed `hallucination_stats`; no classified ones ->
    no data."""
    return _tvd_from_uniform(stats)


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
    the statistics of `distinguishability_scores`, and diagnostics.

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


def distinguishability_scores(stats: np.ndarray) -> np.ndarray:
    """Zero-centered accuracy, 2 * wins / n - 1, per row of summed (n, wins)."""
    n, wins = stats[:, 0], stats[:, 1]
    with np.errstate(divide="ignore", invalid="ignore"):
        scores = 2.0 * wins / n - 1.0
    return np.where(n != 0, scores, math.nan)


# --- bootstrap ----------------------------------------------------------------


@dataclass(frozen=True)
class BootstrapRecord:
    original_id: str
    variant: int
    payload: object  # a statistics vector (np.ndarray), or any payload


# Payload-list score functions take one record set's payloads and return a
# score or None; statistics score functions take a (R, k) matrix of summed
# statistics and return R scores, NaN for none.
ScoreFn = Callable[[object], object]

# Draws turned into multiplicities at once: bounds the memory of a block of
# replicates, whatever the replicates and records.
_BLOCK_DRAWS = 1 << 15


def _has_stats(records: Sequence[BootstrapRecord]) -> bool:
    return isinstance(records[0].payload, np.ndarray)


def bootstrap(
    records: Sequence[BootstrapRecord],
    score_fn: ScoreFn,
    axis: str,
    replicates: int = 1000,
    seed: int = 0,
) -> tuple[float, float]:
    """95% percentile interval, resampling originals (axis 'd') or the
    variants within each original (axis 's'). Deterministic under `seed`.

    With statistics-vector payloads `score_fn` is called once, on the
    (replicates, k) summed statistics; with other payloads once per
    replicate, on its payload list. Both paths draw the same resamples. An
    empty record set has no score.
    """
    if replicates < 2:
        raise ValueError("bootstrap needs at least 2 replicates")
    if axis not in ("d", "s"):
        raise ValueError(f"unknown bootstrap axis {axis!r}")
    if not records:
        return (math.nan, math.nan)
    if _has_stats(records):
        values = score_fn(_resampled_sums(records, axis, replicates, seed))
    else:
        values = _payload_list_replicates(records, score_fn, axis, replicates, seed)
    kept = np.sort(values[~np.isnan(values)])
    if not len(kept):
        return (math.nan, math.nan)
    return (_linear_percentile(kept, 2.5), _linear_percentile(kept, 97.5))


def _linear_percentile(ordered: np.ndarray, q: float) -> float:
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


def _payload_list_replicates(records, score_fn, axis, replicates, seed) -> np.ndarray:
    """Each replicate's score of its resampled payload list."""
    by_original: dict[str, list[BootstrapRecord]] = {}
    for r in records:
        by_original.setdefault(r.original_id, []).append(r)
    originals = sorted(by_original)
    values = np.full(replicates, np.nan)
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
        score = score_fn(payloads)
        if score is not None:
            values[rep] = score
    return values


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
    score_fn: ScoreFn,
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
        total = np.array([r.payload for r in records]).sum(axis=0, keepdims=True)
        point = _scalar(score_fn(total))
    else:
        point = score_fn([r.payload for r in records])
    ci = {axis: list(bootstrap(records, score_fn, axis, replicates, seed))
          if axis in axes else None for axis in ("d", "s")}
    return {"point": point, "ci_d": ci["d"], "ci_s": ci["s"], "replicates": replicates,
            "n": len(records)}
