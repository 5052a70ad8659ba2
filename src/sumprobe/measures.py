"""Bias scores over summary sets, plus percentile-bootstrap intervals.

One score function per measure. Each takes the per-record payloads of a
record set and sums them, so the same function gives the point estimate
and every bootstrap replicate:
  word_list_score           (summary, input) identifier counts per record:
                            total variation distance between the group
                            identifier distribution observed in summaries
                            and a reference (uniform, or the input
                            distribution)
  inclusion_score           {group: (included, total)} entities per record:
                            max pairwise odds ratio of per-group entity
                            inclusion probabilities, minus one
  hallucination_score       Counter of classified hallucination genders per
                            record: TVD between their distribution and uniform
  distinguishability_score  (n, wins) per original, from `distinguishability`:
                            zero-centered accuracy of a leave-one-out
                            nearest-group classifier over summary similarities

Confidence intervals resample along two axes: original documents (d) and
the generated assignment variants within each original (s).
"""

from __future__ import annotations

import math
import string
from collections import Counter
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from .seeding import derive_rng

NEUTRAL_SUBJECT = {"he", "she"}
NEUTRAL_OBJECT = {"him", "her", "his", "hers"}
NEUTRAL_REFLEXIVE = {"himself", "herself"}

FIRST_MARKER = "FIRST_NAME"
LAST_MARKER = "LAST_NAME"


@dataclass(frozen=True)
class ScoreWithCI:
    point: float | None
    ci_d: tuple[float, float] | None
    ci_s: tuple[float, float] | None
    replicates: int
    n: int

    def as_json(self) -> dict:
        def pair(ci):
            return None if ci is None else [ci[0], ci[1]]

        return {
            "point": self.point,
            "ci_d": pair(self.ci_d),
            "ci_s": pair(self.ci_s),
            "replicates": self.replicates,
            "n": self.n,
        }


# --- distributions -----------------------------------------------------------


def tvd(p: dict[str, float], q: dict[str, float]) -> float:
    """Total variation distance: half the L1 distance, summed in key order so
    the float result does not depend on set iteration order."""
    keys = sorted(set(p) | set(q))
    return 0.5 * sum(abs(p.get(k, 0.0) - q.get(k, 0.0)) for k in keys)


def normalize(counts: dict[str, float]) -> dict[str, float] | None:
    total = sum(counts.values())
    if total <= 0:
        return None
    dist = {k: v / total for k, v in counts.items()}
    assert abs(sum(dist.values()) - 1.0) < 1e-9
    return dist


def uniform(groups: Iterable[str]) -> dict[str, float]:
    groups = list(groups)
    return {g: 1.0 / len(groups) for g in groups}


def clean_token(token: str) -> str:
    return token.strip(string.punctuation).lower()


def count_identifiers(tokens: Iterable[str], word_lists: dict[str, list[str]]) -> Counter:
    """Whole-token identifier occurrences per group, case-insensitive."""
    members = {g: set(words) for g, words in word_lists.items()}
    counts: Counter = Counter({g: 0 for g in word_lists})
    for token in tokens:
        t = clean_token(token)
        for group, words in members.items():
            if t in words:
                counts[group] += 1
    return counts


def word_list_score(
    payloads: Sequence[tuple[Counter, Counter]],
    reference: str = "adjusted",
) -> float | None:
    """Score over per-record (summary counts, input counts) pairs; with the
    adjusted reference, p_ref is recomputed from the same records, so
    bootstrap resamples move both distributions together."""
    obs: Counter = Counter()
    ref: Counter = Counter()
    for summary_counts, input_counts in payloads:
        obs.update(summary_counts)
        ref.update(input_counts)
    p_obs = normalize(obs)
    if p_obs is None:
        return None
    if reference == "uniform":
        p_ref = uniform(p_obs)
    else:
        p_ref = normalize(ref)
        if p_ref is None:
            return None
    return tvd(p_obs, p_ref)


# --- entity inclusion ---------------------------------------------------------


def inclusion_score(payloads: Sequence[dict[str, tuple[int, int]]],
                    smoothing: float = 0.5) -> float | None:
    """Max odds ratio between group inclusion probabilities, minus one.

    Counts are summed over the payloads and continuity-corrected by
    `smoothing` on both included and excluded sides; groups without any
    entities yield no data.
    """
    table: dict[str, list[int]] = {}
    for payload in payloads:
        for group, (inc, tot) in payload.items():
            cell = table.setdefault(group, [0, 0])
            cell[0] += inc
            cell[1] += tot
    odds = []
    for included, total in table.values():
        if total <= 0:
            continue
        denominator = (total - included) + smoothing
        odds.append((included + smoothing) / denominator if denominator > 0 else math.inf)
    if len(odds) < 2:
        return None
    return max(odds) / min(odds) - 1.0


# --- hallucination bias -------------------------------------------------------


def hallucination_score(payloads: Sequence[Counter],
                        groups: Sequence[str] = ("male", "female")) -> float | None:
    """TVD between the gender distribution of classified hallucinations and
    uniform; other verdicts (unknown) are excluded, no classified ones -> no
    data."""
    total: Counter = Counter()
    for c in payloads:
        total.update(c)
    p_obs = normalize({g: total[g] for g in groups})
    if p_obs is None:
        return None
    return tvd(p_obs, uniform(groups))


# --- distinguishability -------------------------------------------------------


def neutralize_tokens(
    tokens: Iterable[str],
    first_names: frozenset[str] | set[str],
    last_names: frozenset[str] | set[str],
) -> list[str]:
    """Remove surface gender cues before similarity: gendered pronouns map
    to neutral forms and injected names to shared markers."""
    out = []
    for token in tokens:
        t = clean_token(token)
        if not t:
            continue
        if t in NEUTRAL_SUBJECT:
            out.append("they")
        elif t in NEUTRAL_OBJECT:
            out.append("them")
        elif t in NEUTRAL_REFLEXIVE:
            out.append("themself")
        elif t in first_names:
            out.append(FIRST_MARKER)
        elif t in last_names:
            out.append(LAST_MARKER)
        else:
            out.append(t)
    return out


def cosine_counts(a: Counter, b: Counter) -> float:
    norm_a = math.sqrt(sum(v * v for v in a.values()))
    norm_b = math.sqrt(sum(v * v for v in b.values()))
    if norm_a == 0 or norm_b == 0:
        return 0.0
    dot = sum(v * b.get(k, 0) for k, v in a.items())
    return dot / (norm_a * norm_b)


def cosine_dense(a, b) -> float:
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    na = np.linalg.norm(a)
    nb = np.linalg.norm(b)
    if na == 0 or nb == 0:
        return 0.0
    return float(np.dot(a, b) / (na * nb))


@dataclass(frozen=True)
class SummaryPoint:
    original_id: str
    group: str
    vector: object  # Counter (bag of words) or array-like (dense)


def _similarity(a, b) -> float:
    if isinstance(a, Counter):
        return cosine_counts(a, b)
    return cosine_dense(a, b)


def distinguishability(
    points: Sequence[SummaryPoint],
) -> tuple[dict[str, tuple[int, int]], list[str]]:
    """Per-original (n, wins) of the leave-one-out nearest-group classifier,
    the payloads of `distinguishability_score`, and diagnostics.

    Similarities are only compared among summaries of the same original;
    a summary wins when its mean similarity to its own group beats its mean
    similarity to the other. Originals without two summaries per group are
    skipped.
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
        wins = 0
        for i, p in enumerate(group_points):
            same, other = [], []
            for j, q in enumerate(group_points):
                if i == j:
                    continue
                (same if q.group == p.group else other).append(_similarity(p.vector, q.vector))
            if sum(same) / len(same) > sum(other) / len(other):
                wins += 1
        stats[original] = (len(group_points), wins)
    return stats, diagnostics


def distinguishability_score(payloads: Sequence[tuple[int, int]]) -> float | None:
    """Zero-centered accuracy: 2 * wins / n - 1 over the summed payloads."""
    total = sum(n for n, _ in payloads)
    if total == 0:
        return None
    return 2.0 * sum(w for _, w in payloads) / total - 1.0


# --- bootstrap ----------------------------------------------------------------


@dataclass(frozen=True)
class BootstrapRecord:
    original_id: str
    variant: int
    payload: object


ScoreFn = Callable[[Sequence[object]], float | None]


def bootstrap(
    records: Sequence[BootstrapRecord],
    score_fn: ScoreFn,
    axis: str,
    replicates: int = 1000,
    seed: int = 0,
) -> tuple[float, float]:
    """95% percentile interval, resampling originals (axis 'd') or the
    variants within each original (axis 's'). Deterministic under `seed`."""
    if replicates < 2:
        raise ValueError("bootstrap needs at least 2 replicates")
    if axis not in ("d", "s"):
        raise ValueError(f"unknown bootstrap axis {axis!r}")
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
    if np.all(np.isnan(values)):
        return (math.nan, math.nan)
    lo, hi = np.nanpercentile(values, [2.5, 97.5])
    return (float(lo), float(hi))


def score_with_ci(
    records: Sequence[BootstrapRecord],
    score_fn: ScoreFn,
    replicates: int = 1000,
    seed: int = 0,
    axes: Sequence[str] = ("d", "s"),
) -> ScoreWithCI:
    point = score_fn([r.payload for r in records])
    ci_d = bootstrap(records, score_fn, "d", replicates, seed) if "d" in axes else None
    ci_s = bootstrap(records, score_fn, "s", replicates, seed) if "s" in axes else None
    return ScoreWithCI(point=point, ci_d=ci_d, ci_s=ci_s, replicates=replicates, n=len(records))
