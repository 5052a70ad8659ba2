"""Render score reports as markdown, CSV or JSON."""

from __future__ import annotations

import csv
import io
import json
import math
from pathlib import Path

from .jsonio import DataError, read_object, shape_problem

MEASURE_ORDER = (
    "word_list_inclusion",
    "word_list_inclusion_uniform",
    "entity_inclusion",
    "hallucination_bias",
    "distinguishability_count",
    "distinguishability_dense",
)

ALIGNMENT_ROWS = (
    ("input_entities", "Input entities"),
    ("summary_entities", "Summary entities"),
    ("input_entities_with_alignment", "Input entities with alignment in summary"),
    ("aligned_summary_entities", "Aligned summary entities"),
    ("hallucinated", "Summary entities tagged as hallucinated"),
    ("gender_classified_hallucinations", "...of these with gender classification"),
    ("unresolved", "Unresolved summary entities"),
)


# what rendering reads of each system's block in a scores file
_BLOCK_KEYS = {"measures": dict, "alignment_counts": dict, "hallucination_top": list}


def read_scores(path: str | Path) -> dict:
    """A scores file, as `score` writes it: a `systems` object whose blocks
    hold every key of `_BLOCK_KEYS`, with entries the renderers can read."""
    report = read_object(path, "a scores file")
    problem = shape_problem(report, {"systems": dict})
    if problem:
        raise DataError(f"{path}: a scores file: {problem}")
    for system, block in sorted(report["systems"].items()):
        problem = shape_problem(block, _BLOCK_KEYS) or _entry_problem(block)
        if problem:
            raise DataError(f"{path}: system {system!r}: {problem}")
    return report


def _entry_problem(block: dict) -> str | None:
    """The first measure entry or `hallucination_top` row of `block` that the
    renderers could not read, if any."""
    for measure, entry in block["measures"].items():
        if not _readable_entry(entry):
            return (f"measure {measure!r} must hold a numeric or null point, an integer n, "
                    f"and ci_s and ci_d each null or [lo, hi]")
    for row in block["hallucination_top"]:
        if not (isinstance(row, list) and len(row) == 3 and isinstance(row[0], str)
                and type(row[1]) is int and isinstance(row[2], str)):
            return f"hallucination_top row {row!r} is not [entity, count, gender]"
    return None


def _readable_entry(entry) -> bool:
    """Whether `entry` is a measure entry as `ScoreWithCI.as_json` writes it;
    a CI may also be absent."""
    return (isinstance(entry, dict) and "point" in entry and _number(entry["point"])
            and type(entry.get("n")) is int
            and all(_interval(entry.get(key)) for key in ("ci_s", "ci_d")))


def _interval(value) -> bool:
    return value is None or (isinstance(value, list) and len(value) == 2
                             and all(map(_number, value)))


def _number(value) -> bool:
    return value is None or (isinstance(value, (int, float)) and not isinstance(value, bool))


def _fmt(value) -> str:
    if value is None:
        return "n/a"
    if isinstance(value, float) and math.isnan(value):
        return "nan"
    return f"{value:.2f}"


def _cell(entry: dict) -> str:
    parts = [_fmt(entry["point"])]
    for axis in ("s", "d"):
        ci = entry.get(f"ci_{axis}")
        if ci is not None:
            parts.append(f"{axis}: {_fmt(ci[0])},{_fmt(ci[1])}")
    return " · ".join(parts)


def _measure_names(report: dict) -> list[str]:
    present = {m for s in report["systems"].values() for m in s["measures"]}
    ordered = [m for m in MEASURE_ORDER if m in present]
    return ordered + sorted(present - set(ordered))


def render_markdown(report: dict) -> str:
    out = io.StringIO()
    systems = sorted(report["systems"])
    out.write("# Bias report\n\n")
    cfg = report.get("config", {})
    if cfg:
        out.write(
            f"scheme: `{cfg.get('scheme')}` · seed: `{cfg.get('seed')}` · "
            f"variants/original: `{cfg.get('variants')}` · "
            f"bootstrap replicates: `{cfg.get('replicates')}`\n\n"
        )
    out.write("## Scores\n\n")
    out.write("| Measure | " + " | ".join(systems) + " |\n")
    out.write("|---" * (len(systems) + 1) + "|\n")
    for measure in _measure_names(report):
        cells = []
        for system in systems:
            entry = report["systems"][system]["measures"].get(measure)
            cells.append(_cell(entry) if entry else "n/a")
        out.write(f"| {measure} | " + " | ".join(cells) + " |\n")

    out.write("\n## Alignment counts\n\n")
    out.write("| Count | " + " | ".join(systems) + " |\n")
    out.write("|---" * (len(systems) + 1) + "|\n")
    for key, label in ALIGNMENT_ROWS:
        row = []
        for system in systems:
            counts = report["systems"][system]["alignment_counts"]
            row.append(str(counts.get(key, 0)))
        out.write(f"| {label} | " + " | ".join(row) + " |\n")

    for system in systems:
        top = report["systems"][system]["hallucination_top"]
        out.write(f"\n## Most frequent hallucinations: {system}\n\n")
        if not top:
            out.write("_none_\n")
            continue
        out.write("| Entity | Count | Gender |\n|---|---|---|\n")
        for name, count, tag in top:
            out.write(f"| {name} | {count} | {tag} |\n")
    return out.getvalue()


def render_csv(report: dict) -> str:
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["system", "measure", "point", "s_lo", "s_hi", "d_lo", "d_hi", "n"])
    for system in sorted(report["systems"]):
        measures = report["systems"][system]["measures"]
        for measure in _measure_names(report):
            if measure not in measures:
                continue
            entry = measures[measure]
            ci_s = entry.get("ci_s") or (None, None)
            ci_d = entry.get("ci_d") or (None, None)
            writer.writerow(
                [system, measure, entry["point"], ci_s[0], ci_s[1], ci_d[0], ci_d[1], entry["n"]]
            )
    return out.getvalue()


def render_json(report: dict) -> str:
    return json.dumps(report, sort_keys=True, indent=1) + "\n"


RENDERERS = {"markdown": render_markdown, "md": render_markdown,
             "csv": render_csv, "json": render_json}


def render_report(report: dict, fmt: str) -> str:
    if fmt not in RENDERERS:
        raise ValueError(f"unknown report format {fmt!r}")
    return RENDERERS[fmt](report)
