"""Output checks: what every run of every workload must produce.

Each check returns a list of problems; an empty list means the operation
succeeded. A nonzero exit, a missing output or any problem makes the
operation count as failed.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

PIPELINE_OUTPUTS = ("scores.json", "report.md", "report.csv", "report.json")
INPUT_BIAS_OUTPUTS = ("sim.json", "sim.csv", "fw.json", "fw.csv")

# Measures each scheme defines, per simulated system. Only the skewed
# system carries a dense-vector sidecar.
SCHEME_MEASURES = {
    "gender_local": {
        system: ("word_list_inclusion", "word_list_inclusion_uniform",
                 "entity_inclusion", "hallucination_bias")
        for system in ("faithful", "skewed")
    },
    "gender_global": {
        "faithful": ("distinguishability_count",),
        "skewed": ("distinguishability_count", "distinguishability_dense"),
    },
}

SCORE_KEYS = {"point", "ci_d", "ci_s", "replicates", "n"}
VERDICT_SOURCES = {"encyclopedia", "census", "none"}


def digests(directory: Path, names) -> dict[str, str]:
    """sha256 of each named file; a missing file maps to None."""
    out = {}
    for name in names:
        path = directory / name
        out[name] = hashlib.sha256(path.read_bytes()).hexdigest() if path.is_file() else None
    return out


def _load_json(path: Path):
    try:
        return json.loads(path.read_text(encoding="utf-8")), None
    except FileNotFoundError:
        return None, f"{path.name} missing"
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        return None, f"{path.name} unreadable: {exc}"


def check_scores(scores, scheme: str) -> list[str]:
    """scores.json holds every measure the scheme defines. Under local
    balance the faithful system, which echoes its input, scores exactly 0
    on word-list and entity inclusion, and the skewed system, which keeps
    male entities more often, scores above 0 on entity inclusion."""
    problems = []
    systems = scores.get("systems") if isinstance(scores, dict) else None
    if not isinstance(systems, dict):
        return ["scores.json has no systems"]
    for system, wanted in SCHEME_MEASURES[scheme].items():
        measures = systems.get(system, {}).get("measures")
        if not isinstance(measures, dict):
            problems.append(f"{system}: no measures")
            continue
        for name in wanted:
            entry = measures.get(name)
            if not isinstance(entry, dict) or not SCORE_KEYS <= set(entry):
                problems.append(f"{system}: measure {name} missing or incomplete")
                continue
            # a measure without data (the faithful system hallucinates
            # nobody) has no point; the skewed system has data for all
            if not isinstance(entry["point"], (int, float)) and (
                    system == "skewed" or entry["point"] is not None):
                problems.append(f"{system}: {name} point {entry['point']!r}")
            for axis in ("ci_d", "ci_s"):
                ci = entry.get(axis)
                if ci is not None and not (isinstance(ci, list) and len(ci) == 2):
                    problems.append(f"{system}: {name} {axis} malformed")
    if problems or scheme != "gender_local":
        return problems
    faithful = systems["faithful"]["measures"]
    for name in ("word_list_inclusion", "entity_inclusion"):
        if faithful[name]["point"] != 0:
            problems.append(f"faithful: {name} point {faithful[name]['point']} != 0")
    if not systems["skewed"]["measures"]["entity_inclusion"]["point"] > 0:
        problems.append("skewed: entity_inclusion point not above 0")
    return problems


def check_pipeline_run(art_dir: Path, scheme: str) -> list[str]:
    """A finished `sumprobe run`: scores.json and the three reports exist,
    scores pass check_scores, the markdown report names every system, and
    under gender_local the skewed system's hallucinations were decided by
    every verdict source (encyclopedia, census, neither)."""
    missing = [n for n in PIPELINE_OUTPUTS if not (art_dir / n).is_file()]
    if missing:
        return [f"missing output(s): {missing}"]
    scores, error = _load_json(art_dir / "scores.json")
    if error:
        return [error]
    problems = check_scores(scores, scheme)
    report = (art_dir / "report.md").read_text(encoding="utf-8")
    problems += [f"report.md does not mention {s}" for s in SCHEME_MEASURES[scheme]
                 if s not in report]
    if scheme == "gender_local":
        rows, error = _load_json(art_dir / "verdicts.skewed.json")
        if error:
            return problems + [error]
        sources = {row.get("source") for row in rows}
        if not VERDICT_SOURCES <= sources:
            problems.append(f"verdict sources {sorted(sources - {None})} miss "
                            f"{sorted(VERDICT_SOURCES - sources)}")
    return problems


def check_input_bias_run(out_dir: Path) -> list[str]:
    """Both input-bias commands wrote their outputs; under the adjusted
    reference the random and lead baselines, which ignore topic, stay below
    the topic baseline on the topic/gender-correlated corpus."""
    missing = [n for n in INPUT_BIAS_OUTPUTS if not (out_dir / n).is_file()]
    if missing:
        return [f"missing output(s): {missing}"]
    sim, error = _load_json(out_dir / "sim.json")
    if error:
        return [error]
    fw, error = _load_json(out_dir / "fw.json")
    if error:
        return [error]
    try:
        adjusted = {a: sim["scores"][a]["adjusted"] for a in ("random", "lead", "topic")}
    except (KeyError, TypeError):
        return ["sim.json lacks adjusted scores for random/lead/topic"]
    if not all(isinstance(v, (int, float)) for v in adjusted.values()):
        return [f"sim.json adjusted scores not all numbers: {adjusted}"]
    problems = [
        f"{a} adjusted {adjusted[a]:.4f} not below topic {adjusted['topic']:.4f}"
        for a in ("random", "lead") if not adjusted[a] < adjusted["topic"]
    ]
    if not isinstance(fw, dict) or not fw.get("male_associated") or not fw.get("female_associated"):
        problems.append("fw.json has no associated tokens")
    return problems


def check_same(first: dict[str, str], second: dict[str, str]) -> list[str]:
    """The rerun's outputs are byte-identical to the first run's.

    `sumprobe run` leaves an existing scores.json alone, so comparing it
    would compare the file with itself; the scores a pipeline rerun
    recomputed are checked through its report.json, which is the same dump
    of the same report."""
    problems = [f"{name} differs from the first run" for name in sorted(first)
                if name != "scores.json" and (first[name] is None or first[name] != second.get(name))]
    if "scores.json" in first and (first["scores.json"] is None
                                   or second.get("report.json") != first["scores.json"]):
        problems.append("rerun's report.json differs from the first run's scores.json")
    return problems


def check_pins(found: dict[str, str], pinned: dict[str, str]) -> list[str]:
    """Outputs match the sha256 recorded for the default seed."""
    return [f"{name} sha256 {found.get(name)} != pinned {sha}"
            for name, sha in sorted(pinned.items()) if found.get(name) != sha]
