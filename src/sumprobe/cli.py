"""Command-line interface.

Exit codes: 0 success, 1 usage error, 2 data error, 3 stage failure.

A command imports the pipeline, corpus, template, generation, alignment,
summary, gender, measure and input-bias modules only if it runs them.
Importing the CLI, `report`, `analyze-input-bias`, `simulate-baselines`,
`align`, `classify-hallucinations`, and a `run` or `score` rerun that reuses
scores.json start without numpy; a `run` or `score` that scores loads it.
Importing the CLI, `report`, and such a rerun also load no corpus, template
or generation module. A corpus read keeps one `str` per distinct token text
and POS tag.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path
from typing import TYPE_CHECKING

from .jsonio import DataError, StageError, read_rows, string_list, write_json, write_text
from .names import (
    GENDERS,
    SCHEME_KINDS,
    load_census,
    load_last_name_pool,
    load_race_names,
    load_word_lists,
    make_scheme,
    resolve_ambiguous,
    word_pairs,
)
from .report import read_scores, render_report

if TYPE_CHECKING:
    from . import corpus as cp

USAGE_EXIT = 1
DATA_EXIT = 2
STAGE_EXIT = 3

_DATA_ERRORS = (DataError, FileNotFoundError, IsADirectoryError)


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(USAGE_EXIT, f"{self.prog}: error: {message}\n")


def _pairs_arg(values: list[str], what: str) -> dict[str, str]:
    out = {}
    for item in values or []:
        if "=" not in item:
            raise DataError(f"{what} must look like name=value, got {item!r}")
        key, _, value = item.partition("=")
        if key in out:
            raise DataError(f"{what} names {key!r} twice")
        out[key] = value
    return out


def _load_docs(path: str) -> list[cp.AnnotatedDocument]:
    """A raw column corpus, sorted as `ingest` sorts it, or the ingest JSONL
    output in file order, told apart by the first non-blank line: a column
    corpus opens with `#begin document`. Either reader checks each document
    it reads."""
    from . import corpus as cp

    with open(path, "rb") as fh:
        head = next((line for line in fh if line.strip()), b"")
    if head.startswith(b"#"):
        from .pipeline import ingest

        return ingest(path)
    return list(cp.read_jsonl(path))


def _census(args):
    return load_census(args.census_male, args.census_female)


def _gendered_word_lists(path: str | None) -> dict[str, list[str]]:
    """The word lists of the input-bias commands, which read a male and a
    female list: the split, the contrast's pairs and the sexist baseline."""
    lists = load_word_lists(path)
    for gender in GENDERS:
        if gender not in lists:
            raise DataError(f"{path}: no {gender!r} word list")
    return lists


def _alpha(text: str) -> float:
    """A Dirichlet prior count: a finite number above 0."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not 0 < value < math.inf:
        raise argparse.ArgumentTypeError(f"must be a finite number above 0, got {text!r}")
    return value


def _out_dir(text: str) -> str:
    """An output directory: a non-empty path, not the current directory
    that `Path("")` means, checked here so that the message names the flag,
    not a config file that the flag overrides."""
    if not text:
        raise argparse.ArgumentTypeError("must be a non-empty path")
    return text


# --- commands -----------------------------------------------------------------


def cmd_ingest(args) -> int:
    from .pipeline import ingest

    docs = ingest(args.corpus, args.out)
    print(f"ingested {len(docs)} documents -> {args.out}")
    return 0


def cmd_build_templates(args) -> int:
    from .pipeline import build_templates

    templates = build_templates(_load_docs(args.documents), args.content_words, args.out)
    eligible = sum(t.eligible for t in templates)
    print(f"built {len(templates)} templates ({eligible} eligible) -> {args.out}")
    return 0


def cmd_generate(args) -> int:
    from . import templates as tp
    from .pipeline import generate_inputs

    scheme = make_scheme(args.scheme, variants=args.variants,
                         alter_last_names=args.alter_last_names,
                         intersection=_pairs_arg(args.intersection, "--intersection") or None)
    if scheme.alter_last_names and not scheme.is_race and not args.last_names:
        raise DataError(f"scheme {args.scheme!r}: --alter-last-names needs --last-names")
    inputs = generate_inputs(
        list(tp.read_templates(args.templates)),
        scheme,
        args.seed,
        census=resolve_ambiguous(_census(args)),
        race_table=load_race_names(args.race_names) if scheme.is_race else None,
        last_pool=load_last_name_pool(args.last_names) if args.last_names else None,
        out=args.out,
    )
    originals = len({g.original_id for g in inputs})
    print(f"generated {len(inputs)} inputs from {originals} originals -> {args.out}")
    return 0


def cmd_align(args) -> int:
    from . import generate as gen
    from . import templates as tp
    from .pipeline import ALIGNMENTS, align_system, alignment_context

    summaries = _pairs_arg(args.summaries, "--summaries")
    ner_sidecars = _pairs_arg(args.ner, "--ner")
    templates = list(tp.read_templates(args.templates))
    inputs = list(gen.read_inputs(args.inputs))
    unknown = sorted({g.original_id for g in inputs} - {t.doc_id for t in templates})
    if unknown:
        raise DataError(f"{args.inputs}: inputs of originals that {args.templates} holds no "
                        f"template of: {', '.join(unknown)}")
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    context = alignment_context(templates, inputs, _census(args))
    for system, path in sorted(summaries.items()):
        _, c = align_system(
            context, system, path, ner_sidecar=ner_sidecars.get(system), out_dir=out_dir
        )
        print(
            f"{system}: {c['aligned_summary_entities']} aligned, "
            f"{c['hallucinated']} hallucinated, "
            f"{c['unresolved']} unresolved -> {out_dir / ALIGNMENTS.format(system)}"
        )
    return 0


def cmd_classify_hallucinations(args) -> int:
    from . import alignment as al
    from . import gender_id as gid
    from .pipeline import classify_entities

    def problem(row: dict) -> str | None:
        """What keeps `row` from holding a `status` and `entity_tokens` that
        `align` writes; its other keys are not read."""
        if row["status"] not in (al.ALIGNED, al.HALLUCINATED, al.UNRESOLVED):
            return f"unknown status {row['status']!r}"
        if not (row["entity_tokens"] and string_list(row["entity_tokens"])):
            return "entity_tokens must be a non-empty list of strings"
        return None

    verdicts = classify_entities(
        (
            row["entity_tokens"]
            for row in read_rows(args.alignments, {"status": str, "entity_tokens": list}, problem)
            if row["status"] == al.HALLUCINATED
        ),
        gid.FixtureLookupClient(args.cache),
        resolve_ambiguous(_census(args)),
        args.out,
    )
    classified = sum(v.gender != "unknown" for v in verdicts.values())
    print(f"classified {classified}/{len(verdicts)} distinct hallucinated entities -> {args.out}")
    return 0


def cmd_analyze_input_bias(args) -> int:
    from . import input_bias as ib

    word_lists = _gendered_word_lists(args.word_lists)
    docs = _load_docs(args.corpus)
    split = ib.split_by_identifier_majority([d.tokens for d in docs], word_lists)
    result = ib.fightin_words(
        split["male"], split["female"], pairs=word_pairs(word_lists), alpha=args.alpha
    )
    summary = {
        "documents": len(docs),
        "male_majority_docs": result.docs_a,
        "female_majority_docs": result.docs_b,
        "male_associated": [[t, round(z, 4)] for t, z in result.top("a")],
        "female_associated": [[t, round(z, 4)] for t, z in result.top("b")],
    }
    out = Path(args.out)
    write_json(out.with_suffix(".json"), summary)
    ranked = sorted(result.zscores.items(), key=lambda kv: (-kv[1], kv[0]))
    lines = ["token,zscore\n", *(f"{token},{z!r}\n" for token, z in ranked)]
    write_text(out.with_suffix(".csv"), "".join(lines))
    print(
        f"{result.docs_a} male-majority vs {result.docs_b} female-majority docs -> "
        f"{out.with_suffix('.json')}, {out.with_suffix('.csv')}"
    )
    return 0


def cmd_simulate_baselines(args) -> int:
    from . import input_bias as ib

    word_lists = _gendered_word_lists(args.word_lists)
    docs = _load_docs(args.corpus)
    result = ib.simulation_experiment(docs, word_lists, seed=args.seed)
    out = Path(args.out)
    write_json(out.with_suffix(".json"), result)
    scores = result["scores"]
    lines = ["algorithm,uniform,adjusted\n", *(
        f"{a},{scores[a]['uniform']!r},{scores[a]['adjusted']!r}\n" for a in ib.ALGORITHMS)]
    write_text(out.with_suffix(".csv"), "".join(lines))

    def show(value):
        return "n/a" if value is None else f"{value:.3f}"

    for a in ib.ALGORITHMS:
        print(f"{a:>7}: uniform={show(scores[a]['uniform'])} adjusted={show(scores[a]['adjusted'])}")
    return 0


def _pipeline_from_args(args):
    from .pipeline import Pipeline, PipelineConfig

    return Pipeline(PipelineConfig.from_file(args.config, out_dir=args.out_dir))


def cmd_score(args) -> int:
    pipeline = _pipeline_from_args(args)
    pipeline.score()
    print(pipeline.path("scores.json"))
    return 0


def cmd_report(args) -> int:
    write_text(args.out, render_report(read_scores(args.scores), args.format))
    print(args.out)
    return 0


def cmd_run(args) -> int:
    pipeline = _pipeline_from_args(args)
    report = pipeline.score()
    for fmt, name in (("markdown", "report.md"), ("csv", "report.csv"), ("json", "report.json")):
        write_text(pipeline.path(name), render_report(report, fmt))
    print(pipeline.art_dir)
    return 0


# --- parser -------------------------------------------------------------------


_REQUIRED = {"required": True}
_CENSUS_ARGS = [("--census-male", {}), ("--census-female", {})]
_PIPELINE_ARGS = [("--config", _REQUIRED), ("--out-dir", {"type": _out_dir})]

# subcommand -> (help, handler, its arguments as (flag, add_argument keywords))
COMMANDS = {
    "ingest": ("parse a column-annotated corpus to JSONL", cmd_ingest, [
        ("--corpus", _REQUIRED), ("--out", _REQUIRED),
    ]),
    "build-templates": ("derive fillable templates", cmd_build_templates, [
        ("--documents", _REQUIRED), ("--out", _REQUIRED), ("--content-words", {}),
    ]),
    "generate": ("generate controlled input variants", cmd_generate, [
        ("--templates", _REQUIRED),
        ("--scheme", {"required": True, "choices": SCHEME_KINDS}),
        ("--seed", {"required": True, "type": int}),
        ("--out", _REQUIRED),
        ("--variants", {"type": int, "default": 20}),
        ("--alter-last-names", {"action": "store_true"}),
        ("--last-names", {"help": "text file with one last name per line"}),
        *_CENSUS_ARGS,
        ("--race-names", {}),
        ("--intersection", {"nargs": "*", "metavar": "GROUP=GENDER"}),
    ]),
    "align": ("align summary entities to input entities", cmd_align, [
        ("--templates", _REQUIRED),
        ("--inputs", _REQUIRED),
        ("--summaries", {"nargs": "+", "required": True, "metavar": "SYSTEM=PATH"}),
        ("--ner", {"nargs": "*", "metavar": "SYSTEM=PATH"}),
        ("--out-dir", {"required": True, "type": _out_dir}),
        *_CENSUS_ARGS,
    ]),
    "classify-hallucinations": (
        "gender-classify hallucinated entities", cmd_classify_hallucinations, [
            ("--alignments", _REQUIRED), ("--cache", _REQUIRED), ("--out", _REQUIRED),
            *_CENSUS_ARGS,
        ]),
    "analyze-input-bias": ("identifier split + log-odds contrast", cmd_analyze_input_bias, [
        ("--corpus", _REQUIRED),
        ("--out", {"required": True, "help": "output prefix (.json/.csv)"}),
        ("--word-lists", {}),
        ("--alpha", {"type": _alpha, "default": 0.01}),
    ]),
    "simulate-baselines": ("score the four baseline summarizers", cmd_simulate_baselines, [
        ("--corpus", _REQUIRED),
        ("--seed", {"required": True, "type": int}),
        ("--out", {"required": True, "help": "output prefix (.json/.csv)"}),
        ("--word-lists", {}),
    ]),
    "score": ("run the pipeline through scores.json", cmd_score, _PIPELINE_ARGS),
    "run": ("run the pipeline and render reports", cmd_run, _PIPELINE_ARGS),
    "report": ("render a scores.json file", cmd_report, [
        ("--scores", _REQUIRED),
        ("--format", {"default": "markdown", "choices": ["markdown", "csv", "json"]}),
        ("--out", _REQUIRED),
    ]),
}


def build_parser(command: str | None = None) -> _Parser:
    """The CLI parser. Given a known subcommand, only that subcommand's
    parser is built: the other nine cost argparse about 3 ms per process,
    several percent of a small `run`. The usage line names every one."""
    parser = _Parser(prog="sumprobe", description=__doc__)
    only = command in COMMANDS
    sub = parser.add_subparsers(
        dest="command", required=True, parser_class=_Parser,
        metavar="{" + ",".join(COMMANDS) + "}" if only else None,
    )
    for name, (help_text, func, arguments) in COMMANDS.items():
        if only and name != command:
            continue
        p = sub.add_parser(name, help=help_text)
        for flag, options in arguments:
            p.add_argument(flag, **options)
        p.set_defaults(func=func)
    return parser


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    parser = build_parser(argv[0] if argv else None)
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except StageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return STAGE_EXIT
    except _DATA_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return DATA_EXIT


if __name__ == "__main__":
    sys.exit(main())
