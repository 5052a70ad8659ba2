"""End-to-end orchestration: ingest -> templates -> generate -> align ->
classify -> score, with resumable intermediate artifacts.

Every artifact lives under <out_dir>/<config-hash>/, a hash of the
parameters and the input file contents other than the summaries, so a
resumed run can never mix artifacts from different configurations or
inputs. Every table is loaded and every input file hashed, the summaries
too, before that directory is made, so a bad input leaves none behind.
A finished run ends by writing run.json: the reuse key (the package
digest, the numpy version and each summary file's sha256) and the sha256
of every artifact. A rerun reuses an artifact only when the key it was
built under still matches and the file still hashes to its recorded
digest; a rerun over unchanged summaries aligns and scores nothing. All
randomness flows from the single config seed through named derivation;
nothing reads the clock or the network.

Each module a stage runs is imported by the functions that run it: the
corpus, template and generation modules by the stages that build or read
their artifacts, numpy and the summary, alignment and measure modules by
those that score, `gender_id` where a classifying scheme builds its
client, and `multiprocessing` where the scoring pool starts. Constructing
a `Pipeline` and a rerun that reuses scores.json load none of them but
`gender_id`, and that only under `gender_local`.
"""

from __future__ import annotations

import functools
import hashlib
import importlib.util
import json
import os
from collections import Counter
from dataclasses import dataclass, field, asdict
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Sequence

from .jsonio import DataError, read_object, write_json
from .names import (
    SCHEME_KINDS,
    AssignmentScheme,
    GenderNameTable,
    RaceNameTable,
    check_intersection,
    data_path,
    load_census,
    load_last_name_pool,
    load_race_names,
    load_word_lists,
    make_scheme,
    resolve_ambiguous,
)
from .seeding import derive_seed

if TYPE_CHECKING:
    from . import alignment as al
    from . import corpus as cp
    from . import gender_id as gid
    from . import generate as gen
    from . import measures as ms
    from . import templates as tp

# written last by every finished `Pipeline.score`: the reuse key and each artifact's sha256
MANIFEST = "run.json"
# each system's alignments and verdicts artifacts, formatted with the system's name
ALIGNMENTS = "alignments.{}.jsonl"
VERDICTS = "verdicts.{}.json"


def _integer(least: int | None = None):
    return lambda value: type(value) is int and (least is None or value >= least)


def _strings_by_string(value) -> bool:
    return isinstance(value, dict) and all(
        isinstance(s, str) for item in value.items() for s in item)


def _path(value) -> bool:
    return isinstance(value, str) and value != ""


_OPTIONAL_PATH_KEYS = ("word_lists", "census_male", "census_female", "race_names",
                       "last_name_pool", "content_words", "cache")


# (config key, what its value must be, the check); a key the file leaves out
# takes its default, which passes
_CONFIG_RULES = (
    ("scheme", "one of " + ", ".join(SCHEME_KINDS), lambda value: value in SCHEME_KINDS),
    ("seed", "an integer", _integer()),
    ("variants", "an integer >= 1", _integer(1)),
    ("replicates", "an integer >= 2", _integer(2)),
    ("alter_last_names", "a boolean", lambda value: type(value) is bool),
    *((key, "a non-empty path string", _path) for key in ("corpus", "out_dir")),
    *((key, "null or a non-empty path string", lambda value: value is None or _path(value))
      for key in _OPTIONAL_PATH_KEYS),
    ("intersection", "null or an object mapping race groups to gender strings",
     lambda value: value is None or _strings_by_string(value)),
    *((key, "an object mapping names to path strings", _strings_by_string)
      for key in ("summaries", "ner_sidecars", "dense_vectors")),
)


@dataclass
class PipelineConfig:
    corpus: str
    scheme: str
    seed: int
    out_dir: str
    summaries: dict[str, str] = field(default_factory=dict)
    variants: int = 20
    replicates: int = 1000
    alter_last_names: bool = False
    intersection: dict[str, str] | None = None
    word_lists: str | None = None
    census_male: str | None = None
    census_female: str | None = None
    race_names: str | None = None
    last_name_pool: str | None = None
    content_words: str | None = None
    cache: str | None = None
    ner_sidecars: dict[str, str] = field(default_factory=dict)
    dense_vectors: dict[str, str] = field(default_factory=dict)

    @classmethod
    def from_file(cls, path: str | Path, out_dir: str | None = None) -> "PipelineConfig":
        """The config that `path` holds, its `out_dir` replaced by `out_dir` when given."""
        data = read_object(path, "a config")
        # old configs and every one perfbench/workload.py writes set "jobs"; they still load
        data.pop("jobs", None)
        if out_dir is not None:
            data["out_dir"] = out_dir
        unknown = set(data) - set(cls.__dataclass_fields__)
        if unknown:
            raise DataError(f"{path}: unknown config key(s): {sorted(unknown)}")
        missing = [k for k in ("corpus", "scheme", "seed", "out_dir") if k not in data]
        if missing:
            raise DataError(f"{path}: config missing required key(s): {missing}")
        for key, rule, ok in _CONFIG_RULES:
            if key in data and not ok(data[key]):
                raise DataError(f"{path}: config key {key!r} must be {rule}, got {data[key]!r}")
        config = cls(**data)
        try:
            scheme = config.assignment_scheme()
        except DataError as exc:
            raise DataError(f"{path}: scheme {config.scheme!r}: {exc}") from exc
        if scheme.alter_last_names and not scheme.is_race and not config.last_name_pool:
            raise DataError(f"{path}: config key 'alter_last_names' is true under scheme "
                            f"{scheme.kind!r}, which then needs 'last_name_pool'")
        return config

    def assignment_scheme(self) -> AssignmentScheme:
        """The generation scheme; a `DataError` when the scheme settings
        conflict, which `from_file` names the config file in."""
        return make_scheme(self.scheme, variants=self.variants,
                           alter_last_names=self.alter_last_names,
                           intersection=self.intersection)

    def payload(self) -> dict:
        """The experiment-defining parameters: everything except where the
        outputs land."""
        data = asdict(self)
        data.pop("out_dir")
        return data

    def input_paths(self) -> list[str]:
        """Every input file except the summaries, whose digests key the
        reuse of scores.json in run.json instead."""
        optional = (getattr(self, key) for key in _OPTIONAL_PATH_KEYS)
        return [self.corpus, *filter(None, optional),
                *self.ner_sidecars.values(), *self.dense_vectors.values()]

    def config_hash(self) -> str:
        """Names the artifact directory: the parameters and the content of
        every input file, so an input edited in place gets a fresh directory."""
        digests = {p: _sha256(p) for p in self.input_paths()}
        canonical = json.dumps([self.payload(), digests], sort_keys=True)
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:12]


def _sha256(path: str | Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


@functools.cache
def package_digest() -> str:
    """sha256 over the package's modules and bundled data files, in name
    order: a run keys its artifacts on it, so changed code or tables never
    serve stale ones."""
    root = Path(__file__).parent
    files = sorted([*root.glob("*.py"), *filter(Path.is_file, (root / "data").iterdir())])
    digest = hashlib.sha256()
    for path in files:
        digest.update(f"{path.relative_to(root).as_posix()}\0{_sha256(path)}\n".encode("utf-8"))
    return digest.hexdigest()


def numpy_version() -> str:
    """numpy's `__version__`, read by running the `version.py` that numpy's
    own `__init__` takes it from, so the reuse key imports no numpy. numpy
    is imported only when that file does not run on its own (numpy 1.24's
    imports from its package)."""
    try:
        package = importlib.util.find_spec("numpy").submodule_search_locations[0]
        source = Path(package, "version.py")
        namespace: dict = {}
        exec(compile(source.read_bytes(), str(source), "exec"), namespace)
        return namespace["__version__"]
    except (ImportError, OSError, AttributeError, KeyError):
        # a relative import in the file raises KeyError: its globals name no package
        import numpy

        return numpy.__version__


# --- stages: one function each, called by `Pipeline` and by the CLI subcommands;
# each returns the stage's outputs and writes its artifact


def ingest(corpus: str | Path, out: str | Path | None = None) -> list[cp.AnnotatedDocument]:
    """Parse a column corpus; documents sorted by id, written as JSONL to
    `out` when given."""
    from . import corpus as cp

    docs = cp.parse_conll_corpus(corpus)
    docs.sort(key=lambda d: d.id)
    if out is not None:
        cp.write_jsonl(docs, out)
    return docs


def build_templates(
    documents: list[cp.AnnotatedDocument], content_words: str | Path | None, out: str | Path
) -> list[tp.DocumentTemplate]:
    """One template per document, with its spans from the content-word file."""
    from . import templates as tp

    content = tp.load_content_words(content_words) if content_words else {}
    templates = [tp.build_template(d, content.get(d.id, ())) for d in documents]
    tp.write_templates(templates, out)
    return templates


def generate_inputs(
    templates: list[tp.DocumentTemplate], scheme: AssignmentScheme, seed: int, *,
    census: GenderNameTable | None, race_table: RaceNameTable | None,
    last_pool: list[str] | None, out: str | Path,
) -> list[gen.GeneratedInput]:
    """Every variant of every eligible template."""
    from . import generate as gen

    produced = gen.generate_corpus(
        templates, scheme, seed, census=census, race_table=race_table, last_name_pool=last_pool
    )
    if not produced:
        raise DataError("no eligible documents: nothing to generate")
    gen.write_inputs(produced, out)
    return produced


AlignedBySystem = "dict[str, tuple[list[al.AlignedSummary], Counter]]"


@dataclass(frozen=True)
class AlignmentContext:
    """What every system's summaries are aligned against: the generated
    inputs by id, each input's entity table, and the detection lexicon."""

    inputs: dict[str, gen.GeneratedInput]
    entity_index: dict[str, list[al.InputEntity]]
    lexicon: frozenset[str]


def alignment_context(
    templates: list[tp.DocumentTemplate], inputs: list[gen.GeneratedInput],
    census: GenderNameTable,
) -> AlignmentContext:
    """The alignment set-up that all systems share; every name of the raw
    `census` table joins the detection lexicon."""
    from . import alignment as al
    from . import summaries as sm

    by_doc = {t.doc_id: t for t in templates}
    return AlignmentContext(
        inputs={g.id: g for g in inputs},
        entity_index={g.id: al.input_entities(by_doc[g.original_id], g) for g in inputs},
        lexicon=sm.build_lexicon(
            [a.first for g in inputs for a in g.assignments],
            [a.last for g in inputs for a in g.assignments],
            [e.first for t in templates for e in t.entities],
            [e.last for t in templates for e in t.entities],
            census=census,
        ),
    )


def align_system(
    context: AlignmentContext, system: str, path: str | Path, *,
    ner_sidecar: str | None, out_dir: str | Path,
) -> tuple[list[al.AlignedSummary], Counter]:
    """`system`'s aligned summary records and alignment counts; writes
    alignments.<system>.jsonl under `out_dir`."""
    from . import alignment as al
    from . import summaries as sm

    records = sm.load_summaries(path, context.inputs, system=system,
                                lexicon=context.lexicon, ner_sidecar=ner_sidecar)
    aligned, counts = al.align_corpus(records, context.entity_index, context.inputs)
    al.write_alignments(aligned, Path(out_dir) / ALIGNMENTS.format(system))
    return aligned, counts.get(system, Counter())


def entity_key(tokens: Sequence[str]) -> str:
    """The lowercased surface form that keys a hallucinated entity's verdict."""
    return " ".join(tokens).lower()


def classify_entities(
    entity_tokens: Iterable[Sequence[str]], client: gid.FixtureLookupClient,
    census: GenderNameTable, out: str | Path,
) -> dict[str, gid.GenderVerdict]:
    """Gender verdict per distinct hallucinated entity, keyed by its lowercased
    surface form; writes the verdict rows to `out`."""
    from . import gender_id as gid

    counts: Counter[str] = Counter()
    verdicts: dict[str, gid.GenderVerdict] = {}
    for tokens in entity_tokens:
        key = entity_key(tokens)
        if key not in verdicts:
            verdicts[key] = gid.classify(tokens, client, census)
        counts[key] += 1
    rows = [
        {"entity": key, "count": counts[key], "gender": v.gender, "source": v.source}
        for key, v in sorted(verdicts.items())
    ]
    write_json(out, rows)
    return verdicts


@dataclass(frozen=True)
class _SharedScoring:
    """What every system's scoring reads, built once per `Pipeline.score`."""

    context: AlignmentContext
    word_sets: dict[str, frozenset[str]]  # the word lists as sets, for `ms.count_identifiers`
    input_ident_counts: dict[str, dict[str, int]]  # word-list identifiers per input, where classified
    names: tuple[set[str], set[str]] | None  # first and last names assigned (gender_global)


class Pipeline:
    def __init__(self, config: PipelineConfig):
        self.config = config
        # each system's summary file sha256, which keys the reuse of scores.json
        self.summaries = {s: _sha256(p) for s, p in sorted(config.summaries.items())}
        self.scheme = config.assignment_scheme()
        self.word_lists = load_word_lists(config.word_lists)
        self._census_raw = load_census(config.census_male, config.census_female)
        self.census = resolve_ambiguous(self._census_raw)
        self.race_table = (
            load_race_names(config.race_names) if self.scheme.is_race else None
        )
        check_intersection(self.scheme, self.race_table)
        self.last_pool = (
            load_last_name_pool(config.last_name_pool) if config.last_name_pool else None
        )
        self.client = None
        if self._classifies():
            from . import gender_id as gid

            self.client = gid.FixtureLookupClient(config.cache or data_path("wiki_cache.json"))
        # made once every table has loaded and every input is hashed, so a bad
        # one leaves no directory behind
        self.art_dir = Path(config.out_dir) / config.config_hash()
        self.art_dir.mkdir(parents=True, exist_ok=True)
        # stage results that later stages reuse, computed or read once per run
        self._templates: list[tp.DocumentTemplate] | None = None
        self._inputs: list[gen.GeneratedInput] | None = None
        # sha256 of each artifact this run built, or found intact
        self._digests: dict[str, str] = {}

    def path(self, name: str) -> Path:
        return self.art_dir / name

    # -- reuse ---------------------------------------------------------------

    @staticmethod
    def _code_key() -> dict[str, str]:
        """The parts of the reuse key that every artifact shares."""
        return {"package": package_digest(), "numpy": numpy_version()}

    @functools.cached_property
    def _previous(self) -> dict:
        """The run.json of the last finished run in this directory, if it was
        written under this package digest and numpy version; else {}."""
        try:
            manifest = read_object(self.path(MANIFEST), "a run manifest")
        except (OSError, DataError):
            return {}
        key = manifest.get("key")
        if not (isinstance(key, dict) and _strings_by_string(key.get("summaries"))
                and _strings_by_string(manifest.get("artifacts"))
                and all(key.get(k) == v for k, v in self._code_key().items())):
            return {}
        return manifest

    def _intact(self, name: str) -> bool:
        """Whether this run built the artifact `name` or found it intact: it
        still hashes to the digest that run.json recorded."""
        if name not in self._digests:
            recorded = self._previous.get("artifacts", {}).get(name)
            artifact = self.path(name)
            if recorded is None or not artifact.is_file() or _sha256(artifact) != recorded:
                return False
            self._digests[name] = recorded
        return True

    def _built(self, name: str) -> None:
        self._digests[name] = _sha256(self.path(name))

    def _reuse(self, name: str, read, build) -> list:
        """The stage's artifact if it is intact, else `build(artifact path)`."""
        artifact = self.path(name)
        if self._intact(name):
            return list(read(artifact))
        built = build(artifact)
        self._built(name)
        return built

    def _system_artifacts(self, system: str) -> list[str]:
        return [ALIGNMENTS.format(system),
                *([VERDICTS.format(system)] if self._classifies() else [])]

    def _scores_intact(self) -> bool:
        """Whether scores.json can be reused: every summary file is the one
        run.json recorded, and scores.json and every system's artifacts
        still hash to their recorded digests."""
        if self._previous.get("key", {}).get("summaries") != self.summaries:
            return False
        names = ["scores.json", *(n for s in self.summaries for n in self._system_artifacts(s))]
        return all(map(self._intact, names))

    # -- stages ------------------------------------------------------------

    def documents(self) -> list[cp.AnnotatedDocument]:
        from . import corpus as cp

        return self._reuse(
            "documents.jsonl", cp.read_jsonl, lambda out: ingest(self.config.corpus, out)
        )

    def templates(self) -> list[tp.DocumentTemplate]:
        if self._templates is None:
            from . import templates as tp

            self._templates = self._reuse(
                "templates.jsonl",
                tp.read_templates,
                lambda out: build_templates(self.documents(), self.config.content_words, out),
            )
        return self._templates

    def inputs(self) -> list[gen.GeneratedInput]:
        if self._inputs is None:
            from . import generate as gen

            self._inputs = self._reuse(
                "inputs.jsonl",
                gen.read_inputs,
                lambda out: generate_inputs(
                    self.templates(), self.scheme, self.config.seed,
                    census=self.census, race_table=self.race_table,
                    last_pool=self.last_pool, out=out,
                ),
            )
        return self._inputs

    def alignments(
        self, system: str, context: AlignmentContext
    ) -> tuple[list[al.AlignedSummary], Counter]:
        return align_system(
            context, system, self.config.summaries[system],
            ner_sidecar=self.config.ner_sidecars.get(system), out_dir=self.art_dir,
        )

    def classify_hallucinations(
        self, aligned_by_system: AlignedBySystem
    ) -> dict[str, dict[str, gid.GenderVerdict]]:
        """Gender verdicts per system, keyed by the entity surface form."""
        return {
            system: classify_entities(
                (e.tokens for a in aligned for e in a.hallucinated()),
                self.client, self.census, self.path(VERDICTS.format(system)),
            )
            for system, (aligned, _) in sorted(aligned_by_system.items())
        }

    # -- scoring -------------------------------------------------------------

    def _classifies(self) -> bool:
        """Whether the scheme scores word lists and hallucinations."""
        return self.scheme.kind == "gender_local"

    def score(self) -> dict:
        """Write scores.json, one block per system in sorted system order,
        then run.json. A staged artifact that is not intact is rebuilt.
        scores.json is reused when the summaries, scores.json and every
        system's artifacts are those run.json recorded; otherwise every
        system is rescored. With several systems and several usable CPUs,
        forked workers compute the blocks, one system each and at most one
        per CPU, from the state built here once; the blocks are the same
        either way."""
        for name, stage in (("inputs.jsonl", self.inputs), ("templates.jsonl", self.templates),
                            ("documents.jsonl", self.documents)):
            if not self._intact(name):
                stage()  # a stage rebuilds what it reads that is not intact
        if self._scores_intact():
            report = read_object(self.path("scores.json"), "a scores file")
        else:
            systems = list(self.summaries)
            report = {"config": self.config.payload(),
                      "systems": dict(zip(systems, self._score_systems(systems)))}
            write_json(self.path("scores.json"), report)
            for name in ["scores.json", *(n for s in systems for n in self._system_artifacts(s))]:
                self._built(name)
        # last, so that a run cut short writes no manifest for what it changed
        write_json(self.path(MANIFEST), {"key": {**self._code_key(), "summaries": self.summaries},
                                         "artifacts": self._digests})
        return report

    def _score_systems(self, systems: list[str]) -> list[dict]:
        """The scores.json blocks of `systems`, from shared state built once."""
        import multiprocessing

        from . import measures as ms
        from . import words

        inputs = self.inputs()
        classifies = self._classifies()
        names = None
        if self.scheme.kind == "gender_global":
            assignments = [a for gi in inputs for a in gi.assignments]
            names = ({a.first.lower() for a in assignments if a.first},
                     {a.last.lower() for a in assignments if a.last})
        word_sets = words.word_sets(self.word_lists)
        shared = _SharedScoring(
            context=alignment_context(self.templates(), inputs, self._census_raw),
            word_sets=word_sets,
            input_ident_counts=(
                {gi.id: ms.count_identifiers(gi.tokens, word_sets) for gi in inputs}
                if classifies else {}),
            names=names,
        )
        workers = min(usable_cpus(), len(systems))
        if workers > 1 and "fork" in multiprocessing.get_all_start_methods():
            # fork hands every worker this pipeline and `shared` as they are;
            # only system names and blocks cross the pipes
            with multiprocessing.get_context("fork").Pool(
                workers, _start_worker, (self, shared)
            ) as pool:
                return list(pool.imap(_score_in_worker, systems))
        return [self._score_system(system, shared) for system in systems]

    def _score_system(self, system: str, shared: _SharedScoring) -> dict:
        """`system`'s block of scores.json: its summaries aligned, their
        hallucinations classified, every measure with its CIs. Writes
        alignments.<system>.jsonl, and verdicts.<system>.json where the
        scheme classifies."""
        import numpy as np

        from . import alignment as al
        from . import measures as ms
        from . import words

        aligned, counts = self.alignments(system, shared.context)
        inputs = [shared.context.inputs[a.record.input_id] for a in aligned]
        hallucinated_keys = [[entity_key(e.tokens) for e in a.hallucinated()] for a in aligned]

        def records(stats_rows):
            """Bootstrap records of `aligned`, in order, one statistics row each."""
            stats = np.array(list(stats_rows), dtype=np.int64)
            return [ms.BootstrapRecord(gi.original_id, gi.variant, row)
                    for gi, row in zip(inputs, stats)]

        measures: dict[str, dict] = {}
        diag: dict[str, list[str]] = {}
        verdicts = {}
        if self._classifies():
            verdicts = self.classify_hallucinations({system: (aligned, counts)})[system]
            groups = sorted(self.word_lists)
            wl_records = records(
                words.word_list_stats(ms.count_identifiers(a.record.tokens, shared.word_sets),
                                      shared.input_ident_counts[gi.id], groups)
                for a, gi in zip(aligned, inputs))
            for measure, reference in (("word_list_inclusion", "adjusted"),
                                       ("word_list_inclusion_uniform", "uniform")):
                measures[measure] = self._ci(
                    wl_records, functools.partial(words.word_list_score, reference=reference),
                    system, measure)
            hal_records = records(
                ms.hallucination_stats(Counter(verdicts[key].gender for key in keys))
                for keys in hallucinated_keys)
            measures["hallucination_bias"] = self._ci(
                hal_records, ms.hallucination_bias_score, system, "hallucination_bias")

        if self.scheme.kind != "gender_global":
            rows = al.inclusion_rows(aligned, shared.context.entity_index)
            inc_groups = sorted({g for r in rows for g in r})
            inc_records = records(ms.inclusion_stats(r, inc_groups) for r in rows)
            measures["entity_inclusion"] = self._ci(
                inc_records, ms.entity_inclusion_score, system, "entity_inclusion")
        else:
            for measure, (points, missing) in self._distinguishability_points(
                    system, aligned, inputs, shared.context.inputs, *shared.names).items():
                stats, skipped = ms.distinguishability(points)
                diag[measure] = skipped + missing
                measures[measure] = self._dist_ci(stats, system, measure)

        hallucinated = Counter(key for keys in hallucinated_keys for key in keys)
        counts["gender_classified_hallucinations"] = sum(
            n for key, n in hallucinated.items()
            if key in verdicts and verdicts[key].gender != "unknown"
        )
        return {
            "measures": measures,
            "alignment_counts": dict(sorted(counts.items())),
            "hallucination_top": self._hallucination_top(hallucinated, verdicts),
            "diagnostics": diag,
        }

    def _ci(self, records, fn, system, measure, axes=("d", "s")) -> dict:
        """`measure`'s scores.json entry for `system`."""
        from . import measures as ms

        seed = derive_seed(self.config.seed, "ci", system, measure)
        return ms.score_with_ci(records, fn, replicates=self.config.replicates, seed=seed,
                                axes=axes)

    def _dist_ci(self, stats, system, measure) -> dict:
        """A distinguishability measure's entry, from its per-original (n,
        wins); only originals are resampled."""
        import numpy as np

        from . import measures as ms

        records = [ms.BootstrapRecord(original, 0, np.array(payload, dtype=np.int64))
                   for original, payload in stats.items()]
        return self._ci(records, ms.distinguishability_score, system, measure, axes=("d",))

    def _distinguishability_points(self, system, aligned, inputs, generated, first_names,
                                   last_names):
        """Per distinguishability measure, `system`'s summary points and the
        inputs left out of them; `inputs[i]` is the input `aligned[i]`
        summarizes. Count points are bags of neutralized words, every name
        assigned to any input marked; dense points, from the system's
        sidecar if it has one, skip the inputs the sidecar lacks. A sidecar
        row whose id is not in `generated` is a `DataError`."""
        from . import measures as ms
        from . import summaries as sm

        path = self.config.dense_vectors.get(system)
        vectors = None if path is None else sm.load_dense_vectors(path, generated, system)
        neutralize = ms.neutralizer(first_names, last_names)
        count_points, dense_points, missing = [], [], []
        for a, gi in zip(aligned, inputs):
            group = gi.assignments[0].gender if gi.assignments else "unknown"
            count_points.append(ms.SummaryPoint(gi.original_id, group,
                                                Counter(neutralize(a.record.tokens))))
            if vectors is None:
                continue
            if gi.id in vectors:
                dense_points.append(ms.SummaryPoint(gi.original_id, group, vectors[gi.id]))
            else:
                missing.append(f"no dense vector for input {gi.id}")
        points = {"distinguishability_count": (count_points, [])}
        if vectors is not None:
            points["distinguishability_dense"] = (dense_points, missing)
        return points

    def _hallucination_top(self, hallucinated: Counter, verdicts):
        """The 10 most frequent hallucinated entities, each with its gender tag."""
        rows = sorted(hallucinated.items(), key=lambda kv: (-kv[1], kv[0]))[:10]
        tag = {"male": "m", "female": "f", "unknown": "u"}
        return [
            [name, count, tag[verdicts[name].gender] if name in verdicts else "u"]
            for name, count in rows
        ]


def usable_cpus() -> int:
    """The CPUs this process may run on, which caps the scoring workers."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


# the (pipeline, shared state) a scoring worker inherited from its parent
_worker_state: tuple[Pipeline, _SharedScoring] | None = None


def _start_worker(pipeline: Pipeline, shared: _SharedScoring) -> None:
    """Pool initializer: under fork its arguments are inherited, not pickled."""
    global _worker_state
    _worker_state = (pipeline, shared)


def _score_in_worker(system: str) -> dict:
    pipeline, shared = _worker_state
    return pipeline._score_system(system, shared)
