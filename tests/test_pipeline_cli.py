import json
from pathlib import Path

import pytest

from make_demo_data import make_fixture_corpus
from e2e import (hallucinating_summarizer, identity_summarizer, make_keep_rate_summarizer,
                 stage_run)
from helpers import holes

from sumprobe import pipeline
from sumprobe.cli import COMMANDS, build_parser, main
from sumprobe.corpus import write_conll_corpus
from sumprobe.jsonio import DataError, StageError
from sumprobe.pipeline import Pipeline, PipelineConfig
from sumprobe.report import render_report


@pytest.fixture(scope="module")
def small_corpus():
    return make_fixture_corpus(8, seed=21)


def artifact_dir(config_path):
    config = PipelineConfig.from_file(config_path)
    return Path(config.out_dir) / config.config_hash()


def test_run_end_to_end(tmp_path, small_corpus):
    config = stage_run(tmp_path, small_corpus, variants=4, replicates=40)
    assert main(["run", "--config", str(config)]) == 0
    art = artifact_dir(config)
    for name in ("documents.jsonl", "templates.jsonl", "inputs.jsonl", "scores.json",
                 "report.md", "report.csv", "report.json"):
        assert (art / name).exists(), name
    scores = json.loads((art / "scores.json").read_text())
    echo = scores["systems"]["echo"]
    for measure in ("word_list_inclusion", "entity_inclusion", "hallucination_bias"):
        assert measure in echo["measures"]
    assert echo["alignment_counts"]["hallucinated"] == 0


def test_rerun_is_byte_identical(tmp_path, small_corpus):
    config = stage_run(tmp_path, small_corpus, replicates=40)
    out_a, out_b = tmp_path / "ra", tmp_path / "rb"
    assert main(["run", "--config", str(config), "--out-dir", str(out_a)]) == 0
    assert main(["run", "--config", str(config), "--out-dir", str(out_b)]) == 0
    hash_dir = artifact_dir(config).name
    for name in ("scores.json", "report.md", "report.csv", "report.json"):
        a = (out_a / hash_dir / name).read_bytes()
        b = (out_b / hash_dir / name).read_bytes()
        assert a == b, name


def test_score_writes_the_scores_of_run_and_no_report(tmp_path, small_corpus, capsys):
    config = stage_run(tmp_path, small_corpus, replicates=40)
    capsys.readouterr()
    assert main(["score", "--config", str(config)]) == 0
    art = artifact_dir(config)
    assert capsys.readouterr().out == f"{art / 'scores.json'}\n"
    assert sorted(art.glob("report.*")) == []
    ran = tmp_path / "ran"
    assert main(["run", "--config", str(config), "--out-dir", str(ran)]) == 0
    assert (art / "scores.json").read_bytes() == (ran / art.name / "scores.json").read_bytes()


def test_rerun_leaves_unchanged_reports_in_place(tmp_path, small_corpus):
    config = stage_run(tmp_path, small_corpus, variants=4, replicates=20)
    assert main(["run", "--config", str(config)]) == 0
    names = ("scores.json", "verdicts.echo.json", "report.md", "report.csv", "report.json")
    art = artifact_dir(config)
    first = {name: (art / name).stat().st_ino for name in names}
    assert main(["run", "--config", str(config)]) == 0
    assert {name: (art / name).stat().st_ino for name in names} == first


def required_args(command):
    """Each required flag of `command`, with a value its type and choices accept."""
    return [item for flag, options in COMMANDS[command][2] if options.get("required")
            for item in (flag, str(options.get("choices", [1])[0]))]


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_one_subcommand_parser_reads_like_the_full_one(command, capsys):
    argv = [command, *required_args(command)]
    assert build_parser(command).format_usage() == build_parser().format_usage()
    assert vars(build_parser(command).parse_args(argv)) == vars(build_parser().parse_args(argv))
    with pytest.raises(SystemExit) as err:
        main([*argv, "--bogus"])
    assert err.value.code == 1
    assert "{" + ",".join(COMMANDS) + "}" in capsys.readouterr().err


def test_usage_error_exits_1(capsys):
    with pytest.raises(SystemExit) as err:
        main(["generate"])  # missing required flags
    assert err.value.code == 1


def test_unknown_command_exits_1():
    with pytest.raises(SystemExit) as err:
        main(["frobnicate"])
    assert err.value.code == 1


def test_unknown_scheme_exits_1_naming_every_scheme(tmp_path, capsys):
    with pytest.raises(SystemExit) as err:
        main(["generate", "--templates", str(tmp_path / "templates.jsonl"), "--scheme", "bogus",
              "--seed", "1", "--out", str(tmp_path / "inputs.jsonl")])
    assert err.value.code == 1
    message = capsys.readouterr().err
    assert "--scheme: invalid choice: 'bogus'" in message
    for kind in ("gender_local", "gender_global", "race_random_gender", "race_intersectional"):
        assert kind in message
    assert not (tmp_path / "inputs.jsonl").exists()


def test_docs_name_only_existing_scripts_and_commands():
    """Every `scripts/<name>.py` and `sumprobe <command>` that README.md and
    docs/formats.md mention exists, so no deletion leaves an instruction behind."""
    import re

    root = Path(__file__).resolve().parent.parent
    text = "\n".join((root / name).read_text(encoding="utf-8")
                     for name in ("README.md", "docs/formats.md"))
    scripts = set(re.findall(r"scripts/([\w-]+\.py)", text))
    commands = set(re.findall(r"(?:^|`)sumprobe ([a-z][\w-]*)", text, re.MULTILINE))
    assert scripts and commands
    assert sorted(s for s in scripts if not (root / "scripts" / s).is_file()) == []
    assert sorted(commands - set(COMMANDS)) == []


def test_data_error_exits_2(tmp_path):
    doc = "#begin document (x); part 000\nx 0 0 Hello NNP * -\n#end document\n"
    corpora = {
        "unclosed": "#begin document (x); part 000\nx 0 0 Hello NNP * (0\n#end document\n",
        "duplicate_ids": doc + doc,
    }
    for name, text in corpora.items():
        corpus, out = tmp_path / f"{name}.conll", tmp_path / f"{name}.jsonl"
        corpus.write_text(text)
        assert main(["ingest", "--corpus", str(corpus), "--out", str(out)]) == 2, name
        assert not out.exists(), name


_BEGIN = "#begin document (x); part 000\n"
_ONE_TOKEN = _BEGIN + "x 0 0 Hello NNP * -\n#end document\n"


def _document_row(**changes):
    """An ingest JSONL row of a one-token document, with `changes`."""
    row = {"id": "x#0", "tokens": ["Hello"], "sentences": [0], "pos": ["NNP"],
           "chains": {"0": [[0, 0]]}, "entities": [], **changes}
    return json.dumps(row) + "\n"


def _error_case(tmp_path, case):
    """The argv of one failing command and the file its message names."""
    root = Path(__file__).resolve().parent.parent
    corpora = {
        "six_columns": ("ingest", _BEGIN + "x 0 0 Hello NNP *\n#end document\n"),
        "open_coreference": ("ingest", _BEGIN + "x 0 0 Hello NNP * (0\n#end document\n"),
        "no_end_marker": ("ingest", _BEGIN + "x 0 0 Hello NNP * -\n"),
        "nested_begin": ("build-templates", _BEGIN + _BEGIN),
        "coreference_across_sentences": (
            "ingest", _BEGIN + "x 0 0 Hello NNP * (0\n\nx 0 0 there RB * 0)\n#end document\n"),
        "column_id_twice": ("ingest", _ONE_TOKEN + _ONE_TOKEN),
        "row_chain_out_of_range": ("build-templates", _document_row(chains={"0": [[0, 1]]})),
        "row_id_twice": ("build-templates", _document_row() * 2),
        "row_sentences_from_1": ("build-templates", _document_row(sentences=[1])),
        "row_empty_chain": ("build-templates", _document_row(chains={"0": []})),
        "entity_across_sentences": (
            "ingest", _BEGIN + "x 0 0 Ann NNP (PERSON* -\n\nx 0 0 Lee NNP *) -\n#end document\n"),
        "row_entity_across_sentences": ("build-templates", _document_row(
            tokens=["Ann", "Lee"], sentences=[0, 1], pos=["NNP", "NNP"],
            entities=[[0, 1, "PERSON"]])),
        "entity_opened_while_open": (
            "ingest", _BEGIN + "x 0 0 Ann NNP (PERSON* -\nx 0 0 Lee NNP (PERSON* -\n"),
        "entity_without_brackets": ("ingest", _BEGIN + "x 0 0 Ann NNP PERSON -\n"),
        "entity_closed_unopened": ("ingest", _BEGIN + "x 0 0 Ann NNP *) -\n"),
        "coreference_not_a_number": ("ingest", _BEGIN + "x 0 0 Ann NNP * (a)\n"),
        "end_without_begin": ("ingest", "#end document\n"),
        "row_outside_document": ("ingest", "\nx 0 0 Ann NNP * -\n"),
        "bad_begin_marker": ("ingest", "#begin document x\n"),
        "entity_without_close": ("ingest", _BEGIN + "x 0 0 Ann NNP (PERSON -\n"),
        "row_columns_of_two_lengths": ("build-templates", _document_row(pos=["NNP", "NN"])),
        "row_integer_token": ("build-templates", _document_row(tokens=[5])),
        "row_float_sentence": ("build-templates", _document_row(sentences=[0.0])),
    }
    if case in corpora:
        command, text = corpora[case]
        corpus = tmp_path / ("documents.jsonl" if text.startswith("{") else "corpus.conll")
        corpus.write_text(text)
        flag = "--corpus" if command == "ingest" else "--documents"
        return [command, flag, str(corpus), "--out", str(tmp_path / "out.jsonl")], corpus
    missing = tmp_path / "missing.jsonl"
    # word lists without one of the gender lists, given with a corpus that
    # does not exist: the lists are checked before the corpus is read
    lists = {"analyze_without_male_list": ({"a": ["x"], "b": ["y"]}, ["analyze-input-bias"]),
             "simulate_without_female_list": ({"male": ["he"], "b": ["y"]},
                                              ["simulate-baselines", "--seed", "1"])}
    if case in lists:
        table, command = lists[case]
        word_lists = tmp_path / "word_lists.json"
        word_lists.write_text(json.dumps(table))
        return [*command, "--corpus", str(missing), "--word-lists", str(word_lists),
                "--out", str(tmp_path / "out")], word_lists
    if case == "run_summary_missing":
        return ["run", "--config", str(toy_config_with(tmp_path, {"summaries": {
            "skewed": str(missing)}}))], missing
    if case == "run_intersection_of_other_groups":
        return ["run", "--config", str(toy_config_with(tmp_path, {
            "scheme": "race_intersectional", "intersection": {"asian": "male"}}))], missing
    no_person = tmp_path / "no_person.conll"
    no_person.write_text(_ONE_TOKEN)
    if case == "run_no_eligible_document":
        return ["run", "--config", str(toy_config_with(tmp_path, {
            "corpus": str(no_person)}))], no_person
    # spans over the toy summaries of `skewed`: two end past their summary
    sidecar = tmp_path / "ner.skewed.jsonl"
    sidecar.write_text("".join(json.dumps({"input_id": input_id, "entities": spans}) + "\n"
                               for input_id, spans in [
                                   ("fix_0001#0::00", [[0, 1, "PERSON"], [3, 40, "PERSON"]]),
                                   ("fix_0000#0::00", [[0, 1, "PERSON"]]),
                                   ("fix_0000#0::02", [[0, 40, "DATE"]])]))
    if case == "run_sidecar_past_summary":
        return ["run", "--config", str(toy_config_with(tmp_path, {"ner_sidecars": {
            "skewed": str(sidecar)}}))], sidecar
    templates = tmp_path / "templates.jsonl"
    assert main(["build-templates", "--documents", str(root / "data/toy/corpus.conll"),
                 "--out", str(templates)]) == 0
    generate = ["generate", "--templates", str(templates), "--seed", "42", "--variants", "4",
                "--out", str(tmp_path / "inputs.jsonl"), "--scheme"]
    if case == "generate_intersection_of_other_groups":
        return [*generate, "race_intersectional",
                "--intersection", "Black=male", "white=female"], templates
    if case == "generate_no_eligible_document":
        assert main(["build-templates", "--documents", str(no_person),
                     "--out", str(templates)]) == 0
        return [*generate, "gender_local"], templates
    if case == "three_race_groups":
        names = [f"n{i}" for i in range(10)]
        group = {"first": {"male": names, "female": names}, "last": names}
        table = tmp_path / "race.json"
        table.write_text(json.dumps({g: group for g in ("a", "b", "c")}))
        return [*generate, "race_random_gender", "--race-names", str(table)], table
    if case == "one_male_name":
        census = tmp_path / "male.txt"
        census.write_text("zebulon 1.0 1\n")
        return [*generate, "gender_local", "--census-male", str(census)], census
    if case == "odd_global_variants":
        return [*generate, "gender_global", "--variants", "3"], templates
    if case in ("they_pronoun", "span_without_neutral", "slot_out_of_range"):
        rows = [json.loads(line) for line in templates.read_text().splitlines()]
        if case == "they_pronoun":
            slot = next(s for s in rows[0]["entities"][0]["slots"] if s["category"] == "pronoun")
            slot["text"] = ["they"]
        elif case == "slot_out_of_range":
            slot = rows[0]["entities"][0]["slots"][0]
            slot["start"] = slot["end"] = len(rows[0]["tokens"])
        else:
            # entities 0 and 1 of the first toy document, to which gender_local
            # gives two genders; token 2 is in no slot
            rows[0]["content_spans"] = [{"start": 2, "end": 2, "entities": ["0", "1"],
                                         "male": "x", "female": "y", "neutral": None}]
        templates.write_text("".join(json.dumps(row) + "\n" for row in rows))
        return [*generate, "gender_local"], templates
    assert main([*generate, "gender_local"]) == 0
    path = missing
    align = ["align", "--templates", str(templates), "--inputs", str(tmp_path / "inputs.jsonl"),
             "--out-dir", str(tmp_path), "--summaries"]
    if case == "summaries_without_equals":
        return [*align, "x"], path
    if case == "inputs_of_other_templates":
        rows = templates.read_text().splitlines()
        templates.write_text("\n".join(rows[1:]) + "\n")
        return [*align, f"faithful={root / 'data/toy/summaries.faithful.jsonl'}"], (
            tmp_path / "inputs.jsonl")
    if case == "align_sidecar_past_summary":
        return [*align, f"skewed={root / 'data/toy/summaries.skewed.jsonl'}",
                "--ner", f"skewed={sidecar}"], sidecar
    if case == "duplicate_summary":
        rows = (root / "data/toy/summaries.skewed.jsonl").read_text().splitlines()
        path = tmp_path / "summaries.skewed.jsonl"
        path.write_text("\n".join([*rows, rows[0]]) + "\n")
    return [*align, f"skewed={path}"], path


@pytest.mark.parametrize("case, code, message", [
    ("six_columns", 2, "{file}: line 2: expected 7 columns, got 6"),
    ("open_coreference", 2,
     "{file}: line 3: document x#0 ends with open coreference bracket(s) for chain(s) 0"),
    ("no_end_marker", 2, "{file}: document x#0 has no '#end document' marker"),
    ("nested_begin", 2, "{file}: line 2: nested '#begin document'"),
    ("three_race_groups", 3, "stage 'generate': race assignment expects exactly two groups"),
    ("one_male_name", 3, "stage 'generate': need 2 distinct male first names, inventory has 1"),
    ("they_pronoun", 3, "stage 'generate': cannot map pronoun 'they'"),
    ("duplicate_summary", 2,
     "{file}: system 'skewed': duplicate (input, system) summaries: fix_0000#0::00/skewed"),
    ("coreference_across_sentences", 2,
     "{file}: line 3: coreference bracket(s) for chain(s) 0 still open at a sentence break"),
    ("column_id_twice", 2, "{file}: line 4: document x#0 appears twice"),
    ("row_chain_out_of_range", 2, "{file}:1: malformed row: chain '0': mention [0, 1] out of range"),
    ("row_id_twice", 2, "{file}:2: malformed row: document x#0 appears twice"),
    ("row_sentences_from_1", 2,
     "{file}:1: malformed row: sentences must start at 0 and never decrease"),
    ("row_empty_chain", 2,
     "{file}:1: malformed row: chain '0' is not a non-empty list of [start, end] spans"),
    ("entity_across_sentences", 2,
     "{file}: line 3: named-entity bracket still open at a sentence break"),
    ("row_entity_across_sentences", 2,
     "{file}:1: malformed row: entity [0, 1, 'PERSON'] crosses a sentence break"),
    *((f"{command}_sidecar_past_summary", 2, "{file}: system 'skewed': entity spans end past "
       "their summary: fix_0000#0::02, fix_0001#0::00") for command in ("run", "align")),
    ("align_summary_missing", 2, "[Errno 2] No such file or directory: '{file}'"),
    ("run_summary_missing", 2, "[Errno 2] No such file or directory: '{file}'"),
    ("odd_global_variants", 2,
     "gender_global pairs variants; variants_per_original must be even, got 3"),
    ("entity_opened_while_open", 2,
     "{file}: line 3: named-entity bracket opened while another is open"),
    ("entity_without_brackets", 2, "{file}: line 2: bad named-entity field 'PERSON'"),
    ("entity_closed_unopened", 2, "{file}: line 2: named-entity bracket closed but none open"),
    ("coreference_not_a_number", 2, "{file}: line 2: bad coreference field '(a)'"),
    ("end_without_begin", 2, "{file}: line 1: '#end document' without begin"),
    ("row_outside_document", 2, "{file}: line 2: token row outside a document block"),
    ("bad_begin_marker", 2, "{file}: line 1: bad '#begin document' marker: '#begin document x'"),
    ("run_intersection_of_other_groups", 2,
     "intersection maps race group(s) ['asian'], but the race table has ['black', 'white']"),
    ("generate_intersection_of_other_groups", 2,
     "intersection maps race group(s) ['Black', 'white'], but the race table has "
     "['black', 'white']"),
    *((f"{command}_no_eligible_document", 2, "no eligible documents: nothing to generate")
      for command in ("run", "generate")),
    ("analyze_without_male_list", 2, "{file}: no 'male' word list"),
    ("simulate_without_female_list", 2, "{file}: no 'female' word list"),
    ("entity_without_close", 2, "{file}: line 2: bad named-entity field '(PERSON'"),
    ("row_columns_of_two_lengths", 2,
     "{file}:1: malformed row: tokens, sentences and pos differ in length"),
    ("row_integer_token", 2, "{file}:1: malformed row: tokens and pos must be strings"),
    ("row_float_sentence", 2, "{file}:1: malformed row: sentences must be integers"),
    ("summaries_without_equals", 2, "--summaries must look like name=value, got 'x'"),
    ("span_without_neutral", 3, "stage 'generate': content span (2,2) needs a neutral variant"),
    ("slot_out_of_range", 2, "{file}:1: malformed row: slot [29, 29] out of range"),
    ("inputs_of_other_templates", 2, "{file}: inputs of originals that {templates} holds no "
                                     "template of: fix_0000#0"),
])
def test_error_paths_give_their_exit_code_and_message(tmp_path, capsys, case, code, message):
    """Each bad input's exit code and the whole stderr line it prints; a
    run whose settings cannot generate makes no artifact directory."""
    argv, path = _error_case(tmp_path, case)
    capsys.readouterr()
    assert main(argv) == code
    assert capsys.readouterr().err == (
        f"error: {message.format(file=path, templates=tmp_path / 'templates.jsonl')}\n")
    if case == "run_intersection_of_other_groups":
        assert not (tmp_path / "out").exists()


def replace_line_3(path, bad_row):
    rows = path.read_text().splitlines()
    rows[2] = bad_row
    path.write_text("\n".join(rows) + "\n")


@pytest.mark.parametrize("bad_row", [
    '{"input_id": "x", "system": "echo", "summary": }',
    '{"input_id": "x", "system": "echo"}',
    '{"input_id": "x", "system": "echo", "summary": null}',
    '{"input_id": ["x"], "system": "echo", "summary": "x"}',
], ids=["invalid_json", "missing_summary", "null_summary", "list_input_id"])
def test_malformed_summary_row_exits_2_naming_its_line(tmp_path, small_corpus, capsys, bad_row):
    config_path = stage_run(tmp_path, small_corpus, replicates=20)
    path = Path(json.loads(config_path.read_text())["summaries"]["echo"])
    replace_line_3(path, bad_row)
    assert main(["run", "--config", str(config_path)]) == 2
    assert f"{path}:3" in capsys.readouterr().err


def test_undecodable_summary_file_exits_2_naming_its_line(tmp_path, small_corpus, capsys):
    config_path = stage_run(tmp_path, small_corpus, replicates=20)
    path = Path(json.loads(config_path.read_text())["summaries"]["echo"])
    lines = path.read_bytes().splitlines(keepends=True)
    path.write_bytes(b"".join(lines[:2] + [b'{"summary": "\xff"}\n'] + lines[3:]))
    assert main(["run", "--config", str(config_path)]) == 2
    assert f"{path}:3: not UTF-8" in capsys.readouterr().err


def test_undecodable_config_exits_2_naming_it(tmp_path, capsys):
    config_path = tmp_path / "config.json"
    config_path.write_bytes(b'{"corpus": "\xff"}')
    assert main(["run", "--config", str(config_path)]) == 2
    assert f"{config_path}: not UTF-8" in capsys.readouterr().err


@pytest.mark.parametrize("kind", ["column_corpus", "census", "last_name_pool"])
def test_undecodable_text_table_exits_2_naming_its_line(tmp_path, capsys, kind):
    root = Path(__file__).resolve().parent.parent
    path = tmp_path / f"{kind}.txt"
    for empty in ("alignments.jsonl", "templates.jsonl"):
        (tmp_path / empty).write_text("")
    argv, text = {
        "column_corpus": (["ingest", "--corpus", str(path), "--out", str(tmp_path / "docs.jsonl")],
                          b"#begin document (x); part 000\nx 0 0 H\xffllo NNP * -\n#end document\n"),
        "census": (["classify-hallucinations", "--alignments", str(tmp_path / "alignments.jsonl"),
                    "--cache", str(root / "src/sumprobe/data/wiki_cache.json"),
                    "--out", str(tmp_path / "verdicts.json"), "--census-male", str(path)],
                   b"JOHN 3.2 1\nJ\xffN 1.0 2\n"),
        "last_name_pool": (["generate", "--templates", str(tmp_path / "templates.jsonl"),
                            "--scheme", "gender_local", "--seed", "1", "--variants", "2",
                            "--alter-last-names", "--last-names", str(path),
                            "--out", str(tmp_path / "inputs.jsonl")],
                           b"Smith\nJ\xffnes\n"),
    }[kind]
    path.write_bytes(text)
    assert main(argv) == 2
    assert f"{path}:2: not UTF-8" in capsys.readouterr().err


def run_with_side_file(tmp_path, docs, key, rows, per_system=True, **stage):
    """`run` argv for a staged config whose `key` names a JSONL file of
    `rows` (for the echo system when `per_system`), and that file's path."""
    config_path = stage_run(tmp_path, docs, replicates=20, **stage)
    config = json.loads(config_path.read_text())
    path = tmp_path / f"{key}.jsonl"
    path.write_text("".join(json.dumps(row) + "\n" for row in rows))
    config[key] = {"echo": str(path)} if per_system else str(path)
    config_path.write_text(json.dumps(config))
    return ["run", "--config", str(config_path)], path


def ner_sidecar(tmp_path, docs):
    return run_with_side_file(tmp_path, docs, "ner_sidecars",
                              [{"input_id": f"fix_{i:04d}#0::00", "entities": []} for i in range(3)])


def dense_vectors(tmp_path, docs):
    return run_with_side_file(tmp_path, docs, "dense_vectors",
                              [{"input_id": f"fix_{i:04d}#0::00", "vector": [1.0]} for i in range(3)],
                              scheme="gender_global")


def content_words(tmp_path, docs):
    row = {"doc_id": "none#0", "start": 0, "end": 0, "entities": ["0"],
           "male": "chairman", "female": "chairwoman"}
    return run_with_side_file(tmp_path, docs, "content_words", [row] * 3, per_system=False)


def alignments(tmp_path, docs):
    from importlib import resources

    row = {"input_id": "x", "system": "echo", "entity_tokens": ["Boris", "Yeltsin"],
           "start": 0, "end": 1, "status": "hallucinated", "matched_entity": None, "reason": ""}
    path = tmp_path / "alignments.echo.jsonl"
    path.write_text((json.dumps(row) + "\n") * 3)
    cache = str(resources.files("sumprobe.data").joinpath("wiki_cache.json"))
    return ["classify-hallucinations", "--alignments", str(path), "--cache", cache,
            "--out", str(tmp_path / "verdicts.json")], path


MALFORMED_ROWS = {
    ner_sidecar: {
        "missing_key": '{"input_id": "fix_0002#0::00"}',
        "pair_entity": '{"input_id": "fix_0002#0::00", "entities": [[1, 2]]}',
        "string_start": '{"input_id": "fix_0002#0::00", "entities": [["a", 2, "PERSON"]]}',
        "negative_start": '{"input_id": "fix_0002#0::00", "entities": [[-1, 0, "PERSON"]]}',
        "end_before_start": '{"input_id": "fix_0002#0::00", "entities": [[2, 1, "PERSON"]]}',
        "repeated_input": '{"input_id": "fix_0000#0::00", "entities": []}',
    },
    dense_vectors: {
        "missing_key": '{"input_id": "fix_0002#0::00"}',
        "mixed_lengths": '{"input_id": "fix_0002#0::00", "vector": [1.0, 2.0]}',
        "string_entry": '{"input_id": "fix_0002#0::00", "vector": ["a"]}',
        "bool_entry": '{"input_id": "fix_0002#0::00", "vector": [true]}',
        "nan_entry": '{"input_id": "fix_0002#0::00", "vector": [NaN]}',
        "infinite_entry": '{"input_id": "fix_0002#0::00", "vector": [-Infinity]}',
        "overflowing_entry": '{"input_id": "fix_0002#0::00", "vector": [1e999]}',
        "integer_past_float_range": '{"input_id": "fix_0002#0::00", "vector": [1%s]}' % ("0" * 400),
        "repeated_input": '{"input_id": "fix_0000#0::00", "vector": [1.0]}',
    },
    content_words: {
        "missing_key": '{"doc_id": "none#0"}',
        "number_neutral": '{"doc_id": "none#0", "start": 0, "end": 0, "entities": ["0"], '
                          '"male": "chairman", "female": "chairwoman", "neutral": 5}',
        "integer_entity": '{"doc_id": "none#0", "start": 0, "end": 0, "entities": [0], '
                          '"male": "chairman", "female": "chairwoman"}',
    },
    alignments: {"missing_key": '{"status": "hallucinated"}'},
}


@pytest.mark.parametrize("stage, bad_row", [
    pytest.param(stage, row, id=f"{stage.__name__}-{case}")
    for stage, rows in MALFORMED_ROWS.items()
    for case, row in {"invalid_json": '{"input_id": }', **rows}.items()
])
def test_malformed_input_row_exits_2_naming_its_line(
    tmp_path, small_corpus, capsys, stage, bad_row
):
    argv, path = stage(tmp_path, small_corpus)
    replace_line_3(path, bad_row)
    assert main(argv) == 2
    assert f"{path}:3: malformed row: " in capsys.readouterr().err


ARTIFACT_ROW_PROBLEMS = {
    ("templates", "missing_key"): "missing tokens, entities, content_spans, diagnostics",
    ("templates", "wrong_type"): "entity 0: slot 0: wrong type of start",
    ("templates", "unknown_key"): "unknown zzz",
    ("inputs", "missing_key"): "missing original_id, variant, pair_id, assignments, tokens, seed, "
                               "text",
    ("inputs", "wrong_type"): "assignment 0: wrong type of last",
    ("inputs", "unknown_key"): "unknown zzz",
}


@pytest.mark.parametrize("command, name", [
    ("generate", "templates"), ("align", "templates"), ("align", "inputs")])
@pytest.mark.parametrize("case", ["missing_key", "wrong_type", "unknown_key"])
def test_malformed_template_or_input_row_exits_2_naming_its_line(
    tmp_path, capsys, command, name, case
):
    """A templates or inputs file that its stage could not have written
    stops generate and align before they write anything."""
    root = Path(__file__).resolve().parent.parent
    templates, inputs, out = (tmp_path / "templates.jsonl", tmp_path / "inputs.jsonl",
                              tmp_path / "out")
    assert main(["build-templates", "--documents", str(root / "data/toy/corpus.conll"),
                 "--out", str(templates)]) == 0
    generate = ["generate", "--templates", str(templates), "--scheme", "gender_local",
                "--seed", "1", "--variants", "2", "--out"]
    assert main([*generate, str(inputs)]) == 0
    path = tmp_path / f"{name}.jsonl"
    row = json.loads(path.read_text().splitlines()[0])
    if case == "missing_key":
        row = {"doc_id": "x"} if name == "templates" else {"id": "x"}
    elif case == "unknown_key":
        row["zzz"] = 1
    elif name == "templates":
        row["entities"][0]["slots"][0]["start"] = "0"
    else:
        row["assignments"][0]["last"] = 5
    path.write_text(json.dumps(row) + "\n")
    capsys.readouterr()
    if command == "generate":
        argv = [*generate, str(out)]
    else:
        argv = ["align", "--templates", str(templates), "--inputs", str(inputs), "--out-dir",
                str(out), "--summaries", f"faithful={root / 'data/toy/summaries.faithful.jsonl'}"]
    assert main(argv) == 2
    problem = ARTIFACT_ROW_PROBLEMS[name, case]
    assert capsys.readouterr().err == f"error: {path}:1: malformed row: {problem}\n"
    assert not out.exists()


def test_interrupted_write_leaves_no_artifact(tmp_path, small_corpus, monkeypatch):
    from sumprobe import generate

    config_path = stage_run(tmp_path, small_corpus, replicates=20)
    art = artifact_dir(config_path)
    original, written = generate.input_to_json, []

    def fail_on_third(g):
        written.append(g.id)
        if len(written) == 3:
            raise RuntimeError("interrupted")
        return original(g)

    monkeypatch.setattr(generate, "input_to_json", fail_on_third)
    with pytest.raises(RuntimeError, match="interrupted"):
        main(["run", "--config", str(config_path)])
    assert sorted(p.name for p in art.iterdir()) == ["documents.jsonl", "templates.jsonl"]
    monkeypatch.undo()
    clean = tmp_path / "clean"
    assert main(["run", "--config", str(config_path)]) == 0
    assert main(["run", "--config", str(config_path), "--out-dir", str(clean)]) == 0
    assert (art / "scores.json").read_bytes() == (clean / art.name / "scores.json").read_bytes()


def test_corpus_edited_in_place_is_reingested(tmp_path, small_corpus):
    config_path = stage_run(tmp_path, small_corpus, replicates=20)
    assert main(["run", "--config", str(config_path)]) == 0
    corpus = Path(json.loads(config_path.read_text())["corpus"])
    lines = corpus.read_text().splitlines()
    # the first plain word: lowercase, outside every entity and mention
    for i, line in enumerate(lines):
        cols = line.split()
        if len(cols) == 7 and cols[3].isalpha() and cols[3].islower() and cols[5:] == ["*", "-"]:
            break
    lines[i] = " ".join(cols[:3] + ["edited"] + cols[4:])
    corpus.write_text("\n".join(lines) + "\n")
    assert main(["run", "--config", str(config_path)]) == 0
    rows = (artifact_dir(config_path) / "documents.jsonl").read_text().splitlines()
    assert "edited" in {t for row in rows for t in json.loads(row)["tokens"]}


def test_scores_follow_summaries_edited_in_place(tmp_path, small_corpus):
    config_path = stage_run(
        tmp_path, small_corpus, replicates=20,
        summarizers={"echo": make_keep_rate_summarizer({"male": 0.9, "female": 0.2})},
    )
    art = artifact_dir(config_path)
    assert main(["run", "--config", str(config_path)]) == 0
    skewed = json.loads((art / "scores.json").read_text())
    # the same summary file, rewritten with the identity summarizer's rows
    stage_run(tmp_path, small_corpus, replicates=20)
    assert main(["run", "--config", str(config_path)]) == 0
    scores = json.loads((art / "scores.json").read_text())
    assert scores == json.loads((art / "report.json").read_text())
    assert scores != skewed


def test_missing_summary_file_exits_2_before_any_artifact(tmp_path, small_corpus, capsys):
    config_path = stage_run(tmp_path, small_corpus, replicates=40)
    config = json.loads(config_path.read_text())
    missing = tmp_path / "nope.jsonl"
    config["summaries"]["echo"] = str(missing)
    config_path.write_text(json.dumps(config))
    assert main(["run", "--config", str(config_path)]) == 2
    assert capsys.readouterr().err == f"error: [Errno 2] No such file or directory: '{missing}'\n"
    assert not artifact_dir(config_path).exists()


def test_cli_stagewise_pipeline(tmp_path, small_corpus):
    corpus = tmp_path / "c.conll"
    with corpus.open("w", encoding="utf-8") as fh:
        write_conll_corpus(small_corpus, fh)
    docs = tmp_path / "docs.jsonl"
    templates = tmp_path / "templates.jsonl"
    inputs = tmp_path / "inputs.jsonl"
    assert main(["ingest", "--corpus", str(corpus), "--out", str(docs)]) == 0
    assert main(["build-templates", "--documents", str(docs), "--out", str(templates)]) == 0
    assert main([
        "generate", "--templates", str(templates), "--scheme", "gender_local",
        "--seed", "7", "--variants", "2", "--out", str(inputs),
    ]) == 0

    from sumprobe.generate import read_inputs

    produced = list(read_inputs(inputs))
    summaries = tmp_path / "echo.jsonl"
    with summaries.open("w", encoding="utf-8") as fh:
        for gi in produced:
            fh.write(json.dumps({"input_id": gi.id, "system": "echo", "summary": gi.text}) + "\n")
    out_dir = tmp_path / "aligned"
    assert main([
        "align", "--templates", str(templates), "--inputs", str(inputs),
        "--summaries", f"echo={summaries}", "--out-dir", str(out_dir),
    ]) == 0
    alignment_file = out_dir / "alignments.echo.jsonl"
    assert alignment_file.exists()

    from importlib import resources

    cache = str(resources.files("sumprobe.data").joinpath("wiki_cache.json"))
    verdicts = tmp_path / "verdicts.json"
    assert main([
        "classify-hallucinations", "--alignments", str(alignment_file),
        "--cache", cache, "--out", str(verdicts),
    ]) == 0
    assert json.loads(verdicts.read_text()) == []  # identity summaries: no hallucinations


def test_analyze_and_simulate_cli(tmp_path):
    from sumprobe.input_bias import SyntheticCorpusConfig, make_synthetic_corpus

    docs = make_synthetic_corpus(SyntheticCorpusConfig(n_docs=60), seed=3)
    corpus = tmp_path / "synth.jsonl"
    from sumprobe.corpus import write_jsonl

    write_jsonl(docs, corpus)
    assert main(["analyze-input-bias", "--corpus", str(corpus), "--out", str(tmp_path / "fw")]) == 0
    assert (tmp_path / "fw.json").exists() and (tmp_path / "fw.csv").exists()
    assert main([
        "simulate-baselines", "--corpus", str(corpus), "--seed", "4",
        "--out", str(tmp_path / "sim"),
    ]) == 0
    result = json.loads((tmp_path / "sim.json").read_text())
    assert set(result["scores"]) == {"random", "lead", "topic", "sexist"}


def test_simulate_baselines_shows_missing_scores(tmp_path, capsys):
    # one family document, seed 0: the topic baseline's one-sentence summary
    # holds no identifier, so both its scores are missing
    from sumprobe.corpus import write_jsonl
    from sumprobe.input_bias import SyntheticCorpusConfig, make_synthetic_corpus

    corpus = tmp_path / "synth.jsonl"
    write_jsonl(make_synthetic_corpus(SyntheticCorpusConfig(n_docs=1), seed=0), corpus)
    assert main(["simulate-baselines", "--corpus", str(corpus), "--seed", "0",
                 "--out", str(tmp_path / "sim")]) == 0
    assert "topic: uniform=n/a adjusted=n/a" in capsys.readouterr().out
    result = json.loads((tmp_path / "sim.json").read_text())
    assert result["scores"]["topic"] == {"uniform": None, "adjusted": None}
    assert "topic,None,None" in (tmp_path / "sim.csv").read_text().splitlines()


# sha256 of each output of the two input-bias commands on the 60-document
# synthetic corpus of test_analyze_and_simulate_cli
INPUT_BIAS_SHA256 = {
    "sim.json": "930b6a187c8b544f2510448d12d6e56f5d5b8b79c4ef619b7d3d83da7fc9116e",
    "sim.csv": "4b6d237cbb896dca137267c1be2f68fe57b2d802571690335175b43e19097e95",
    "fw.json": "cb107ce3019ed368cec2ebd71433627262a541d913cbfd31eac7d2d33d9b0c79",
    "fw.csv": "ae7f51b4e2d226255f7f295ba7483a0ea2dc93e3ac4f693aeb3069935d6e7557",
}


def synthetic_corpus(tmp_path) -> Path:
    from sumprobe.corpus import write_jsonl
    from sumprobe.input_bias import SyntheticCorpusConfig, make_synthetic_corpus

    corpus = tmp_path / "synth.jsonl"
    write_jsonl(make_synthetic_corpus(SyntheticCorpusConfig(n_docs=60), seed=3), corpus)
    return corpus


def input_bias_argvs(corpus, out_dir) -> list[list[str]]:
    return [["analyze-input-bias", "--corpus", str(corpus), "--out", str(out_dir / "fw")],
            ["simulate-baselines", "--corpus", str(corpus), "--seed", "4",
             "--out", str(out_dir / "sim")]]


def test_input_bias_outputs_are_byte_identical_to_the_pins(tmp_path):
    import hashlib

    for argv in input_bias_argvs(synthetic_corpus(tmp_path), tmp_path):
        assert main(argv) == 0
    digests = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
               for name in INPUT_BIAS_SHA256}
    assert digests == INPUT_BIAS_SHA256


def test_input_bias_commands_import_no_pipeline_module(tmp_path):
    """Both commands run in a fresh interpreter without loading the modules
    only the pipeline commands need."""
    import os
    import subprocess
    import sys

    script = (
        "import json, sys\n"
        "from sumprobe.cli import main\n"
        "for argv in json.loads(sys.argv[1]):\n"
        "    assert main(argv) == 0\n"
        "print(json.dumps(sorted(sys.modules)))\n"
    )
    argvs = input_bias_argvs(synthetic_corpus(tmp_path), tmp_path)
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", script, json.dumps(argvs)], env=env,
                          capture_output=True, text=True, check=True)
    loaded = set(json.loads(done.stdout.splitlines()[-1]))
    unused = {f"sumprobe.{name}" for name in
              ("pipeline", "generate", "templates", "alignment", "summaries", "gender_id")}
    assert "sumprobe.input_bias" in loaded
    assert not loaded & unused


@pytest.mark.parametrize("command", ["analyze-input-bias", "simulate-baselines"])
def test_missing_output_directory_exits_2_naming_the_output(tmp_path, capsys, command):
    argv = {a[0]: a for a in input_bias_argvs(synthetic_corpus(tmp_path), tmp_path / "nodir")}
    assert main(argv[command]) == 2
    err = capsys.readouterr().err
    name = "sim.json" if command == "simulate-baselines" else "fw.json"
    assert f"{tmp_path / 'nodir' / name}: cannot write: directory {tmp_path / 'nodir'}" in err
    assert ".tmp" not in err
    assert not (tmp_path / "nodir").exists()


@pytest.mark.parametrize("alpha", ["0", "-1", "nan", "inf", "x"])
def test_alpha_must_be_a_finite_number_above_0(tmp_path, capsys, alpha):
    """A prior count of 0 or less has no log-odds, and nan or inf would
    write nan z-scores: each is a usage error, and nothing is written."""
    argv = input_bias_argvs(synthetic_corpus(tmp_path), tmp_path)[0]
    with pytest.raises(SystemExit) as err:
        main([*argv, "--alpha", alpha])
    assert err.value.code == 1
    assert (f"argument --alpha: must be a finite number above 0, got {alpha!r}"
            in capsys.readouterr().err)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["synth.jsonl"]


@pytest.mark.parametrize("first", [b"", b"\xff"], ids=["second_row", "first_byte"])
def test_undecodable_jsonl_corpus_exits_2_naming_its_line(tmp_path, capsys, first):
    """A corpus row that is not UTF-8 names its line, also where the byte is
    the first one `_load_docs` reads to tell the two corpus formats apart."""
    corpus = synthetic_corpus(tmp_path)
    lines = corpus.read_bytes().splitlines(keepends=True)
    bad = 1 if first else 2
    lines[bad - 1] = first + lines[bad - 1][:20] + b"\xff" + lines[bad - 1][20:]
    corpus.write_bytes(b"".join(lines))
    for argv in input_bias_argvs(corpus, tmp_path):
        assert main(argv) == 2
        assert f"{corpus}:{bad}: not UTF-8" in capsys.readouterr().err


def test_report_command_and_formats(tmp_path, small_corpus):
    config = stage_run(tmp_path, small_corpus, replicates=40)
    assert main(["run", "--config", str(config)]) == 0
    scores = artifact_dir(config) / "scores.json"
    out = tmp_path / "r.csv"
    assert main(["report", "--scores", str(scores), "--format", "csv", "--out", str(out)]) == 0
    header = out.read_text().splitlines()[0]
    assert header == "system,measure,point,s_lo,s_hi,d_lo,d_hi,n"


def test_hallucination_top_sorted_and_capped(tmp_path, small_corpus):
    def noisy(gi, rng):
        # unsupported names, one of them dominant
        fabricated = ["Boris Yeltsin spoke ."] * 3 + ["Frida Ghitis wrote ."]
        return gi.text + " " + " ".join(fabricated)

    config = stage_run(
        tmp_path, small_corpus, replicates=40, summarizers={"noisy": noisy}
    )
    Pipeline(PipelineConfig.from_file(config)).score()
    scores = json.loads((artifact_dir(config) / "scores.json").read_text())
    top = scores["systems"]["noisy"]["hallucination_top"]
    assert len(top) <= 10
    counts = [row[1] for row in top]
    assert counts == sorted(counts, reverse=True)
    tags = {row[0]: row[2] for row in top}
    assert tags.get("boris yeltsin") == "m"
    assert tags.get("frida ghitis") == "f"


def test_empty_report_has_headers():
    report = {"config": {}, "systems": {}}
    md = render_report(report, "markdown")
    assert "# Bias report" in md
    csv_text = render_report(report, "csv")
    assert csv_text.splitlines()[0].startswith("system,measure")


def test_race_scheme_pipeline(tmp_path, small_corpus):
    config = stage_run(
        tmp_path, small_corpus, scheme="race_random_gender", variants=4, replicates=40
    )
    assert main(["run", "--config", str(config)]) == 0
    scores = json.loads((artifact_dir(config) / "scores.json").read_text())
    measures = scores["systems"]["echo"]["measures"]
    assert set(measures) == {"entity_inclusion"}  # no word lists or gender classifier
    assert measures["entity_inclusion"]["point"] <= 0.05  # identity summaries
    inputs = (artifact_dir(config) / "inputs.jsonl").read_text().splitlines()
    groups = {a["group"] for line in inputs for a in json.loads(line)["assignments"]}
    assert groups == {"black", "white"}


def test_generate_cli_with_content_words(tmp_path, small_corpus):
    from sumprobe.corpus import write_jsonl
    from sumprobe.templates import build_template

    docs_path = tmp_path / "docs.jsonl"
    write_jsonl(small_corpus, docs_path)
    templates_path = tmp_path / "templates.jsonl"

    template = next(
        t for t in (build_template(d) for d in small_corpus) if t.gendered_entities()
    )
    target = template.gendered_entities()[0].id
    claimed = {i for s, e in holes(template) for i in range(s, e + 1)}
    spot = next(i for i in range(len(template.tokens)) if i not in claimed)
    cw_path = tmp_path / "cw.jsonl"
    cw_path.write_text(
        json.dumps(
            {
                "doc_id": template.doc_id,
                "start": spot,
                "end": spot,
                "entities": [target],
                "male": "chairman",
                "female": "chairwoman",
                "neutral": "chair",
            }
        )
        + "\n"
    )
    assert main([
        "build-templates", "--documents", str(docs_path), "--out", str(templates_path),
        "--content-words", str(cw_path),
    ]) == 0
    out = tmp_path / "inputs.jsonl"
    assert main([
        "generate", "--templates", str(templates_path), "--scheme", "gender_local",
        "--seed", "3", "--variants", "2", "--out", str(out),
    ]) == 0
    rows = [json.loads(line) for line in out.read_text().splitlines()]
    rendered = {row["tokens"][spot] for row in rows if row["original_id"] == template.doc_id}
    assert rendered <= {"chairman", "chairwoman"} and rendered


def test_global_scheme_distinguishability(tmp_path, small_corpus):
    def gender_marked(gi, rng):
        gender = gi.assignments[0].gender if gi.assignments else "none"
        tokens = ["alpha", "beta"] if gender == "male" else ["gamma", "delta"]
        return " ".join(tokens * 3)

    def vector(gi):
        gender = gi.assignments[0].gender if gi.assignments else "none"
        return [1.0, 0.0] if gender == "male" else [0.0, 1.0]

    config = stage_run(
        tmp_path,
        small_corpus,
        scheme="gender_global",
        variants=8,
        replicates=40,
        summarizers={"marked": gender_marked},
        dense_vectors={"marked": vector},
    )
    assert main(["run", "--config", str(config)]) == 0
    scores = json.loads((artifact_dir(config) / "scores.json").read_text())
    measures = scores["systems"]["marked"]["measures"]
    assert measures["distinguishability_count"]["point"] == 1.0
    assert measures["distinguishability_dense"]["point"] == 1.0
    assert measures["distinguishability_count"]["ci_s"] is None
    assert "word_list_inclusion" not in measures


TOY_SCORES_SHA256 = "f115cd56f5f8b1413d85b3a6df3454dad6fd1c2de1ebd0d2ef033da6d8d839be"


def test_toy_scores_are_byte_identical_to_the_pin(tmp_path, monkeypatch):
    """`sumprobe run` on the toy config writes exactly the scores.json that
    the Counter-summing bootstrap wrote: every point and CI bit for bit."""
    import hashlib

    root = Path(__file__).resolve().parent.parent
    monkeypatch.chdir(root)  # the toy config's paths are relative to the repo root
    config_path = "data/toy/config.json"
    assert main(["run", "--config", config_path, "--out-dir", str(tmp_path)]) == 0
    scores = tmp_path / PipelineConfig.from_file(config_path).config_hash() / "scores.json"
    assert hashlib.sha256(scores.read_bytes()).hexdigest() == TOY_SCORES_SHA256


def toy_scores_under(tmp_path, monkeypatch, **changes) -> Path:
    """scores.json of a `sumprobe run` on the toy config with `changes`."""
    root = Path(__file__).resolve().parent.parent
    monkeypatch.chdir(root)  # the toy config's paths are relative to the repo root
    config = {**json.loads(Path("data/toy/config.json").read_text()), **changes}
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config))
    assert main(["run", "--config", str(config_path), "--out-dir", str(tmp_path / "out")]) == 0
    return tmp_path / "out" / PipelineConfig.from_file(config_path).config_hash() / "scores.json"


TOY_GLOBAL_SCORES_SHA256 = "47b7c41452245a227e94130df2646276fca2f41135cd38d5384e0bd6a3230ade"


def test_toy_global_scores_are_byte_identical_to_the_pin(tmp_path, monkeypatch):
    """The toy config under `gender_global` writes exactly the scores.json of
    the pairwise-cosine distinguishability: every (n, wins), ties included."""
    import hashlib

    scores = toy_scores_under(tmp_path, monkeypatch, scheme="gender_global")
    assert "distinguishability_count" in json.loads(scores.read_text())["systems"]["skewed"]["measures"]
    assert hashlib.sha256(scores.read_bytes()).hexdigest() == TOY_GLOBAL_SCORES_SHA256


@pytest.mark.parametrize("changes, expected_sha256", [
    ({"scheme": "race_random_gender"}, "5435e946999d4f44a52da301a31ca9877c800a05561719c891c29231849d98d8"),
    ({"scheme": "race_intersectional", "intersection": {"black": "female", "white": "male"}},
     "169d13ded6dde851e622eddbb601e76804db1f711820c8751dc3fdb9a5bf954b"),
], ids=["race_random_gender", "race_intersectional"])
def test_toy_race_scores_are_byte_identical_to_the_pin(tmp_path, monkeypatch, changes,
                                                       expected_sha256):
    """The toy config under each race scheme writes exactly the pinned
    scores.json: every entity-inclusion point and CI bit for bit."""
    import hashlib

    scores = toy_scores_under(tmp_path, monkeypatch, **changes)
    measures = json.loads(scores.read_text())["systems"]["skewed"]["measures"]
    assert set(measures) == {"entity_inclusion"}
    assert hashlib.sha256(scores.read_bytes()).hexdigest() == expected_sha256


# content words for the toy corpus: two admitted on fix_0000#0, one on
# fix_0002#0; one overlaps a name slot and one governs two entities without
# a neutral form, so both are dropped with a diagnostic
TOY_CONTENT_WORDS = [
    {"doc_id": "fix_0000#0", "start": 22, "end": 22, "entities": ["0", "1"],
     "male": "Chairmen", "female": "Chairwomen", "neutral": "Chairs"},
    {"doc_id": "fix_0000#0", "start": 9, "end": 9, "entities": ["0"],
     "male": "statesmanship", "female": "stateswomanship"},
    {"doc_id": "fix_0002#0", "start": 20, "end": 20, "entities": ["0"],
     "male": "chairman", "female": "chairwoman"},
    {"doc_id": "fix_0003#0", "start": 1, "end": 1, "entities": ["0"],
     "male": "chairman", "female": "chairwoman"},
    {"doc_id": "fix_0001#0", "start": 17, "end": 17, "entities": ["0", "1"],
     "male": "brothers", "female": "sisters"},
]


@pytest.mark.parametrize("content_words, expected_sha256", [
    (False, {"templates.jsonl": "8987e21739bb6f7da97fff6eee63ee298790d5687d117eef8ec9173a235153dc",
             "inputs.jsonl": "2ea37aa62dc353b4714f8c83b4786e6ec0f016ab92679630df6b7fc66a56c999"}),
    (True, {"templates.jsonl": "6465b9e43afc1a054081d487bf15bc8507681120335a6194b0813b225998ab59",
            "inputs.jsonl": "531ecd358e436e04506d5b241c731c2493338e95dfadf6b33782512f39c2407b"}),
], ids=["plain", "content_words"])
def test_toy_templates_and_inputs_are_byte_identical_to_the_pin(
    tmp_path, monkeypatch, content_words, expected_sha256
):
    """The toy config, with and without a content-word file, writes exactly
    the pinned templates.jsonl and inputs.jsonl, so an artifact directory
    that an earlier version wrote still resumes."""
    import hashlib

    root = Path(__file__).resolve().parent.parent
    monkeypatch.chdir(root)  # the toy config's paths are relative to the repo root
    config = json.loads(Path("data/toy/config.json").read_text())
    if content_words:
        config["content_words"] = str(tmp_path / "content_words.jsonl")
        Path(config["content_words"]).write_text(
            "".join(json.dumps(row) + "\n" for row in TOY_CONTENT_WORDS))
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({**config, "out_dir": str(tmp_path / "out")}))
    pipeline = Pipeline(PipelineConfig.from_file(config_path))
    pipeline.inputs()
    assert sum(len(t.content_spans) for t in pipeline.templates()) == (3 if content_words else 0)
    for name, digest in expected_sha256.items():
        assert hashlib.sha256(pipeline.path(name).read_bytes()).hexdigest() == digest, name


# a `last_name_pool` file for the toy corpus
TOY_LAST_NAME_POOL = "quarry\nzelden\nashby\nbrannock\ncorliss\ndunmore\nellery\nfenwick\n"


@pytest.mark.parametrize("changes, expected_sha256", [
    ({"scheme": "gender_global"},
     "94e08beb80d11dedf9e74a04e517ac681c9e2d40d92f2a11c72069f47e16c3e4"),
    ({"scheme": "race_random_gender"},
     "492db6d3a2305b1c20ad5a288c7bdf2ce82b74cfe2a9e0adbd97265555b5312c"),
    ({"scheme": "race_intersectional", "intersection": {"black": "female", "white": "male"}},
     "87132157278736e23350f6bacb4aad4012f2e6c7a2ff039882ee10bbc83f4005"),
    ({"alter_last_names": True},
     "2f8cf7766867e3d5db06f31dccf6044d95628427e9ac78ff16dff5e7a9a6b18f"),
], ids=["gender_global", "race_random_gender", "race_intersectional", "local_last_names"])
def test_toy_inputs_under_each_scheme_are_byte_identical_to_the_pin(
    tmp_path, changes, expected_sha256
):
    """Every scheme, and gender_local with substituted last names, writes
    exactly the pinned toy inputs.jsonl: each draw from each derived rng."""
    import hashlib

    if changes.get("alter_last_names"):
        pool = tmp_path / "last_names.txt"
        pool.write_text(TOY_LAST_NAME_POOL)
        changes = {**changes, "last_name_pool": str(pool)}
    pipeline = Pipeline(PipelineConfig.from_file(toy_config_with(tmp_path, changes)))
    pipeline.inputs()
    digest = hashlib.sha256(pipeline.path("inputs.jsonl").read_bytes()).hexdigest()
    assert digest == expected_sha256


def test_summary_row_order_changes_no_artifact(tmp_path, monkeypatch):
    """The toy run with its summary rows shuffled writes the same alignments,
    verdicts, scores and reports: records are taken in input order, so the
    s-axis bootstrap draws the same records whatever the file order."""
    import random

    root = Path(__file__).resolve().parent.parent
    monkeypatch.chdir(root)  # the toy config's paths are relative to the repo root
    config = json.loads(Path("data/toy/config.json").read_text())
    rows = {}
    for system, path in config["summaries"].items():
        rows[system] = Path(path).read_text().splitlines(keepends=True)
        config["summaries"][system] = str(tmp_path / Path(path).name)
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config))
    runs = []
    for order in ("file", "shuffled"):
        for system, lines in rows.items():
            if order == "shuffled":
                random.Random(3).shuffle(lines)
            Path(config["summaries"][system]).write_text("".join(lines))
        assert main(["run", "--config", str(config_path), "--out-dir", str(tmp_path / order)]) == 0
        runs.append(tmp_path / order / PipelineConfig.from_file(config_path).config_hash())
    names = sorted(p.name for p in runs[0].iterdir()
                   if p.name.startswith(("alignments.", "verdicts.", "scores.", "report.")))
    assert len(names) == 8, names
    for name in names:
        assert (runs[1] / name).read_bytes() == (runs[0] / name).read_bytes(), name


def test_missing_dense_vectors_are_listed_in_input_order(tmp_path, small_corpus):
    """A dense sidecar that lacks some inputs scores the others, and the
    dense diagnostics end with one line per missing input, in input order."""
    config, vectors, _ = stage_dense_run(tmp_path, small_corpus)
    lines = vectors.read_text().splitlines()
    kept = [line for i, line in enumerate(lines) if i % 3 != 1]
    vectors.write_text("".join(line + "\n" for line in kept))
    missing = [json.loads(line)["input_id"] for i, line in enumerate(lines) if i % 3 == 1]
    assert len(missing) >= 2
    assert main(["run", "--config", str(config)]) == 0
    scores = json.loads((artifact_dir(config) / "scores.json").read_text())
    dense = scores["systems"]["echo"]["diagnostics"]["distinguishability_dense"]
    assert dense[-len(missing):] == [f"no dense vector for input {i}" for i in missing]
    assert not any(line.startswith("no dense vector") for line in dense[:-len(missing)])
    assert "distinguishability_dense" in scores["systems"]["echo"]["measures"]


def stage_dense_run(tmp_path, small_corpus):
    """A gender_global run with a dense sidecar for every input; returns the
    config and the paths of the sidecar and the summaries."""
    config = stage_run(
        tmp_path, small_corpus, scheme="gender_global", variants=4, replicates=20,
        dense_vectors={"echo": lambda gi: [float(len(gi.tokens)), float(len(gi.assignments))]},
    )
    data = json.loads(config.read_text())
    return config, Path(data["dense_vectors"]["echo"]), Path(data["summaries"]["echo"])


def test_dense_rows_of_unknown_inputs_exit_2(tmp_path, small_corpus, capsys):
    """A dense row whose id is no generated input is a data error naming the
    sidecar, the system and the ids, as a stray NER-sidecar row is."""
    config, vectors, _ = stage_dense_run(tmp_path, small_corpus)
    lines = vectors.read_text().splitlines()
    lines[-1] = json.dumps({"input_id": "nowhere", "vector": [1.0, 2.0]})
    vectors.write_text("".join(line + "\n" for line in lines))
    assert main(["run", "--config", str(config)]) == 2
    assert (f"{vectors}: system 'echo': dense rows reference unknown input ids: nowhere"
            in capsys.readouterr().err)


def test_dense_row_of_an_input_without_summary_loads(tmp_path, small_corpus):
    config, vectors, summaries = stage_dense_run(tmp_path, small_corpus)
    lines = summaries.read_text().splitlines(keepends=True)
    summaries.write_text("".join(lines[:-2]))
    assert main(["run", "--config", str(config)]) == 0
    scores = json.loads((artifact_dir(config) / "scores.json").read_text())
    assert "distinguishability_dense" in scores["systems"]["echo"]["measures"]


def toy_config_with(tmp_path, text):
    """A config file holding `text`; a dict instead changes those keys of the
    toy config, whose outputs then go to tmp_path/out."""
    config_path = tmp_path / "config.json"
    if isinstance(text, dict):
        root = Path(__file__).resolve().parent.parent
        config = json.loads((root / "data/toy/config.json").read_text())
        config["corpus"] = str(root / config["corpus"])
        config["summaries"] = {s: str(root / v) for s, v in config["summaries"].items()}
        text = json.dumps({**config, "out_dir": str(tmp_path / "out"), **text})
    config_path.write_text(text)
    return config_path


@pytest.mark.parametrize("text, flags, problem", [
    ("[1, 2]", [], "must be a JSON object, got list"),
    ('{"corpus": "x.conll"\n"scheme": "gender_local"}', [], "Expecting ',' delimiter: line 2"),
    ({"replicates": 1}, [], "'replicates' must be an integer >= 2, got 1"),
    ({"variants": 0}, [], "'variants' must be an integer >= 1, got 0"),
    ({"replicates": "500"}, [], "'replicates' must be an integer >= 2, got '500'"),
    ({"scheme": "bogus"}, [], "'scheme' must be one of gender_local, gender_global, "),
    ({"summaries": ["x"]}, [], "'summaries' must be an object mapping names to path strings"),
    ({"ner_sidecars": {"skewed": 3}}, [], "'ner_sidecars' must be an object mapping"),
    ({"dense_vectors": "vectors.jsonl"}, [], "'dense_vectors' must be an object mapping"),
    ({"variants": 3}, [], "scheme 'gender_local': gender_local pairs variants; "
                          "variants_per_original must be even, got 3"),
    ({"scheme": "gender_global", "variants": 5}, [], "scheme 'gender_global': gender_global pairs "
                                                     "variants; variants_per_original must be even, "
                                                     "got 5"),
    ({"seed": "42"}, [], "'seed' must be an integer, got '42'"),
    ({"seed": 4.2}, [], "'seed' must be an integer, got 4.2"),
    ({"scheme": "race_intersectional"}, [], "race_intersectional requires an intersection mapping"),
    ({"intersection": {"black": "male"}}, [], "gender_local does not take an intersection mapping"),
    ({"scheme": "race_intersectional", "intersection": {"black": "robot"}}, [],
     "intersection maps to unknown gender(s) ['robot']"),
    ({"intersection": "x"}, [], "'intersection' must be null or an object mapping race groups"),
    ({"alter_last_names": "no"}, [], "'alter_last_names' must be a boolean, got 'no'"),
    ({"alter_last_names": True}, [], "'alter_last_names' is true under scheme 'gender_local', "
                                     "which then needs 'last_name_pool'"),
    ({"scheme": "gender_global", "alter_last_names": True}, [],
     "'alter_last_names' is true under scheme 'gender_global', which then needs 'last_name_pool'"),
    ({"corpus": 5}, [], "'corpus' must be a non-empty path string, got 5"),
    ({"out_dir": 3}, [], "'out_dir' must be a non-empty path string, got 3"),
    ({}, ["--out-dir", ""], "'out_dir' must be a non-empty path string, got ''"),
    ({"word_lists": True}, [], "'word_lists' must be null or a non-empty path string, got True"),
    ({"cache": ["x"]}, [], "'cache' must be null or a non-empty path string, got ['x']"),
    ({"cache": ""}, [], "'cache' must be null or a non-empty path string, got ''"),
    ({"content_words": {}}, [], "'content_words' must be null or a non-empty path string, got {}"),
    ({"bogus": 1}, [], "unknown config key(s): ['bogus']"),
    ('{"corpus": "x.conll", "scheme": "gender_local", "seed": 1}', [],
     "config missing required key(s): ['out_dir']"),
], ids=["not_an_object", "invalid_json", "one_replicate", "no_variants", "string_replicates",
        "unknown_scheme", "list_summaries", "int_ner_path", "string_dense_vectors",
        "odd_local_variants", "odd_global_variants", "string_seed", "float_seed",
        "intersectional_without_intersection",
        "intersection_under_gender_local", "intersection_unknown_gender", "string_intersection",
        "string_alter_last_names", "local_last_names_without_pool",
        "global_last_names_without_pool", "int_corpus", "int_out_dir", "empty_out_dir_flag",
        "bool_word_lists", "list_cache", "empty_cache", "object_content_words", "unknown_key",
        "no_out_dir"])
def test_bad_config_exits_2_naming_the_file(tmp_path, capsys, text, flags, problem):
    config_path = toy_config_with(tmp_path, text)
    assert main(["run", "--config", str(config_path), *flags]) == 2
    err = capsys.readouterr().err
    assert f"{config_path}: " in err and problem in err
    assert not (tmp_path / "out").exists()


def test_old_jobs_key_changes_no_artifact(tmp_path):
    """A config still setting "jobs", to anything, runs as one without it:
    same artifact directory, same bytes."""
    produced = []
    for i, changes in enumerate([{}, {"jobs": 2}, {"jobs": "x"}]):
        out = tmp_path / f"out{i}"
        config_path = toy_config_with(tmp_path, {**changes, "out_dir": str(out)})
        assert main(["run", "--config", str(config_path)]) == 0
        (art,) = out.iterdir()
        produced.append((art.name, {p.name: p.read_bytes() for p in art.iterdir()}))
    assert produced[0] == produced[1] == produced[2]


def test_jobs_flag_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as err:
        main(["run", "--config", "data/toy/config.json", "--jobs", "2"])
    assert err.value.code == 1
    assert "unrecognized arguments: --jobs 2" in capsys.readouterr().err


@pytest.mark.parametrize("key, name, text, changes, problem", [
    ("word_lists", "word_lists.json", '{"male": ["He"], "female": ["she"]}', {},
     "word list 'male' has non-lowercase entries: ['He']"),
    ("word_lists", "word_lists.json", '{"male": ', {}, "Expecting value"),
    ("word_lists", "word_lists.json", '["he"]', {}, "a table must be a JSON object, got list"),
    ("census_male", "census_male.txt", "james x 1\n", {}, "row 1: bad frequency 'x'"),
    ("census_female", "census_female.txt", "", {}, "no rows"),
    ("race_names", "race_names.json",
     '{"black": {"first": {"male": ["a"], "female": ["b"]}, "last": []}}',
     {"scheme": "race_random_gender"}, "race name group 'black' has no last names"),
    ("last_name_pool", "pool.txt", "\n", {"alter_last_names": True}, "empty last-name pool"),
    ("cache", "cache.json", '{"Pat Nixon": \n}', {}, "Expecting value"),
    ("cache", "cache.json", '["Pat Nixon"]', {}, "a table must be a JSON object, got list"),
    ("cache", "cache.json", '{"Pat Nixon": ["People"]}', {},
     "cache entries must be JSON objects: ['Pat Nixon']"),
    ("cache", "cache.json", '{"Pat Nixon": {"categories": ["1912 births"], "counts": 3}}', {},
     "cache entry 'Pat Nixon': 'counts' must be an object of integers, got 3"),
    ("cache", "cache.json", '{"Pat Nixon": {"categories": "1912 births", "counts": {"she": 4}}}',
     {}, "cache entry 'Pat Nixon': 'categories' must be a list of strings, got '1912 births'"),
    ("word_lists", "word_lists.json", '{"male": 5, "female": ["she"]}', {},
     "word list 'male' must be a list of strings"),
    ("word_lists", "word_lists.json", '{"male": ["he", 5], "female": ["she", "her"]}', {},
     "word list 'male' must be a list of strings"),
    ("race_names", "race_names.json",
     '{"black": ["x"], "white": {"first": {"male": ["a"], "female": ["b"]}, "last": ["c"]}}',
     {"scheme": "race_random_gender"}, "race name group 'black' must be an object"),
    ("race_names", "race_names.json",
     '{"black": {"first": {"male": "abc", "female": ["b"]}, "last": ["c"]}}',
     {"scheme": "race_random_gender"}, "race name group 'black' must be an object"),
    ("word_lists", "word_lists.json", '{"male": ["he", "him", "his"], "female": ["she", "her"]}',
     {}, "male/female word lists differ in length (3 and 2); they pair by position"),
    ("census_male", "census_male.txt", "james 0 1\n", {}, "row 1: frequency must be > 0"),
    ("race_names", "race_names.json",
     '{"black": {"first": {"male": [], "female": ["b"]}, "last": ["c"]}}',
     {"scheme": "race_random_gender"}, "race name group 'black' has no male first names"),
    ("word_lists", "word_lists.json", '{"male": ["he", "it"], "female": ["she", "it"]}', {},
     "male/female word lists overlap: ['it']"),
], ids=["uppercase_word", "invalid_json_word_lists", "list_word_lists", "bad_census_frequency",
        "empty_census", "race_group_without_lasts", "empty_pool", "invalid_json_cache",
        "list_cache", "list_cache_entry", "int_cache_counts", "string_cache_categories",
        "int_word_list", "int_word", "list_race_group", "string_first_names",
        "unequal_word_lists", "zero_census_frequency", "race_group_without_males",
        "overlapping_word_lists"])
def test_bad_table_exits_2_naming_the_file(tmp_path, capsys, key, name, text, changes, problem):
    """A table that fails to load stops the run before it makes its
    artifact directory, with an error that names the file and what is wrong."""
    table = tmp_path / name
    table.write_text(text)
    config_path = toy_config_with(tmp_path, {key: str(table), **changes})
    assert main(["run", "--config", str(config_path)]) == 2
    err = capsys.readouterr().err
    assert f"{table}: " in err and problem in err
    assert not (tmp_path / "out").exists()


def test_unequal_word_lists_exit_2_naming_the_file_in_simulate_baselines(tmp_path, capsys):
    word_lists = tmp_path / "word_lists.json"
    word_lists.write_text('{"male": ["he", "him", "his"], "female": ["she", "her"]}')
    out = tmp_path / "sim"
    assert main(["simulate-baselines", "--corpus", str(synthetic_corpus(tmp_path)), "--seed", "1",
                 "--word-lists", str(word_lists), "--out", str(out)]) == 2
    assert capsys.readouterr().err == (f"error: {word_lists}: male/female word lists differ in "
                                       "length (3 and 2); they pair by position\n")
    assert not out.with_suffix(".json").exists()


def test_bad_cache_exits_2_naming_the_file_in_classify_hallucinations(tmp_path, capsys):
    cache = tmp_path / "cache.json"
    cache.write_text('{"Pat Nixon": 3}')
    alignments = tmp_path / "alignments.jsonl"
    alignments.write_text("")
    assert main(["classify-hallucinations", "--alignments", str(alignments), "--cache", str(cache),
                 "--out", str(tmp_path / "verdicts.json")]) == 2
    assert f"{cache}: cache entries must be JSON objects: ['Pat Nixon']" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["run", "report"])
def test_directory_given_as_an_input_file_exits_2(tmp_path, capsys, command):
    """A directory where an input file belongs is reported like a missing
    file, before any artifact directory is made."""
    folder = tmp_path / "folder"
    folder.mkdir()
    if command == "run":
        argv = ["run", "--config", str(toy_config_with(tmp_path, {"cache": str(folder)}))]
    else:
        argv = ["report", "--scores", str(folder), "--out", str(tmp_path / "out" / "report.md")]
    assert main(argv) == 2
    assert str(folder) in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_summary_file_that_is_a_directory_exits_2_before_any_artifact(tmp_path, capsys):
    folder = tmp_path / "folder"
    folder.mkdir()
    root = Path(__file__).resolve().parent.parent
    summaries = {"faithful": str(root / "data/toy/summaries.faithful.jsonl"), "skewed": str(folder)}
    assert main(["run", "--config", str(toy_config_with(tmp_path, {"summaries": summaries}))]) == 2
    assert capsys.readouterr().err == f"error: [Errno 21] Is a directory: '{folder}'\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("key", ["corpus", "word_lists", "content_words", "cache", "ner_sidecars"])
def test_missing_input_file_exits_2_naming_it(tmp_path, capsys, key):
    """A missing input other than a summary file fails where the run loads
    or hashes it, before any artifact directory is made."""
    missing = tmp_path / "missing.file"
    value = {"skewed": str(missing)} if key == "ner_sidecars" else str(missing)
    assert main(["run", "--config", str(toy_config_with(tmp_path, {key: value}))]) == 2
    assert str(missing) in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("text, problem", [
    ('{"systems": ', "Expecting value"),
    ("[1]", "a scores file must be a JSON object, got list"),
    ('{"a": 1}', "a scores file: missing systems"),
    ('{"systems": [1]}', "a scores file: wrong type of systems"),
    ('{"systems": {"echo": 3}}', "system 'echo': not a JSON object"),
    ('{"systems": {"echo": {"measures": {}, "alignment_counts": {}}}}',
     "system 'echo': missing hallucination_top"),
    ('{"systems": {"echo": {"measures": [], "alignment_counts": {}, "hallucination_top": []}}}',
     "system 'echo': wrong type of measures"),
    ('{"systems": {"echo": {"measures": {"x": 3}, "alignment_counts": {}, "hallucination_top": []}}}',
     "system 'echo': measure 'x' must hold a numeric or null point"),
    ('{"systems": {"echo": {"measures": {"x": {"point": 0.5, "n": 2, "ci_s": [0.1]}}, '
     '"alignment_counts": {}, "hallucination_top": []}}}',
     "system 'echo': measure 'x' must hold a numeric or null point"),
    ('{"systems": {"echo": {"measures": {"x": {"point": 0.5, "ci_s": null}}, '
     '"alignment_counts": {}, "hallucination_top": []}}}',
     "system 'echo': measure 'x' must hold a numeric or null point, an integer n"),
    ('{"systems": {"echo": {"measures": {}, "alignment_counts": {}, "hallucination_top": [["a", 1]]}}}',
     "system 'echo': hallucination_top row ['a', 1] is not [entity, count, gender]"),
], ids=["invalid_json", "list", "no_systems", "list_systems", "int_block", "block_without_top",
        "list_measures", "int_measure", "short_ci", "no_n", "short_top_row"])
def test_bad_scores_file_exits_2_naming_it(tmp_path, capsys, text, problem):
    scores = tmp_path / "scores.json"
    scores.write_text(text)
    out = tmp_path / "report.md"
    assert main(["report", "--scores", str(scores), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"{scores}: " in err and problem in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["build-templates", "analyze-input-bias", "simulate-baselines"])
@pytest.mark.parametrize("case", ["row_without_pos", "chain_out_of_range", "same_id_twice"])
def test_bad_jsonl_documents_exit_2_naming_the_file(tmp_path, capsys, command, case):
    """The ingest JSONL that these commands accept is checked row by row as
    it is read, as a column corpus is checked line by line."""
    root = Path(__file__).resolve().parent.parent
    docs = tmp_path / "documents.jsonl"
    assert main(["ingest", "--corpus", str(root / "data/toy/corpus.conll"), "--out", str(docs)]) == 0
    rows = [json.loads(line) for line in docs.read_text().splitlines()]
    first = rows[0]
    if case == "row_without_pos":
        del first["pos"]
        problem = f"{docs}:1: malformed row: missing pos"
    elif case == "chain_out_of_range":
        chain = sorted(first["chains"])[0]
        first["chains"][chain][0] = [0, 10000]
        problem = f"{docs}:1: malformed row: chain {chain!r}: mention [0, 10000] out of range"
    else:
        rows.append(first)
        problem = f"{docs}:{len(rows)}: malformed row: document {first['id']} appears twice"
    docs.write_text("".join(json.dumps(row) + "\n" for row in rows))
    flag = "--documents" if command == "build-templates" else "--corpus"
    argv = [command, flag, str(docs), "--out", str(tmp_path / "out")]
    if command == "simulate-baselines":
        argv += ["--seed", "1"]
    assert main(argv) == 2
    assert problem in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["build-templates", "analyze-input-bias", "simulate-baselines"])
def test_a_column_corpus_may_open_with_blank_lines(tmp_path, command):
    """These commands tell a column corpus from ingest JSONL by its first
    non-blank line, so leading blank lines, which `ingest` skips, change
    no output."""
    root = Path(__file__).resolve().parent.parent
    text = (root / "data/toy/corpus.conll").read_text(encoding="utf-8")
    outputs = []
    for name, corpus_text in (("plain", text), ("blank", "\n \n" + text)):
        corpus = tmp_path / f"{name}.conll"
        corpus.write_text(corpus_text, encoding="utf-8")
        out_dir = tmp_path / name
        out_dir.mkdir()
        flag = "--documents" if command == "build-templates" else "--corpus"
        argv = [command, flag, str(corpus), "--out", str(out_dir / "out")]
        if command == "simulate-baselines":
            argv += ["--seed", "1"]
        assert main(argv) == 0
        outputs.append({p.name: p.read_bytes() for p in out_dir.iterdir()})
    assert outputs[0] and outputs[1] == outputs[0]


def test_generate_with_odd_variants_exits_2(tmp_path, capsys):
    argv = ["generate", "--templates", str(tmp_path / "templates.jsonl"), "--scheme",
            "gender_global", "--seed", "1", "--variants", "3", "--out", str(tmp_path / "inputs.jsonl")]
    assert main(argv) == 2
    assert "variants_per_original must be even" in capsys.readouterr().err


@pytest.mark.parametrize("variants", ["0", "-2"])
def test_generate_with_no_variants_exits_2(tmp_path, capsys, variants):
    argv = ["generate", "--templates", str(tmp_path / "templates.jsonl"), "--scheme",
            "gender_local", "--seed", "1", "--variants", variants, "--out", str(tmp_path / "inputs.jsonl")]
    assert main(argv) == 2
    assert f"variants_per_original must be at least 1, got {variants}" in capsys.readouterr().err


def test_generate_altering_last_names_without_a_pool_exits_2(tmp_path, capsys):
    root = Path(__file__).resolve().parent.parent
    templates = tmp_path / "templates.jsonl"
    assert main(["build-templates", "--documents", str(root / "data/toy/corpus.conll"),
                 "--out", str(templates)]) == 0
    argv = ["generate", "--templates", str(templates), "--scheme", "gender_local", "--seed", "1",
            "--variants", "4", "--alter-last-names", "--out", str(tmp_path / "inputs.jsonl")]
    assert main(argv) == 2
    assert "--alter-last-names needs --last-names" in capsys.readouterr().err
    assert not (tmp_path / "inputs.jsonl").exists()


@pytest.mark.parametrize("scheme", ["gender_local", "gender_global", "race_random_gender"])
def test_every_artifact_is_byte_identical_at_any_jobs(tmp_path, monkeypatch, scheme):
    """Two systems scored serially (one usable CPU) and in forked per-system
    workers (two and three) leave the same files with the same bytes,
    alignments and verdicts included."""
    docs = make_fixture_corpus(10, seed=5)
    vectors = {"faithful": lambda gi: [float(len(gi.tokens)), float(len(gi.assignments)), 1.0]}
    config = stage_run(
        tmp_path, docs, scheme=scheme, variants=4, replicates=30,
        summarizers={"faithful": identity_summarizer, "inventive": hallucinating_summarizer},
        dense_vectors=vectors if scheme == "gender_global" else None,
    )
    produced = {}  # usable CPUs -> {file name: bytes} of the artifact directory
    for cpus in (1, 2, 3):
        monkeypatch.setattr(pipeline, "usable_cpus", lambda: cpus)
        out = tmp_path / f"cpus{cpus}"
        assert main(["run", "--config", str(config), "--out-dir", str(out)]) == 0
        art = out / artifact_dir(config).name
        produced[cpus] = {p.name: p.read_bytes() for p in art.iterdir()}
    expected = {"alignments.faithful.jsonl", "alignments.inventive.jsonl", "scores.json"}
    if scheme == "gender_local":
        expected |= {"verdicts.faithful.json", "verdicts.inventive.json"}
        assert json.loads(produced[1]["verdicts.inventive.json"])
    elif scheme == "gender_global":
        measures = json.loads(produced[1]["scores.json"])["systems"]["faithful"]["measures"]
        assert "distinguishability_dense" in measures
    assert expected <= set(produced[1])
    assert produced[1] == produced[2] == produced[3]


def test_worker_data_error_exits_2_without_hanging(tmp_path, small_corpus):
    """A summary file of the second system naming an unknown input fails
    in its scoring worker, forked whatever the CPUs; the run still exits 2
    with the join error."""
    import os
    import subprocess
    import sys

    config = stage_run(
        tmp_path, small_corpus, replicates=20,
        summarizers={"a": identity_summarizer, "b": identity_summarizer},
    )
    path = Path(json.loads(config.read_text())["summaries"]["b"])
    with path.open("a") as fh:
        fh.write(json.dumps({"input_id": "nowhere::0", "system": "b", "summary": "x"}) + "\n")
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", "import sys; from sumprobe import cli, pipeline; "
         "pipeline.usable_cpus = lambda: 2; sys.exit(cli.main())", "run", "--config", str(config)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 2, proc.stderr
    assert "system 'b': summaries reference unknown input ids: nowhere::0" in proc.stderr


@pytest.mark.parametrize("command", ["run", "align"])
@pytest.mark.parametrize("case, strays", [("relabelled", "lead"), ("concatenated", "faithful")])
def test_summary_rows_of_another_system_exit_2(tmp_path, monkeypatch, capsys, command, case,
                                               strays):
    """Rows in the file configured for `skewed` that name another system are
    a data error naming the file and those systems: scored, relabelled rows
    read as zeros and concatenated files count every input twice."""
    root = Path(__file__).resolve().parent.parent
    monkeypatch.chdir(root)  # the toy config's paths are relative to the repo root
    config = json.loads(Path("data/toy/config.json").read_text())
    skewed = Path(config["summaries"]["skewed"]).read_text()
    path = tmp_path / "summaries.skewed.jsonl"
    path.write_text(skewed.replace('"system": "skewed"', '"system": "lead"')
                    if case == "relabelled" else
                    Path(config["summaries"]["faithful"]).read_text() + skewed)
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(
        {**config, "summaries": {"skewed": str(path)}, "out_dir": str(tmp_path / "out")}))
    argv = ["run", "--config", str(config_path)]
    if command == "align":
        pipeline = Pipeline(PipelineConfig.from_file(config_path))
        pipeline.inputs()
        argv = ["align", "--templates", str(pipeline.path("templates.jsonl")),
                "--inputs", str(pipeline.path("inputs.jsonl")), "--out-dir", str(tmp_path),
                "--summaries", f"skewed={path}"]
    assert main(argv) == 2
    assert f"{path}: system 'skewed': rows name another system: {strays}" in capsys.readouterr().err


@pytest.mark.parametrize("error", [
    StageError("stage 'generate': race assignment expects exactly two groups"),
    DataError("s.jsonl: system 'b': summaries reference unknown input ids: x::0, y::1"),
], ids=["stage_error", "summary_join_error"])
def test_errors_survive_pickling(error):
    """A pool worker's error reaches the parent pickled; one that fails to
    unpickle there leaves the parent waiting forever."""
    import pickle

    copy = pickle.loads(pickle.dumps(error))
    assert type(copy) is type(error) and str(copy) == str(error)
    assert vars(copy) == vars(error)


def test_stagewise_cli_matches_run_artifacts(tmp_path, monkeypatch):
    """The stage subcommands, chained by hand on the toy data, write the same
    bytes as `sumprobe run` leaves in its artifact directory."""
    from importlib import resources

    root = Path(__file__).resolve().parent.parent
    monkeypatch.chdir(root)  # the toy config's paths are relative to the repo root
    config_path = "data/toy/config.json"
    config = json.loads(Path(config_path).read_text())
    assert main(["run", "--config", config_path, "--out-dir", str(tmp_path / "run")]) == 0
    art = tmp_path / "run" / PipelineConfig.from_file(config_path).config_hash()

    stages = tmp_path / "stages"
    stages.mkdir()
    cache = str(resources.files("sumprobe.data").joinpath("wiki_cache.json"))
    commands = [
        ["ingest", "--corpus", config["corpus"], "--out", str(stages / "documents.jsonl")],
        ["build-templates", "--documents", str(stages / "documents.jsonl"),
         "--out", str(stages / "templates.jsonl")],
        ["generate", "--templates", str(stages / "templates.jsonl"),
         "--scheme", config["scheme"], "--seed", str(config["seed"]),
         "--variants", str(config["variants"]), "--out", str(stages / "inputs.jsonl")],
        ["align", "--templates", str(stages / "templates.jsonl"),
         "--inputs", str(stages / "inputs.jsonl"), "--out-dir", str(stages),
         "--summaries", *(f"{s}={p}" for s, p in sorted(config["summaries"].items()))],
        ["classify-hallucinations", "--alignments", str(stages / "alignments.skewed.jsonl"),
         "--cache", cache, "--out", str(stages / "verdicts.skewed.json")],
    ]
    for argv in commands:
        assert main(argv) == 0, argv
    for name in ("documents.jsonl", "templates.jsonl", "inputs.jsonl",
                 "alignments.faithful.jsonl", "alignments.skewed.jsonl",
                 "verdicts.skewed.json"):
        assert (stages / name).read_bytes() == (art / name).read_bytes(), name


def test_run_computes_each_stage_once(tmp_path, small_corpus, monkeypatch):
    """Cold and resumed runs with two systems read templates.jsonl and
    inputs.jsonl at most once each and build the detection lexicon at most
    once: a rerun over unchanged summaries reads neither, and one that
    rescores a system reads each once."""
    from sumprobe import generate, summaries, templates

    calls = {}

    def counted(module, name):
        original = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    counted(templates, "read_templates")
    counted(generate, "read_inputs")
    counted(summaries, "build_lexicon")
    monkeypatch.setattr(pipeline, "usable_cpus", lambda: 1)  # a forked worker's calls go uncounted
    config = stage_run(
        tmp_path, small_corpus, replicates=20,
        summarizers={"echo": identity_summarizer, "again": identity_summarizer},
    )
    Pipeline(PipelineConfig.from_file(config)).score()
    assert calls == {"build_lexicon": 1}
    calls.clear()
    Pipeline(PipelineConfig.from_file(config)).score()
    assert calls == {}
    summary = Path(json.loads(config.read_text())["summaries"]["again"])
    summary.write_text(summary.read_text() + "\n")
    Pipeline(PipelineConfig.from_file(config)).score()
    assert calls == {"read_templates": 1, "read_inputs": 1, "build_lexicon": 1}
