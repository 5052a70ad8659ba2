"""Text and JSON reading and artifact writes for the whole toolkit.

Every line-oriented input (JSONL, the column corpus, the text name tables)
is read through `read_lines`, so a line that is not UTF-8 is a `DataError`
naming `path:line`. Every JSONL row is read through `read_rows`, so a bad
row is always reported as a `DataError` naming `path:line`; a reader whose
rows are keyed by an id rejects a repeated one through `once_each`. Every
file that holds one JSON object (a config, a table, a cache, a scores file)
is read through `read_object`, so a bad one, or one that is not UTF-8, is a
`DataError` naming the file. Every file is written through `_atomic_open`:
to a temporary file beside the target, then moved into place with
`os.replace`, so an interrupted write never leaves a partial file.
`write_text` and `write_json` skip a file that already holds the bytes they
would write. `json_text` is the one text of a JSON file, so a report
rendered as JSON equals the scores file it was read from.

`DataError` (exit 2) and `StageError` (exit 3) are the package's only error
types, raised where the fault is found; each holds just its message. They
live here, with no dependency, so that the CLI maps them to exit codes
without importing the pipeline.
"""

from __future__ import annotations

import json
import os
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Iterable, Iterator, Mapping


class DataError(ValueError):
    """Bad input data; maps to exit code 2."""


class StageError(RuntimeError):
    """A pipeline stage failed; maps to exit code 3."""


def read_rows(
    path: str | Path,
    required: Mapping[str, type] = {},
    check: Callable[[dict], str | None] | None = None,
) -> Iterator[dict]:
    """The JSON object on each non-blank line; `required` maps each key the
    row must hold to the type its value must have, and `check`, if given,
    names what else is wrong with a row that has them, or returns None."""
    for lineno, line in read_lines(path):
        if not line.strip():
            continue
        try:
            row = json.loads(line)
        except json.JSONDecodeError as exc:
            problem = str(exc)
        else:
            problem = shape_problem(row, required)
            if problem is None and check is not None:
                problem = check(row)
        if problem:
            raise DataError(f"{path}:{lineno}: malformed row: {problem}")
        yield row


def once_each(key: str, what: str,
              check: Callable[[dict], str | None]) -> Callable[[dict], str | None]:
    """`check` for `read_rows`, plus: a row whose `key` repeats an earlier
    row's is malformed, named as the `what` that appears twice."""
    seen: set[str] = set()

    def problem(row: dict) -> str | None:
        if row[key] in seen:
            return f"{what} {row[key]} appears twice"
        seen.add(row[key])
        return check(row)

    return problem


def read_lines(path: str | Path) -> Iterator[tuple[int, str]]:
    """The number and text of each line of a UTF-8 text file; a line that is
    not UTF-8 is a `DataError` naming `path:line`."""
    with open(path, "rb") as fh:
        for lineno, raw in enumerate(fh, 1):
            try:
                line = raw.decode("utf-8")
            except UnicodeDecodeError as exc:
                raise DataError(f"{path}:{lineno}: not UTF-8: {exc}") from exc
            yield lineno, line


def read_object(path: str | Path, what: str = "a table") -> dict:
    """The JSON object the file at `path` holds; anything else is a
    `DataError` that names the file, and `what` names its kind."""
    with open(path, encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except UnicodeDecodeError as exc:
            raise DataError(f"{path}: not UTF-8: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise DataError(f"{path}: {exc}") from exc
    if not isinstance(data, dict):
        raise DataError(f"{path}: {what} must be a JSON object, got {type(data).__name__}")
    return data


def shape_problem(row, required: Mapping[str, type]) -> str | None:
    """What keeps `row` from being an object that holds each key of
    `required` with a value of its type, or None."""
    if not isinstance(row, dict):
        return "not a JSON object"
    missing = [k for k in required if k not in row]
    if missing:
        return "missing " + ", ".join(missing)
    wrong = [k for k, kind in required.items() if not isinstance(row[k], kind)]
    return "wrong type of " + ", ".join(wrong) if wrong else None


def string_list(value) -> bool:
    return isinstance(value, list) and all(isinstance(s, str) for s in value)


@contextmanager
def _atomic_open(path: str | Path) -> Iterator:
    """A text handle on a temporary file that replaces `path` once the block
    completes; if the block raises, the temporary file is removed. A missing
    directory is a `DataError` naming `path`, not the temporary file."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        fh = tmp.open("w", encoding="utf-8")
    except (FileNotFoundError, NotADirectoryError) as exc:
        raise DataError(f"{path}: cannot write: directory {path.parent} does not exist") from exc
    try:
        with fh:
            yield fh
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


# what json.dumps(row, sort_keys=True) builds on every call
_ROW_ENCODER = json.JSONEncoder(sort_keys=True)


def write_rows(path: str | Path, rows: Iterable[dict]) -> None:
    with _atomic_open(path) as fh:
        fh.writelines(_ROW_ENCODER.encode(row) + "\n" for row in rows)


def json_text(data) -> str:
    """The text of a JSON file as `write_json` writes it."""
    return json.dumps(data, sort_keys=True, indent=1) + "\n"


def write_json(path: str | Path, data) -> None:
    write_text(path, json_text(data))


def write_text(path: str | Path, text: str) -> None:
    """Write `text` to `path`, unless the file already holds exactly it: a
    rerun that reproduces a report leaves the file as it is."""
    if _holds(path, text.encode("utf-8")):
        return
    with _atomic_open(path) as fh:
        fh.write(text)


def _holds(path: str | Path, data: bytes) -> bool:
    try:
        if os.stat(path).st_size != len(data):
            return False
        with open(path, "rb") as fh:
            return fh.read() == data
    except OSError:
        return False
