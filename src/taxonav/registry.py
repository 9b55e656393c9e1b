"""Service registries and benchmark query sets.

Datasets arrive as JSONL (one object per line) or as a single JSON array.
Field names vary between datasets, so loaders take a FieldMap that renames
whatever the files use onto the canonical fields. Ids are opaque strings and
must be unique within a registry.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import logging
import math
import os
import statistics
from collections.abc import Iterable, Iterator
from contextlib import suppress
from dataclasses import dataclass
from itertools import repeat
from pathlib import Path

from .errors import DataError, DiscoveryError

logger = logging.getLogger(__name__)

FORMATS = ("jsonl", "json")


@dataclass(frozen=True, slots=True)
class Service:
    id: str
    name: str
    description: str
    source: str | None = None


@dataclass(frozen=True, slots=True)
class QueryCase:
    id: str
    text: str
    ground_truth: frozenset[str]


@dataclass(frozen=True)
class FieldMap:
    """Maps canonical field names onto the keys a dataset file actually uses."""

    id: str = "id"
    name: str = "name"
    description: str = "description"
    source: str = "source"
    query_id: str = "id"
    query_text: str = "text"
    ground_truth: str = "ground_truth"


class Registry:
    """Ordered, id-indexed collection of services. Immutable after creation."""

    def __init__(self, services: Iterable[Service]):
        self._services: dict[str, Service] = {}
        for svc in services:
            if svc.id in self._services:
                raise DataError(f"duplicate service id {svc.id!r}")
            self._services[svc.id] = svc

    def __len__(self) -> int:
        return len(self._services)

    def __iter__(self) -> Iterator[Service]:
        return iter(self._services.values())

    def __contains__(self, service_id: str) -> bool:
        return service_id in self._services

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Registry):
            return NotImplemented
        return list(self._services.values()) == list(other._services.values())

    def get(self, service_id: str) -> Service:
        try:
            return self._services[service_id]
        except KeyError:
            raise DataError(f"unknown service id {service_id!r}") from None

    @property
    def ids(self) -> list[str]:
        return list(self._services)


# json.dumps(..., ensure_ascii=False) writes a string through this function
_encode = json.encoder.encode_basestring
# The scanner decode_json runs, without its per-call set-up. A line it takes
# whole is what decode_json would return; any other line goes to decode_json
# itself, so every error message is decode_json's own.
_scan = json.scanner.make_scanner(json.JSONDecoder())


def _read_error(
    path: Path, exc: OSError | UnicodeDecodeError, error: type[DiscoveryError], where: str
) -> DiscoveryError:
    """The error, led by ``where``, for a file that cannot be read or is not
    UTF-8 text. The latter names the line (ended by LF, CRLF or CR) and the
    byte offset of the first undecodable byte, found by reading the file
    again whole, since ``exc`` may come from a part of it."""
    if isinstance(exc, OSError):
        return error(f"{where}: cannot read ({exc.strerror})")
    try:
        path.read_bytes().decode("utf-8")
    except UnicodeDecodeError as whole:
        head = whole.object[: whole.start].decode("utf-8")
        line = head.replace("\r\n", "\n").replace("\r", "\n").count("\n") + 1
        return error(f"{where}: line {line}: not UTF-8 ({whole.reason} at byte {whole.start})")
    except OSError:
        pass
    return error(f"{where}: not UTF-8 ({exc.reason})")  # the file changed since the failed read


def decode_json(text: str, error: type[DiscoveryError], where: str) -> object:
    """json.loads of ``text``; the one place the package decodes JSON. Each
    way json.loads rejects text raises ``error``, its message led by
    ``where``: invalid JSON, an integer past the int-string digit limit,
    and nesting past the recursion limit."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise error(f"{where}: invalid JSON ({exc.msg})") from exc
    except ValueError as exc:  # an integer past the int-string digit limit
        raise error(f"{where}: unreadable JSON ({exc})") from exc
    except RecursionError:
        raise error(f"{where}: JSON nests too deeply") from None


# (type test, what a value must be) for a field of a decoded JSON document.
# JSON true is a bool, an int subclass, so neither number test takes it.
STRING = (lambda v: isinstance(v, str), "a string")
INTEGER = (lambda v: type(v) is int, "an integer")
NUMBER = (lambda v: type(v) in (int, float) and math.isfinite(v), "a finite number")
STRINGS = (
    lambda v: isinstance(v, list) and all(map(isinstance, v, repeat(str))),
    "a list of strings",
)

# dataclass field annotation, a string under postponed evaluation -> its test
_ANNOTATION_TYPES = {
    "str": STRING,
    "str | None": (lambda v: v is None or isinstance(v, str), "a string or null"),
    "int": INTEGER,
    "float": NUMBER,
    "list[str]": STRINGS,
    "list[dict]": (
        lambda v: isinstance(v, list) and all(map(isinstance, v, repeat(dict))),
        "a list of objects",
    ),
}


@functools.cache
def field_types(cls: type) -> dict[str, tuple]:
    """Field name -> (type test, what it must be) for each field of the
    dataclass ``cls``, in field order, read from its annotations. Every
    caller gets the same dict and must not change it."""
    return {f.name: _ANNOTATION_TYPES[f.type] for f in dataclasses.fields(cls)}


def check_fields(
    record: dict,
    types: dict[str, tuple],
    where: str,
    error: type[DiscoveryError],
    optional: Iterable[str] = (),
) -> None:
    """Raises ``error`` unless ``record`` holds every key of ``types`` but
    those in ``optional``, each passing its type test: "{where} missing
    field K" or "{where} field K must be W"."""
    for key, (ok, what) in types.items():
        if key not in record:
            if key in optional:
                continue
            raise error(f"{where} missing field {key!r}")
        if not ok(record[key]):
            raise error(f"{where} field {key!r} must be {what}")


def read_json(path: Path, error: type[DiscoveryError] = DataError, where: str | None = None) -> object:
    """The JSON value of a whole UTF-8 file. Raises ``error``, led by
    ``where`` (default: the path), when the file cannot be read, is not
    UTF-8 text or is not one JSON value."""
    where = where or str(path)
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise _read_error(path, exc, error, where) from exc
    return decode_json(text, error, where)


def iter_jsonl(path: Path, error: type[DataError] = DataError) -> Iterator[tuple[int, object]]:
    """Yields (line number, record) for each non-blank line of a jsonl file,
    read one line at a time. Raises ``error`` naming the file when it cannot
    be read, or the line that is not UTF-8 text or not one JSON value.

    Lines end at a newline (CRLF and CR too), never at the other Unicode
    line breaks, such as U+2028, that json.dumps writes unescaped inside
    strings.
    """
    try:
        with path.open(encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                line = line.strip()
                if not line:
                    continue
                try:
                    record, end = _scan(line, 0)
                except (StopIteration, ValueError, RecursionError):
                    end = -1
                if end != len(line):  # not one JSON value: decode_json raises the error
                    record = decode_json(line, error, f"{path}: line {lineno}")
                yield lineno, record
    except (OSError, UnicodeDecodeError) as exc:  # the read decodes ahead of the line
        raise _read_error(path, exc, error, str(path)) from exc


def _iter_records(path: Path, format: str) -> Iterator[tuple[int, object]]:
    """Yields (number, record) pairs: the 1-based line of a jsonl file or the
    index in a json array. ``_where`` turns the number into an error locator."""
    if format not in FORMATS:
        raise DataError(f"unknown dataset format {format!r}; expected one of {FORMATS}")
    if format == "jsonl":
        yield from iter_jsonl(path)
        return
    records = read_json(path)
    if not isinstance(records, list):
        raise DataError(f"{path}: expected a JSON array of records")
    yield from enumerate(records)


def _where(path: Path, format: str, number: int) -> str:
    return f"{path}: line {number}" if format == "jsonl" else f"{path}: record {number}"


def _required(record: dict, key: str, where: str) -> str:
    value = record.get(key)
    if not isinstance(value, str) or not value.strip():
        raise DataError(f"{where}: missing or empty field {key!r}")
    return value


def load_registry(
    path: str | Path,
    format: str = "jsonl",
    field_map: FieldMap | None = None,
) -> Registry:
    path = Path(path)
    fm = field_map or FieldMap()
    id_key, name_key, description_key, source_key = fm.id, fm.name, fm.description, fm.source
    services = []
    seen: set[str] = set()
    for number, record in _iter_records(path, format):
        if not isinstance(record, dict):
            raise DataError(f"{_where(path, format, number)}: expected a JSON object")
        sid = record.get(id_key)
        name = record.get(name_key)
        description = record.get(description_key)
        # _required's test, inlined for the common case; _required names the fault
        if not (
            isinstance(sid, str) and isinstance(name, str) and isinstance(description, str)
            and sid.strip() and name.strip() and description.strip()
        ):
            where = _where(path, format, number)
            for key in (id_key, name_key, description_key):
                _required(record, key, where)
        if sid in seen:
            raise DataError(f"{_where(path, format, number)}: duplicate service id {sid!r}")
        seen.add(sid)
        source = record.get(source_key)
        services.append(
            Service(sid, name, description, source if isinstance(source, str) and source else None)
        )
    registry = Registry(services)
    logger.info("loaded %d services from %s", len(registry), path)
    return registry


def write_atomic(files: dict[Path, Iterable[str]]) -> None:
    """Writes each path's text, chunk by chunk, to a temporary file in the
    path's directory, then renames every temporary file onto its path, one
    after another; no path ever holds part of a write, and no newline is
    translated. A path that cannot be written, or text UTF-8 cannot encode,
    raises DataError naming its path, and no temporary file is left. On an
    error before the renames every path is left as it was; when a rename
    fails, the paths renamed before it already hold their new text."""
    temps: list[Path] = []
    try:
        for path, chunks in files.items():
            with suppress(FileExistsError):  # a regular file there fails the open below
                path.parent.mkdir(parents=True)
            tmp = path.with_name(f".{path.name}.{os.urandom(8).hex()}.tmp")
            with tmp.open("x", encoding="utf-8", newline="") as fh:
                temps.append(tmp)
                try:
                    fh.writelines(chunks)
                except UnicodeEncodeError as exc:
                    bad = exc.object[exc.start : exc.end]
                    raise DataError(f"{path}: cannot write as UTF-8 ({exc.reason}: {bad!r})") from exc
        for tmp, path in zip(temps, files):
            os.replace(tmp, path)
    except BaseException as exc:
        for tmp in temps:
            with suppress(OSError):
                tmp.unlink()
        if isinstance(exc, OSError):
            raise DataError(f"{path}: cannot write ({exc.strerror})") from exc
        raise


def json_text(payload: dict) -> str:
    """``payload`` as the package writes a JSON file: indented, sorted, UTF-8."""
    return json.dumps(payload, indent=2, ensure_ascii=False, sort_keys=True) + "\n"


def dump_json(payload: dict, path: Path) -> None:
    write_atomic({path: [json_text(payload)]})


def _service_line(svc: Service) -> str:
    """json.dumps of the service's record with ensure_ascii=False, plus a newline."""
    line = (
        f'{{"id": {_encode(svc.id)}, "name": {_encode(svc.name)}, '
        f'"description": {_encode(svc.description)}'
    )
    if svc.source is not None:
        line += f', "source": {_encode(svc.source)}'
    return line + "}\n"


def save_registry(registry: Registry, path: str | Path) -> None:
    write_atomic({Path(path): map(_service_line, registry)})


def load_queries(
    path: str | Path,
    registry: Registry,
    format: str = "jsonl",
    field_map: FieldMap | None = None,
) -> list[QueryCase]:
    """Loads query cases, checks that their ids are unique and every
    ground-truth id against the registry."""
    path = Path(path)
    fm = field_map or FieldMap()
    queries = []
    seen: set[str] = set()
    for number, record in _iter_records(path, format):
        where = _where(path, format, number)
        if not isinstance(record, dict):
            raise DataError(f"{where}: expected a JSON object")
        qid = _required(record, fm.query_id, where)
        if qid in seen:
            raise DataError(f"{where}: duplicate query id {qid!r}")
        seen.add(qid)
        text = _required(record, fm.query_text, where)
        truth = record.get(fm.ground_truth)
        if not isinstance(truth, list) or not truth:
            raise DataError(f"{where}: query {qid!r} has no ground-truth ids")
        for sid in truth:
            if not isinstance(sid, str) or sid not in registry:
                raise DataError(f"{where}: query {qid!r} references unknown service {sid!r}")
        queries.append(QueryCase(qid, text, frozenset(truth)))
    logger.info("loaded %d queries from %s", len(queries), path)
    return queries


def _query_line(query: QueryCase) -> str:
    """json.dumps of the query's record with ensure_ascii=False, plus a newline."""
    truth = ", ".join(map(_encode, sorted(query.ground_truth)))
    return f'{{"id": {_encode(query.id)}, "text": {_encode(query.text)}, "ground_truth": [{truth}]}}\n'


def save_queries(queries: Iterable[QueryCase], path: str | Path) -> None:
    write_atomic({Path(path): map(_query_line, queries)})


def registry_stats(registry: Registry) -> dict:
    """Service count plus description-length distribution."""
    stats: dict = {"count": len(registry)}
    if len(registry):
        lengths = [len(svc.description) for svc in registry]
        stats["description_length"] = {
            "min": min(lengths),
            "median": statistics.median(lengths),
            "mean": statistics.fmean(lengths),
            "max": max(lengths),
        }
    return stats


def mean_ground_truth_size(queries: list[QueryCase]) -> float:
    if not queries:
        return 0.0
    return statistics.fmean(len(q.ground_truth) for q in queries)
