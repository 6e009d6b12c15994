"""Line-delimited JSON (JSONL) persistence.

The sweep engine streams one JSON object per completed scenario cell so
that an interrupted run loses at most the cell in flight.  Rows are
serialised with sorted keys, which makes the files byte-for-byte
reproducible for a fixed specification — the property the determinism
tests (``tests/test_sweep.py``) assert.
"""

from __future__ import annotations

import gzip
import json
import math
from pathlib import Path
from typing import Iterable, Iterator, List, Union

PathLike = Union[str, Path]


def _open_text(source: Path):
    """Open a row file for reading, transparently decompressing ``.gz``.

    Archived sweep files are often gzipped wholesale (the rows
    themselves stay sorted-keys JSONL, so compression does not disturb
    byte-identity checks on the decompressed stream); readers should not
    care.
    """
    if source.suffix == ".gz":
        return gzip.open(source, "rt", encoding="utf-8")
    return source.open("r", encoding="utf-8")


def _json_safe(value):
    """Replace non-finite floats with ``None`` so lines stay strict JSON."""
    if isinstance(value, float) and not math.isfinite(value):
        return None
    if isinstance(value, dict):
        return {key: _json_safe(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_safe(item) for item in value]
    return value


def dump_row(row: dict) -> str:
    """Serialise one row the way every JSONL writer here does (sorted keys).

    Non-finite floats (the losses of a diverging run) become ``null`` —
    bare ``NaN``/``Infinity`` tokens are not JSON and would break strict
    external consumers; the history loaders map ``null`` metrics back to
    ``nan``.
    """
    return json.dumps(_json_safe(row), sort_keys=True, allow_nan=False)


def writable_jsonl_path(path: PathLike) -> Path:
    """Vet a path rows are about to be written to; return it as a ``Path``.

    Writers emit plain text, while every reader gunzips a ``.gz`` path
    (:func:`iter_jsonl`), so rows written under such a name could never
    be read back: resume and ``repro analyze`` would both fail on the
    file.  Refuse the name instead of writing it.
    """
    target = Path(path)
    if target.suffix == ".gz":
        raise ValueError(
            f"cannot write rows to {target}: JSONL is written uncompressed; "
            f"write to {target.with_suffix('')} and gzip the finished file"
        )
    return target


def append_jsonl(path: PathLike, row: dict) -> Path:
    """Append one row to a JSONL file (created, with parents, if missing).

    The file handle is flushed before returning so a crash after the
    call never loses the row.
    """
    target = writable_jsonl_path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    with target.open("a", encoding="utf-8") as handle:
        handle.write(dump_row(row) + "\n")
        handle.flush()
    return target


def write_jsonl(path: PathLike, rows: Iterable[dict]) -> Path:
    """Write (overwrite) a JSONL file from an iterable of rows."""
    target = writable_jsonl_path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    with target.open("w", encoding="utf-8") as handle:
        for row in rows:
            handle.write(dump_row(row) + "\n")
    return target


def iter_jsonl(path: PathLike, *, skip_partial_tail: bool = True) -> Iterator[dict]:
    """Stream the rows of a JSONL file one line at a time.

    The lazy counterpart of :func:`read_jsonl` — a multi-gigabyte sweep
    file never needs to be resident in memory.  With
    ``skip_partial_tail`` (the default) a final line without a
    terminating newline is silently dropped — whether or not its prefix
    happens to parse: that is exactly the state an interrupted writer
    leaves behind (each writer emits ``row + "\\n"`` in one write), and
    the resume logic simply re-runs the affected cell after
    :func:`truncate_partial_tail` removes the bytes.  Malformed
    newline-terminated lines always raise ``ValueError``.

    Files ending in ``.gz`` are decompressed transparently, so archived
    sweeps can be analysed without unpacking.
    """
    source = Path(path)
    with _open_text(source) as handle:
        for lineno, line in enumerate(handle):
            if skip_partial_tail and not line.endswith("\n"):
                return  # unterminated tail: an interrupted writer's bytes
            stripped = line.strip()
            if not stripped:
                continue
            try:
                parsed = json.loads(stripped)
            except json.JSONDecodeError:
                raise ValueError(f"{source}:{lineno + 1}: invalid JSONL line")
            if not isinstance(parsed, dict):
                raise ValueError(f"{source}:{lineno + 1}: JSONL row is not an object")
            yield parsed


def read_jsonl(path: PathLike, *, skip_partial_tail: bool = True) -> List[dict]:
    """Read every row of a JSONL file (eager form of :func:`iter_jsonl`)."""
    return list(iter_jsonl(path, skip_partial_tail=skip_partial_tail))


def truncate_partial_tail(path: PathLike) -> int:
    """Remove a trailing partial line left by an interrupted writer.

    Appending after a partial line would glue two rows into one
    malformed line and permanently corrupt the stream, so writers that
    resume an existing file call this first.  Returns the number of
    bytes removed (0 when the file is absent, empty or newline-clean).
    """
    target = Path(path)
    if not target.exists():
        return 0
    data = target.read_bytes()
    if not data or data.endswith(b"\n"):
        return 0
    cut = data.rfind(b"\n") + 1  # 0 when the file is a single partial line
    # In-place truncation: only the tail bytes are touched, so a crash
    # here cannot damage the completed rows the way a full rewrite could.
    with target.open("r+b") as handle:
        handle.truncate(cut)
    return len(data) - cut
