"""Disk cache for symmetric group character tables.

One JSON file per k, written atomically (temp file then rename) so a
crashed writer can never leave a half-written table behind.  Anything
unexpected on load (bad JSON, wrong format version, inconsistent shape, a
trivial character that is not all ones, dimensions whose squares do not
sum to k!) is treated as absent and the table gets rebuilt.
"""

from __future__ import annotations

import json
import math
import os
import tempfile
from pathlib import Path

from .characters import CharacterTable
from .partitions import Partition, partitions_of

FORMAT_VERSION = 1


def table_path(k: int, cache_dir: str | os.PathLike) -> Path:
    return Path(cache_dir) / f"char_table_k{k}.json"


def load_table(k: int, cache_dir: str | os.PathLike) -> CharacterTable | None:
    path = table_path(k, cache_dir)
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError):
        return None
    try:
        if doc["format"] != FORMAT_VERSION or doc["k"] != k:
            return None
        labels = [Partition.parse(s) for s in doc["labels"]]
        classes = [Partition.parse(s) for s in doc["classes"]]
        values = [[int(v) for v in row] for row in doc["values"]]
        if classes != labels or labels != partitions_of(k) or len(values) != len(labels):
            return None
        if any(len(row) != len(labels) for row in values):
            return None
        if any(v != 1 for v in values[0]):
            return None
        if sum(row[-1] ** 2 for row in values) != math.factorial(k):
            return None
    except (KeyError, TypeError, ValueError):
        return None
    return CharacterTable(k, labels, values)


def save_table(table: CharacterTable, cache_dir: str | os.PathLike) -> Path:
    path = table_path(table.k, cache_dir)
    path.parent.mkdir(parents=True, exist_ok=True)
    doc = {
        "format": FORMAT_VERSION,
        "k": table.k,
        "labels": [str(lab) for lab in table.labels],
        "classes": [str(mu) for mu in table.classes],
        "values": [[str(v) for v in row] for row in table.values],
    }
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
    return path
