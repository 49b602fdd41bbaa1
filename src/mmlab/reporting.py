"""Deterministic report records and writers.

CSV uses '.' decimals, LF line endings and shortest round-trip float
formatting, so identical configurations produce byte-identical files.
Files are written atomically (temp file + rename).
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import tempfile
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .config import RunConfig


def format_value(v) -> str:
    """One CSV cell; a numpy float or bool is spelled as the Python one."""
    if isinstance(v, (bool, np.bool_)):
        return "true" if v else "false"
    if isinstance(v, (float, np.floating)):
        v = float(v)
        if math.isnan(v):
            return "nan"
        if math.isinf(v):
            return "inf" if v > 0 else "-inf"
        return repr(v)
    if v is None:
        return ""
    return str(v)


def canonical_json(doc) -> str:
    return json.dumps(doc, sort_keys=True, indent=2, default=_jsonable) + "\n"


def _jsonable(v):
    if isinstance(v, np.ndarray):
        return v.tolist()
    if isinstance(v, (np.floating, np.integer, np.bool_)):
        return v.item()
    if isinstance(v, tuple):
        return list(v)
    raise TypeError(f"not JSON serialisable: {type(v)!r}")


def atomic_write_text(path: Path, text: str) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def params_hash(params: dict) -> str:
    blob = json.dumps(params, sort_keys=True, default=_jsonable)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:12]


def write_report(outdir, name: str, doc: dict, params: dict,
                 config: RunConfig) -> Path:
    """Write ``doc`` as the JSON report ``<name>-<params_hash(params)>.json``.

    The report's ``metadata`` gains ``params`` and the run configuration
    (other metadata keys are kept), so the bytes depend on the inputs and
    settings only, never on where they land.
    """
    doc = {**doc, "metadata": {**doc.get("metadata", {}), "params": params,
                               "config": config.to_dict()}}
    path = Path(outdir) / f"{name}-{params_hash(params)}.json"
    atomic_write_text(path, canonical_json(doc))
    return path


@dataclass
class ExperimentReport:
    """Tabular record of an experiment run, with full metadata."""

    name: str
    columns: list
    rows: list = field(default_factory=list)
    metadata: dict = field(default_factory=dict)

    def add(self, **kw) -> None:
        self.rows.append([kw.get(c) for c in self.columns])

    def column(self, name: str) -> list:
        i = self.columns.index(name)
        return [r[i] for r in self.rows]

    def csv_text(self) -> str:
        lines = [",".join(self.columns)]
        for row in self.rows:
            lines.append(",".join(format_value(v) for v in row))
        return "\n".join(lines) + "\n"

    def write(self, outdir, config: RunConfig) -> tuple[Path, Path]:
        """Write the JSON report and, beside it, the rows as CSV."""
        doc = {"name": self.name, "columns": list(self.columns),
               "rows": self.rows, "metadata": self.metadata}
        json_path = write_report(outdir, self.name, doc,
                                 self.metadata.get("params", {}), config)
        csv_path = json_path.with_suffix(".csv")
        atomic_write_text(csv_path, self.csv_text())
        return csv_path, json_path
