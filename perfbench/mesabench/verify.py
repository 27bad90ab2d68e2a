"""The correctness check: served envelopes against an in-process engine.

The reference for a query is what a fresh :class:`ExplanationPipeline`
over the same table, with the config the server applies, returns for it;
an engine error becomes the status the HTTP API maps it to, with its
message.  Both sides compare as canonical JSON with the wall-clock fields
stripped.

References are computed outside the timed phase.  They are memoised on
disk under a fingerprint of the program's source files, the table and the
query, so one checkout computes each reference once.
"""

from __future__ import annotations

import hashlib
import json
import os
from typing import Dict, List, Optional, Sequence, Tuple

from repro.engine.config import MESAConfig
from repro.engine.pipeline import ExplanationPipeline
from repro.exceptions import (ConfigurationError, ExplanationError,
                              MissingDataError, QueryError)
from repro.table.table import Table

from mesabench.corpus import query_identity
from mesabench.loadgen import error_status

#: ("ok", canonical envelope) or (HTTP status, error message).
Expected = Tuple[str, str]

#: Engine errors and the status the HTTP API answers them with.
ENGINE_ERRORS = (((QueryError, ExplanationError, ConfigurationError), "400"),
                 (MissingDataError, "422"))


def matches(status: str, payload, expected: Expected) -> bool:
    """Whether one served answer equals its reference."""
    if status != expected[0]:
        return False
    if status == "ok":
        return payload.canonical_json() == expected[1]
    return str(payload) == expected[1]


def served_config(bundle) -> MESAConfig:
    """The engine config ``python -m repro.serving`` gives this bundle."""
    return MESAConfig(excluded_columns=tuple(bundle.id_columns),
                      n_jobs=1).with_overrides(permutation_early_exit=True,
                                               speculative_search=True)


def merged_table(table: Table, batches: Sequence[List[Dict]]) -> Table:
    """``table`` with ``batches`` appended, the way ``append_rows`` does."""
    for rows in batches:
        extra = Table.from_rows(list(rows), columns=list(table.column_names),
                                name=table.name)
        table = table.concat_rows(extra)
    return table


def source_fingerprint(root: str) -> str:
    digest = hashlib.sha256()
    src = os.path.join(root, "src")
    for directory, subdirs, files in os.walk(src):
        subdirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(directory, name)
                digest.update(os.path.relpath(path, src).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return digest.hexdigest()[:16]


class References:
    """Expected answers for one table, memoised on disk."""

    def __init__(self, root: str, cache_dir: str, bundle,
                 batches: Sequence[List[Dict]] = ()):
        self.bundle = bundle
        self.batches = list(batches)
        identity = json.dumps([bundle.name, bundle.table.n_rows,
                               self.batches], sort_keys=True)
        table_key = hashlib.sha256(identity.encode()).hexdigest()[:16]
        os.makedirs(cache_dir, exist_ok=True)
        self.path = os.path.join(
            cache_dir, f"{source_fingerprint(root)}-{table_key}.json")
        self._known: Dict[str, Expected] = {}
        if os.path.exists(self.path):
            with open(self.path) as handle:
                self._known = {key: tuple(value)
                               for key, value in json.load(handle).items()}
        self._pipeline: Optional[ExplanationPipeline] = None
        self.computed = 0

    def _engine(self) -> ExplanationPipeline:
        if self._pipeline is None:
            table = merged_table(self.bundle.table, self.batches)
            self._pipeline = ExplanationPipeline(
                table, self.bundle.knowledge_graph,
                self.bundle.extraction_specs,
                config=served_config(self.bundle))
        return self._pipeline

    def expected(self, query) -> Expected:
        key = query_identity(query) + "|" + str(query.name)
        if key not in self._known:
            try:
                envelope = self._engine().explain(query).to_envelope()
                self._known[key] = ("ok", envelope.canonical_json())
            except (QueryError, ExplanationError, ConfigurationError,
                    MissingDataError) as error:
                self._known[key] = (error_status(error, ENGINE_ERRORS),
                                    str(error))
            self.computed += 1
        return self._known[key]

    def save(self) -> None:
        if self.computed:
            with open(self.path + ".tmp", "w") as handle:
                json.dump(self._known, handle)
            os.replace(self.path + ".tmp", self.path)
