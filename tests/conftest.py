"""Shared fixtures for the test suite."""

import os

import pytest

from repro.storage.recordfile import RecordFileWriter
from repro.storage.serialization import (
    STRING_SCHEMA,
    Field,
    FieldType,
    Schema,
)

def pytest_configure(config):
    config.addinivalue_line(
        "markers",
        "chaos: deterministic fault-injection tests (run by the CI chaos job)",
    )


#: The paper's Section 2 WebPage schema, used throughout analyzer tests.
WEBPAGE = Schema(
    "WebPage",
    [
        Field("url", FieldType.STRING),
        Field("rank", FieldType.INT),
        Field("content", FieldType.STRING),
    ],
)


@pytest.fixture
def webpage_schema():
    return WEBPAGE


@pytest.fixture
def webpage_file(tmp_path):
    """A small WebPages record file: 500 rows, rank = i % 50."""
    path = str(tmp_path / "webpages.rf")
    with RecordFileWriter(path, STRING_SCHEMA, WEBPAGE, block_size=2048) as w:
        for i in range(500):
            w.append(
                STRING_SCHEMA.make(f"k{i}"),
                WEBPAGE.make(f"http://x/{i}", i % 50, "c" * 40),
            )
    return path


def write_webpages(path, n, rank_of=lambda i: i % 50, content="c" * 40,
                   block_size=2048):
    """Helper for tests needing custom rank distributions."""
    with RecordFileWriter(str(path), STRING_SCHEMA, WEBPAGE,
                          block_size=block_size) as w:
        for i in range(n):
            w.append(
                STRING_SCHEMA.make(f"k{i}"),
                WEBPAGE.make(f"http://x/{i}", rank_of(i), content),
            )
    return str(path)


def remote_read(path):
    """``session.read(path)`` as a client records it: an op list to hand a
    :class:`~repro.service.QueryServer`'s ``handle`` (its ``.ops``), built
    with the same fluent calls as an in-process Dataset."""
    from repro.api.remote import op_read
    from repro.service.client import RemoteDataset

    return RemoteDataset(None, [op_read(path)])


def metrics_without_wall(result):
    """A job result's metrics minus the scheduling-path observables."""
    d = result.metrics.to_dict()
    # Wall clocks and physical spill bytes exist only under the parallel
    # runner's pool paths, so the cross-runner identity contract
    # excludes them.
    d.pop("wall_seconds")
    d.pop("shuffle_bytes_spilled")
    d.pop("shuffle_bytes_merged")
    # Shared-scan savings are likewise assigned by the scheduling path
    # (repro.batch.multiscan), never by task execution.
    d.pop("shared_scan_groups")
    d.pop("scans_saved")
    d.pop("shared_bytes_saved")
    return d


def index_files(catalog_dir):
    """Names of the index files physically present in a catalog directory."""
    return sorted(n for n in os.listdir(str(catalog_dir))
                  if n.startswith("idx_"))


class Residual:
    """A selection-index residual from a plain ``(key, value)`` predicate,
    which may read the key and every value field."""

    def __init__(self, predicate):
        self.evaluate = predicate

    @staticmethod
    def reads():
        from repro.storage.blockscan import FULL_READ

        return FULL_READ


def write_sorted_index(path, key_schema, value_schema, field, pairs,
                       block_size=None):
    """A selection index (a sorted columnar copy) over ``pairs``, sorted
    stably on ``field``'s order key; returns ``path``."""
    from repro.storage.columnar import INDEX_BLOCK_SIZE, ColumnarFileWriter
    from repro.storage.orderkeys import encode_key

    ftype = value_schema.field(field).ftype
    with ColumnarFileWriter(str(path), key_schema, value_schema,
                            {field: "sorted"},
                            block_size or INDEX_BLOCK_SIZE) as writer:
        for key, value in sorted(pairs, key=lambda kv: encode_key(
                ftype, getattr(kv[1], field))):
            writer.append(key, value)
    return str(path)
