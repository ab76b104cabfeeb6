"""Columnar shard backends and the store error hierarchy.

Two interchangeable backends write the same logical tables:

* :class:`ParquetBackend` — Apache Parquet via pyarrow (the ``[store]``
  extra).  Ragged columns are ``large_list<float64>`` arrays.
* :class:`NpzBackend` — pure-numpy ``.npz`` shards, always available, so
  the store works with zero dependencies beyond the core.  Ragged columns
  are stored as a flat ``<name>__values`` array plus ``<name>__offsets``.

Both are bit-exact for float64 payloads; a store records which backend
wrote it in its manifest and readers resolve the same one.  Tables travel
through this module as column dicts: scalar columns are 1-D numpy arrays,
ragged columns are ``(values, offsets)`` pairs with ``len(offsets) ==
rows + 1``.
"""

from __future__ import annotations

import hashlib
import io

import numpy as np

from .schema import RAGGED_COLUMNS, SCALAR_COLUMNS

__all__ = [
    "StoreError",
    "StoreUnavailableError",
    "StoreIntegrityError",
    "Backend",
    "NpzBackend",
    "ParquetBackend",
    "available_backends",
    "default_backend",
    "resolve_backend",
    "rows_to_columns",
    "columns_to_rows",
    "write_shard",
]


class StoreError(RuntimeError):
    """Base error of the persistent feature store."""


class StoreUnavailableError(StoreError, ImportError):
    """A store backend's dependency is not installed.

    Subclasses ImportError so optional-dependency probes
    (``except ImportError``) treat it like the missing module it wraps.
    """


class StoreIntegrityError(StoreError):
    """Stored data failed a checksum or round-trip verification."""


def _pyarrow():
    try:
        import pyarrow as pa
        import pyarrow.parquet as pq
    except ImportError as exc:
        raise StoreUnavailableError(
            "the parquet store backend needs pyarrow, which is not "
            "installed; install the [store] extra (pip install "
            "'.[store]') or use backend='npz' (the zero-dependency "
            "fallback, selected automatically by backend='auto')"
        ) from exc
    return pa, pq


# -- rows <-> columns ----------------------------------------------------------


def rows_to_columns(kind: str, rows: list[dict]) -> dict:
    """Pack a list of row dicts into the columnar table form."""
    columns: dict = {}
    for name, dtype in SCALAR_COLUMNS[kind].items():
        values = [row[name] for row in rows]
        if dtype == "int":
            columns[name] = np.asarray(values, dtype=np.int64)
        else:
            columns[name] = np.asarray([str(v) for v in values], dtype=np.str_)
    for name in RAGGED_COLUMNS[kind]:
        parts = [np.asarray(row[name], dtype=np.float64).ravel() for row in rows]
        offsets = np.zeros(len(parts) + 1, dtype=np.int64)
        if parts:
            np.cumsum([part.size for part in parts], out=offsets[1:])
            values = np.concatenate(parts) if len(parts) > 1 else parts[0].copy()
        else:
            values = np.zeros(0, dtype=np.float64)
        columns[name] = (values.astype(np.float64, copy=False), offsets)
    return columns


def columns_to_rows(kind: str, columns: dict) -> list[dict]:
    """Unpack a columnar table back into row dicts (ragged rows are copies)."""
    scalar_names = list(SCALAR_COLUMNS[kind])
    count = len(columns[scalar_names[0]]) if scalar_names else 0
    rows = [{} for _ in range(count)]
    for name, dtype in SCALAR_COLUMNS[kind].items():
        column = columns[name]
        for index in range(count):
            value = column[index]
            rows[index][name] = int(value) if dtype == "int" else str(value)
    for name in RAGGED_COLUMNS[kind]:
        values, offsets = columns[name]
        for index in range(count):
            rows[index][name] = np.asarray(
                values[offsets[index] : offsets[index + 1]], dtype=np.float64
            ).copy()
    return rows


# -- backends ------------------------------------------------------------------


class Backend:
    """One way of serialising a columnar table to a shard file."""

    name = "backend"
    extension = ""

    def write_table(self, handle, kind: str, columns: dict) -> None:
        """Serialise ``columns`` into ``handle``, a write-only binary file
        that cannot seek (:func:`write_shard` hashes what passes through)."""
        raise NotImplementedError

    def read_table(self, path, kind: str) -> dict:
        raise NotImplementedError


class NpzBackend(Backend):
    """Pure-numpy shard files — the zero-dependency fallback."""

    name = "npz"
    extension = ".npz"

    def write_table(self, handle, kind: str, columns: dict) -> None:
        arrays = {}
        for name, value in columns.items():
            if isinstance(value, tuple):
                arrays[f"{name}__values"], arrays[f"{name}__offsets"] = value
            else:
                arrays[name] = value
        np.savez(handle, **arrays)

    def read_table(self, path, kind: str) -> dict:
        columns: dict = {}
        with np.load(path, allow_pickle=False) as archive:
            loaded = {name: archive[name] for name in archive.files}
        for name in SCALAR_COLUMNS[kind]:
            columns[name] = loaded[name]
        for name in RAGGED_COLUMNS[kind]:
            columns[name] = (loaded[f"{name}__values"], loaded[f"{name}__offsets"])
        return columns


class ParquetBackend(Backend):
    """Apache Parquet shard files via pyarrow (the ``[store]`` extra)."""

    name = "parquet"
    extension = ".parquet"

    def write_table(self, handle, kind: str, columns: dict) -> None:
        pa, pq = _pyarrow()
        fields = {}
        for name, value in columns.items():
            if isinstance(value, tuple):
                values, offsets = value
                fields[name] = pa.LargeListArray.from_arrays(
                    pa.array(offsets, type=pa.int64()),
                    pa.array(np.asarray(values, dtype=np.float64), type=pa.float64()),
                )
            elif value.dtype.kind in "iu":
                fields[name] = pa.array(value, type=pa.int64())
            else:
                fields[name] = pa.array([str(v) for v in value.tolist()], type=pa.string())
        pq.write_table(pa.table(fields), handle)

    def read_table(self, path, kind: str) -> dict:
        pa, pq = _pyarrow()
        table = pq.read_table(path)
        columns: dict = {}
        for name in SCALAR_COLUMNS[kind]:
            column = table.column(name)
            if SCALAR_COLUMNS[kind][name] == "int":
                columns[name] = np.asarray(column.to_numpy(), dtype=np.int64)
            else:
                columns[name] = np.asarray(column.to_pylist(), dtype=np.str_)
        for name in RAGGED_COLUMNS[kind]:
            array = table.column(name).combine_chunks()
            values = np.asarray(array.values.to_numpy(zero_copy_only=False), dtype=np.float64)
            offsets = np.asarray(array.offsets.to_numpy(zero_copy_only=False), dtype=np.int64)
            columns[name] = (values, offsets)
        return columns


class _HashingWriter(io.RawIOBase):
    """A write-only, unseekable file that hashes every byte it passes on.

    Unseekable on purpose: a zip writer (``np.savez``) that can seek goes
    back to patch each member's header after its data, which would change
    bytes already hashed; an unseekable one streams them in order.
    """

    def __init__(self, handle) -> None:
        self.handle = handle
        self.sha256 = hashlib.sha256()

    def writable(self) -> bool:
        return True

    def write(self, data) -> int:
        self.sha256.update(data)
        return self.handle.write(data)


def write_shard(backend: Backend, path, kind: str, columns: dict) -> str:
    """Write one table to the file ``path`` and return its sha256, taken
    over the bytes as they are written: the file is never read back."""
    with open(path, "wb") as handle:
        hashing = _HashingWriter(handle)
        backend.write_table(hashing, kind, columns)
    return hashing.sha256.hexdigest()


BACKENDS = {NpzBackend.name: NpzBackend, ParquetBackend.name: ParquetBackend}


def available_backends() -> tuple[str, ...]:
    """Backend names usable in this environment (npz always; parquet if
    pyarrow imports)."""
    names = [NpzBackend.name]
    try:
        _pyarrow()
    except StoreUnavailableError:
        pass
    else:
        names.insert(0, ParquetBackend.name)
    return tuple(names)


def default_backend() -> str:
    """The backend ``"auto"`` resolves to: parquet when available, else npz."""
    return available_backends()[0]


def resolve_backend(name: str) -> Backend:
    """Instantiate a backend by name (``"auto"`` picks the best available).

    Requesting ``"parquet"`` explicitly without pyarrow raises
    :class:`StoreUnavailableError` naming the ``[store]`` extra.
    """
    if name == "auto":
        name = default_backend()
    if name not in BACKENDS:
        known = ", ".join(sorted(BACKENDS))
        raise StoreError(f"unknown store backend {name!r}; known backends: {known}, auto")
    if name == ParquetBackend.name:
        _pyarrow()
    return BACKENDS[name]()
