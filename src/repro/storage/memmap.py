"""Out-of-core columnar graded lists backed by ``numpy.memmap``.

The paper's middleware model puts no bound on subsystem size, but the
in-RAM :class:`~repro.core.sources.ArraySource` caps every benchmark
near N=10⁵–10⁶ (ROADMAP item 3).  :class:`MemmapSource` keeps the same
columnar layout — one ids column and one float64 grades column in
canonical ``(-grade, str(id))`` order, plus an id-sorted lookup copy for
random access — but on disk, mapped read-only into the address space.
Sorted access serves ``next_batch_columns`` straight off the primary
columns; random access is a binary search over the lookup columns
(``numpy.searchsorted``), so no Python-side dict of N entries is ever
built.  Peak RSS is then the touched pages, not the dataset.

Layout of a source directory::

    manifest.json     format marker, count, id dtype, file map
    ids.dat           object ids, canonical sorted order
    grades.dat        float64 grades, same order
    lookup_ids.dat    object ids, ascending by raw value
    lookup_grades.dat float64 grades, lookup order

The data files are raw little-endian array dumps (deliberately not
``.npy``: the repository's artifact guard rejects stray ``.npy`` files,
and the manifest already carries the dtype).  The manifest's file map
may alias entries — :func:`build_synthetic_memmap` writes ids in
ascending order with strictly decreasing grades, so the lookup columns
*are* the primary columns and the directory holds each column once.

Object ids are either all ``str`` (stored as a fixed-width ``<U`` column)
or all ``int`` (stored as ``int64``); grades are validated in one
vectorized pass at build time (:func:`~repro.core.sources.
validate_grade_array`), the same bulk check :class:`ArraySource` uses.
:func:`verify_memmap` re-checks an existing directory end to end —
manifest, file sizes, grade bounds and order, lookup order, id-multiset
agreement between the two orders, and a sampled cross-check that random
access agrees with sorted access.

Accounting and determinism are inherited wholesale: the cursor and the
:class:`~repro.core.sources.GradedSource` base class charge accesses
exactly as for every other backend, and the construction lexsort is the
one :class:`ArraySource` uses, so answers, tie-breaks, costs, and traces
are byte-identical across the two (the storage conformance suite
enforces this differentially).
"""

from __future__ import annotations

import json
import mmap as _mmap_module
import os
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as _np

from repro.core.graded import GradedItem, GradedSet, ObjectId
from repro.core.sources import GradedSource, _fast_item, validate_grade_array
from repro.errors import StorageError, UnknownObjectError

#: manifest file name inside a source directory
MANIFEST_NAME = "manifest.json"
#: format marker checked on open; bump on incompatible layout changes
MEMMAP_FORMAT = "repro-memmap-v1"

_REQUIRED_FILES = ("ids", "grades", "lookup_ids", "lookup_grades")


def _id_column(ids: List[ObjectId], name: str):
    """Ids as a typed numpy column; all-str or all-int only.

    Mixed or exotic id types have no stable fixed-width encoding, so the
    build rejects them loudly rather than guessing.
    """
    if all(isinstance(i, str) for i in ids):
        return _np.asarray(ids) if ids else _np.asarray([], dtype="<U1"), "str"
    if all(isinstance(i, int) and not isinstance(i, bool) for i in ids):
        return _np.asarray(ids, dtype=_np.int64), "int"
    raise StorageError(
        f"source {name!r}: memmap storage requires all-str or all-int "
        "object ids"
    )


def _open_column(path: str, dtype, count: int):
    """Map one raw column file read-only, checking its size first."""
    if not os.path.exists(path):
        raise StorageError(f"storage column missing: {path}")
    expected = count * dtype.itemsize
    actual = os.path.getsize(path)
    if actual != expected:
        raise StorageError(
            f"storage column {path} is {actual} bytes, expected {expected} "
            f"({count} x {dtype})"
        )
    if count == 0:
        return _np.empty(0, dtype=dtype)
    return _np.memmap(path, dtype=dtype, mode="r", shape=(count,))


def _advise_random(column) -> None:
    """Hint the kernel that ``column`` will be accessed randomly.

    Best-effort: plain ndarrays (empty columns) and platforms without
    ``mmap.madvise`` are silently left alone.
    """
    buffer = getattr(column, "_mmap", None)
    if buffer is None:
        return
    try:
        buffer.madvise(_mmap_module.MADV_RANDOM)
    except (AttributeError, OSError, ValueError):
        pass


class MemmapSource(GradedSource):
    """A graded list served from on-disk memory-mapped columns.

    Opens an existing directory written by :func:`build_memmap` (or
    :func:`build_synthetic_memmap`).  All four columns are mapped
    read-only; nothing is materialized up front, so opening an N=10⁸
    source is O(1) in memory and time.

    The class is a drop-in :class:`~repro.core.sources.ArraySource`
    replacement: same canonical order, same columnar fast path
    (``supports_columnar``), same accounting through the shared cursor
    and base-class access methods.
    """

    supports_columnar = True

    def __init__(self, directory: str, *, name: Optional[str] = None) -> None:
        manifest_path = os.path.join(directory, MANIFEST_NAME)
        try:
            with open(manifest_path, "r", encoding="utf-8") as handle:
                manifest = json.load(handle)
        except FileNotFoundError:
            raise StorageError(
                f"no memmap source at {directory!r} (missing {MANIFEST_NAME})"
            ) from None
        except (OSError, json.JSONDecodeError) as exc:
            raise StorageError(f"unreadable manifest {manifest_path}: {exc}") from exc
        if manifest.get("format") != MEMMAP_FORMAT:
            raise StorageError(
                f"{manifest_path}: unsupported format "
                f"{manifest.get('format')!r} (expected {MEMMAP_FORMAT!r})"
            )
        try:
            count = int(manifest["count"])
            id_kind = manifest["id_kind"]
            id_dtype = _np.dtype(manifest["id_dtype"])
            files = manifest["files"]
        except (KeyError, TypeError, ValueError) as exc:
            raise StorageError(f"malformed manifest {manifest_path}: {exc}") from exc
        if count < 0 or id_kind not in ("str", "int"):
            raise StorageError(f"malformed manifest {manifest_path}")
        missing = [key for key in _REQUIRED_FILES if key not in files]
        if missing:
            raise StorageError(
                f"manifest {manifest_path} lacks file entries: {missing}"
            )
        super().__init__(name if name is not None else manifest.get("name", "memmap"))
        self.directory = directory
        self._count = count
        self._id_kind = id_kind
        grade_dtype = _np.dtype(_np.float64)
        self._sorted_ids = _open_column(
            os.path.join(directory, files["ids"]), id_dtype, count
        )
        self._sorted_grades = _open_column(
            os.path.join(directory, files["grades"]), grade_dtype, count
        )
        self._lookup_ids = _open_column(
            os.path.join(directory, files["lookup_ids"]), id_dtype, count
        )
        self._lookup_grades = _open_column(
            os.path.join(directory, files["lookup_grades"]), grade_dtype, count
        )
        # Random probes binary-search the lookup columns, so sequential
        # readahead (the kernel default) faults in pages that will never
        # be read and inflates the resident set far past the true working
        # set.  MADV_RANDOM keeps each probe to the pages it touches.
        for column in (self._lookup_ids, self._lookup_grades):
            _advise_random(column)
        #: sorted-prefix depth already touched by :meth:`prefetch_sorted`
        self._warmed = 0

    # -- sorted access ---------------------------------------------------------
    def _item_at(self, index: int) -> Optional[GradedItem]:
        if 0 <= index < self._count:
            return _fast_item(
                self._sorted_ids[index].item(),
                float(self._sorted_grades[index]),
            )
        return None

    def _items_range(self, start: int, count: int) -> List[GradedItem]:
        ids = self._sorted_ids[start : start + count].tolist()
        grades = self._sorted_grades[start : start + count].tolist()
        return [_fast_item(obj, grade) for obj, grade in zip(ids, grades)]

    def _peek_range(self, start: int, count: int) -> List[GradedItem]:
        return self._items_range(start, count)

    def _columns_range(self, start: int, count: int) -> Tuple[List[ObjectId], "object"]:
        """Raw columnar sorted prefix, straight off the mapped files.

        ``tolist()`` converts the id column to plain Python ``str``/
        ``int`` values, so everything downstream (dict keys, traces,
        JSON) sees the same objects as with the in-RAM backends.
        """
        return (
            self._sorted_ids[start : start + count].tolist(),
            self._sorted_grades[start : start + count],
        )

    # -- random access ---------------------------------------------------------
    def _lookup_index(self, object_id: ObjectId) -> Optional[int]:
        """Position of ``object_id`` in the lookup columns, or None."""
        if self._count == 0:
            return None
        if self._id_kind == "str":
            if not isinstance(object_id, str):
                return None
            probe = object_id
        else:
            if not isinstance(object_id, int) or isinstance(object_id, bool):
                return None
            probe = object_id
        try:
            index = int(_np.searchsorted(self._lookup_ids, probe))
        except (OverflowError, ValueError):  # e.g. int beyond int64
            return None
        if index < self._count and self._lookup_ids[index].item() == object_id:
            return index
        return None

    def _grade_of(self, object_id: ObjectId) -> float:
        index = self._lookup_index(object_id)
        if index is None:
            raise UnknownObjectError(
                f"source {self.name!r} holds no object {object_id!r}"
            )
        return float(self._lookup_grades[index])

    def _grades_of_many(self, object_ids: Sequence[ObjectId]) -> Dict[ObjectId, float]:
        ids = list(object_ids)
        if not ids:
            return {}
        want_str = self._id_kind == "str"
        typed = all(
            isinstance(i, str) if want_str
            else (isinstance(i, int) and not isinstance(i, bool))
            for i in ids
        )
        if not typed or self._count == 0:
            # a wrongly-typed probe can only be an unknown object
            return {object_id: self._grade_of(object_id) for object_id in ids}
        probe = _np.asarray(ids) if want_str else _np.asarray(ids, dtype=_np.int64)
        indices = _np.searchsorted(self._lookup_ids, probe)
        clipped = _np.minimum(indices, self._count - 1)
        found = (indices < self._count) & (self._lookup_ids[clipped] == probe)
        if not bool(found.all()):
            missing = ids[int(_np.argmin(found))]
            raise UnknownObjectError(
                f"source {self.name!r} holds no object {missing!r}"
            )
        grades = self._lookup_grades[clipped]
        return dict(zip(ids, grades.tolist()))

    # -- hints -----------------------------------------------------------------
    def prefetch_sorted(self, depth: int, *, executor=None) -> None:
        """Fault in the sorted-prefix pages up to ``depth`` items.

        Free and idempotent: a watermark remembers the touched depth, so
        repeated per-round hints each read only the new tail.  The grade
        pages are read in full (they feed the arithmetic); the id pages
        are sampled one element per page.
        """
        stop = min(depth, self._count)
        if stop <= self._warmed:
            return
        start, self._warmed = self._warmed, stop
        float(_np.sum(self._sorted_grades[start:stop]))
        step = max(1, 4096 // max(1, self._sorted_ids.dtype.itemsize))
        _ = _np.asarray(self._sorted_ids[start:stop:step])

    # -- conveniences ----------------------------------------------------------
    def __len__(self) -> int:
        return self._count

    @property
    def closed(self) -> bool:
        """True once :meth:`close` has released the mapped columns."""
        return self._sorted_ids is None

    def close(self) -> None:
        """Release the mapped columns and their file handles.

        Idempotent.  After close the source must not be accessed; the
        engine calls this from :meth:`MiddlewareEngine.close` so a
        session's memmap handles do not linger until garbage collection
        (which can pin gigabytes of page cache and, on some platforms,
        block directory removal).
        """
        for attribute in (
            "_sorted_ids",
            "_sorted_grades",
            "_lookup_ids",
            "_lookup_grades",
        ):
            column = getattr(self, attribute, None)
            setattr(self, attribute, None)
            if column is None:
                continue
            buffer = getattr(column, "_mmap", None)
            del column
            if buffer is not None:
                try:
                    buffer.close()
                except (BufferError, ValueError):
                    # another live view still references the map; the
                    # buffer closes when that view is collected
                    pass

    def verify(self) -> Dict[str, object]:
        """Run the full :func:`verify_memmap` suite on this directory."""
        return verify_memmap(self.directory)


def build_memmap(
    directory: str,
    object_ids: Sequence[ObjectId],
    grades,
    *,
    name: str = "memmap",
) -> MemmapSource:
    """Write a :class:`MemmapSource` directory and open it.

    Grades are validated in one vectorized pass ([0, 1], finite);
    ordering is the canonical construction lexsort — descending grade,
    ties by ascending ``str(id)`` — exactly as :class:`ArraySource`
    computes it, so the two backends are interchangeable
    object-for-object.  Ids must be all-str or all-int and distinct.

    The build materializes the columns in RAM once (it is a loading
    tool, not a query path); for datasets too large for that, write the
    columns incrementally like :func:`build_synthetic_memmap` does.
    """
    ids = list(object_ids)
    values = validate_grade_array(grades, name)
    if len(ids) != values.shape[0]:
        raise StorageError(
            f"source {name!r}: expected one grade per object, got "
            f"{len(ids)} ids and shape {values.shape} grades"
        )
    ids_column, id_kind = _id_column(ids, name)
    if len(ids) > 1:
        lookup_order = _np.argsort(ids_column, kind="stable")
        lookup_ids = ids_column[lookup_order]
        if bool((lookup_ids[1:] == lookup_ids[:-1]).any()):
            where = int(_np.argmax(lookup_ids[1:] == lookup_ids[:-1]))
            raise StorageError(
                f"source {name!r}: duplicate object id "
                f"{lookup_ids[where].item()!r}"
            )
        lookup_grades = values[lookup_order]
    else:
        lookup_ids, lookup_grades = ids_column, values
    if id_kind == "str":
        tie_break = ids_column
    else:
        tie_break = _np.asarray([str(i) for i in ids]) if ids else ids_column
    order = _np.lexsort((tie_break, -values)) if len(ids) else _np.empty(0, _np.intp)
    sorted_ids = ids_column[order]
    sorted_grades = values[order]

    os.makedirs(directory, exist_ok=True)
    sorted_ids.tofile(os.path.join(directory, "ids.dat"))
    sorted_grades.tofile(os.path.join(directory, "grades.dat"))
    lookup_ids.tofile(os.path.join(directory, "lookup_ids.dat"))
    lookup_grades.tofile(os.path.join(directory, "lookup_grades.dat"))
    _write_manifest(
        directory,
        name=name,
        count=len(ids),
        id_kind=id_kind,
        id_dtype=sorted_ids.dtype.str,
        files={
            "ids": "ids.dat",
            "grades": "grades.dat",
            "lookup_ids": "lookup_ids.dat",
            "lookup_grades": "lookup_grades.dat",
        },
    )
    return MemmapSource(directory)


def open_memmap(directory: str, *, name: Optional[str] = None) -> MemmapSource:
    """Open an existing memmap source directory."""
    return MemmapSource(directory, name=name)


def build_from_items(
    directory: str,
    items: Union[GradedSet, Mapping[ObjectId, float], Iterable[Tuple[ObjectId, float]]],
    *,
    name: str = "memmap",
) -> MemmapSource:
    """:func:`build_memmap` over the mapping shapes ListSource accepts."""
    if isinstance(items, GradedSet):
        mapping: Dict[ObjectId, float] = items.as_dict()
    elif isinstance(items, Mapping):
        mapping = dict(items)
    else:
        mapping = dict(items)
    return build_memmap(
        directory, list(mapping.keys()), list(mapping.values()), name=name
    )


def build_synthetic_memmap(
    directory: str,
    count: int,
    *,
    name: str = "synthetic",
    chunk: int = 1 << 22,
) -> MemmapSource:
    """Write an N-object synthetic source in O(chunk) memory.

    Ids are ``0..count-1`` (int64, ascending) and grades are the
    strictly decreasing sequence ``(count - i) / (count + 1)`` — distinct
    in float64 up to beyond N=10⁸, so there are no ties and the
    ascending-id order *is* the canonical sorted order.  That makes the
    lookup order coincide with the primary order, and the manifest
    aliases the lookup columns onto the primary files: an N=10⁸ source
    costs two columns on disk (~1.6 GB), not four.

    This is the 10⁸ spot-check builder for benchmark E24; it never holds
    more than ``chunk`` elements in RAM.
    """
    if count < 0:
        raise StorageError(f"count must be >= 0, got {count}")
    os.makedirs(directory, exist_ok=True)
    denominator = float(count + 1)
    with open(os.path.join(directory, "ids.dat"), "wb") as ids_file, open(
        os.path.join(directory, "grades.dat"), "wb"
    ) as grades_file:
        for start in range(0, count, chunk):
            stop = min(start + chunk, count)
            block = _np.arange(start, stop, dtype=_np.int64)
            block.tofile(ids_file)
            ((count - block) / denominator).tofile(grades_file)
    _write_manifest(
        directory,
        name=name,
        count=count,
        id_kind="int",
        id_dtype=_np.dtype(_np.int64).str,
        files={
            "ids": "ids.dat",
            "grades": "grades.dat",
            # ascending ids with strictly decreasing grades: lookup
            # order == sorted order, so the columns are shared.
            "lookup_ids": "ids.dat",
            "lookup_grades": "grades.dat",
        },
    )
    return MemmapSource(directory)


def _write_manifest(directory: str, **fields) -> None:
    """Write the manifest atomically (tmp file + rename), last.

    The manifest is the commit record: a crashed build leaves data files
    but no manifest, and :class:`MemmapSource` refuses to open that.
    """
    manifest = {"format": MEMMAP_FORMAT, "version": 1}
    manifest.update(fields)
    tmp_path = os.path.join(directory, MANIFEST_NAME + ".tmp")
    with open(tmp_path, "w", encoding="utf-8") as handle:
        json.dump(manifest, handle, indent=2, sort_keys=True)
        handle.write("\n")
    os.replace(tmp_path, os.path.join(directory, MANIFEST_NAME))


def verify_memmap(
    directory: str, *, chunk: int = 1 << 20, samples: int = 1024
) -> Dict[str, object]:
    """End-to-end integrity check of a memmap source directory.

    Verifies, in order: the manifest and file sizes (by opening), grade
    bounds/finiteness and nonincreasing sorted order, strictly
    increasing lookup ids (which also proves id uniqueness), lookup
    grade bounds, id-multiset agreement between the sorted and lookup
    orders, and a sampled cross-check that random access returns exactly
    the grade sorted access delivers.  Scans run in ``chunk``-sized
    slices so verification of an out-of-core source stays out-of-core
    (except the multiset check, which sorts the id column once).

    Raises :class:`~repro.errors.StorageError` on the first violation;
    returns a small report dict when everything holds.
    """
    source = MemmapSource(directory)
    count = len(source)
    checks: List[str] = ["manifest", "file-sizes"]

    previous = None
    for start in range(0, count, chunk):
        block = _np.asarray(source._sorted_grades[start : start + chunk])
        bad = ~((block >= 0.0) & (block <= 1.0))
        if bool(bad.any()):
            where = start + int(_np.argmax(bad))
            raise StorageError(
                f"{directory}: grade {block[where - start]!r} at sorted "
                f"position {where} is outside [0, 1]"
            )
        if previous is not None and block.size and block[0] > previous:
            raise StorageError(
                f"{directory}: sorted grades increase at position {start}"
            )
        rising = block[1:] > block[:-1]
        if bool(rising.any()):
            where = start + int(_np.argmax(rising))
            raise StorageError(
                f"{directory}: sorted grades increase at position {where + 1}"
            )
        if block.size:
            previous = block[-1]
    checks.append("grades-sorted-nonincreasing")

    previous_id = None
    for start in range(0, count, chunk):
        block = source._lookup_ids[start : start + chunk]
        if previous_id is not None and block.size and not previous_id < block[0]:
            raise StorageError(
                f"{directory}: lookup ids not strictly increasing at "
                f"position {start}"
            )
        rising = block[1:] <= block[:-1]
        if bool(rising.any()):
            where = start + int(_np.argmax(rising))
            raise StorageError(
                f"{directory}: lookup ids not strictly increasing at "
                f"position {where + 1}"
            )
        grades = _np.asarray(source._lookup_grades[start : start + chunk])
        if bool((~((grades >= 0.0) & (grades <= 1.0))).any()):
            raise StorageError(
                f"{directory}: lookup grade outside [0, 1] near position {start}"
            )
        if block.size:
            previous_id = block[-1]
    checks.append("lookup-strictly-increasing")

    # Same id multiset in both orders (lookup ids are unique, so this
    # proves the two views describe the same objects).  One sort of the
    # primary id column; the only step that is not O(chunk) in memory.
    if source._sorted_ids is not source._lookup_ids:
        sorted_view = _np.sort(_np.asarray(source._sorted_ids))
        for start in range(0, count, chunk):
            lhs = sorted_view[start : start + chunk]
            rhs = source._lookup_ids[start : start + chunk]
            if not bool((lhs == rhs).all()):
                raise StorageError(
                    f"{directory}: sorted and lookup columns disagree on the "
                    f"object-id multiset near position {start}"
                )
        del sorted_view
    checks.append("id-multiset-agreement")

    if count:
        positions = _np.unique(
            _np.linspace(0, count - 1, num=min(samples, count)).astype(_np.int64)
        )
        # random access's own binary search, over every sample at once
        probe = source._sorted_ids[positions]
        expected = source._sorted_grades[positions]
        slots = _np.minimum(_np.searchsorted(source._lookup_ids, probe), count - 1)
        found = source._lookup_ids[slots] == probe
        actual = source._lookup_grades[slots]
        bad = ~found | (actual != expected)
        if bool(bad.any()):
            first = int(_np.argmax(bad))
            returned = repr(float(actual[first])) if found[first] else "no such object"
            raise StorageError(
                f"{directory}: random access for {probe[first].item()!r} returned "
                f"{returned}, sorted position {int(positions[first])} says "
                f"{float(expected[first])!r}"
            )
    checks.append("random-vs-sorted-sample")

    return {
        "directory": directory,
        "name": source.name,
        "count": count,
        "id_kind": source._id_kind,
        "checks": checks,
    }
