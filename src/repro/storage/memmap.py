"""Out-of-core columnar graded lists backed by memory-mapped files.

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

An object's *code* is its lookup row.  The build writes each sorted
position's code, and TA's bulk round reads the source by code: a window
of the sorted list is a slice of that column and a random probe is
``lookup_grades[codes]``, with no id in between.  Every source over one
object set has the same lookup column, so the manifest fingerprints it,
and sources with equal fingerprints share their codes
(:func:`~repro.core.sources.shared_object_codes`).  Only answers are
decoded back to ids, by reading their lookup rows from the file.

Layout of a source directory::

    manifest.json     format marker, count, id dtype, file map,
                      code dtype, lookup-id fingerprint
    ids.dat           object ids, canonical sorted order
    grades.dat        float64 grades, same order
    lookup_ids.dat    object ids, ascending by raw value
    lookup_grades.dat float64 grades, lookup order
    codes.dat         int32 lookup row of each sorted position

The fingerprint is a blake2b digest of the lookup id column's bytes,
its dtype and its count (a weak hash could collide and silently merge
two object sets).  A directory written before the code column existed
has neither entry; it opens and answers the same, coding ids per run.

The data files are raw little-endian array dumps (deliberately not
``.npy``: the repository's artifact guard rejects stray ``.npy`` files,
and the manifest already carries the dtype).  The manifest's file map
may alias entries — :func:`build_synthetic_memmap` writes ids in
ascending order with strictly decreasing grades, so the lookup columns
*are* the primary columns, and its ids ``0..N-1`` *are* the codes: the
directory holds each column once.

Object ids are either all ``str`` (stored as a fixed-width ``<U`` column)
or all ``int`` (stored as ``int64``); grades are validated in one
vectorized pass at build time (:func:`~repro.core.sources.
validate_grade_array`), the same bulk check :class:`ArraySource` uses.
:func:`verify_memmap` re-checks an existing directory end to end —
manifest, file sizes, grade bounds and order, lookup order, the
fingerprint, the code column (which also proves the two orders hold the
same ids), and a sampled cross-check that random access agrees with
sorted access.

Accounting and determinism are inherited wholesale: the cursor and the
:class:`~repro.core.sources.GradedSource` base class charge accesses
exactly as for every other backend, and the construction order is the
one :class:`ArraySource` uses, so answers, tie-breaks, costs, and traces
are byte-identical across the two (the storage conformance suite
enforces this differentially).
"""

from __future__ import annotations

import hashlib
import json
import mmap as _mmap_module
import os
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as _np

from repro.core.graded import ObjectId
from repro.core.sources import GradedSource, validate_grade_array
from repro.errors import StorageError, UnknownObjectError
from repro.kernels import ColumnCodes, canonical_order

#: manifest file name inside a source directory
MANIFEST_NAME = "manifest.json"
#: format marker checked on open; bump on incompatible layout changes
MEMMAP_FORMAT = "repro-memmap-v1"

_REQUIRED_FILES = ("ids", "grades", "lookup_ids", "lookup_grades")

_INT64_MIN, _INT64_MAX = -(2**63), 2**63 - 1


def _fingerprinter(dtype, count: int):
    """A blake2b digest seeded with an id column's dtype and count; the
    column's bytes follow, in as many updates as convenient."""
    return hashlib.blake2b(f"{dtype.str}:{count}:".encode("ascii"), digest_size=32)


def _fingerprint(column, count: int, chunk: int = 1 << 20) -> str:
    """The fingerprint of a lookup id column, read ``chunk`` ids at a time."""
    digest = _fingerprinter(column.dtype, count)
    for start in range(0, count, chunk):
        digest.update(_np.ascontiguousarray(column[start : start + chunk]).data)
    return digest.hexdigest()


def _id_column(ids: List[ObjectId], name: str):
    """Ids as a typed numpy column; all-str or all-int only.

    Mixed or exotic id types have no stable fixed-width encoding, so the
    build rejects them loudly rather than guessing.
    """
    if all(isinstance(i, str) for i in ids):
        # A <U column drops trailing NULs, so such an id would come back
        # as another id or none; one scan of the joined ids spares the
        # per-id test unless some id holds a NUL at all.
        if "\x00" in "".join(ids):
            for object_id in ids:
                if object_id.endswith("\x00"):
                    raise StorageError(
                        f"source {name!r}: object id {object_id!r} ends in "
                        "NUL, which memmap storage cannot represent"
                    )
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
    # A plain ndarray over the map: slicing and gathering a
    # ``numpy.memmap`` subclass costs several times more per call.
    with open(path, "rb") as handle:
        mapping = _mmap_module.mmap(handle.fileno(), 0, access=_mmap_module.ACCESS_READ)
    return _np.frombuffer(mapping, dtype=dtype, count=count)


def _mapping(column):
    """The mmap under a column :func:`_open_column` opened (None for an
    empty column, which maps nothing)."""
    return getattr(column.base, "obj", None)


class _ColumnFile:
    """Rows of a stored column, read from the file rather than through
    a map.

    Decoding answer codes reads a handful of scattered lookup ids; read
    through the map, each would fault 64 KB of the column into the
    resident set (the kernel maps pages around a fault even under
    ``MADV_RANDOM``)."""

    __slots__ = ("path", "dtype", "count")

    def __init__(self, path: str, dtype, count: int) -> None:
        self.path, self.dtype, self.count = path, dtype, count

    def __len__(self) -> int:
        return self.count

    def __getitem__(self, rows):
        size = self.dtype.itemsize
        chunks = []
        with open(self.path, "rb", buffering=0) as handle:
            for row in rows.tolist():
                handle.seek(row * size)
                chunks.append(handle.read(size))
        return _np.frombuffer(b"".join(chunks), dtype=self.dtype)


def _advise_random(column) -> None:
    """Hint the kernel that ``column`` will be accessed randomly.

    Best-effort: empty columns and platforms without ``mmap.madvise``
    are silently left alone.
    """
    buffer = _mapping(column)
    if buffer is None:
        return
    try:
        buffer.madvise(_mmap_module.MADV_RANDOM)
    except (AttributeError, OSError, ValueError):
        pass


class MemmapSource(GradedSource):
    """A graded list served from on-disk memory-mapped columns.

    Opens an existing directory written by :func:`build_memmap` (or
    :func:`build_synthetic_memmap`).  The four id and grade columns are
    mapped read-only, and the code column on its first coded read;
    nothing is materialized up front, so opening an N=10⁸ source is O(1)
    in memory and time.

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
        lookup_ids_path = os.path.join(directory, files["lookup_ids"])
        self._lookup_ids = _open_column(lookup_ids_path, id_dtype, count)
        self._lookup_ids_file = _ColumnFile(lookup_ids_path, id_dtype, count)
        self._lookup_grades = _open_column(
            os.path.join(directory, files["lookup_grades"]), grade_dtype, count
        )
        #: the stored code column (mapped on first use) and the lookup
        #: ids' fingerprint; both absent from directories built before
        #: the column existed, which code their ids per run instead
        self._codes = None
        self._stored = None
        self._codes_path = self._code_dtype = self._fingerprint = None
        if "codes" in files and "lookup_fingerprint" in manifest:
            try:
                self._code_dtype = _np.dtype(manifest["code_dtype"])
            except (KeyError, TypeError) as exc:
                raise StorageError(f"malformed manifest {manifest_path}: {exc}") from exc
            self._codes_path = os.path.join(directory, files["codes"])
            self._fingerprint = (str(manifest["lookup_fingerprint"]),)
        # Random probes binary-search the lookup columns, so sequential
        # readahead (the kernel default) faults in pages that will never
        # be read and inflates the resident set far past the true working
        # set.  MADV_RANDOM keeps each probe to the pages it touches.
        for column in (self._lookup_ids, self._lookup_grades):
            _advise_random(column)

    # -- sorted access ---------------------------------------------------------
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
    def _probe(self, ids: List[ObjectId]):
        """The request positions whose ids can name an object of this
        source, and those ids as a typed column.  An id of the wrong type
        (or an int beyond int64) can only be an unknown object.

        One type test per distinct type covers the whole request; only
        a mixed request filters id by id (``np.asarray(["a", 1])`` would
        coerce ``1`` into a probe for ``"1"``)."""
        if self._id_kind == "str":
            dtype, accepts = None, lambda kind: issubclass(kind, str)
        else:
            dtype, accepts = _np.int64, lambda kind: (
                issubclass(kind, int) and not issubclass(kind, bool)
            )
        if all(map(accepts, set(map(type, ids)))):
            try:
                return slice(None), _np.asarray(ids, dtype=dtype)
            except OverflowError:  # an int beyond int64
                pass
        rows = [
            row
            for row, i in enumerate(ids)
            if accepts(type(i)) and (dtype is None or _INT64_MIN <= i <= _INT64_MAX)
        ]
        return rows, _np.asarray([ids[row] for row in rows], dtype=dtype)

    def _grades_of_many(self, object_ids: Sequence[ObjectId]):
        """One binary search over the lookup columns for the whole
        request."""
        ids = list(object_ids)
        found = _np.zeros(len(ids), dtype=bool)
        grades = _np.zeros(len(ids))
        if ids and self._count:
            rows, probe = self._probe(ids)
            indices = _np.searchsorted(self._lookup_ids, probe)
            clipped = _np.minimum(indices, self._count - 1)
            found[rows] = (indices < self._count) & (self._lookup_ids[clipped] == probe)
            grades[rows] = self._lookup_grades[clipped]
        if not found.all():
            raise UnknownObjectError(
                f"source {self.name!r} holds no object {ids[int(_np.argmin(found))]!r}"
            )
        return grades

    # -- object codes ----------------------------------------------------------
    def _stored_codes(self) -> Optional[ColumnCodes]:
        if self._fingerprint is None:
            return None
        stored = self._stored
        if stored is None:
            stored = self._stored = ColumnCodes(self._fingerprint, [self._lookup_ids_file])
        return stored

    def _code_column(self):
        # Two threads may both map it; either map is the same column.
        column = self._codes
        if column is None:
            column = self._codes = _open_column(
                self._codes_path, self._code_dtype, self._count
            )
        return column

    def _codes_range(self, codes, start: int, count: int):
        if not self._owns_codes(codes):
            return super()._codes_range(codes, start, count)
        stop = start + count
        return self._code_column()[start:stop], self._sorted_grades[start:stop]

    def _grades_of_codes(self, codes, coded):
        if not self._owns_codes(codes):
            return super()._grades_of_codes(codes, coded)
        return self._lookup_grades[coded]

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
        self._stored = None
        for attribute in (
            "_sorted_ids",
            "_sorted_grades",
            "_lookup_ids",
            "_lookup_grades",
            "_codes",
        ):
            column = getattr(self, attribute, None)
            setattr(self, attribute, None)
            if column is None:
                continue
            buffer = _mapping(column)
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
    ordering is :func:`~repro.kernels.canonical_order` — descending
    grade, ties by ascending ``str(id)`` — exactly as :class:`ArraySource`
    computes it, so the two backends are interchangeable
    object-for-object.  Ids must be all-str or all-int and distinct, and
    no str id may end in ``"\\x00"`` (its ``<U`` column would drop it).

    The build materializes the columns in RAM once (it is a loading
    tool, not a query path); for datasets too large for that, write the
    columns incrementally like :func:`build_synthetic_memmap` does.
    """
    ids = list(object_ids)
    values = validate_grade_array(grades, name, ids=ids)
    if len(ids) != values.shape[0]:
        raise StorageError(
            f"source {name!r}: expected one grade per object, got "
            f"{len(ids)} ids and shape {values.shape} grades"
        )
    if len(ids) > _np.iinfo(_np.int32).max:
        raise StorageError(
            f"source {name!r}: {len(ids)} objects exceed the int32 code range"
        )
    ids_column, id_kind = _id_column(ids, name)
    lookup_order = _np.argsort(ids_column, kind="stable")
    lookup_ids = ids_column[lookup_order]
    if bool((lookup_ids[1:] == lookup_ids[:-1]).any()):
        where = int(_np.argmax(lookup_ids[1:] == lookup_ids[:-1]))
        raise StorageError(
            f"source {name!r}: duplicate object id "
            f"{lookup_ids[where].item()!r}"
        )
    lookup_grades = values[lookup_order]
    order = canonical_order(ids, values)
    sorted_ids = ids_column[order]
    sorted_grades = values[order]
    # code = lookup row: invert the lookup permutation, then read it in
    # sorted order
    lookup_row = _np.empty(len(ids), dtype=_np.int32)
    lookup_row[lookup_order] = _np.arange(len(ids), dtype=_np.int32)
    codes = lookup_row[order]

    os.makedirs(directory, exist_ok=True)
    sorted_ids.tofile(os.path.join(directory, "ids.dat"))
    sorted_grades.tofile(os.path.join(directory, "grades.dat"))
    lookup_ids.tofile(os.path.join(directory, "lookup_ids.dat"))
    lookup_grades.tofile(os.path.join(directory, "lookup_grades.dat"))
    codes.tofile(os.path.join(directory, "codes.dat"))
    _write_manifest(
        directory,
        name=name,
        count=len(ids),
        id_kind=id_kind,
        id_dtype=sorted_ids.dtype.str,
        code_dtype=codes.dtype.str,
        lookup_fingerprint=_fingerprint(lookup_ids, len(ids)),
        files={
            "ids": "ids.dat",
            "grades": "grades.dat",
            "lookup_ids": "lookup_ids.dat",
            "lookup_grades": "lookup_grades.dat",
            "codes": "codes.dat",
        },
    )
    return MemmapSource(directory)


def open_memmap(directory: str, *, name: Optional[str] = None) -> MemmapSource:
    """Open an existing memmap source directory."""
    return MemmapSource(directory, name=name)


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
    aliases the lookup columns onto the primary files.  The ids are
    their own lookup rows, so the code column aliases the id file too:
    an N=10⁸ source costs two columns on disk (~1.6 GB), not five.

    This is the 10⁸ spot-check builder for benchmark E24; it never holds
    more than ``chunk`` elements in RAM.
    """
    if count < 0:
        raise StorageError(f"count must be >= 0, got {count}")
    os.makedirs(directory, exist_ok=True)
    denominator = float(count + 1)
    id_dtype = _np.dtype(_np.int64)
    fingerprint = _fingerprinter(id_dtype, count)
    with open(os.path.join(directory, "ids.dat"), "wb") as ids_file, open(
        os.path.join(directory, "grades.dat"), "wb"
    ) as grades_file:
        for start in range(0, count, chunk):
            stop = min(start + chunk, count)
            block = _np.arange(start, stop, dtype=id_dtype)
            block.tofile(ids_file)
            fingerprint.update(block.data)
            ((count - block) / denominator).tofile(grades_file)
    _write_manifest(
        directory,
        name=name,
        count=count,
        id_kind="int",
        id_dtype=id_dtype.str,
        code_dtype=id_dtype.str,
        lookup_fingerprint=fingerprint.hexdigest(),
        files={
            "ids": "ids.dat",
            "grades": "grades.dat",
            # ascending ids with strictly decreasing grades: lookup
            # order == sorted order, so the columns are shared, and the
            # id at each position is its lookup row.
            "lookup_ids": "ids.dat",
            "lookup_grades": "grades.dat",
            "codes": "ids.dat",
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
    grade bounds, the lookup ids' fingerprint, the code column, and a
    sampled cross-check that random access returns exactly the grade
    sorted access delivers.  The code check is one gather,
    ``lookup_ids[codes] == sorted_ids``: as the lookup ids are distinct,
    it proves the codes a bijection onto the lookup rows and the two
    orders the same id set.  A directory without a code column (built
    before it existed) gets that id-set agreement by sorting its id
    column instead, and a note in the report.  Scans run in
    ``chunk``-sized slices so verification of an out-of-core source
    stays out-of-core (except that sort).

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

    notes: List[str] = []
    if source._fingerprint is not None:
        if (_fingerprint(source._lookup_ids, count, chunk),) != source._fingerprint:
            raise StorageError(
                f"{directory}: lookup ids do not match the manifest's fingerprint"
            )
        checks.append("lookup-fingerprint")
        codes = source._code_column()
        for start in range(0, count, chunk):
            rows = _np.asarray(codes[start : start + chunk])
            bad = (rows < 0) | (rows >= count)
            if not bad.any():
                bad = source._lookup_ids[rows] != source._sorted_ids[start : start + chunk]
            if bool(bad.any()):
                raise StorageError(
                    f"{directory}: code {int(rows[int(_np.argmax(bad))])} at sorted "
                    f"position {start + int(_np.argmax(bad))} is not that "
                    "object's lookup row"
                )
        checks.append("codes-are-lookup-rows")
    else:
        notes.append(
            "no code column (built before codes were stored): queries code "
            "ids per run"
        )
        # Same id multiset in both orders (lookup ids are unique, so this
        # proves the two views describe the same objects).  One sort of
        # the primary id column; the only step that is not O(chunk) in
        # memory.
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
        "notes": notes,
    }
