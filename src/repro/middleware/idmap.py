"""Object-ID mapping across subsystems (section 4.2).

"Since we are dealing with multiple subsystems, the 'same' object might
have different identities in different subsystems.  Even if there is
some correspondence between object id's in different subsystems, Garlic
has to be sure that the mapping is one-to-one."

:class:`IdMapping` is a verified bijection between the middleware's
global object ids and one subsystem's local ids.  :class:`MappedSource`
wraps a subsystem's ranked list (which speaks local ids) so algorithms
see global ids throughout; random accesses translate global -> local on
the way in.  Construction fails loudly on any non-bijective
correspondence — the exact failure mode the Garlic implementers had to
guard against.
"""

from __future__ import annotations

from typing import Dict, Mapping

from repro.core.graded import ObjectId
from repro.core.sources import GradedSource, WrapperSource
from repro.errors import IdMappingError


class IdMapping:
    """A bijection global id <-> subsystem-local id.

    ``pairs`` maps global ids to local ids; both directions are indexed.
    Raises :class:`IdMappingError` if two globals share a local id (or
    vice versa — impossible given dict keys, so only the value side needs
    the check).
    """

    def __init__(self, pairs: Mapping[ObjectId, ObjectId]) -> None:
        self._to_local: Dict[ObjectId, ObjectId] = dict(pairs)
        self._to_global: Dict[ObjectId, ObjectId] = {}
        for global_id, local_id in self._to_local.items():
            if local_id in self._to_global:
                other = self._to_global[local_id]
                raise IdMappingError(
                    f"mapping is not one-to-one: global ids {other!r} and "
                    f"{global_id!r} both map to local id {local_id!r}"
                )
            self._to_global[local_id] = global_id

    @classmethod
    def identity(cls, object_ids) -> "IdMapping":
        """The trivial mapping for subsystems that share global ids."""
        return cls({obj: obj for obj in object_ids})

    def to_local(self, global_id: ObjectId) -> ObjectId:
        try:
            return self._to_local[global_id]
        except KeyError:
            raise IdMappingError(
                f"no local id known for global object {global_id!r}"
            ) from None

    def to_global(self, local_id: ObjectId) -> ObjectId:
        try:
            return self._to_global[local_id]
        except KeyError:
            raise IdMappingError(
                f"no global id known for local object {local_id!r}"
            ) from None

    def covers(self, object_ids) -> bool:
        """True if every given global id has a local counterpart."""
        return all(obj in self._to_local for obj in object_ids)

    def __len__(self) -> int:
        return len(self._to_local)


class MappedSource(WrapperSource):
    """A subsystem's ranked list re-keyed to global object ids.

    Sorted access translates local -> global on each delivered item;
    random access translates global -> local before probing.  The access
    counter is shared with the wrapped source, so costs accrue in one
    place no matter which view an algorithm uses.
    """

    _copies_positive_count = True

    def __init__(self, inner: GradedSource, mapping: IdMapping) -> None:
        super().__init__(inner)
        self._mapping = mapping

    def _columns_range(self, start: int, count: int):
        ids, grades = self._inner._columns_range(start, count)
        to_global = self._mapping.to_global
        return [to_global(object_id) for object_id in ids], grades

    def _grades_of_many(self, object_ids):
        to_local = self._mapping.to_local
        return self._inner._grades_of_many([to_local(object_id) for object_id in object_ids])

    def _attribute_random(self, object_ids) -> None:
        # Storage attribution must see the ids the physical layer owns:
        # a sharded source under this wrapper routes by *local* id, so
        # translate before forwarding down the chain.  (Sorted
        # attribution is positional and needs no translation.)
        to_local = self._mapping.to_local
        self._inner._attribute_random(
            [to_local(object_id) for object_id in object_ids]
        )
