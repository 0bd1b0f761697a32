"""Catalog of tables known to a :class:`repro.sqlengine.engine.Database`."""

from __future__ import annotations

from collections.abc import Iterator

from repro.errors import CatalogError
from repro.sqlengine.table import Table


class Catalog:
    """Name → table mapping with case-insensitive lookups."""

    def __init__(self) -> None:
        self._tables: dict[str, Table] = {}
        # Schema version: bumped whenever the set of tables or a table's
        # column names change, so cached query plans (which bake in column
        # names and nothing else of a table) can be invalidated.  Replacing a
        # table by one with the same column names keeps it: the plans stand.
        self.version = 0

    @staticmethod
    def _key(name: str) -> str:
        return name.lower()

    def register(self, table: Table, replace: bool = False) -> None:
        """Register ``table`` under its own name."""
        key = self._key(table.name)
        replaced = self._tables.get(key)
        if replaced is not None and not replace:
            raise CatalogError(f"table {table.name!r} already exists")
        self._tables[key] = table
        if replaced is None or replaced.column_names != table.column_names:
            self.version += 1

    def drop(self, name: str, if_exists: bool = False) -> None:
        key = self._key(name)
        if key not in self._tables:
            if if_exists:
                return
            raise CatalogError(f"table {name!r} does not exist")
        del self._tables[key]
        self.version += 1

    def get(self, name: str) -> Table:
        try:
            return self._tables[self._key(name)]
        except KeyError:
            raise CatalogError(f"table {name!r} does not exist") from None

    def has(self, name: str) -> bool:
        return self._key(name) in self._tables

    def table_names(self) -> list[str]:
        return [table.name for table in self._tables.values()]

    def __iter__(self) -> Iterator[Table]:
        return iter(self._tables.values())

    def __len__(self) -> int:
        return len(self._tables)
