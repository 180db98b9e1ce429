"""Database: the top-level container tying the storage pieces together.

A :class:`Database` owns the simulated disk (and hence the virtual clock),
the catalog, and the state store. Query sessions execute against a
database; a SuspendedQuery can be resumed against the same database (same
physical state, per the paper's Section 2 assumptions) or a *replica*
created by :meth:`Database.replicate` (the Grid-migration use case).
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence

from repro.relational.schema import Schema
from repro.storage.catalog import Catalog
from repro.storage.disk import IOCostModel, SimulatedDisk
from repro.storage.heapfile import HeapFile
from repro.storage.index import OrderedIndex
from repro.storage.statefile import StateStore


class Database:
    """Simulated single-node DBMS instance."""

    def __init__(self, cost_model: Optional[IOCostModel] = None):
        self.cost_model = cost_model or IOCostModel()
        self.disk = SimulatedDisk(cost_model=self.cost_model)
        self.catalog = Catalog()
        self.state_store = StateStore(self.disk)

    @property
    def now(self) -> float:
        """Current virtual time."""
        return self.disk.now

    def create_table(
        self,
        name: str,
        schema: Schema,
        rows: Iterable[tuple] = (),
        tuples_per_page: Optional[int] = None,
    ) -> HeapFile:
        """Create, bulk-load (uncharged), and register a table."""
        if tuples_per_page is None:
            tuples_per_page = schema.tuples_per_page(self.cost_model.page_bytes)
        table = HeapFile(
            name, schema, self.disk, tuples_per_page=tuples_per_page
        )
        table.bulk_load(rows)
        self.catalog.register_table(table)
        return table

    def create_index(
        self, name: str, table_name: str, key_column: int
    ) -> OrderedIndex:
        """Build and register an ordered index on a table column."""
        table = self.catalog.table(table_name)
        index = OrderedIndex(name, table, key_column, self.disk)
        self.catalog.register_index(index)
        return index

    def replicate(self) -> "Database":
        """Create a replica with the same tables and a fresh clock.

        Models migrating a suspended query to a replica DBMS (the paper's
        Grid scenario): the replica sees the same physical database state.
        Dumped operator state must be transferred separately (the
        SuspendedQuery carries the payloads).
        """
        replica = Database(cost_model=self.cost_model)
        for name in self.catalog.table_names():
            table = self.catalog.table(name)
            replica.create_table(
                name,
                table.schema,
                rows=table.all_rows(),
                tuples_per_page=table.tuples_per_page,
            )
            stats = self.catalog.stats(name)
            for label, sel in stats.predicate_selectivity.items():
                replica.catalog.set_predicate_selectivity(name, label, sel)
        for index_name in self.catalog.index_names():
            index = self.catalog.index(index_name)
            replica.create_index(index_name, index.table.name, index.key_column)
        return replica
