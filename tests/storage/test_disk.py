"""Unit tests for the virtual clock and simulated disk."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.storage.disk import (
    IOCostModel,
    IOCounters,
    QueryLane,
    SimulatedDisk,
    VirtualClock,
)

#: name -> (entry point, charges the global disk, charges the active lane)
CHARGES = {
    "read_pages": (SimulatedDisk.read_pages, True, True),
    "write_pages": (SimulatedDisk.write_pages, True, True),
    "read_control_bytes": (SimulatedDisk.read_control_bytes, True, True),
    "write_control_bytes": (SimulatedDisk.write_control_bytes, True, True),
    "charge_cpu_tuples": (SimulatedDisk.charge_cpu_tuples, True, True),
    "absorbed_read_pages": (SimulatedDisk.absorbed_read_pages, False, True),
    "absorbed_cpu_tuples": (SimulatedDisk.absorbed_cpu_tuples, False, True),
    "shared_read_pages": (SimulatedDisk.shared_read_pages, True, False),
}


def disk_with_lane(cost_model=None):
    disk = SimulatedDisk(cost_model=cost_model or IOCostModel())
    disk.set_lane(QueryLane(disk.cost_model))
    return disk


def clocks(disk):
    return (repr(disk.now), repr(disk.lane.now))


class TestVirtualClock:
    def test_starts_at_zero(self):
        assert VirtualClock().now == 0.0

    def test_advance_accumulates(self):
        clock = VirtualClock()
        clock.advance(2.5)
        clock.advance(1.0)
        assert clock.now == pytest.approx(3.5)

    def test_advance_returns_amount(self):
        assert VirtualClock().advance(4.0) == 4.0

    def test_negative_advance_rejected(self):
        with pytest.raises(ValueError):
            VirtualClock().advance(-1.0)

    def test_custom_start(self):
        assert VirtualClock(start=10.0).now == 10.0


class TestIOCostModel:
    def test_default_write_read_ratio_matches_paper_crossover(self):
        """w/r = 2.5 places the GoBack/DumpState crossover at ~0.286,
        matching the paper's observed ~0.28 (Figure 8)."""
        m = IOCostModel()
        crossover = m.page_read_cost / (m.page_read_cost + m.page_write_cost)
        assert crossover == pytest.approx(1 / 3.5)

    def test_pages_for_bytes_rounds_up(self):
        m = IOCostModel(page_bytes=1000)
        assert m.pages_for_bytes(1) == 1
        assert m.pages_for_bytes(1000) == 1
        assert m.pages_for_bytes(1001) == 2

    def test_pages_for_zero_bytes(self):
        assert IOCostModel().pages_for_bytes(0) == 0


class TestSimulatedDisk:
    def test_read_pages_charges_clock(self):
        disk = SimulatedDisk()
        cost = disk.read_pages(4)
        assert cost == pytest.approx(4.0)
        assert disk.now == pytest.approx(4.0)
        assert disk.counters.pages_read == 4

    def test_write_pages_costs_more_than_reads(self):
        disk = SimulatedDisk()
        read = disk.read_pages(10)
        write = disk.write_pages(10)
        assert write > read
        assert disk.counters.pages_written == 10

    def test_control_bytes_charged_as_pages(self):
        disk = SimulatedDisk()
        disk.write_control_bytes(100)
        assert disk.counters.control_bytes_written == 100
        assert disk.counters.pages_written == 1

    def test_cpu_tuple_charge_small_relative_to_io(self):
        disk = SimulatedDisk()
        cpu = disk.charge_cpu_tuples(1)
        assert cpu < disk.cost_model.page_read_cost / 100

    def test_cost_estimation_does_not_charge(self):
        disk = SimulatedDisk()
        assert disk.cost_of_page_reads(5) == pytest.approx(5.0)
        assert disk.cost_of_page_writes(2) == pytest.approx(5.0)
        assert disk.now == 0.0

    def test_negative_counts_rejected(self):
        """Time never runs backwards: every charge entry point refuses a
        negative count and leaves every counter untouched."""
        disk = disk_with_lane()
        for name, (charge, _, _) in CHARGES.items():
            with pytest.raises(ValueError):
                charge(disk, -1)
            assert disk.counters == IOCounters(), name
            assert disk.lane.counters == IOCounters(), name
        assert clocks(disk) == ("0.0", "0.0")

    @given(
        calls=st.lists(
            st.tuples(st.sampled_from(sorted(CHARGES)), st.integers(0, 50_000))
        )
    )
    def test_now_never_decreases(self, calls):
        disk = disk_with_lane()
        for name, n in calls:
            charge, on_disk, on_lane = CHARGES[name]
            before = (disk.now, disk.lane.now)
            charge(disk, n)
            assert disk.now >= before[0] and disk.lane.now >= before[1]
            moved = n > 0
            assert (disk.now > before[0]) == (moved and on_disk)
            assert (disk.lane.now > before[1]) == (moved and on_lane)

    @given(
        charges=st.lists(
            st.tuples(
                st.sampled_from(
                    ["read_pages", "write_pages", "charge_cpu_tuples"]
                ),
                st.integers(0, 40),
            ),
            max_size=30,
        ),
        order=st.randoms(use_true_random=False),
        costs=st.sampled_from(
            [
                IOCostModel(),
                IOCostModel(cpu_tuple_cost=0.0007, page_write_cost=2.3),
                IOCostModel(page_read_cost=0.1, cpu_tuple_cost=1e-7),
            ]
        ),
    )
    def test_clock_is_free_of_charge_order_and_grouping(
        self, charges, order, costs
    ):
        """``charge(n)`` equals ``n`` unit charges, in any permutation:
        bit-identical ``now`` on the global disk and on the lane."""
        grouped = disk_with_lane(costs)
        for name, n in charges:
            getattr(grouped, name)(n)
        units = [name for name, n in charges for _ in range(n)]
        order.shuffle(units)
        split = disk_with_lane(costs)
        for name in units:
            getattr(split, name)(1)
        assert clocks(split) == clocks(grouped)
        assert split.counters == grouped.counters
        assert split.lane.counters == grouped.lane.counters

    def test_cost_model_change_after_construction_is_honoured(self):
        disk = disk_with_lane()
        disk.write_pages(4)
        disk.cost_model.page_write_cost = 10.0
        assert disk.now == disk.lane.now == 40.0
        assert disk.write_pages(1) == 10.0


class TestIOCounters:
    def test_snapshot_is_independent(self):
        disk = SimulatedDisk()
        disk.read_pages(3)
        snap = disk.counters.snapshot()
        disk.read_pages(2)
        assert snap.pages_read == 3
        assert disk.counters.pages_read == 5

    def test_minus_gives_delta(self):
        disk = SimulatedDisk()
        disk.read_pages(3)
        before = disk.counters.snapshot()
        disk.read_pages(4)
        disk.write_pages(1)
        delta = disk.counters.minus(before)
        assert delta.pages_read == 4
        assert delta.pages_written == 1
