"""Unit tests for the BSP(+NUMA) machine model."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import BspMachine, MachineError, MachineSpec, ReproError
from repro.core.serialization import machine_from_dict, machine_to_dict


class TestUniformMachine:
    def test_basic_properties(self):
        machine = BspMachine.uniform(4, g=3, latency=7)
        assert machine.num_procs == 4
        assert machine.g == 3
        assert machine.latency == 7
        assert machine.is_uniform

    def test_default_numa_matrix(self):
        machine = BspMachine.uniform(3)
        expected = np.ones((3, 3)) - np.eye(3)
        assert np.array_equal(machine.numa, expected)

    def test_single_processor(self):
        machine = BspMachine.uniform(1)
        assert machine.average_numa_multiplier == 0.0
        assert machine.comm_multiplier(0, 0) == 0.0

    def test_average_multiplier_uniform(self):
        machine = BspMachine.uniform(8)
        assert machine.average_numa_multiplier == pytest.approx(1.0)

    def test_invalid_parameters(self):
        with pytest.raises(MachineError):
            BspMachine.uniform(0)
        with pytest.raises(MachineError):
            BspMachine.uniform(2, g=-1)
        with pytest.raises(MachineError):
            BspMachine.uniform(2, latency=-0.5)

    @pytest.mark.parametrize(
        "params",
        [
            {"g": float("nan")},
            {"g": float("inf")},
            {"latency": float("nan")},
            {"latency": float("inf")},
        ],
    )
    def test_rejects_non_finite_parameters(self, params):
        with pytest.raises(MachineError, match="finite"):
            BspMachine.uniform(2, **params)

    def test_numa_matrix_is_read_only(self):
        machine = BspMachine.uniform(2)
        with pytest.raises(ValueError):
            machine.numa[0, 1] = 5


class TestNumaHierarchy:
    def test_paper_example_p8_delta3(self):
        """Section 6: P=8, Δ=3 gives λ(1,2)=1, λ(1,{3,4})=3, λ(1,{5..8})=9."""
        machine = BspMachine.numa_hierarchy(8, delta=3)
        assert machine.comm_multiplier(0, 1) == 1
        assert machine.comm_multiplier(0, 2) == 3
        assert machine.comm_multiplier(0, 3) == 3
        for p in (4, 5, 6, 7):
            assert machine.comm_multiplier(0, p) == 9

    def test_max_multiplier_p16_delta4(self):
        """Section 7.3: λ(1,16) = Δ^(log2 P - 1) = 4^3 = 64."""
        machine = BspMachine.numa_hierarchy(16, delta=4)
        assert machine.max_numa_multiplier == 64
        assert machine.comm_multiplier(0, 15) == 64

    def test_symmetry_and_zero_diagonal(self):
        machine = BspMachine.numa_hierarchy(8, delta=2)
        assert np.array_equal(machine.numa, machine.numa.T)
        assert np.all(np.diag(machine.numa) == 0)

    def test_not_uniform(self):
        machine = BspMachine.numa_hierarchy(4, delta=2)
        assert not machine.is_uniform

    def test_requires_power_of_two(self):
        with pytest.raises(MachineError):
            BspMachine.numa_hierarchy(6, delta=2)
        with pytest.raises(MachineError):
            BspMachine.numa_hierarchy(1, delta=2)

    def test_requires_positive_delta(self):
        with pytest.raises(MachineError):
            BspMachine.numa_hierarchy(4, delta=0)

    def test_delta_one_is_uniform(self):
        machine = BspMachine.numa_hierarchy(8, delta=1)
        assert machine.is_uniform


class TestExplicitNuma:
    def test_from_numa_matrix(self):
        numa = np.array([[0.0, 2.0], [3.0, 0.0]])
        machine = BspMachine.from_numa_matrix(numa, g=2, latency=1)
        assert machine.num_procs == 2
        assert machine.comm_multiplier(0, 1) == 2.0
        assert machine.comm_multiplier(1, 0) == 3.0
        assert machine.average_numa_multiplier == pytest.approx(2.5)

    def test_rejects_bad_shapes_and_values(self):
        with pytest.raises(MachineError):
            BspMachine(num_procs=2, numa=np.zeros((3, 3)))
        with pytest.raises(MachineError):
            BspMachine(num_procs=2, numa=np.array([[0, -1], [1, 0]]))
        with pytest.raises(MachineError):
            BspMachine(num_procs=2, numa=np.array([[1.0, 1], [1, 0]]))

    @pytest.mark.parametrize("entry", [float("nan"), float("inf")])
    def test_rejects_non_finite_multipliers(self, entry):
        with pytest.raises(MachineError, match="finite"):
            BspMachine.from_numa_matrix(np.array([[0.0, entry], [1.0, 0.0]]))

    def test_matrix_copied_from_input(self):
        numa = np.array([[0.0, 2.0], [3.0, 0.0]])
        machine = BspMachine.from_numa_matrix(numa)
        numa[0, 1] = 99
        assert machine.comm_multiplier(0, 1) == 2.0


class TestHelpers:
    def test_with_params(self):
        machine = BspMachine.numa_hierarchy(8, delta=3, g=1, latency=5)
        changed = machine.with_params(g=4)
        assert changed.g == 4
        assert changed.latency == 5
        assert np.array_equal(changed.numa, machine.numa)
        changed2 = machine.with_params(latency=9)
        assert changed2.latency == 9
        assert changed2.g == 1

    def test_describe_mentions_kind(self):
        assert "uniform" in BspMachine.uniform(2).describe()
        assert "NUMA" in BspMachine.numa_hierarchy(4, delta=2).describe()


class TestWireNumbers:
    """Counts must be integral and parameters finite at the dict boundary."""

    @pytest.mark.parametrize(
        "field, value",
        [
            ("num_procs", 1.5),
            ("num_procs", True),
            ("num_procs", "4"),
            ("g", float("nan")),
            ("g", float("inf")),
            ("g", True),
            ("latency", float("nan")),
            ("numa_delta", float("nan")),
        ],
    )
    def test_spec_from_dict_rejects(self, field, value):
        data = MachineSpec(4, g=2, latency=3, numa_delta=2).to_dict()
        data[field] = value
        with pytest.raises(MachineError):
            MachineSpec.from_dict(data)

    def test_spec_from_dict_rejects_non_mapping(self):
        with pytest.raises(MachineError, match="mapping"):
            MachineSpec.from_dict([4, 1.0, 5.0])

    def test_spec_from_dict_accepts_integral_float(self):
        spec = MachineSpec.from_dict({"num_procs": 4.0, "g": 2, "latency": 3})
        assert spec.num_procs == 4 and type(spec.num_procs) is int

    @pytest.mark.parametrize(
        "field, value",
        [
            ("num_procs", 1.5),
            ("num_procs", True),
            ("g", float("nan")),
            ("latency", float("inf")),
            ("numa", [[0.0, float("nan")], [1.0, 0.0]]),
        ],
    )
    def test_machine_from_dict_rejects(self, field, value):
        data = machine_to_dict(BspMachine.uniform(2, g=2, latency=3))
        data[field] = value
        with pytest.raises(ReproError):
            machine_from_dict(data)
