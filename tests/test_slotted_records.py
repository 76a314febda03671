"""The records a finished run keeps hold their fields in slots, with no
instance ``__dict__``.

A run keeps every step's chambers, their contents and matrices, and each
observer's view until its report is written, so these records are slotted:
the report's heap peaks while they are all alive.  The dataclass machinery
still works on them: ``fields`` lists the slots, and ``replace`` builds a
copy through the checked constructor.  ``SpectralDecomposition`` keeps its
``__dict__``, where ``cached_property`` stores its ``eigenvectors``.
"""

from dataclasses import FrozenInstanceError, fields, replace

import pytest

from qgas import linalg, spin
from qgas.linalg import HermitianMatrix, StateVector
from qgas.observers import ObserverView
from qgas.protocol import execute, parse
from qgas.protocol.engine import StepTrace
from qgas.scenarios import scenario_text
from qgas.statistics import DensityMatrix
from qgas.thermo import ClassicalContents, CycleVerdict, GasChamber, LedgerStep, QuantumContents

SLOTTED = (
    GasChamber,
    LedgerStep,
    StepTrace,
    QuantumContents,
    ClassicalContents,
    CycleVerdict,
    ObserverView,
    DensityMatrix,
    HermitianMatrix,
    StateVector,
)


@pytest.fixture(scope="module")
def records() -> dict[type, object]:
    """One record of each slotted class, as a quantum and a classical run keep them."""
    quantum = execute(parse(scenario_text("peres_willard_completed"))).result
    classical = execute(parse(scenario_text("jaynes_johann"))).result
    step = quantum.steps[-1]
    chamber = step.chambers[0]
    state = chamber.contents.assembled()
    view = quantum.views[quantum.observers[0].name]
    kept = (
        chamber,
        quantum.ledger.steps[0],
        step,
        chamber.contents,
        classical.steps[-1].chambers[0].contents,
        view.verdict,
        view,
        state,
        state.matrix,
        linalg.make_vector([1.0, 0.0]),
    )
    return {type(record): record for record in kept}


@pytest.mark.parametrize("cls", SLOTTED, ids=lambda cls: cls.__name__)
def test_record_has_slots_and_no_dict(cls, records):
    record = records[cls]
    assert type(record) is cls
    assert cls.__slots__ == tuple(f.name for f in fields(cls))
    assert not hasattr(record, "__dict__")
    with pytest.raises(AttributeError):
        object.__setattr__(record, "extra", 1)  # no slot, no dict to hold it
    with pytest.raises(FrozenInstanceError):
        setattr(record, fields(cls)[0].name, None)


@pytest.mark.parametrize("cls", SLOTTED, ids=lambda cls: cls.__name__)
def test_replace_copies_a_record(cls, records):
    record = records[cls]
    copy = replace(record)
    assert copy == record and copy is not record
    assert not hasattr(copy, "__dict__")


def test_replace_changes_one_field_and_checks_it():
    chamber = GasChamber(0.5, 1.0, 0.5, ClassicalContents({"argon": 1.0}), "upper")
    moved = replace(chamber, label="lower")
    assert (moved.label, moved.volume, moved.contents) == ("lower", 0.5, chamber.contents)
    state = DensityMatrix(spin.z_plus())
    assert replace(state).eigenvalues == state.eigenvalues  # recomputed by the check
    with pytest.raises(ValueError):
        replace(state, eigenvalues=(1.0, 0.0))  # not an init field


def test_spectral_decomposition_keeps_its_dict():
    decomp = linalg.eig_hermitian(spin.z_plus())
    assert decomp.eigenvectors is decomp.eigenvectors
    assert "eigenvectors" in vars(decomp)
