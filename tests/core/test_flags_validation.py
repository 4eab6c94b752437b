"""CompilerFlags rejects nonsensical knob values at construction time.

Before this validation a bad knob surfaced as an obscure failure deep in
plan construction (or silently misbehaved); now the knob is named in the
error.
"""

import pytest

from repro import CompilerFlags
from repro.errors import IVMError, ReproError


def test_defaults_are_valid():
    CompilerFlags()  # must not raise


@pytest.mark.parametrize("size", [0, -5])
def test_batch_size_below_one_rejected(size):
    with pytest.raises(IVMError, match="batch_size"):
        CompilerFlags(batch_size=size)


@pytest.mark.parametrize(
    "steps", [(0,), (5,), (1, 2, 7), (-1, 3), (1, 2, 3, 4, 5)]
)
def test_native_steps_outside_pipeline_rejected(steps):
    with pytest.raises(IVMError, match="native_steps"):
        CompilerFlags(native_steps=steps)


def test_native_steps_error_names_the_invalid_entries():
    with pytest.raises(IVMError, match=r"\(5, 7\)"):
        CompilerFlags(native_steps=(1, 5, 7))


@pytest.mark.parametrize("steps", [(), (1,), (2, 4), (1, 2, 3, 4)])
def test_valid_native_steps_subsets_accepted(steps):
    assert CompilerFlags(native_steps=steps).native_steps == steps


def test_checkpoint_every_negative_rejected():
    with pytest.raises(IVMError, match="checkpoint_every"):
        CompilerFlags(checkpoint_every=-1)


def test_errors_are_catchable_as_repro_errors():
    # Callers catching the library-wide base class see flag errors too.
    with pytest.raises(ReproError):
        CompilerFlags(batch_size=0)
