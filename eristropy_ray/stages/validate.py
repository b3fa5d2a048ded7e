"""Signal-table validation — the reference's ``_validate_dataframe``
(``/root/reference/eristropy/validation.py:5-55``) re-expressed as a
vectorized Arrow check that NEVER mutates its input (the reference coerces
the caller's DataFrame in place; we fail fast instead — SURVEY.md §1.2).

Checks, in reference order: non-empty; required columns present; no
complex/datetime/boolean columns among them; timestamp/value numeric (we
require it rather than coercing); no NaN/inf anywhere in the numeric
columns; at least one signal id. Each violation raises
``SignalValidationError`` with a message naming the offending check.

The signal pipelines (``make_stationary_signals``, ``compute_all_sampen``,
``sampen_efficiency``) call ``validate_signals`` on their input, as the
reference validates at ``stationarity.py:86`` and
``sample_entropy.py:59-62``. Usage as a Dataset stage::

    ds.map_batches(make_validator("signal_id", "ts_us", "value"),
                   batch_format="pyarrow")  # identity pass-through
"""

from __future__ import annotations

import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc


class SignalValidationError(ValueError):
    pass


_REJECTED_TYPES = (
    (pa.types.is_timestamp, "timestamp"),
    (pa.types.is_date, "date"),
    (pa.types.is_boolean, "boolean"),
)


def validate_signal_batch(
    batch: pa.Table,
    signal_id: str = "signal_id",
    timestamp: str = "ts_us",
    value_col: str = "value",
    require_rows: bool = True,
) -> pa.Table:
    """Validate one Arrow batch; returns it unchanged (zero copy)."""
    if require_rows and batch.num_rows == 0:
        raise SignalValidationError("Input is empty")
    required = [signal_id, timestamp, value_col]
    missing = set(required) - set(batch.column_names)
    if missing:
        raise SignalValidationError(f"Missing required columns: {missing}")
    for name in required:
        typ = batch.schema.field(name).type
        for pred, label in _REJECTED_TYPES:
            if pred(typ):
                raise SignalValidationError(
                    f"Column {name!r} has rejected {label} type {typ}"
                )
    for name in (timestamp, value_col):
        typ = batch.schema.field(name).type
        if not (pa.types.is_integer(typ) or pa.types.is_floating(typ)):
            raise SignalValidationError(
                f"Column {name!r} must be numeric, got {typ}"
            )
        col = batch[name]
        if col.null_count:
            raise SignalValidationError(f"Column {name!r} contains nulls/NaN")
        if pa.types.is_floating(typ):
            finite = pc.all(pc.is_finite(col)).as_py()
            if not finite:
                raise SignalValidationError(
                    f"Column {name!r} contains NaN or infinite values"
                )
    if batch[signal_id].null_count == batch.num_rows and batch.num_rows:
        raise SignalValidationError("No signal ids present")
    return batch


def make_validator(
    signal_id: str = "signal_id",
    timestamp: str = "ts_us",
    value_col: str = "value",
):
    """Identity map_batches stage that validates every batch.

    Per-batch emptiness is not an error inside a Dataset (blocks can be
    legitimately empty); dataset-level emptiness is the caller's check.
    """

    def validator(batch: pa.Table) -> pa.Table:
        return validate_signal_batch(
            batch, signal_id, timestamp, value_col, require_rows=False
        )

    return validator


def validate_signals(signals):
    """A pipeline's validation boundary: a DataFrame is checked whole
    (``validate_signal_batch``, so an empty one raises); a Dataset gets
    ``make_validator()`` as its next map and fails when it executes.
    The validated Dataset gets its own copy of the context, which raises
    the map's own exception, so the caller catches a
    ``SignalValidationError`` rather than Ray's ``UserCodeException``
    that names it only in text; the caller's Dataset keeps its context
    (a derived Dataset would share and change it)."""
    import ray.data as rd

    if isinstance(signals, pd.DataFrame):
        validate_signal_batch(pa.Table.from_pandas(signals, preserve_index=False))
        return signals
    validated = rd.Dataset.copy(
        signals.map_batches(make_validator(), batch_format="pyarrow"),
        _deep_copy=True,
    )
    validated.context.raise_original_map_exception = True
    return validated
