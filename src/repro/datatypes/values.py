"""Runtime value handling: casts, storage coercion, comparisons, literals.

SQL values are represented with plain Python objects: ``None`` for NULL,
``bool``, ``int``, ``float``, ``str``, and :class:`datetime.date`.  All
functions here implement three-valued SQL semantics where it matters:
comparing anything to NULL yields NULL (returned as ``None``).
"""

from __future__ import annotations

import datetime
import math
from typing import Any

from repro.datatypes.types import DataType, TypeId
from repro.errors import TypeError_

_DATE_FORMAT = "%Y-%m-%d"


def _parse_date(text: str) -> datetime.date:
    try:
        return datetime.datetime.strptime(text, _DATE_FORMAT).date()
    except ValueError as exc:
        raise TypeError_(f"cannot cast {text!r} to DATE") from exc


def cast_value(value: Any, target: DataType) -> Any:
    """Cast ``value`` to ``target``, following SQL CAST semantics.

    NULL casts to NULL for every target type.  Invalid casts raise
    :class:`~repro.errors.TypeError_` (matching strict engines rather than
    returning NULL, which makes compiler bugs visible in tests).
    """
    if value is None:
        return None
    tid = target.id
    if tid is TypeId.BOOLEAN:
        if isinstance(value, bool):
            return value
        if isinstance(value, (int, float)):
            return value != 0
        if isinstance(value, str):
            lowered = value.strip().lower()
            if lowered in ("true", "t", "1", "yes"):
                return True
            if lowered in ("false", "f", "0", "no"):
                return False
        raise TypeError_(f"cannot cast {value!r} to BOOLEAN")
    if tid in (TypeId.INTEGER, TypeId.BIGINT):
        if isinstance(value, bool):
            return int(value)
        if isinstance(value, int):
            return value
        if isinstance(value, float):
            if math.isnan(value) or math.isinf(value):
                raise TypeError_(f"cannot cast {value!r} to {target}")
            return round(value)
        if isinstance(value, str):
            try:
                return int(value.strip())
            except ValueError:
                try:
                    return round(float(value.strip()))
                except ValueError as exc:
                    raise TypeError_(f"cannot cast {value!r} to {target}") from exc
        raise TypeError_(f"cannot cast {value!r} to {target}")
    if tid is TypeId.DOUBLE:
        if isinstance(value, bool):
            return float(value)
        if isinstance(value, (int, float)):
            return float(value)
        if isinstance(value, str):
            try:
                return float(value.strip())
            except ValueError as exc:
                raise TypeError_(f"cannot cast {value!r} to DOUBLE") from exc
        raise TypeError_(f"cannot cast {value!r} to DOUBLE")
    if tid is TypeId.VARCHAR:
        if isinstance(value, bool):
            return "true" if value else "false"
        if isinstance(value, datetime.date):
            return value.strftime(_DATE_FORMAT)
        return str(value)
    if tid is TypeId.DATE:
        if isinstance(value, datetime.date):
            return value
        if isinstance(value, str):
            return _parse_date(value)
        raise TypeError_(f"cannot cast {value!r} to DATE")
    raise TypeError_(f"unsupported cast target {target}")


def coerce_for_storage(value: Any, target: DataType) -> Any:
    """Coerce an inserted value to the declared column type.

    Unlike :func:`cast_value` this is what INSERT applies: it accepts values
    that already match and casts compatible ones, so `INSERT INTO t VALUES
    ('3')` works for an INTEGER column, mirroring common engine behaviour.
    """
    if value is None:
        return None
    return cast_value(value, target)


def sql_compare(left: Any, right: Any) -> int | None:
    """Three-valued comparison: -1, 0, 1, or ``None`` when either is NULL.

    Mixed int/float compares numerically; bools compare as bools only with
    bools (to avoid the Python ``True == 1`` trap crossing SQL types);
    dates compare with dates or ISO strings.
    """
    if left is None or right is None:
        return None
    left, right = _comparable_pair(left, right)
    if left < right:
        return -1
    if left > right:
        return 1
    if left == right:
        return 0
    # Only NaN is neither below, above nor equal: it equals NaN and sorts
    # above every number (DuckDB's total order, and the index key order).
    return (left != left) - (right != right)


def _comparable_pair(left: Any, right: Any) -> tuple[Any, Any]:
    if isinstance(left, bool) or isinstance(right, bool):
        if isinstance(left, bool) and isinstance(right, bool):
            return left, right
        # bool vs number: promote through int, as SQL engines do for
        # boolean-to-integer casts.
        return (int(left) if isinstance(left, bool) else left,
                int(right) if isinstance(right, bool) else right)
    if isinstance(left, datetime.date) and isinstance(right, str):
        return left, _parse_date(right)
    if isinstance(left, str) and isinstance(right, datetime.date):
        return _parse_date(left), right
    if isinstance(left, (int, float)) and isinstance(right, (int, float)):
        return left, right
    if isinstance(left, str) and isinstance(right, str):
        return left, right
    if isinstance(left, datetime.date) and isinstance(right, datetime.date):
        return left, right
    if isinstance(left, (int, float)) and isinstance(right, str):
        raise TypeError_(f"cannot compare {left!r} with {right!r}")
    if isinstance(left, str) and isinstance(right, (int, float)):
        raise TypeError_(f"cannot compare {left!r} with {right!r}")
    raise TypeError_(f"cannot compare {left!r} with {right!r}")


def sql_format_literal(value: Any) -> str:
    """Render a Python value as a SQL literal (used by emitters and tools)."""
    if value is None:
        return "NULL"
    if isinstance(value, bool):
        return "TRUE" if value else "FALSE"
    if isinstance(value, (int, float)):
        return repr(value)
    if isinstance(value, datetime.date):
        return f"DATE '{value.strftime(_DATE_FORMAT)}'"
    escaped = str(value).replace("'", "''")
    return f"'{escaped}'"
