"""Unit tests for the type system and value semantics."""

import datetime

import pytest

from repro.datatypes import (
    BIGINT,
    BOOLEAN,
    DATE,
    DOUBLE,
    INTEGER,
    VARCHAR,
    cast_value,
    common_super_type,
    sql_compare,
    sql_format_literal,
    type_from_name,
)
from repro.datatypes.types import DataType, TypeId
from repro.errors import TypeError_


class TestTypeNames:
    def test_aliases_resolve(self):
        assert type_from_name("int") == INTEGER
        assert type_from_name("INT4") == INTEGER
        assert type_from_name("bigint") == BIGINT
        assert type_from_name("text") == VARCHAR
        assert type_from_name("FLOAT8") == DOUBLE
        assert type_from_name("bool") == BOOLEAN
        assert type_from_name("date") == DATE

    def test_decimal_maps_to_double(self):
        assert type_from_name("DECIMAL") == DOUBLE
        assert type_from_name("NUMERIC") == DOUBLE

    def test_varchar_width_is_display_only(self):
        t = type_from_name("VARCHAR", 20)
        assert t.id is TypeId.VARCHAR
        assert t.width == 20
        assert str(t) == "VARCHAR(20)"

    def test_unknown_type_raises(self):
        with pytest.raises(TypeError_):
            type_from_name("BLOB")

    def test_numeric_flags(self):
        assert INTEGER.is_numeric and INTEGER.is_integral
        assert DOUBLE.is_numeric and not DOUBLE.is_integral
        assert not VARCHAR.is_numeric


class TestCommonSuperType:
    def test_numeric_promotion(self):
        assert common_super_type(INTEGER, BIGINT).id is TypeId.BIGINT
        assert common_super_type(INTEGER, DOUBLE).id is TypeId.DOUBLE
        assert common_super_type(BIGINT, DOUBLE).id is TypeId.DOUBLE

    def test_same_type(self):
        assert common_super_type(VARCHAR, VARCHAR).id is TypeId.VARCHAR

    def test_date_unifies_with_varchar(self):
        assert common_super_type(DATE, VARCHAR).id is TypeId.VARCHAR

    def test_incompatible_raises(self):
        with pytest.raises(TypeError_):
            common_super_type(BOOLEAN, INTEGER)


class TestCast:
    def test_null_casts_to_null(self):
        for target in (BOOLEAN, INTEGER, DOUBLE, VARCHAR, DATE):
            assert cast_value(None, target) is None

    def test_string_to_integer(self):
        assert cast_value("42", INTEGER) == 42
        assert cast_value(" 7 ", INTEGER) == 7
        assert cast_value("3.9", INTEGER) == 4

    def test_bad_string_to_integer_raises(self):
        with pytest.raises(TypeError_):
            cast_value("hello", INTEGER)

    def test_float_to_integer_rounds(self):
        assert cast_value(2.5, INTEGER) == 2  # banker's rounding
        assert cast_value(3.5, INTEGER) == 4

    def test_nan_to_integer_raises(self):
        with pytest.raises(TypeError_):
            cast_value(float("nan"), INTEGER)

    def test_boolean_casts(self):
        assert cast_value("true", BOOLEAN) is True
        assert cast_value("F", BOOLEAN) is False
        assert cast_value(0, BOOLEAN) is False
        assert cast_value(2, BOOLEAN) is True
        with pytest.raises(TypeError_):
            cast_value("maybe", BOOLEAN)

    def test_to_varchar(self):
        assert cast_value(True, VARCHAR) == "true"
        assert cast_value(1.5, VARCHAR) == "1.5"
        assert cast_value(datetime.date(2024, 6, 9), VARCHAR) == "2024-06-09"

    def test_date_parse(self):
        assert cast_value("2024-06-09", DATE) == datetime.date(2024, 6, 9)
        with pytest.raises(TypeError_):
            cast_value("June 9", DATE)


class TestCompare:
    def test_null_is_incomparable(self):
        assert sql_compare(None, 1) is None
        assert sql_compare("a", None) is None
        assert sql_compare(None, None) is None

    def test_numeric_mixed(self):
        assert sql_compare(1, 1.0) == 0
        assert sql_compare(1, 2.5) == -1
        assert sql_compare(3.5, 2) == 1

    def test_nan_equals_itself_and_sorts_above_every_number(self):
        # It used to compare equal to everything, so a stored NaN matched
        # every numeric `=` a scan evaluated (and none an index probed).
        nan = float("nan")
        assert sql_compare(nan, nan) == 0
        assert sql_compare(nan, float("inf")) == 1
        assert sql_compare(-1, nan) == -1

    def test_strings(self):
        assert sql_compare("apple", "banana") == -1
        assert sql_compare("b", "b") == 0

    def test_booleans(self):
        assert sql_compare(False, True) == -1
        assert sql_compare(True, True) == 0

    def test_bool_vs_number_promotes(self):
        assert sql_compare(True, 1) == 0
        assert sql_compare(False, 1) == -1

    def test_date_vs_iso_string(self):
        d = datetime.date(2024, 1, 2)
        assert sql_compare(d, "2024-01-02") == 0
        assert sql_compare("2024-01-01", d) == -1

    def test_string_vs_number_raises(self):
        with pytest.raises(TypeError_):
            sql_compare("abc", 3)


class TestFormatLiteral:
    def test_null(self):
        assert sql_format_literal(None) == "NULL"

    def test_booleans(self):
        assert sql_format_literal(True) == "TRUE"
        assert sql_format_literal(False) == "FALSE"

    def test_string_escaping(self):
        assert sql_format_literal("o'brien") == "'o''brien'"

    def test_numbers(self):
        assert sql_format_literal(5) == "5"
        assert sql_format_literal(2.5) == "2.5"

    def test_date(self):
        assert sql_format_literal(datetime.date(2024, 6, 9)) == "DATE '2024-06-09'"
