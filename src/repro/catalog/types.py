"""SQL type system.

The catalog records each column's declared SQL type; several anti-pattern
rules reason about it (Rounding Errors needs to know a type has finite binary
precision, Incorrect Data Type compares declared vs. observed types, Missing
Timezone checks date-time types, Enumerated Types checks for ENUM/SET).
"""
from __future__ import annotations

import enum
import re
from dataclasses import dataclass, field


class TypeFamily(enum.Enum):
    """Coarse-grained type families used by the detection rules."""

    INTEGER = "integer"
    APPROXIMATE_NUMERIC = "approximate_numeric"   # FLOAT / REAL / DOUBLE
    EXACT_NUMERIC = "exact_numeric"               # DECIMAL / NUMERIC
    TEXT = "text"
    BINARY = "binary"
    BOOLEAN = "boolean"
    DATE = "date"
    TIME = "time"
    DATETIME = "datetime"
    UUID = "uuid"
    JSON = "json"
    ENUM = "enum"
    OTHER = "other"


_FAMILY_BY_NAME: dict[str, TypeFamily] = {
    "INT": TypeFamily.INTEGER,
    "INTEGER": TypeFamily.INTEGER,
    "TINYINT": TypeFamily.INTEGER,
    "SMALLINT": TypeFamily.INTEGER,
    "MEDIUMINT": TypeFamily.INTEGER,
    "BIGINT": TypeFamily.INTEGER,
    "SERIAL": TypeFamily.INTEGER,
    "SMALLSERIAL": TypeFamily.INTEGER,
    "BIGSERIAL": TypeFamily.INTEGER,
    "YEAR": TypeFamily.INTEGER,
    "BIT": TypeFamily.INTEGER,
    "FLOAT": TypeFamily.APPROXIMATE_NUMERIC,
    "REAL": TypeFamily.APPROXIMATE_NUMERIC,
    "DOUBLE": TypeFamily.APPROXIMATE_NUMERIC,
    "DOUBLE PRECISION": TypeFamily.APPROXIMATE_NUMERIC,
    "DECIMAL": TypeFamily.EXACT_NUMERIC,
    "NUMERIC": TypeFamily.EXACT_NUMERIC,
    "MONEY": TypeFamily.EXACT_NUMERIC,
    "CHAR": TypeFamily.TEXT,
    "NCHAR": TypeFamily.TEXT,
    "VARCHAR": TypeFamily.TEXT,
    "NVARCHAR": TypeFamily.TEXT,
    "CHARACTER": TypeFamily.TEXT,
    "CHARACTER VARYING": TypeFamily.TEXT,
    "TEXT": TypeFamily.TEXT,
    "TINYTEXT": TypeFamily.TEXT,
    "MEDIUMTEXT": TypeFamily.TEXT,
    "LONGTEXT": TypeFamily.TEXT,
    "CLOB": TypeFamily.TEXT,
    "STRING": TypeFamily.TEXT,
    "BLOB": TypeFamily.BINARY,
    "BYTEA": TypeFamily.BINARY,
    "BINARY": TypeFamily.BINARY,
    "VARBINARY": TypeFamily.BINARY,
    "BOOLEAN": TypeFamily.BOOLEAN,
    "BOOL": TypeFamily.BOOLEAN,
    "DATE": TypeFamily.DATE,
    "TIME": TypeFamily.TIME,
    "DATETIME": TypeFamily.DATETIME,
    "DATETIME2": TypeFamily.DATETIME,
    "TIMESTAMP": TypeFamily.DATETIME,
    "TIMESTAMPTZ": TypeFamily.DATETIME,
    "SMALLDATETIME": TypeFamily.DATETIME,
    "UUID": TypeFamily.UUID,
    "JSON": TypeFamily.JSON,
    "JSONB": TypeFamily.JSON,
    "XML": TypeFamily.JSON,
    "ENUM": TypeFamily.ENUM,
    "SET": TypeFamily.ENUM,
}

_TYPE_RE = re.compile(
    r"^\s*(?P<name>[A-Za-z][A-Za-z0-9_ ]*)\s*(\(\s*(?P<args>[^)]*)\s*\))?\s*(?P<suffix>.*)$"
)

# Value-shape patterns of :func:`infer_type_from_value` and
# :func:`value_has_timezone`.  ``\d`` is any Unicode decimal digit, the
# same set as ``str.isdecimal``, which the guards in front of them use.
_INTEGER_TEXT_RE = re.compile(r"[+-]?\d+")
_DECIMAL_TEXT_RES = (
    re.compile(r"[+-]?\d*\.\d+([eE][+-]?\d+)?"),
    re.compile(r"[+-]?\d+\.\d*([eE][+-]?\d+)?"),
)
_BOOLEAN_TEXTS = frozenset(("true", "false", "t", "f"))
_DATE_TEXT_RE = re.compile(r"\d{4}-\d{2}-\d{2}")
_DATETIME_TEXT_RE = re.compile(
    r"\d{4}-\d{2}-\d{2}[T ]\d{2}:\d{2}(:\d{2}(\.\d+)?)?([+-]\d{2}:?\d{2}|Z)?"
)
_TIME_TEXT_RE = re.compile(r"\d{2}:\d{2}(:\d{2})?")
_UUID_TEXT_RE = re.compile(
    r"[0-9a-fA-F]{8}-[0-9a-fA-F]{4}-[0-9a-fA-F]{4}-[0-9a-fA-F]{4}-[0-9a-fA-F]{12}"
)
_UTC_OFFSET_RE = re.compile(r"([+-]\d{2}:?\d{2}|Z)$")


@dataclass(frozen=True)
class SQLType:
    """A declared SQL column type.

    Attributes:
        name: normalised (upper-case) type name, e.g. ``VARCHAR``.
        length: declared length/precision, e.g. 30 for ``VARCHAR(30)``.
        scale: declared scale for exact numerics, e.g. 2 for ``DECIMAL(10,2)``.
        enum_values: permitted values for ``ENUM('a','b')`` / ``SET(...)``.
        with_timezone: True for ``TIMESTAMP WITH TIME ZONE`` / ``TIMESTAMPTZ``.
        raw: the original type text as written in the DDL.
    """

    name: str
    length: int | None = None
    scale: int | None = None
    enum_values: tuple[str, ...] = ()
    with_timezone: bool = False
    raw: str = ""

    @property
    def family(self) -> TypeFamily:
        return _FAMILY_BY_NAME.get(self.name, TypeFamily.OTHER)

    @property
    def is_numeric(self) -> bool:
        return self.family in (
            TypeFamily.INTEGER,
            TypeFamily.APPROXIMATE_NUMERIC,
            TypeFamily.EXACT_NUMERIC,
        )

    @property
    def is_textual(self) -> bool:
        return self.family is TypeFamily.TEXT

    @property
    def is_temporal(self) -> bool:
        return self.family in (TypeFamily.DATE, TypeFamily.TIME, TypeFamily.DATETIME)

    @property
    def is_approximate(self) -> bool:
        """True for types with finite binary precision (FLOAT/REAL/DOUBLE)."""
        return self.family is TypeFamily.APPROXIMATE_NUMERIC

    @property
    def is_enum(self) -> bool:
        return self.family is TypeFamily.ENUM

    def __str__(self) -> str:
        return self.raw or self.name


def parse_type(text: str) -> SQLType:
    """Parse a SQL type expression (``VARCHAR(30)``, ``DECIMAL(10,2)``,
    ``TIMESTAMP WITH TIME ZONE``, ``ENUM('a','b')``) into a :class:`SQLType`.

    The parser is tolerant: unknown types map to the ``OTHER`` family.
    """
    raw = text.strip()
    if not raw:
        return SQLType(name="UNKNOWN", raw=raw)
    match = _TYPE_RE.match(raw)
    if not match:
        return SQLType(name=raw.upper(), raw=raw)
    name = re.sub(r"\s+", " ", match.group("name")).strip().upper()
    args = match.group("args") or ""
    suffix = (match.group("suffix") or "").upper()

    with_timezone = False
    if "WITH TIME ZONE" in suffix or name == "TIMESTAMPTZ":
        with_timezone = True
    if name.endswith(" WITH TIME ZONE"):
        name = name.replace(" WITH TIME ZONE", "").strip()
        with_timezone = True
    if name.endswith(" WITHOUT TIME ZONE"):
        name = name.replace(" WITHOUT TIME ZONE", "").strip()

    # normalise multi-word names
    if name.startswith("DOUBLE"):
        name = "DOUBLE"
    if name.startswith("CHARACTER VARYING"):
        name = "VARCHAR"

    length: int | None = None
    scale: int | None = None
    enum_values: tuple[str, ...] = ()
    if args:
        if name in ("ENUM", "SET"):
            enum_values = tuple(
                part.strip().strip("'\"") for part in args.split(",") if part.strip()
            )
        else:
            numbers = [p.strip() for p in args.split(",") if p.strip()]
            try:
                if numbers:
                    length = int(numbers[0])
                if len(numbers) > 1:
                    scale = int(numbers[1])
            except ValueError:
                pass
    return SQLType(
        name=name,
        length=length,
        scale=scale,
        enum_values=enum_values,
        with_timezone=with_timezone,
        raw=raw,
    )


def infer_type_from_value(value: object) -> TypeFamily:
    """Infer the type family a Python value naturally belongs to.

    Used by the data analyser to compare observed data against declared
    column types (Incorrect Data Type AP).
    """
    if value is None:
        return TypeFamily.OTHER
    if isinstance(value, bool):
        return TypeFamily.BOOLEAN
    if isinstance(value, int):
        return TypeFamily.INTEGER
    if isinstance(value, float):
        return TypeFamily.APPROXIMATE_NUMERIC
    text = str(value).strip()
    if not text:
        return TypeFamily.TEXT
    # Each guard skips only patterns that cannot match: numbers start with
    # a sign, a point or a digit; dates and times with a digit; a UUID is
    # 36 characters; no boolean spelling is longer than five (lower-casing
    # never shortens a string).
    lead_digit = text[0].isdecimal()
    if lead_digit or text[0] in "+-.":
        if _INTEGER_TEXT_RE.fullmatch(text):
            return TypeFamily.INTEGER
        if "." in text and any(pattern.fullmatch(text) for pattern in _DECIMAL_TEXT_RES):
            return TypeFamily.APPROXIMATE_NUMERIC
    if len(text) <= 5 and text.lower() in _BOOLEAN_TEXTS:
        return TypeFamily.BOOLEAN
    if lead_digit:
        if _DATE_TEXT_RE.fullmatch(text):
            return TypeFamily.DATE
        if _DATETIME_TEXT_RE.fullmatch(text):
            return TypeFamily.DATETIME
        if _TIME_TEXT_RE.fullmatch(text):
            return TypeFamily.TIME
    if len(text) == 36 and _UUID_TEXT_RE.fullmatch(text):
        return TypeFamily.UUID
    return TypeFamily.TEXT


def value_has_timezone(value: object) -> bool:
    """True when a datetime-looking string carries an explicit UTC offset."""
    text = str(value).strip()
    # The date prefix needs ten characters with dashes at 4 and 7.
    if len(text) < 10 or text[4] != "-" or text[7] != "-":
        return False
    return _UTC_OFFSET_RE.search(text) is not None and _DATE_TEXT_RE.match(text) is not None
